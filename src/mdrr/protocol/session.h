// Party-level simulation of the distributed protocol.
//
// The core library operates on columns for speed; this layer restates the
// same protocols through the actual message flow of the paper: n parties,
// each holding exactly one private record, talking to an untrusted
// controller. RR-Clusters is the two-round interaction of Section 4.1:
//
//   round 1: every party publishes a per-attribute randomized record;
//   the controller computes dependences on the randomized data (Cor. 1),
//   runs Algorithm 1, and broadcasts the clustering;
//   round 2: every party re-randomizes her true record cluster-wise
//   (RR-Joint per cluster at the Section 6.3.2 calibration) and
//   publishes; the controller estimates cluster joints with Eq. (2).
//
// Parties never reveal true values; the controller sees only randomized
// publications. Message counts are accounted per phase.

#ifndef MDRR_PROTOCOL_SESSION_H_
#define MDRR_PROTOCOL_SESSION_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/rr_joint.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/rng/counter_rng.h"
#include "mdrr/rng/rng.h"

namespace mdrr::protocol {

// One respondent: owns her true record and a private RNG. The true record
// is intentionally inaccessible; parties only emit randomized data.
class Party {
 public:
  Party(uint64_t id, std::vector<uint32_t> true_record, uint64_t seed);

  uint64_t id() const { return id_; }
  size_t num_attributes() const { return true_record_.size(); }

  // Round 1: per-attribute randomized publication. `matrices[j]` is the
  // public randomization matrix of attribute j.
  std::vector<uint32_t> PublishIndependent(
      const std::vector<RrMatrix>& matrices);

  // Round 2: cluster-wise publication. For each cluster (a sorted list of
  // attribute indices with its public domain and matrix), the party
  // composes her true values and randomizes the composite code.
  std::vector<uint32_t> PublishClusters(
      const AttributeClustering& clusters, const std::vector<Domain>& domains,
      const std::vector<RrMatrix>& matrices);

 private:
  uint64_t id_;
  std::vector<uint32_t> true_record_;
  Rng rng_;
};

// How the party side of the session is executed. Both produce the same
// transcript, bit for bit; pick by cost.
enum class SessionExecution {
  // The fast path (default): parties stored columnar in a PartyBlock,
  // each keeping a short window of its engine's outputs instead of the
  // engine, filled lane-batched in the first sweep; rounds executed as
  // zero-allocation sweeps with counting and composite-code decode fused
  // into the round-2 pass. Identical output. At 100k Adult parties on a
  // 4-core host a session took 0.10 s at 4 threads and 0.29-0.41 s at 1
  // thread, against 0.79-0.96 s for the 1-thread party loop, which
  // constructs and seeds every Party serially.
  kBatched,
  // The reference semantics: one Party object per respondent, rounds as
  // per-party calls. The batched path is golden-tested against this.
  kPartyLoop,
};

struct SessionOptions {
  double keep_probability = 0.7;
  ClusteringOptions clustering;
  // Keep probability of the round-1 (dependence assessment) publication.
  double round1_keep_probability = 0.7;
  uint64_t seed = 1;
  // Worker threads for the sharded phases (party publications in both
  // rounds, the controller's pairwise statistics, per-cluster counting
  // and decode); 0 means one per hardware core. Party seeds are drawn
  // serially and each party's randomness is self-contained, so the
  // session transcript is bit-identical for any thread count.
  size_t num_threads = 1;
  // Parties per publication batch (the work-distribution grain; never
  // changes results).
  size_t shard_size = 1 << 16;
  // Execution strategy for the party side; never changes results.
  SessionExecution execution = SessionExecution::kBatched;
  // Party randomness policy. kMt19937 (default) is the committed
  // transcript: party seeds drawn serially from one seeder, each party a
  // self-contained engine. kPhilox replaces the per-party engines with
  // element-addressed counter draws -- round-1 attribute j is one philox
  // stream with party i as element i, round-2 cluster c another -- so no
  // per-party seeding pass runs at all and the transcript is additionally
  // invariant under shard grain by construction. A different (still
  // deterministic) transcript from kMt19937; requires kBatched (the
  // per-party reference loop IS the mt19937 seeding semantics, so
  // kPartyLoop + kPhilox is rejected).
  RngKind rng = RngKind::kMt19937;
};

struct SessionResult {
  AttributeClustering clusters;
  // Per-cluster domains and Eq. (2) estimated (projected) joints.
  std::vector<Domain> cluster_domains;
  std::vector<std::vector<double>> cluster_joints;
  // The round-2 randomized data decoded to per-attribute columns.
  Dataset randomized;
  // Epsilon of round 1 (dependence assessment) and round 2 (release);
  // the session total is their sequential composition.
  double round1_epsilon = 0.0;
  double round2_epsilon = 0.0;
  // Party -> controller messages per round (one record each) plus the
  // controller's clustering broadcast.
  uint64_t messages_round1 = 0;
  uint64_t messages_broadcast = 0;
  uint64_t messages_round2 = 0;
};

// Runs the full two-round session over the parties implied by `dataset`
// (row i becomes party i). The dataset is used only to seed the parties'
// private records; the controller path never touches it. The transcript
// (publications, clustering, estimates, decoded release, epsilons,
// message counts) is a pure function of (dataset, options.seed,
// options.rng): execution mode, thread count, and shard grain never
// change it.
StatusOr<SessionResult> RunDistributedSession(const Dataset& dataset,
                                              const SessionOptions& options);

}  // namespace mdrr::protocol

#endif  // MDRR_PROTOCOL_SESSION_H_
