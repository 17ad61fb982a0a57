// Columnar party storage for the batched session fast path.
//
// A PartyBlock holds the same n respondents a vector<Party> would -- the
// same private records, the same per-party RNG streams seeded in id order
// -- but stores them flat (row-major records, and per party a short window
// of its engine's outputs instead of the 2.5 KB engine) and executes
// protocol rounds as sweeps over reused buffers instead of per-object
// calls that return freshly allocated vectors. The technique follows
// high-throughput agent-simulation runtimes: batch the per-agent work into
// cache-friendly passes, keep the semantic model (Party) for the spec and
// as the golden reference.
//
// Determinism contract: every publication is bit-identical to driving
// Party objects through the same rounds, for any shard size and thread
// count. Party i's stream is a pure function of its seed (drawn serially
// from the session seeder, in id order), each party's draws happen in the
// same per-party order as Party::PublishIndependent /
// Party::PublishClusters, and parties' streams are mutually independent,
// so sweeps shard freely. Golden-tested against the Party loop in
// tests/session_fast_path_test.cc.

#ifndef MDRR_PROTOCOL_PARTY_BLOCK_H_
#define MDRR_PROTOCOL_PARTY_BLOCK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mdrr/core/clustering.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"

namespace mdrr::protocol {

// Round-2 output bundle: the two controller by-products that fuse into
// the publication sweep -- per-category counts (integer merges commute,
// so they equal a post-hoc histogram) and the per-position decode of
// every published code -- plus, on request, the raw composite codes.
struct ClusterSweepResult {
  // codes[c][i]: party i's publication for cluster c. Filled only when
  // the sweep is asked to collect codes (golden tests, transcript
  // comparisons); the session consumes counts + decoded, so it skips the
  // n x clusters staging columns.
  std::vector<std::vector<uint32_t>> codes;
  // counts[c][y]: how many parties published code y for cluster c.
  std::vector<std::vector<int64_t>> counts;
  // decoded[c][k][i]: position k of party i's cluster-c publication.
  std::vector<std::vector<std::vector<uint32_t>>> decoded;
};

class PartyBlock {
 public:
  // Materializes parties 0..n-1 of `dataset` (row i becomes party i),
  // drawing each party's seed serially from `seeder` -- the identical
  // seed sequence as constructing Party(i, record_i, seeder.engine()())
  // in a loop. The draw windows are filled in the first sweep, sharded
  // and fused with its publications.
  PartyBlock(const Dataset& dataset, Rng& seeder);

  size_t num_parties() const { return num_parties_; }
  size_t num_attributes() const { return num_attributes_; }

  // Round 1: writes party i's per-attribute publication into
  // columns[j][i] for every attribute j, sharded over `num_threads`
  // workers in chunks of `shard_size` parties. Each columns[j] must
  // already have size num_parties(). On the first sweep, each lane batch
  // of parties gets its draw window (FillEnginePrefix, fast_seed.h)
  // immediately before publishing, while the windows are cache-hot.
  void PublishIndependent(const std::vector<RrMatrix>& matrices,
                          size_t shard_size, size_t num_threads,
                          std::vector<std::vector<uint32_t>>* columns);

  // Round 2: composite-encodes each party's true values per cluster
  // (mixed-radix, identical arithmetic to Domain::Encode), randomizes the
  // code, and fuses output-category counting and per-position decode into
  // the same pass. Sharded like PublishIndependent; parties continue
  // their round-1 streams. `collect_codes` additionally materializes the
  // raw composite-code columns (result.codes) for transcript comparisons.
  ClusterSweepResult PublishClusters(const AttributeClustering& clusters,
                                     const std::vector<Domain>& domains,
                                     const std::vector<RrMatrix>& matrices,
                                     size_t shard_size, size_t num_threads,
                                     bool collect_codes = false);

  PartyBlock(const PartyBlock&) = delete;
  PartyBlock& operator=(const PartyBlock&) = delete;

 private:
  // Runs fn(worker, party, draws) for every party, sharded over
  // `num_threads` workers in chunks of `shard_size`, where `draws` (an
  // EnginePrefixDraws) continues the party's stream; fills the windows on
  // the first sweep, one lane batch at a time, and keeps each party's
  // position for the next sweep.
  template <typename Fn>
  void ForEachParty(size_t shard_size, size_t num_threads, Fn&& fn);

  size_t num_parties_ = 0;
  size_t num_attributes_ = 0;
  // Row-major private records: records_[i * num_attributes_ + j].
  std::vector<uint32_t> records_;
  // Per-party seeds, drawn serially in id order at construction.
  std::vector<uint64_t> seeds_;
  // Outputs kept per party: min(4 m, kEngineStateWords). A party makes at
  // most m + clusters <= 2 m Randomize calls of at most two draws each
  // save uniform-int rejection retries, so its window refills only on
  // such a retry or when 4 m exceeds the engine's state size.
  size_t prefix_size_ = 0;
  // Party i's window: prefixes_[i * prefix_size_, (i + 1) * prefix_size_),
  // left unwritten until the first sweep fills it.
  std::unique_ptr<uint64_t[]> prefixes_;
  // consumed_[i]: how many outputs of its engine party i has drawn.
  std::vector<uint32_t> consumed_;
  bool prefixes_filled_ = false;
};

}  // namespace mdrr::protocol

#endif  // MDRR_PROTOCOL_PARTY_BLOCK_H_
