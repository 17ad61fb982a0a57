#include "mdrr/protocol/session.h"

#include <algorithm>
#include <utility>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/core/dependence.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/protocol/party_block.h"
#include "mdrr/stats/frequency.h"

namespace mdrr::protocol {

Party::Party(uint64_t id, std::vector<uint32_t> true_record, uint64_t seed)
    : id_(id), true_record_(std::move(true_record)), rng_(seed) {}

std::vector<uint32_t> Party::PublishIndependent(
    const std::vector<RrMatrix>& matrices) {
  MDRR_CHECK_EQ(matrices.size(), true_record_.size());
  std::vector<uint32_t> published(true_record_.size());
  for (size_t j = 0; j < true_record_.size(); ++j) {
    published[j] = matrices[j].Randomize(true_record_[j], rng_);
  }
  return published;
}

std::vector<uint32_t> Party::PublishClusters(
    const AttributeClustering& clusters, const std::vector<Domain>& domains,
    const std::vector<RrMatrix>& matrices) {
  MDRR_CHECK_EQ(clusters.size(), domains.size());
  MDRR_CHECK_EQ(clusters.size(), matrices.size());
  std::vector<uint32_t> published(clusters.size());
  std::vector<uint32_t> tuple;
  for (size_t c = 0; c < clusters.size(); ++c) {
    tuple.clear();
    for (size_t j : clusters[c]) {
      MDRR_CHECK_LT(j, true_record_.size());
      tuple.push_back(true_record_[j]);
    }
    uint32_t true_code = static_cast<uint32_t>(domains[c].Encode(tuple));
    published[c] = matrices[c].Randomize(true_code, rng_);
  }
  return published;
}

namespace {

// --- Stage helpers shared by both execution paths, so the published
// matrices, domains and epsilon accounting are identical by construction.
// ---

// The round-1 per-attribute designs of Section 4.1, accumulating the
// round's epsilon into `result`.
std::vector<RrMatrix> DesignRound1Matrices(const Dataset& dataset,
                                           const SessionOptions& options,
                                           SessionResult* result) {
  const size_t m = dataset.num_attributes();
  std::vector<RrMatrix> matrices;
  matrices.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    matrices.push_back(RrMatrix::KeepUniform(
        dataset.attribute(j).cardinality(), options.round1_keep_probability));
    result->round1_epsilon += matrices.back().Epsilon();
  }
  return matrices;
}

// The round-2 cluster domains and Section 6.3.2-calibrated designs,
// populating result->cluster_domains and round2_epsilon. Guards the
// product domain before constructing it: uint64 overflow must surface as
// a Status (not a CHECK-abort), and published codes are uint32, so
// oversized clusters get the same cap as RR-Joint.
StatusOr<std::vector<RrMatrix>> DesignClusterMatrices(
    const Dataset& dataset, const SessionOptions& options,
    SessionResult* result) {
  std::vector<RrMatrix> matrices;
  for (const std::vector<size_t>& cluster : result->clusters) {
    MDRR_ASSIGN_OR_RETURN(
        uint64_t cluster_domain_size,
        Domain::CheckedSizeForAttributes(dataset, cluster));
    if (cluster_domain_size > (1ull << 31)) {
      return Status::OutOfRange(
          "cluster joint domain has " +
          std::to_string(cluster_domain_size) +
          " categories; too large to publish as composite codes");
    }
    result->cluster_domains.push_back(
        Domain::ForAttributes(dataset, cluster));
    double budget =
        ClusterEpsilonBudget(dataset, cluster, options.keep_probability);
    matrices.push_back(RrMatrix::OptimalForEpsilon(
        static_cast<size_t>(result->cluster_domains.back().size()), budget));
    result->round2_epsilon += matrices.back().Epsilon();
  }
  return matrices;
}

// Controller: dependences on the round-1 publication (pair grid and
// contingency accumulation sharded), then Algorithm 1. Like every
// controller stage below (ShardedHistogram, EstimateProjectedDistribution,
// DecodeColumnSharded), bit-identical at any thread count and grain.
StatusOr<AttributeClustering> AssessAndCluster(const Dataset& round1_data,
                                               const SessionOptions& options,
                                               size_t shard_size) {
  DependenceShardingOptions sharding;
  sharding.num_threads = options.num_threads;
  sharding.record_chunk_size = shard_size;
  return ClusterAttributes(
      round1_data.Cardinalities(),
      DependenceMatrixSharded(round1_data, DependenceMeasure::kPaperAuto,
                              sharding),
      options.clustering);
}

// --- Reference semantics: one Party object per respondent. The batched
// fast path below is golden-tested against this loop
// (tests/session_fast_path_test.cc), so its structure deliberately stays
// the straightforward reading of the paper's message flow. ---
StatusOr<SessionResult> RunPartyLoopSession(const Dataset& dataset,
                                            const SessionOptions& options) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  const size_t shard_size = std::max<size_t>(1, options.shard_size);
  const size_t threads = options.num_threads;

  // Instantiate the parties. Seeds are drawn serially (the seed sequence
  // is part of the session transcript); after that each party's
  // randomness is self-contained, so publications shard freely with
  // bit-identical output at any thread count.
  Rng seeder(options.seed);
  std::vector<Party> parties;
  parties.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> record(m);
    for (size_t j = 0; j < m; ++j) record[j] = dataset.at(i, j);
    parties.emplace_back(i, std::move(record), seeder.engine()());
  }

  SessionResult result;

  // --- Round 1: per-attribute randomized publication (Section 4.1),
  // parties publishing in sharded batches. ---
  std::vector<RrMatrix> round1_matrices =
      DesignRound1Matrices(dataset, options, &result);
  std::vector<std::vector<uint32_t>> round1_columns(
      m, std::vector<uint32_t>(n));
  ParallelChunks(n, shard_size, threads,
                 [&](size_t /*worker*/, size_t /*shard*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     std::vector<uint32_t> published =
                         parties[i].PublishIndependent(round1_matrices);
                     for (size_t j = 0; j < m; ++j) {
                       round1_columns[j][i] = published[j];
                     }
                   }
                 });
  Dataset round1_data(dataset.schema(), std::move(round1_columns));
  result.messages_round1 = n;

  // Controller: dependences on the randomized data (pair grid and
  // contingency accumulation sharded), then Algorithm 1, then one
  // clustering broadcast to every party.
  MDRR_ASSIGN_OR_RETURN(result.clusters,
                        AssessAndCluster(round1_data, options, shard_size));
  result.messages_broadcast = n;

  // --- Round 2: cluster-wise publication (Section 6.3.2 calibration),
  // again in sharded batches. ---
  MDRR_ASSIGN_OR_RETURN(
      std::vector<RrMatrix> cluster_matrices,
      DesignClusterMatrices(dataset, options, &result));
  const size_t num_clusters = result.clusters.size();
  std::vector<std::vector<uint32_t>> cluster_codes(
      num_clusters, std::vector<uint32_t>(n));
  ParallelChunks(n, shard_size, threads,
                 [&](size_t /*worker*/, size_t /*shard*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     std::vector<uint32_t> published =
                         parties[i].PublishClusters(result.clusters,
                                                    result.cluster_domains,
                                                    cluster_matrices);
                     for (size_t c = 0; c < num_clusters; ++c) {
                       cluster_codes[c][i] = published[c];
                     }
                   }
                 });
  result.messages_round2 = n;

  // Controller: Eq. (2) estimation per cluster, decode Y. Counting is
  // sharded with per-worker integer buffers (merge order immaterial).
  result.randomized = dataset;
  for (size_t c = 0; c < num_clusters; ++c) {
    const Domain& domain = result.cluster_domains[c];
    const std::vector<uint32_t>& codes = cluster_codes[c];
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimated,
        EstimateProjectedDistribution(
            cluster_matrices[c],
            stats::ShardedHistogram(codes.size(),
                                    static_cast<size_t>(domain.size()),
                                    shard_size, threads,
                                    [&codes](size_t i) { return codes[i]; })
                .Proportions(),
            EstimationOptions{threads}));
    result.cluster_joints.push_back(std::move(estimated));

    for (size_t position = 0; position < result.clusters[c].size();
         ++position) {
      result.randomized.SetColumn(
          result.clusters[c][position],
          DecodeColumnSharded(domain, codes, position, shard_size, threads));
    }
  }
  return result;
}

// --- Batched fast path: the same protocol as columnar sweeps over a
// PartyBlock. Publications, clustering input, counts, decode, epsilons
// and message accounting are all bit-identical to the Party loop. ---
StatusOr<SessionResult> RunBatchedSession(const Dataset& dataset,
                                          const SessionOptions& options) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  const size_t shard_size = std::max<size_t>(1, options.shard_size);
  const size_t threads = options.num_threads;

  Rng seeder(options.seed);
  PartyBlock parties(dataset, seeder);

  SessionResult result;

  // Round 1: engines are lane-seeded and publish in one fused sweep.
  std::vector<RrMatrix> round1_matrices =
      DesignRound1Matrices(dataset, options, &result);
  std::vector<std::vector<uint32_t>> round1_columns(
      m, std::vector<uint32_t>(n));
  parties.PublishIndependent(round1_matrices, shard_size, threads,
                             &round1_columns);
  Dataset round1_data(dataset.schema(), std::move(round1_columns));
  result.messages_round1 = n;

  MDRR_ASSIGN_OR_RETURN(result.clusters,
                        AssessAndCluster(round1_data, options, shard_size));
  result.messages_broadcast = n;

  // Round 2: one sweep publishes the composite codes and fuses the
  // controller's counting and per-position decode into the same pass.
  MDRR_ASSIGN_OR_RETURN(
      std::vector<RrMatrix> cluster_matrices,
      DesignClusterMatrices(dataset, options, &result));
  ClusterSweepResult sweep = parties.PublishClusters(
      result.clusters, result.cluster_domains, cluster_matrices, shard_size,
      threads);
  result.messages_round2 = n;

  // Controller: Eq. (2) estimation straight from the fused counts (equal
  // to a post-hoc sharded histogram of the codes), decoded columns moved
  // into the release.
  result.randomized = dataset;
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimated,
        EstimateProjectedDistribution(
            cluster_matrices[c],
            stats::FrequencyTable(std::move(sweep.counts[c])).Proportions(),
            EstimationOptions{threads}));
    result.cluster_joints.push_back(std::move(estimated));
    for (size_t position = 0; position < result.clusters[c].size();
         ++position) {
      result.randomized.SetColumn(result.clusters[c][position],
                                  std::move(sweep.decoded[c][position]));
    }
  }
  return result;
}

// --- Counter (philox) path: the same message flow with element-addressed
// party randomness. Round-1 attribute j draws from philox stream
// kRound1StreamBase + j with party i as element i; round-2 cluster c from
// kRound2StreamBase + c. No per-party seeding pass exists, so the
// transcript is a pure function of (dataset, seed) invariant under thread
// count AND shard grain by construction. The stream bases keep the
// session's philox streams disjoint from the batch engine's column
// streams (small integers) at the same seed. ---
constexpr uint64_t kRound1StreamBase = 1ull << 33;
constexpr uint64_t kRound2StreamBase = 1ull << 34;

StatusOr<SessionResult> RunCounterSession(const Dataset& dataset,
                                          const SessionOptions& options) {
  const size_t n = dataset.num_rows();
  const size_t m = dataset.num_attributes();
  const size_t shard_size = std::max<size_t>(1, options.shard_size);
  const size_t threads = options.num_threads;
  const uint64_t seed = options.seed;

  SessionResult result;

  // Round 1: per-attribute publication, one counter stream per attribute.
  // Each design moves into its oracle: the matrices are not used again.
  std::vector<RrMatrix> round1_matrices =
      DesignRound1Matrices(dataset, options, &result);
  std::vector<std::vector<uint32_t>> round1_columns(m);
  for (size_t j = 0; j < m; ++j) {
    round1_columns[j] =
        AccumulateColumnSharded(
            DirectEncodingOracle(std::move(round1_matrices[j])),
            dataset.column(j),
            ColumnAddress{RngKind::kPhilox, seed, 0, kRound1StreamBase + j},
            shard_size, threads)
            .codes;
  }
  Dataset round1_data(dataset.schema(), std::move(round1_columns));
  result.messages_round1 = n;

  MDRR_ASSIGN_OR_RETURN(result.clusters,
                        AssessAndCluster(round1_data, options, shard_size));
  result.messages_broadcast = n;

  // Round 2: composite codes per cluster, one counter stream per cluster,
  // with the controller's counting fused into the randomization pass.
  MDRR_ASSIGN_OR_RETURN(
      std::vector<RrMatrix> cluster_matrices,
      DesignClusterMatrices(dataset, options, &result));
  result.messages_round2 = n;
  result.randomized = dataset;
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    const Domain& domain = result.cluster_domains[c];
    const std::vector<size_t>& cluster = result.clusters[c];
    const DirectEncodingOracle oracle(std::move(cluster_matrices[c]));
    OracleColumnResult published = AccumulateColumnSharded(
        oracle, domain.ComposeColumns(dataset, cluster),
        ColumnAddress{RngKind::kPhilox, seed, 0, kRound2StreamBase + c},
        shard_size, threads);
    MDRR_ASSIGN_OR_RETURN(
        std::vector<double> estimated,
        EstimateProjectedDistribution(
            oracle.matrix(),
            stats::FrequencyTable(std::move(published.counts)).Proportions(),
            EstimationOptions{threads}));
    result.cluster_joints.push_back(std::move(estimated));
    for (size_t position = 0; position < cluster.size(); ++position) {
      result.randomized.SetColumn(
          cluster[position],
          DecodeColumnSharded(domain, published.codes, position, shard_size,
                              threads));
    }
  }
  return result;
}

}  // namespace

StatusOr<SessionResult> RunDistributedSession(const Dataset& dataset,
                                              const SessionOptions& options) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("a session needs at least one party");
  }
  if (options.rng == RngKind::kPhilox &&
      options.execution == SessionExecution::kPartyLoop) {
    return Status::InvalidArgument(
        "the party-loop reference semantics are the mt19937 per-party "
        "seeding transcript; run the philox policy with the batched "
        "execution");
  }
  if (options.rng == RngKind::kPhilox) {
    return RunCounterSession(dataset, options);
  }
  if (options.execution == SessionExecution::kPartyLoop) {
    return RunPartyLoopSession(dataset, options);
  }
  return RunBatchedSession(dataset, options);
}

}  // namespace mdrr::protocol
