#include "mdrr/core/dependence_estimators.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/privacy.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"
#include "mdrr/stats/frequency.h"

namespace mdrr {

DependenceEstimate OracleDependences(const Dataset& dataset) {
  DependenceEstimate result;
  result.dependences = DependenceMatrix(dataset);
  result.epsilon = 0.0;
  result.messages = 0;
  return result;
}

DependenceEstimate OracleDependencesSharded(
    const Dataset& dataset, const DependenceShardingOptions& sharding) {
  DependenceEstimate result;
  result.dependences = DependenceMatrixSharded(
      dataset, DependenceMeasure::kPaperAuto, sharding);
  result.epsilon = 0.0;
  result.messages = 0;
  return result;
}

namespace {

// Separates the secure-sum oracle's share streams from the masking
// streams that reuse the same pair indices (golden-ratio odd constant).
constexpr uint64_t kOracleSeedSalt = 0x9e3779b97f4a7c15ULL;

// Message bookkeeping on wide product domains can exceed 64 bits;
// saturate instead of wrapping (DependenceEstimate::messages contract).
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return b > std::numeric_limits<uint64_t>::max() - a
             ? std::numeric_limits<uint64_t>::max()
             : a + b;
}

// The sequential round-1 publication of the Section 4.1 assessment:
// every attribute randomized through KeepUniform(|A|, p) on one
// sequential stream -- the historical mt19937 transcript, byte-identical
// since the estimator landed. Returns the randomized data and
// accumulates epsilon.
Dataset PublishRandomizedRound(const Dataset& dataset,
                               double keep_probability, Rng& rng,
                               double* epsilon) {
  std::vector<std::vector<uint32_t>> columns;
  columns.reserve(dataset.num_attributes());
  for (size_t j = 0; j < dataset.num_attributes(); ++j) {
    RrMatrix matrix = RrMatrix::KeepUniform(dataset.attribute(j).cardinality(),
                                            keep_probability);
    columns.push_back(matrix.RandomizeColumn(dataset.column(j), rng));
    *epsilon += matrix.Epsilon();
  }
  return Dataset(dataset.schema(), std::move(columns));
}

// The sharded round-1 publication: attribute j goes through the engine's
// perturb+count fan at perturbed-column address j of the batch engine's
// layout (batch_engine.h). Under kMt19937 chunk s of attribute j draws
// stream 1 + j * num_chunks + s of `seed`, so the record chunk grain is
// part of the transcript; under kPhilox record i draws element i of
// counter stream 1 + j, so the grain drops out too. Either way the
// transcript never depends on the thread count.
Dataset PublishRandomizedRoundSharded(const Dataset& dataset,
                                      double keep_probability, uint64_t seed,
                                      const DependenceEstimatorOptions& options,
                                      double* epsilon) {
  const size_t grain = std::max<size_t>(1, options.sharding.record_chunk_size);
  const uint64_t num_chunks = NumChunks(dataset.num_rows(), grain);
  std::vector<std::vector<uint32_t>> columns;
  columns.reserve(dataset.num_attributes());
  for (size_t j = 0; j < dataset.num_attributes(); ++j) {
    const DirectEncodingOracle oracle(RrMatrix::KeepUniform(
        dataset.attribute(j).cardinality(), keep_probability));
    const ColumnAddress address{options.rng, seed, 1 + j * num_chunks,
                                1 + uint64_t{j}};
    columns.push_back(AccumulateColumnSharded(oracle, dataset.column(j),
                                              address, grain,
                                              options.sharding.num_threads)
                          .codes);
    *epsilon += oracle.epsilon();
  }
  return Dataset(dataset.schema(), std::move(columns));
}

}  // namespace

DependenceEstimate RandomizedResponseDependences(const Dataset& dataset,
                                                 double keep_probability,
                                                 uint64_t seed) {
  Rng rng(seed);
  DependenceEstimate result;
  result.epsilon = 0.0;
  Dataset randomized =
      PublishRandomizedRound(dataset, keep_probability, rng, &result.epsilon);
  result.dependences = DependenceMatrix(randomized);
  // Every party ships one randomized record to the aggregating party:
  // n messages of m values each.
  result.messages = static_cast<uint64_t>(dataset.num_rows());
  return result;
}

DependenceEstimate RandomizedResponseDependencesSharded(
    const Dataset& dataset, double keep_probability, uint64_t seed,
    const DependenceEstimatorOptions& options) {
  DependenceEstimate result;
  result.epsilon = 0.0;
  const Dataset randomized = PublishRandomizedRoundSharded(
      dataset, keep_probability, seed, options, &result.epsilon);
  result.dependences = DependenceMatrixSharded(
      randomized, DependenceMeasure::kPaperAuto, options.sharding);
  result.messages = static_cast<uint64_t>(dataset.num_rows());
  return result;
}

StatusOr<DependenceEstimate> SecureSumDependences(
    const Dataset& dataset, mpc::SimulationMode mode, uint64_t seed,
    const DependenceEstimatorOptions& options) {
  const size_t m = dataset.num_attributes();
  const size_t n = dataset.num_rows();
  if (n == 0) return Status::InvalidArgument("empty dataset");

  const mpc::SecureFrequencyOracle oracle(mode, seed, options.rng);
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  const std::vector<std::pair<size_t, size_t>> pairs = UpperTrianglePairs(m);

  // Pair p runs on its own oracle stream 1 + p. In the record-range
  // regime fast-simulation pairs shard their record scan -- the secure
  // sums are exact, so the sharded joint histogram is bitwise the
  // protocol output -- while literal pairs stay serial (the share-exchange
  // transcript is per pair).
  MDRR_RETURN_IF_ERROR(ForEachPair(
      pairs.size(), n, options.sharding,
      [&](size_t p, size_t /*worker*/, bool shard_records) -> Status {
        auto [i, j] = pairs[p];
        const Attribute& a = dataset.attribute(i);
        const Attribute& b = dataset.attribute(j);
        std::vector<int64_t> counts;
        if (shard_records && mode == mpc::SimulationMode::kFastSimulation) {
          counts = PairCountsSharded(dataset.column(i), a.cardinality(),
                                     dataset.column(j), b.cardinality(),
                                     options.sharding);
        } else {
          MDRR_ASSIGN_OR_RETURN(
              counts, oracle.BivariateCounts(
                          dataset.column(i), a.cardinality(),
                          dataset.column(j), b.cardinality(),
                          /*pair_stream=*/1 + static_cast<uint64_t>(p)));
        }
        std::vector<double> joint(counts.begin(), counts.end());
        const double d =
            DependenceFromJoint(joint, a.cardinality(), a.type,
                                b.cardinality(), b.type,
                                static_cast<double>(n));
        // Distinct pairs write distinct (i, j)/(j, i) cells.
        deps(i, j) = d;
        deps(j, i) = d;
        return Status::OK();
      }));

  uint64_t messages = 0;
  for (auto [i, j] : pairs) {
    messages = SaturatingAdd(
        messages, mpc::SecureFrequencyOracle::BivariateMessageCount(
                      dataset.attribute(i).cardinality(),
                      dataset.attribute(j).cardinality(), n));
  }
  DependenceEstimate result;
  result.dependences = std::move(deps);
  // Exact values are released: not differentially private.
  result.epsilon = std::numeric_limits<double>::infinity();
  result.messages = messages;
  return result;
}

StatusOr<DependenceEstimate> PairwiseRrDependences(
    const Dataset& dataset, double keep_probability, mpc::SimulationMode mode,
    uint64_t seed, const DependenceEstimatorOptions& options) {
  const size_t m = dataset.num_attributes();
  const size_t n = dataset.num_rows();
  if (n == 0) return Status::InvalidArgument("empty dataset");

  const mpc::SecureFrequencyOracle oracle(mode, seed ^ kOracleSeedSalt,
                                          options.rng);
  const RngStreamFamily mask_family(seed);
  linalg::Matrix deps(m, m, 0.0);
  for (size_t i = 0; i < m; ++i) deps(i, i) = 1.0;
  const std::vector<std::pair<size_t, size_t>> pairs = UpperTrianglePairs(m);
  const bool fast = mode == mpc::SimulationMode::kFastSimulation;

  // Reused per-worker scratch: composing, masking and counting all write
  // into these instead of allocating per pair.
  struct PairScratch {
    std::vector<uint32_t> pair_codes;
    std::vector<uint32_t> masked;
    std::vector<uint32_t> trivial;  // Single-category helper column.
    std::vector<int64_t> masked_counts;
  };

  std::vector<PairScratch> scratches(ResolveWorkerCount(
      options.sharding.num_threads, pairs.size(), /*chunk_size=*/1));
  // Epsilon per pair, filled by whichever regime ran the pair; reduced
  // in pair order after the join.
  std::vector<double> pair_epsilon(pairs.size(), 0.0);

  // One pair: mask the composed product-domain column on stream 1 + p,
  // aggregate the masked distribution, recover the joint with Eq. (2).
  // `shard_records` shards the compose/mask/count scan over record
  // ranges where the draw plan permits (philox masking is
  // element-addressed; mt19937 masking stays a sequential stream). Both
  // scheduler regimes produce identical masked columns and counts per
  // pair, so the choice never changes the output.
  auto run_pair = [&](size_t p, size_t worker, bool shard_records) -> Status {
    PairScratch& scratch = scratches[worker];
    auto [i, j] = pairs[p];
    const Attribute& a = dataset.attribute(i);
    const Attribute& b = dataset.attribute(j);
    // Domain CHECKs the product against the uint32 composite-code cap,
    // like Domain::ComposeColumns (the compose loop below is its
    // two-column special case: code = a * |B| + b).
    Domain pair_domain({a.cardinality(), b.cardinality()});
    MDRR_CHECK_LE(pair_domain.size(),
                  static_cast<uint64_t>(
                      std::numeric_limits<uint32_t>::max()));
    const size_t r = static_cast<size_t>(pair_domain.size());
    const uint32_t card_b = static_cast<uint32_t>(b.cardinality());
    RrMatrix matrix = RrMatrix::KeepUniform(r, keep_probability);
    pair_epsilon[p] = matrix.Epsilon();

    const std::vector<uint32_t>& col_a = dataset.column(i);
    const std::vector<uint32_t>& col_b = dataset.column(j);
    scratch.pair_codes.resize(n);
    scratch.masked.resize(n);
    scratch.masked_counts.assign(r, 0);
    const uint64_t pair_stream = 1 + static_cast<uint64_t>(p);
    auto compose_range = [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) {
        scratch.pair_codes[k] = col_a[k] * card_b + col_b[k];
      }
    };

    if (shard_records && options.rng == RngKind::kPhilox) {
      // Record-range regime: compose and mask [begin, end) per chunk
      // (element-addressed draws make any grain bit-identical); fused
      // per-worker count buffers merge after the join -- integer adds
      // commute, so the merge order is free.
      const size_t chunk_size =
          std::max<size_t>(1, options.sharding.record_chunk_size);
      const size_t record_workers = ResolveWorkerCount(
          options.sharding.num_threads, n, chunk_size);
      std::vector<std::vector<int64_t>> worker_counts(
          fast ? record_workers : 0, std::vector<int64_t>(r, 0));
      ParallelChunks(n, chunk_size, options.sharding.num_threads,
                     [&](size_t worker, size_t /*chunk*/, size_t begin,
                         size_t end) {
                       compose_range(begin, end);
                       matrix.RandomizeRangeCounterInto(
                           scratch.pair_codes, begin, end, seed, pair_stream,
                           scratch.masked.data(),
                           fast ? worker_counts[worker].data() : nullptr);
                     });
      for (const std::vector<int64_t>& wc : worker_counts) {
        for (size_t c = 0; c < r; ++c) scratch.masked_counts[c] += wc[c];
      }
    } else {
      compose_range(0, n);
      if (options.rng == RngKind::kPhilox) {
        matrix.RandomizeRangeCounterInto(
            scratch.pair_codes, 0, n, seed, pair_stream,
            scratch.masked.data(),
            fast ? scratch.masked_counts.data() : nullptr);
      } else {
        Rng rng = mask_family.Stream(pair_stream);
        matrix.RandomizeRangeInto(
            scratch.pair_codes, 0, n, rng, scratch.masked.data(),
            fast ? scratch.masked_counts.data() : nullptr);
      }
    }

    if (!fast) {
      // Literal aggregation: one secure-sum run per composite cell on
      // oracle stream 1 + p (cardinality_b = 1 reuses the bivariate
      // oracle as a univariate one). The fused fast-sim counts above are
      // bitwise this output -- exact sums either way.
      scratch.trivial.assign(n, 0);
      StatusOr<std::vector<int64_t>> counted =
          oracle.BivariateCounts(scratch.masked, r, scratch.trivial, 1,
                                 pair_stream);
      if (!counted.ok()) return counted.status();
      scratch.masked_counts = std::move(counted).value();
    }

    // Recover the true bivariate distribution with Eq. (2) + projection.
    std::vector<double> joint;
    MDRR_ASSIGN_OR_RETURN(
        joint,
        EstimateProjectedDistribution(
            matrix, stats::CountProportions(scratch.masked_counts.data(), r,
                                            static_cast<int64_t>(n))));
    // Distinct pairs write distinct (i, j)/(j, i) cells.
    deps(i, j) = deps(j, i) =
        DependenceFromJoint(joint, a.cardinality(), a.type, b.cardinality(),
                            b.type, static_cast<double>(n));
    return Status::OK();
  };
  MDRR_RETURN_IF_ERROR(
      ForEachPair(pairs.size(), n, options.sharding, run_pair));

  uint64_t messages = 0;
  double max_pair_epsilon = 0.0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    auto [i, j] = pairs[p];
    const uint64_t cells =
        static_cast<uint64_t>(dataset.attribute(i).cardinality()) *
        dataset.attribute(j).cardinality();
    messages = SaturatingAdd(
        messages, mpc::SecureFrequencyOracle::BivariateMessageCount(
                      static_cast<size_t>(cells), 1, n));
    max_pair_epsilon = std::max(max_pair_epsilon, pair_epsilon[p]);
  }
  DependenceEstimate result;
  result.dependences = std::move(deps);
  // Parallel composition across unlinkable pair releases (Section 4.3).
  result.epsilon = max_pair_epsilon;
  result.messages = messages;
  return result;
}

}  // namespace mdrr
