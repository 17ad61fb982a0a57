#include "mdrr/core/batch_engine.h"

#include <utility>

#include "mdrr/common/parallel.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/core/synthetic.h"

namespace mdrr {

namespace {

// Salt separating the synthetic-release stream family from the
// perturbation family at the same engine seed.
constexpr uint64_t kSyntheticStreamSalt = 0x53594e5448455349ULL;  // "SYNTHESI"

// The randomness address of perturbed column `column_index` (the stream
// layout in batch_engine.h).
ColumnAddress ColumnAt(const BatchPerturbationOptions& options,
                       size_t column_index, size_t num_rows) {
  return ColumnAddress{
      options.rng, options.seed,
      1 + column_index * NumChunks(num_rows, options.shard_size),
      1 + column_index};
}

}  // namespace

BatchPerturbationEngine::BatchPerturbationEngine(
    const BatchPerturbationOptions& options)
    : options_(options) {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

size_t BatchPerturbationEngine::NumShards(size_t num_rows) const {
  return NumChunks(num_rows, options_.shard_size);
}

OracleColumnResult BatchPerturbationEngine::RunOracle(
    const FrequencyOracle& oracle, const std::vector<uint32_t>& codes,
    size_t column_index) const {
  const ColumnAddress address = ColumnAt(options_, column_index, codes.size());
  // The installed hook (the distributed coordinator) ships RR matrices,
  // so it serves direct encoding; it receives the same address and owns
  // the determinism contract.
  if (options_.shard_perturber && oracle.backend() == OracleBackend::kDirect) {
    return options_.shard_perturber(
        static_cast<const DirectEncodingOracle&>(oracle).matrix(), codes,
        address.stream_base, address.counter_stream);
  }
  return AccumulateColumnSharded(oracle, codes, address, options_.shard_size,
                                 options_.num_threads);
}

ColumnRunner BatchPerturbationEngine::Runner() const {
  return [this](const FrequencyOracle& oracle,
                const std::vector<uint32_t>& codes, size_t column_index) {
    return RunOracle(oracle, codes, column_index);
  };
}

StatusOr<RrIndependentResult> BatchPerturbationEngine::RunIndependent(
    const Dataset& dataset, const RrIndependentOptions& options) const {
  return RunRrIndependentWith(dataset, options, Runner());
}

StatusOr<RrJointResult> BatchPerturbationEngine::RunJoint(
    const Dataset& dataset, const std::vector<size_t>& attributes,
    double epsilon) const {
  MDRR_ASSIGN_OR_RETURN(RrJointPerturbation perturbation,
                        PerturbRrJoint(dataset, attributes, epsilon, Runner()));
  // Estimation never draws randomness, so routing it through the engine's
  // workers keeps the output bit-identical to the sequential path.
  return EstimateRrJoint(std::move(perturbation),
                         EstimationOptions{options_.num_threads});
}

StatusOr<RrClustersResult> BatchPerturbationEngine::RunClusters(
    const Dataset& dataset, const RrClustersOptions& options) const {
  Rng serial_rng = RngStreamFamily(options_.seed).Stream(0);
  DependenceEstimatorOptions assessment;
  assessment.rng = options_.rng;
  assessment.sharding.num_threads = options_.num_threads;
  assessment.sharding.record_chunk_size = options_.shard_size;
  return RunRrClustersWith(dataset, options, serial_rng, Runner(),
                           options_.num_threads, &assessment);
}

StatusOr<AdjustmentResult> BatchPerturbationEngine::RunAdjustment(
    const std::vector<AdjustmentGroup>& groups, size_t num_records,
    AdjustmentOptions options) const {
  options.num_threads = options_.num_threads;
  options.chunk_size = options_.shard_size;
  return RunRrAdjustment(groups, num_records, options);
}

StatusOr<Dataset> BatchPerturbationEngine::SynthesizeIndependent(
    const RrIndependentResult& result, int64_t n) const {
  RngStreamFamily family(options_.seed ^ kSyntheticStreamSalt);
  return SynthesizeFromIndependentSharded(result, n, family,
                                          options_.shard_size,
                                          options_.num_threads);
}

StatusOr<Dataset> BatchPerturbationEngine::SynthesizeClusters(
    const RrClustersResult& result, int64_t n) const {
  RngStreamFamily family(options_.seed ^ kSyntheticStreamSalt);
  return SynthesizeFromClustersSharded(result, n, family,
                                       options_.shard_size,
                                       options_.num_threads);
}

}  // namespace mdrr
