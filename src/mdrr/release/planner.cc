#include "mdrr/release/planner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "mdrr/core/synthetic.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/csv.h"
#include "mdrr/release/serialization.h"

namespace mdrr::release {

namespace {

class StageClock {
 public:
  explicit StageClock(std::vector<StageTiming>& timings)
      : timings_(timings) {}

  void Start() { begin_ = std::chrono::steady_clock::now(); }

  void Stop(const char* stage) {
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin_;
    timings_.push_back(StageTiming{stage, elapsed.count()});
  }

 private:
  std::vector<StageTiming>& timings_;
  std::chrono::steady_clock::time_point begin_;
};

// Loads the owned dataset sources (kProvided is bound by reference in
// ReleasePlanner::Plan and never reaches here).
StatusOr<Dataset> ResolveDataset(const DatasetSpec& spec) {
  switch (spec.source) {
    case DatasetSpec::Source::kProvided:
      return Status::Internal("provided datasets are bound by reference");
    case DatasetSpec::Source::kCsvFile:
      return ReadCsvDataset(spec.csv_path, spec.csv_has_header);
    case DatasetSpec::Source::kSyntheticAdult:
      return SynthesizeAdult(spec.synthetic_records, spec.synthetic_seed);
  }
  return Status::Internal("unknown dataset source");
}

BatchPerturbationOptions EngineOptionsFor(const ExecutionPolicy& policy) {
  BatchPerturbationOptions options;
  options.seed = policy.seed;
  options.num_threads = policy.num_threads;
  options.shard_size = policy.shard_size;
  options.rng = policy.rng;
  return options;
}

// The perturbation + Eq. (2) estimation stage, writing the protocol
// payload, marginals, epsilons and (clusters only) dependences and
// clustering into `artifacts`. Exactly one of rng/engine is non-null:
// the sequential policy draws from `rng` exactly as the stage function
// would, the sharded ones delegate to the engine's contracts.
Status RunMechanism(const ReleaseSpec& spec, const Dataset& data, Rng* rng,
                    const BatchPerturbationEngine* engine,
                    ReleaseArtifacts& artifacts) {
  const double keep_probability = spec.budget.keep_probability;
  switch (spec.mechanism.kind) {
    case MechanismKind::kIndependent:
    case MechanismKind::kGeometricOrdinal: {
      // Protocol 1; the two per-attribute designs differ only in the
      // options.
      RrIndependentOptions design;
      design.keep_probability = keep_probability;
      if (spec.mechanism.kind == MechanismKind::kGeometricOrdinal) {
        design.design = IndependentDesign::kGeometricOrdinal;
        design.geometric_epsilon = spec.mechanism.geometric_epsilon;
      }
      // A non-default frequency_oracle section (DE with an explicit
      // epsilon, SUE, OUE, or OLH; ValidateReleaseSpec pins it to the
      // per-attribute mechanisms) swaps the backend; an empty factory
      // randomizes with the design's own matrices. An explicit
      // frequency_oracle.epsilon applies uniformly to every attribute;
      // epsilon 0 inherits the per-attribute budget the spec's RR design
      // would spend at this cardinality (Expression (4) epsilon), so
      // backend swaps compare at equal epsilon by construction.
      // Frequency-only backends (sue|oue|olh) publish closed-form
      // marginals with no microdata column.
      OracleFactory make_oracle;
      if (!spec.frequency_oracle.is_default()) {
        make_oracle = [oracle = spec.frequency_oracle, design](size_t r)
            -> StatusOr<std::unique_ptr<FrequencyOracle>> {
          const double epsilon =
              oracle.epsilon != 0.0
                  ? oracle.epsilon
                  : MakeIndependentMatrix(r, design).Epsilon();
          return MakeFrequencyOracle(oracle.backend, r, epsilon);
        };
      }
      const ColumnRunner run_column =
          rng != nullptr
              ? ColumnRunner([rng](const FrequencyOracle& oracle,
                                   const std::vector<uint32_t>& codes,
                                   size_t /*column_index*/) {
                  return AccumulateColumn(oracle, codes, *rng);
                })
              : engine->Runner();
      MDRR_ASSIGN_OR_RETURN(
          RrIndependentResult result,
          RunRrIndependentWith(data, design, run_column, make_oracle));
      artifacts.marginal_estimates = result.estimated;
      artifacts.release_epsilon = result.total_epsilon;
      artifacts.independent = std::move(result);
      return Status::OK();
    }
    case MechanismKind::kJoint: {
      // Protocol 2 under the Section 6.3.2 calibration: the joint matrix
      // gets the summed per-attribute KeepUniform epsilons.
      const std::vector<size_t>& attributes = spec.mechanism.joint_attributes;
      const double budget =
          ClusterEpsilonBudget(data, attributes, keep_probability,
                               spec.mechanism.use_paper_epsilon_formula);
      MDRR_ASSIGN_OR_RETURN(
          RrJointResult result,
          rng != nullptr ? RunRrJoint(data, attributes, budget, *rng)
                         : engine->RunJoint(data, attributes, budget));
      // The joint release publishes composite codes over the selected
      // attributes only; decode them into a dataset over that sub-schema.
      // Rows are independent, so the decode shards freely (bit-identical
      // at any thread count) and rides the engine's workers when there
      // is one.
      const size_t decode_threads =
          rng != nullptr ? 1 : engine->options().num_threads;
      std::vector<Attribute> schema;
      std::vector<std::vector<uint32_t>> columns;
      for (size_t position = 0; position < result.attributes.size();
           ++position) {
        schema.push_back(data.attribute(result.attributes[position]));
        columns.push_back(DecodeColumnSharded(
            result.domain, result.randomized_codes, position,
            /*chunk_size=*/1 << 16, decode_threads));
        artifacts.marginal_estimates.push_back(
            result.domain.MarginalizeTo(result.estimated, position));
      }
      artifacts.randomized = Dataset(std::move(schema), std::move(columns));
      artifacts.release_epsilon = result.epsilon;
      artifacts.joint = std::move(result);
      return Status::OK();
    }
    case MechanismKind::kClusters: {
      RrClustersOptions options;
      options.keep_probability = keep_probability;
      options.clustering = spec.mechanism.clustering;
      options.dependence_source = spec.mechanism.dependence_source;
      options.dependence_keep_probability =
          spec.budget.dependence_keep_probability;
      options.use_paper_epsilon_formula =
          spec.mechanism.use_paper_epsilon_formula;
      MDRR_ASSIGN_OR_RETURN(RrClustersResult result,
                            rng != nullptr
                                ? RunRrClusters(data, options, *rng)
                                : engine->RunClusters(data, options));
      artifacts.dependences = result.dependences;
      artifacts.clustering = result.clusters;
      artifacts.release_epsilon = result.release_epsilon;
      artifacts.dependence_epsilon = result.dependence_epsilon;
      artifacts.marginal_estimates.resize(result.randomized.num_attributes());
      for (size_t c = 0; c < result.clusters.size(); ++c) {
        const std::vector<size_t>& members = result.clusters[c];
        const RrJointResult& joint = result.cluster_results[c];
        for (size_t position = 0; position < members.size(); ++position) {
          artifacts.marginal_estimates[members[position]] =
              joint.domain.MarginalizeTo(joint.estimated, position);
        }
      }
      artifacts.clusters = std::move(result);
      return Status::OK();
    }
    case MechanismKind::kPram: {
      // PRAM is applied by the controller in one pass over the collected
      // file and has no sharded perturbation path; every policy produces
      // the sequential transcript at the policy seed.
      Rng policy_rng(spec.execution.seed);
      MDRR_ASSIGN_OR_RETURN(
          PramResult result,
          ApplyPram(data, keep_probability,
                    rng != nullptr ? *rng : policy_rng));
      artifacts.marginal_estimates = result.estimated;
      // The published file is protected by the sequential composition of
      // the per-attribute matrices.
      for (double epsilon : result.epsilons) {
        artifacts.release_epsilon += epsilon;
      }
      artifacts.pram = std::move(result);
      return Status::OK();
    }
  }
  return Status::Internal("unknown mechanism kind");
}

std::string GroupToString(const std::vector<size_t>& group) {
  std::string out = "{";
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(group[i]);
  }
  return out + "}";
}

// Selects `requested` groups out of the release's per-unit group list,
// where unit u constrains the attribute set `units[u]` (sorted). An
// empty request keeps every unit.
StatusOr<std::vector<AdjustmentGroup>> SelectGroups(
    std::vector<AdjustmentGroup> all,
    const std::vector<std::vector<size_t>>& units,
    const std::vector<std::vector<size_t>>& requested) {
  if (requested.empty()) return all;
  std::vector<AdjustmentGroup> selected;
  selected.reserve(requested.size());
  for (const std::vector<size_t>& group : requested) {
    std::vector<size_t> sorted = group;
    std::sort(sorted.begin(), sorted.end());
    auto it = std::find(units.begin(), units.end(), sorted);
    if (it == units.end()) {
      return Status::InvalidArgument(
          "adjustment group " + GroupToString(group) +
          " does not match a unit of this release (the mechanism "
          "constrains " +
          std::to_string(units.size()) + " units)");
    }
    selected.push_back(all[static_cast<size_t>(it - units.begin())]);
  }
  return selected;
}

std::vector<std::vector<size_t>> SingletonUnits(size_t m) {
  std::vector<std::vector<size_t>> units(m);
  for (size_t j = 0; j < m; ++j) units[j] = {j};
  return units;
}

// Algorithm 2 constraint groups for the payload `artifacts` holds:
// `requested` is the spec's explicit group list, and empty means one
// group per mechanism unit (attribute, or realized cluster).
StatusOr<std::vector<AdjustmentGroup>> AdjustmentGroupsFor(
    const ReleaseArtifacts& artifacts,
    const std::vector<std::vector<size_t>>& requested) {
  if (artifacts.independent.has_value()) {
    const RrIndependentResult& independent = *artifacts.independent;
    return SelectGroups(
        GroupsFromIndependent(independent),
        SingletonUnits(independent.randomized.num_attributes()), requested);
  }
  if (artifacts.clusters.has_value()) {
    // Units are the realized clusters (members already sorted).
    return SelectGroups(GroupsFromClusters(*artifacts.clusters),
                        artifacts.clustering, requested);
  }
  if (artifacts.pram.has_value()) {
    const PramResult& pram = *artifacts.pram;
    std::vector<AdjustmentGroup> all;
    all.reserve(pram.randomized.num_attributes());
    for (size_t j = 0; j < pram.randomized.num_attributes(); ++j) {
      all.push_back(AdjustmentGroup{pram.randomized.column(j),
                                    pram.estimated[j]});
    }
    return SelectGroups(std::move(all),
                        SingletonUnits(pram.randomized.num_attributes()),
                        requested);
  }
  return Status::Internal("the joint mechanism has no adjustment groups");
}

// Synthetic microdata from the estimates of the payload `artifacts`
// holds, under the same rng/engine choice as RunMechanism.
StatusOr<Dataset> Synthesize(const ReleaseArtifacts& artifacts, int64_t n,
                             Rng* rng, const BatchPerturbationEngine* engine) {
  if (artifacts.independent.has_value()) {
    return rng != nullptr
               ? SynthesizeFromIndependent(*artifacts.independent, n, *rng)
               : engine->SynthesizeIndependent(*artifacts.independent, n);
  }
  if (artifacts.clusters.has_value()) {
    return rng != nullptr
               ? SynthesizeFromClusters(*artifacts.clusters, n, *rng)
               : engine->SynthesizeClusters(*artifacts.clusters, n);
  }
  return Status::Internal(
      "synthetic output needs an independent or clusters payload");
}

}  // namespace

ReleasePlan::ReleasePlan(ReleaseSpec spec, Dataset owned,
                         const Dataset* provided)
    : spec_(std::move(spec)), owned_(std::move(owned)), provided_(provided) {}

StatusOr<ReleaseArtifacts> ReleasePlan::Run() const {
  const ExecutionPolicy& policy = spec_.execution;
  if (policy.kind == PolicyKind::kDistributed) {
    // Self-hosted coordinator: bind, wait for the configured worker
    // fleet, then run the shared distributed path.
    net::CoordinatorOptions coordinator_options;
    coordinator_options.seed = policy.seed;
    coordinator_options.rng = policy.rng;
    coordinator_options.shard_size = policy.shard_size;
    coordinator_options.deadline_ms = policy.worker_deadline_ms;
    net::Coordinator coordinator(coordinator_options);
    MDRR_RETURN_IF_ERROR(coordinator.Listen(policy.listen_port));
    MDRR_RETURN_IF_ERROR(coordinator.AcceptWorkers(policy.num_workers));
    return RunDistributed(coordinator);
  }
  // The sequential stream and the engine: exactly one exists, chosen by
  // the policy. The sequential Rng is threaded through the stages in
  // order (mechanism first, synthesis second), which is the same draw
  // order a caller composing the stage functions by hand would use.
  if (policy.kind == PolicyKind::kSequential) {
    Rng rng(policy.seed);
    return ExecuteStages(&rng, nullptr, nullptr);
  }
  BatchPerturbationEngine engine(EngineOptionsFor(policy));
  return ExecuteStages(nullptr, &engine, nullptr);
}

StatusOr<ReleaseArtifacts> ReleasePlan::RunDistributed(
    net::Coordinator& coordinator) const {
  const ExecutionPolicy& policy = spec_.execution;
  if (policy.kind != PolicyKind::kDistributed) {
    return Status::InvalidArgument(
        "RunDistributed needs execution.policy distributed");
  }
  if (coordinator.num_workers() == 0) {
    return Status::FailedPrecondition(
        "the coordinator has no connected workers");
  }

  // The engine's perturber hook has no Status channel, so network
  // failures latch here: the hook returns a structurally valid zero
  // column (never consumed -- the check below fires first) and the
  // pipeline aborts right after the mechanism stage, before adjustment,
  // synthesis, artifact assembly, or any output write.
  struct ErrorLatch {
    std::mutex mu;
    Status first = Status::OK();
    void Record(const Status& status) {
      std::lock_guard<std::mutex> lock(mu);
      if (first.ok()) first = status;
    }
    Status Get() {
      std::lock_guard<std::mutex> lock(mu);
      return first;
    }
  };
  auto latch = std::make_shared<ErrorLatch>();

  BatchPerturbationOptions engine_options = EngineOptionsFor(policy);
  engine_options.shard_perturber =
      [&coordinator, latch](const RrMatrix& matrix,
                            const std::vector<uint32_t>& codes,
                            uint64_t stream_base,
                            uint64_t counter_stream) -> PerturbedColumn {
    StatusOr<PerturbedColumn> column =
        coordinator.PerturbColumn(matrix, codes, stream_base, counter_stream);
    if (column.ok()) return std::move(column).value();
    latch->Record(column.status());
    PerturbedColumn zero;
    zero.codes.assign(codes.size(), 0);
    zero.lambda.assign(matrix.size(), 0.0);
    return zero;
  };
  BatchPerturbationEngine engine(engine_options);

  std::function<Status()> mechanism_check = [latch]() {
    return latch->Get();
  };
  StatusOr<ReleaseArtifacts> artifacts =
      ExecuteStages(nullptr, &engine, &mechanism_check);
  if (!artifacts.ok()) {
    coordinator.Abort(artifacts.status().ToString());
    return artifacts.status();
  }
  MDRR_RETURN_IF_ERROR(coordinator.Commit());
  return artifacts;
}

StatusOr<ReleaseArtifacts> ReleasePlan::ExecuteStages(
    Rng* rng, const BatchPerturbationEngine* engine,
    const std::function<Status()>* mechanism_check) const {
  const Dataset& data = dataset();

  ReleaseArtifacts artifacts;
  StageClock clock(artifacts.timings);

  // --- Perturbation + Eq. (2) estimation. ---
  clock.Start();
  MDRR_RETURN_IF_ERROR(RunMechanism(spec_, data, rng, engine, artifacts));
  clock.Stop("mechanism");
  if (mechanism_check != nullptr) {
    MDRR_RETURN_IF_ERROR((*mechanism_check)());
  }

  const double total_epsilon = artifacts.total_epsilon();
  if (total_epsilon > spec_.budget.max_total_epsilon) {
    return Status::FailedPrecondition(
        "release would spend epsilon = " + std::to_string(total_epsilon) +
        ", over budget.max_total_epsilon = " +
        std::to_string(spec_.budget.max_total_epsilon));
  }

  // --- Algorithm 2 adjustment. ---
  if (spec_.adjustment.enabled) {
    clock.Start();
    MDRR_ASSIGN_OR_RETURN(
        std::vector<AdjustmentGroup> groups,
        AdjustmentGroupsFor(artifacts, spec_.adjustment.groups));
    AdjustmentOptions adjustment_options;
    adjustment_options.max_iterations = spec_.adjustment.max_iterations;
    adjustment_options.tolerance = spec_.adjustment.tolerance;
    MDRR_ASSIGN_OR_RETURN(
        AdjustmentResult adjusted,
        rng != nullptr
            ? RunRrAdjustment(groups, data.num_rows(), adjustment_options)
            : engine->RunAdjustment(groups, data.num_rows(),
                                    adjustment_options));
    artifacts.adjustment = std::move(adjusted);
    clock.Stop("adjustment");
  }

  // --- Synthetic release. ---
  if (spec_.synthetic.enabled) {
    clock.Start();
    const int64_t n = spec_.synthetic.records > 0
                          ? spec_.synthetic.records
                          : static_cast<int64_t>(data.num_rows());
    MDRR_ASSIGN_OR_RETURN(Dataset synthetic,
                          Synthesize(artifacts, n, rng, engine));
    artifacts.synthetic = std::move(synthetic);
    clock.Stop("synthesis");
  }

  // --- Utility evaluation. ---
  if (spec_.evaluation.utility_report) {
    clock.Start();
    eval::UtilityReportOptions report_options;
    report_options.sigmas = spec_.evaluation.sigmas;
    report_options.queries_per_sigma = spec_.evaluation.queries_per_sigma;
    report_options.seed = spec_.evaluation.seed;
    MDRR_ASSIGN_OR_RETURN(
        eval::UtilityReport report,
        eval::BuildUtilityReport(data, *artifacts.synthetic,
                                 report_options));
    artifacts.utility = std::move(report);
    clock.Stop("evaluation");
  }

  // Every stage that reads the payload's own randomized dataset has run,
  // so it moves (not copies) into `randomized`; the joint mechanism
  // wrote its decoded columns there directly.
  artifacts.num_records = static_cast<double>(data.num_rows());
  if (artifacts.independent.has_value()) {
    artifacts.randomized = std::move(artifacts.independent->randomized);
  } else if (artifacts.clusters.has_value()) {
    artifacts.randomized = std::move(artifacts.clusters->randomized);
  } else if (artifacts.pram.has_value()) {
    artifacts.randomized = std::move(artifacts.pram->randomized);
  }

  // --- Configured outputs. ---
  if (!spec_.output.randomized_csv.empty() ||
      !spec_.output.synthetic_csv.empty() ||
      !spec_.output.artifacts_path.empty()) {
    clock.Start();
    if (!spec_.output.randomized_csv.empty()) {
      MDRR_RETURN_IF_ERROR(
          WriteCsv(artifacts.randomized, spec_.output.randomized_csv));
    }
    if (!spec_.output.synthetic_csv.empty()) {
      MDRR_RETURN_IF_ERROR(
          WriteCsv(*artifacts.synthetic, spec_.output.synthetic_csv));
    }
    if (!spec_.output.artifacts_path.empty()) {
      MDRR_RETURN_IF_ERROR(
          WriteReleaseArtifacts(artifacts, spec_.output.artifacts_path));
    }
    clock.Stop("outputs");
  }
  return artifacts;
}

StatusOr<ReleasePlan> ReleasePlanner::Plan(const ReleaseSpec& spec,
                                           const Dataset* provided) {
  // Structural pass first (no dataset needed), then the index checks
  // against the resolved schema.
  MDRR_RETURN_IF_ERROR(ValidateReleaseSpec(spec, /*num_attributes=*/0));
  if (spec.streaming.enabled) {
    return Status::InvalidArgument(
        "streaming specs run through the streaming collector "
        "(release/streaming.h, protocol::RunStreamingReplay), not a batch "
        "ReleasePlan");
  }
  Dataset owned;
  const Dataset* bound = nullptr;
  if (spec.dataset.source == DatasetSpec::Source::kProvided) {
    if (provided == nullptr) {
      return Status::InvalidArgument(
          "dataset.source is 'provided' but no dataset was passed to "
          "ReleasePlanner::Plan");
    }
    bound = provided;
  } else {
    MDRR_ASSIGN_OR_RETURN(owned, ResolveDataset(spec.dataset));
  }
  const Dataset& data = bound != nullptr ? *bound : owned;
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("the bound dataset has no records");
  }
  MDRR_RETURN_IF_ERROR(ValidateReleaseSpec(spec, data.num_attributes()));
  return ReleasePlan(spec, std::move(owned), bound);
}

}  // namespace mdrr::release
