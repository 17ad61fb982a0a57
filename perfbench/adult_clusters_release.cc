// Workload adult-clusters-release: the paper's full pipeline through the
// release façade. About 1M synthetic Adult records (8 attributes) go
// through RR-Clusters with Section 4.1 RR dependence assessment,
// Algorithm 2 adjustment and a synthetic release, under the sharded
// policy (mt19937, min(nproc, 4) threads).
//
// Untraced run: set-up (synthesis + planning) three times; one untimed
// warm-up release, which the gate checks against the direct engine
// composition, against a 1-thread release, and cell by cell against the
// EstimateVariances standard errors; then timed releases, one seed each,
// until --seconds have been spent.
//
// Traced run: each repeat times the façade and then the same release
// composed from direct engine calls, stage by stage; the tracing
// overhead is the timed composition's throughput against the façade's.
// The first repeat also times each stage at 1 thread. The standalone
// dependence assessment is timed on the same inputs.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "harness.h"
#include "mdrr/core/adjustment.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/release/artifacts.h"
#include "mdrr/release/planner.h"
#include "mdrr/rng/rng.h"

namespace perfbench {
namespace {

constexpr double kKeepProbability = 0.7;
constexpr int kAdjustIterations = 25;
constexpr size_t kShardSize = 1 << 16;
// Every released cluster cell must lie within this many standard errors
// of the truth (Bonferroni over a few hundred cells keeps a false alarm
// below 1e-6 per release).
constexpr double kMaxStandardErrors = 6.0;
constexpr int kQueries = 200;
// Releases whose count queries are answered (each costs one scan of the
// records per query).
constexpr size_t kQueryReleases = 5;

mdrr::release::ReleaseSpec MakeSpec(uint64_t seed, size_t threads) {
  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kClusters;
  spec.mechanism.dependence_source =
      mdrr::DependenceSource::kRandomizedResponse;
  spec.budget.keep_probability = kKeepProbability;
  spec.adjustment.enabled = true;
  spec.adjustment.max_iterations = kAdjustIterations;
  spec.synthetic.enabled = true;
  spec.execution.kind = mdrr::release::PolicyKind::kSharded;
  spec.execution.rng = mdrr::RngKind::kMt19937;
  spec.execution.seed = seed;
  spec.execution.num_threads = threads;
  spec.execution.shard_size = kShardSize;
  return spec;
}

mdrr::BatchPerturbationEngine MakeEngine(uint64_t seed, size_t threads) {
  mdrr::BatchPerturbationOptions options;
  options.seed = seed;
  options.num_threads = threads;
  options.shard_size = kShardSize;
  options.rng = mdrr::RngKind::kMt19937;
  return mdrr::BatchPerturbationEngine(options);
}

mdrr::RrClustersOptions ClustersOptions() {
  mdrr::RrClustersOptions options;
  options.keep_probability = kKeepProbability;
  options.dependence_source = mdrr::DependenceSource::kRandomizedResponse;
  return options;
}

bool SameArtifacts(const mdrr::release::ReleaseArtifacts& a,
                   const mdrr::release::ReleaseArtifacts& b) {
  return SameData(a.randomized, b.randomized) &&
         a.marginal_estimates == b.marginal_estimates &&
         a.adjustment.has_value() && b.adjustment.has_value() &&
         a.adjustment->weights == b.adjustment->weights &&
         a.synthetic.has_value() && b.synthetic.has_value() &&
         SameData(*a.synthetic, *b.synthetic);
}

// Release seed of timed repeat r (r = 0 is the warm-up).
uint64_t ReleaseSeed(uint64_t workload_seed, size_t r) {
  return 0x9e3779b97f4a7c15ULL * (workload_seed + 1) + r;
}

struct Inputs {
  std::unique_ptr<mdrr::Dataset> data;
  std::unique_ptr<mdrr::release::ReleasePlan> plan;
};

// Synthesis + planning, three times; the last inputs are kept. Returns
// the median set-up time and, through plan_s, the median planning time.
Inputs SetUp(const RunOptions& options, size_t n, Report& report,
             double* setup_s, double* plan_s) {
  Inputs inputs;
  std::vector<double> setups, plans;
  for (int k = 0; k < 3; ++k) {
    Stopwatch setup;
    auto data = std::make_unique<mdrr::Dataset>(
        mdrr::SynthesizeAdult(n, options.seed));
    Stopwatch plan_watch;
    auto plan = mdrr::release::ReleasePlanner::Plan(
        MakeSpec(ReleaseSeed(options.seed, 0), options.threads), data.get());
    plans.push_back(plan_watch.Seconds());
    setups.push_back(setup.Seconds());
    if (!report.Check(plan.ok(), "plan the release")) return inputs;
    inputs.data = std::move(data);
    inputs.plan = std::make_unique<mdrr::release::ReleasePlan>(
        std::move(plan).value());
  }
  *setup_s = Median(setups);
  *plan_s = Median(plans);
  return inputs;
}

// Gate: every cell of every released cluster marginal (the Eq. (2) raw
// estimate of the joint over the cluster's attributes) lies within
// kMaxStandardErrors EstimateVariances standard errors of the truth.
void CheckStandardErrors(const mdrr::Dataset& data,
                         const mdrr::release::ReleaseArtifacts& artifacts,
                         Report& report) {
  const double n = static_cast<double>(data.num_rows());
  double worst = 0.0;
  bool ok = artifacts.clusters.has_value();
  if (ok) {
    for (const mdrr::RrJointResult& joint :
         artifacts.clusters->cluster_results) {
      const uint64_t r = joint.domain.size();
      std::vector<double> truth(r, 0.0);
      for (uint32_t code :
           joint.domain.ComposeColumns(data, joint.attributes)) {
        truth[code] += 1.0 / n;
      }
      auto variances = mdrr::EstimateVariances(
          mdrr::RrMatrix::OptimalForEpsilon(r, joint.epsilon), joint.lambda,
          static_cast<int64_t>(data.num_rows()));
      if (!variances.ok() || joint.raw_estimated.size() != r) {
        ok = false;
        break;
      }
      for (uint64_t v = 0; v < r; ++v) {
        const double se = std::sqrt(std::max(variances.value()[v], 1e-300));
        worst = std::max(worst, std::fabs(joint.raw_estimated[v] - truth[v]) /
                                    se);
      }
    }
  }
  report.Check(ok && worst <= kMaxStandardErrors,
               "cluster marginal error within " +
                   std::to_string(kMaxStandardErrors) +
                   " standard errors (worst " + std::to_string(worst) + ")");
}

// The count queries and their true answers.
struct QuerySet {
  std::vector<mdrr::CountQuery> queries;
  std::vector<double> truth;
};

QuerySet MakeQueries(const mdrr::Dataset& data) {
  QuerySet set;
  set.queries = CoverageQueries(data, kQueries);
  mdrr::EmpiricalCounts truth(data);
  for (const mdrr::CountQuery& query : set.queries) {
    set.truth.push_back(truth.EstimateCount(query));
  }
  return set;
}

double QueryRelativeError(const QuerySet& set,
                          const mdrr::release::ReleaseArtifacts& artifacts,
                          Report& report) {
  auto estimate = mdrr::release::MakeJointEstimate(artifacts);
  if (!report.Check(estimate.ok(), "MakeJointEstimate")) return 0.0;
  std::vector<double> errors;
  for (size_t q = 0; q < set.queries.size(); ++q) {
    errors.push_back(mdrr::eval::RelativeError(
        estimate.value()->EstimateCount(set.queries[q]), set.truth[q]));
  }
  return MedianFinite(errors);
}

void Corrupt(mdrr::release::ReleaseArtifacts& artifacts) {
  std::vector<uint32_t>& column = artifacts.synthetic->MutableColumn(0);
  column[column.size() / 2] ^= 1u;
}

// Bytes Algorithm 2 moves, computed from the array sizes (each array is
// counted once per pass that touches it): the initial marginal scan, then
// per iteration G - 1 middle passes (two code arrays, weights read and
// written) and one last pass (every code array, weights read and
// written), then the final sum and renormalization.
double AdjustmentBytes(size_t n, size_t groups, int iterations) {
  const double rec = static_cast<double>(n);
  const double g = static_cast<double>(groups);
  const double per_iteration =
      groups == 1 ? 20.0 * rec
                  : (g - 1.0) * 24.0 * rec + 16.0 * rec + 4.0 * g * rec;
  return 12.0 * rec + iterations * per_iteration + 24.0 * rec;
}

void RunUntraced(const RunOptions& options, size_t n, Report& report) {
  double setup_s = 0.0, plan_s = 0.0;
  Inputs inputs = SetUp(options, n, report, &setup_s, &plan_s);
  if (inputs.plan == nullptr) return;
  const mdrr::Dataset& data = *inputs.data;
  report.Set("setup_s", setup_s);

  auto warm = inputs.plan->Run();
  if (!report.Check(warm.ok(), "warm-up release")) return;
  mdrr::release::ReleaseArtifacts& artifacts = warm.value();
  if (options.corrupt) Corrupt(artifacts);

  // Gate 1: the façade equals the direct engine composition.
  {
    const uint64_t seed = ReleaseSeed(options.seed, 0);
    mdrr::BatchPerturbationEngine engine = MakeEngine(seed, options.threads);
    auto clusters = engine.RunClusters(data, ClustersOptions());
    bool same = clusters.ok();
    if (same) {
      mdrr::AdjustmentOptions adjust;
      adjust.max_iterations = kAdjustIterations;
      auto adjusted = engine.RunAdjustment(
          mdrr::GroupsFromClusters(clusters.value()), n, adjust);
      auto synthetic = engine.SynthesizeClusters(clusters.value(),
                                                 static_cast<int64_t>(n));
      same = adjusted.ok() && synthetic.ok() &&
             SameData(clusters.value().randomized, artifacts.randomized) &&
             adjusted.value().weights == artifacts.adjustment->weights &&
             SameData(synthetic.value(), *artifacts.synthetic);
    }
    report.Check(same, "façade equals the direct engine composition");
  }
  // Gate 2: the release is the same at 1 thread and at N threads.
  {
    auto plan = mdrr::release::ReleasePlanner::Plan(
        MakeSpec(ReleaseSeed(options.seed, 0), 1), &data);
    auto single = plan.ok() ? plan.value().Run()
                            : mdrr::StatusOr<mdrr::release::ReleaseArtifacts>(
                                  plan.status());
    report.Check(single.ok() && SameArtifacts(single.value(), artifacts),
                 "release at 1 thread equals the release at N threads");
  }
  CheckStandardErrors(data, artifacts, report);

  const std::vector<std::vector<double>> truth =
      TrueMarginals(data, 0, data.num_rows());
  const QuerySet queries = MakeQueries(data);
  std::vector<double> tv = {
      MeanTotalVariation(artifacts.marginal_estimates, truth)};
  std::vector<double> query_errors = {
      QueryRelativeError(queries, artifacts, report)};

  // Timed releases, a fresh seed each.
  std::vector<double> times;
  Stopwatch budget;
  for (size_t r = 1; times.size() < 3 || budget.Seconds() < options.seconds;
       ++r) {
    auto plan = mdrr::release::ReleasePlanner::Plan(
        MakeSpec(ReleaseSeed(options.seed, r), options.threads), &data);
    if (!report.Check(plan.ok(), "plan a timed release")) return;
    Stopwatch watch;
    auto release = plan.value().Run();
    times.push_back(watch.Seconds());
    if (!report.Check(release.ok(), "timed release")) return;
    CheckStandardErrors(data, release.value(), report);
    tv.push_back(MeanTotalVariation(release.value().marginal_estimates, truth));
    if (query_errors.size() < kQueryReleases) {
      query_errors.push_back(QueryRelativeError(queries, release.value(),
                                                report));
    }
  }

  double total = 0.0;
  for (double t : times) total += t;
  const double median = Median(times);
  const TailStat tail = Tail(times);
  Note("adult-clusters-release: n=%zu threads=%zu; release time over %zu "
       "repeats: median %.4fs, p%.1f %.4fs (%zu beyond)",
       n, options.threads, times.size(), median, tail.percentile, tail.value,
       tail.beyond);
  Note("query_rel_error: median of %d queries, averaged over %zu releases",
       kQueries, query_errors.size());
  double query_error = 0.0;
  for (double e : query_errors) query_error += e;
  double tv_mean = 0.0;
  for (double v : tv) tv_mean += v;
  report.Set("records_per_s", static_cast<double>(n) / median);
  report.Set("sustained_rps",
             static_cast<double>(n) * static_cast<double>(times.size()) /
                 total);
  report.Set("query_rel_error",
             query_error / static_cast<double>(query_errors.size()));
  report.Set("marginal_tv", tv_mean / static_cast<double>(tv.size()));
  report.Set("peak_rss_mb", PeakRssMiB());
}

void RunTraced(const RunOptions& options, size_t n, Report& report) {
  double setup_s = 0.0, plan_s = 0.0;
  Inputs inputs = SetUp(options, n, report, &setup_s, &plan_s);
  if (inputs.plan == nullptr) return;
  const mdrr::Dataset& data = *inputs.data;
  report.Set("release.plan_s", plan_s);

  const size_t triad_bytes = 8 * n;
  const size_t llc = LastLevelCacheBytes();
  const double triad = TriadGBps(triad_bytes, options.threads, 20);
  report.Set("mem.triad_gbps", triad);

  auto warm = inputs.plan->Run();
  if (!report.Check(warm.ok(), "warm-up release")) return;

  const uint64_t lu_before = mdrr::linalg::LuFactorizationCount();
  std::vector<double> facade, composed, mechanism, assess, adjust, synth,
      overhead;
  int iterations = 0;
  size_t groups = 0;
  Stopwatch budget;
  for (size_t r = 1; facade.size() < 2 || budget.Seconds() < options.seconds;
       ++r) {
    const uint64_t seed = ReleaseSeed(options.seed, r);
    auto plan = mdrr::release::ReleasePlanner::Plan(
        MakeSpec(seed, options.threads), &data);
    if (!report.Check(plan.ok(), "plan")) return;
    Stopwatch facade_watch;
    auto release = plan.value().Run();
    facade.push_back(facade_watch.Seconds());
    if (!report.Check(release.ok(), "traced release")) return;
    if (options.corrupt) Corrupt(release.value());

    // The same release composed from direct engine calls.
    Stopwatch composed_watch;
    mdrr::BatchPerturbationEngine engine = MakeEngine(seed, options.threads);
    Stopwatch watch;
    auto clusters = engine.RunClusters(data, ClustersOptions());
    mechanism.push_back(watch.Seconds());
    if (!report.Check(clusters.ok(), "RunClusters")) return;
    std::vector<mdrr::AdjustmentGroup> adjustment_groups =
        mdrr::GroupsFromClusters(clusters.value());
    mdrr::AdjustmentOptions adjust_options;
    adjust_options.max_iterations = kAdjustIterations;
    watch.Restart();
    auto adjusted = engine.RunAdjustment(adjustment_groups, n, adjust_options);
    adjust.push_back(watch.Seconds());
    watch.Restart();
    auto synthetic =
        engine.SynthesizeClusters(clusters.value(), static_cast<int64_t>(n));
    synth.push_back(watch.Seconds());
    composed.push_back(composed_watch.Seconds());
    if (!report.Check(adjusted.ok() && synthetic.ok(),
                      "RunAdjustment / SynthesizeClusters")) {
      return;
    }
    overhead.push_back(facade.back() - mechanism.back() - adjust.back() -
                       synth.back());
    iterations = adjusted.value().iterations;
    groups = adjustment_groups.size();
    report.Check(
        SameData(clusters.value().randomized, release.value().randomized) &&
            adjusted.value().weights == release.value().adjustment->weights &&
            SameData(synthetic.value(), *release.value().synthetic),
        "façade equals the traced direct composition");

    // Standalone §4.1 assessment on the same inputs (RunClusters runs it
    // internally; this call exists only to time it).
    mdrr::DependenceEstimatorOptions estimator;
    estimator.rng = mdrr::RngKind::kMt19937;
    estimator.sharding.num_threads = options.threads;
    estimator.sharding.record_chunk_size = kShardSize;
    mdrr::Rng assess_rng = mdrr::RngStreamFamily(seed).Stream(0);
    watch.Restart();
    auto dependences = mdrr::AssessDependencesSharded(
        data, ClustersOptions(), assess_rng, estimator);
    assess.push_back(watch.Seconds());
    if (!report.Check(dependences.ok(), "AssessDependencesSharded")) return;

    if (r == 1) {
      // Per-stage scaling: every stage once more at 1 thread; the output
      // must not depend on the thread count.
      mdrr::BatchPerturbationEngine single = MakeEngine(seed, 1);
      watch.Restart();
      auto clusters1 = single.RunClusters(data, ClustersOptions());
      report.Set("core.mechanism_t1_s", watch.Seconds());
      watch.Restart();
      auto adjusted1 = single.RunAdjustment(adjustment_groups, n,
                                            adjust_options);
      report.Set("core.adjust_t1_s", watch.Seconds());
      watch.Restart();
      auto synthetic1 = single.SynthesizeClusters(clusters.value(),
                                                  static_cast<int64_t>(n));
      report.Set("core.synthesize_t1_s", watch.Seconds());
      report.Check(clusters1.ok() && adjusted1.ok() && synthetic1.ok() &&
                       SameData(clusters1.value().randomized,
                                clusters.value().randomized) &&
                       adjusted1.value().weights == adjusted.value().weights &&
                       SameData(synthetic1.value(), synthetic.value()),
                   "stages at 1 thread equal the stages at N threads");
    }
  }
  const uint64_t lu_delta = mdrr::linalg::LuFactorizationCount() - lu_before;

  const double facade_s = Median(facade);
  const double stages_s = Median(mechanism) + Median(adjust) + Median(synth);
  report.Set("core.mechanism_s", Median(mechanism));
  report.Set("core.assess_s", Median(assess));
  report.Set("core.adjust_s", Median(adjust));
  report.Set("core.synthesize_s", Median(synth));
  report.Set("release.overhead_s", Median(overhead));
  report.Set("core.adjust_iterations", iterations);
  const double adjust_gbps =
      AdjustmentBytes(n, groups, iterations) / Median(adjust) / 1e9;
  report.Set("core.adjust_gbps_computed", adjust_gbps);
  report.Set("core.adjust_bw_fraction", adjust_gbps / triad);
  report.Set("linalg.lu_factorizations", static_cast<double>(lu_delta));
  // Tracing here means composing the release from timed stage calls; its
  // overhead is that composition's throughput against the façade's.
  report.Set("trace.records_per_s_delta",
             static_cast<double>(n) / Median(composed) -
                 static_cast<double>(n) / facade_s);
  Note("adult-clusters-release traced: repeats=%zu facade median %.4fs; "
       "stage rows (mechanism+adjust+synthesize) cover %.1f%% of it, "
       "remainder %.4fs (release.overhead_s); core.assess_s is a standalone "
       "call (RunClusters already contains it)",
       facade.size(), facade_s, 100.0 * stages_s / facade_s,
       facade_s - stages_s);
  const double working_set = (8.0 + 4.0 * groups) * n;
  Note("mem.triad: 3 arrays x %.1f MiB = %.1f MiB; host LLC %.1f MiB; "
       "adjustment working set %.1f MiB (weights + %zu code arrays) %s the "
       "LLC, so mem.triad_gbps is the %s bandwidth",
       triad_bytes / 1048576.0, 3 * triad_bytes / 1048576.0, llc / 1048576.0,
       working_set / 1048576.0, groups,
       working_set <= llc ? "fits in" : "exceeds",
       3 * triad_bytes <= llc ? "in-cache" : "DRAM");
  Note("core.adjust_gbps_computed: %.3g bytes computed from array sizes "
       "(n=%zu, %zu groups, %d iterations)",
       AdjustmentBytes(n, groups, iterations), n, groups, iterations);
}

}  // namespace

void RunAdultClustersRelease(const RunOptions& options, Report& report) {
  const size_t n = std::max<size_t>(
      4000, static_cast<size_t>(std::llround(1000000 * options.scale)));
  if (options.trace) {
    RunTraced(options, n, report);
  } else {
    RunUntraced(options, n, report);
  }
}

}  // namespace perfbench
