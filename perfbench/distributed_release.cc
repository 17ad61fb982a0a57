// Workload distributed-release: RR-Independent over about 1M synthetic
// Adult records, with column perturbation farmed out through a
// caller-hosted net::Coordinator to two in-process net::RunWorker
// threads over loopback (philox policy). The engine's shard-perturber
// hook calls Coordinator::PerturbColumn, exactly as the planner's
// distributed policy does.
//
// A run opens kSessions coordinator sessions one after another. Each
// set-up (timed) is synthesis, listen, and accepting both workers; each
// session then serves an untimed warm-up release, checked against the
// in-process sharded engine and scored for accuracy, and commits. The
// last session serves the timed releases until --seconds have been
// spent, every one checked against the in-process engine. In a traced
// run each repeat also runs a release whose PerturbColumn calls are
// timed and the same release on the in-process engine.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "harness.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/core/rr_independent.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/net/coordinator.h"
#include "mdrr/net/worker.h"

namespace perfbench {
namespace {

constexpr double kKeepProbability = 0.7;
constexpr size_t kShardSize = 1 << 16;
constexpr size_t kWorkers = 2;
constexpr int64_t kDeadlineMs = 60000;
constexpr int kQueries = 200;
// Coordinator sessions per run. A session's seed fixes every release it
// serves, so each session adds one independent release to the accuracy
// figures; the set-up of each is timed, and the last one serves the
// timed releases.
constexpr int kSessions = 5;

// A coordinator with its worker threads. The destructor always ends the
// session (commit when it succeeded, abort otherwise) and joins them.
class Cluster {
 public:
  explicit Cluster(uint64_t seed) {
    mdrr::net::CoordinatorOptions options;
    options.seed = seed;
    options.rng = mdrr::RngKind::kPhilox;
    options.shard_size = kShardSize;
    options.deadline_ms = kDeadlineMs;
    coordinator_ = std::make_unique<mdrr::net::Coordinator>(options);
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    if (!ended_) coordinator_->Abort("benchmark stopped");
    for (std::thread& worker : workers_) worker.join();
  }

  mdrr::Status Start() {
    mdrr::Status listening = coordinator_->Listen(0);
    if (!listening.ok()) return listening;
    const uint16_t port = coordinator_->port();
    for (size_t w = 0; w < kWorkers; ++w) {
      workers_.emplace_back([this, port] {
        mdrr::net::WorkerOptions options;
        options.deadline_ms = kDeadlineMs;
        options.idle_deadline_ms = kDeadlineMs;
        mdrr::Status status = mdrr::net::RunWorker("127.0.0.1", port, options);
        if (!status.ok()) worker_failures_.fetch_add(1);
      });
    }
    return coordinator_->AcceptWorkers(kWorkers);
  }

  mdrr::Status Commit() {
    ended_ = true;
    return coordinator_->Commit();
  }

  // Joins the workers after Commit; true when each ended cleanly.
  bool JoinWorkers() {
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    return worker_failures_.load() == 0;
  }

  mdrr::net::Coordinator& coordinator() { return *coordinator_; }

 private:
  std::unique_ptr<mdrr::net::Coordinator> coordinator_;
  std::atomic<int> worker_failures_{0};
  bool ended_ = false;
  std::vector<std::thread> workers_;
};

mdrr::BatchPerturbationOptions EngineOptions(uint64_t seed, size_t threads) {
  mdrr::BatchPerturbationOptions options;
  options.seed = seed;
  options.num_threads = threads;
  options.shard_size = kShardSize;
  options.rng = mdrr::RngKind::kPhilox;
  return options;
}

// One release through the coordinator. `perturb_s`, when non-null,
// accumulates the time spent in PerturbColumn calls.
mdrr::StatusOr<mdrr::RrIndependentResult> DistributedRelease(
    Cluster& cluster, const mdrr::Dataset& data, uint64_t seed,
    size_t threads, double* perturb_s) {
  std::mutex mu;
  mdrr::Status failure;
  mdrr::BatchPerturbationOptions options = EngineOptions(seed, threads);
  mdrr::net::Coordinator& coordinator = cluster.coordinator();
  options.shard_perturber =
      [&](const mdrr::RrMatrix& matrix, const std::vector<uint32_t>& codes,
          uint64_t stream_base,
          uint64_t counter_stream) -> mdrr::PerturbedColumn {
    const Clock::time_point begin = Clock::now();
    auto column =
        coordinator.PerturbColumn(matrix, codes, stream_base, counter_stream);
    if (perturb_s != nullptr) *perturb_s += SecondsBetween(begin, Clock::now());
    if (column.ok()) return std::move(column).value();
    std::lock_guard<std::mutex> lock(mu);
    if (failure.ok()) failure = column.status();
    mdrr::PerturbedColumn zero;
    zero.codes.assign(codes.size(), 0);
    zero.lambda.assign(matrix.size(), 0.0);
    return zero;
  };
  auto result = mdrr::BatchPerturbationEngine(options).RunIndependent(
      data, {kKeepProbability});
  if (!failure.ok()) return failure;
  return result;
}

bool SameRelease(const mdrr::RrIndependentResult& a,
                 const mdrr::RrIndependentResult& b) {
  return SameData(a.randomized, b.randomized) && a.estimated == b.estimated &&
         a.epsilons == b.epsilons;
}

uint64_t ReleaseSeed(uint64_t workload_seed, int session) {
  return 0x94d049bb133111ebULL * (workload_seed + 1) +
         static_cast<uint64_t>(session);
}

}  // namespace

void RunDistributedRelease(const RunOptions& options, Report& report) {
  const size_t n = std::max<size_t>(
      4000, static_cast<size_t>(std::llround(1000000 * options.scale)));
  const size_t threads = options.threads;
  std::vector<double> setups, accepts, tv, query_errors;
  std::vector<std::vector<double>> truth;
  std::vector<mdrr::CountQuery> queries;
  std::vector<double> exact;
  mdrr::Dataset data;
  std::unique_ptr<Cluster> cluster;
  mdrr::StatusOr<mdrr::RrIndependentResult> in_process =
      mdrr::Status::Internal("no session");
  uint64_t seed = 0;
  for (int k = 0; k < kSessions; ++k) {
    if (cluster != nullptr) {
      report.Check(cluster->Commit().ok() && cluster->JoinWorkers(),
                   "commit a session; workers end cleanly");
    }
    seed = ReleaseSeed(options.seed, k);
    Stopwatch setup;
    mdrr::Dataset fresh = mdrr::SynthesizeAdult(n, options.seed);
    Stopwatch accept;
    cluster = std::make_unique<Cluster>(seed);
    mdrr::Status started = cluster->Start();
    accepts.push_back(accept.Seconds());
    setups.push_back(setup.Seconds());
    if (!report.Check(started.ok(), "listen and accept the workers: " +
                                        started.ToString())) {
      return;
    }
    data = std::move(fresh);
    if (k == 0 && !options.trace) {
      truth = TrueMarginals(data, 0, data.num_rows());
      queries = CoverageQueries(data, kQueries);
      mdrr::EmpiricalCounts counts(data);
      for (const mdrr::CountQuery& query : queries) {
        exact.push_back(counts.EstimateCount(query));
      }
    }

    // Untimed warm-up release of this session, gated against the
    // in-process engine and scored for accuracy.
    auto warm = DistributedRelease(*cluster, data, seed, threads, nullptr);
    if (!report.Check(warm.ok(), "warm-up distributed release")) return;
    if (options.corrupt && k == 0) {
      warm.value().randomized.MutableColumn(0)[0] ^= 1u;
    }
    in_process = mdrr::BatchPerturbationEngine(EngineOptions(seed, threads))
                     .RunIndependent(data, {kKeepProbability});
    report.Check(
        in_process.ok() && SameRelease(warm.value(), in_process.value()),
        "distributed transcript equals the in-process sharded engine");
    if (options.trace) continue;
    tv.push_back(MeanTotalVariation(warm.value().estimated, truth));
    const mdrr::IndependentMarginalsEstimate estimate =
        mdrr::MakeIndependentEstimate(warm.value());
    std::vector<double> errors;
    for (size_t q = 0; q < queries.size(); ++q) {
      errors.push_back(mdrr::eval::RelativeError(
          estimate.EstimateCount(queries[q]), exact[q]));
    }
    query_errors.push_back(MedianFinite(errors));
  }
  if (!in_process.ok()) return;

  std::vector<double> times, traced, local, perturb;
  Stopwatch budget;
  while (times.size() < 3 || budget.Seconds() < options.seconds) {
    Stopwatch watch;
    auto release = DistributedRelease(*cluster, data, seed, threads, nullptr);
    times.push_back(watch.Seconds());
    if (!report.Check(release.ok() && SameRelease(release.value(),
                                                  in_process.value()),
                      "timed distributed release")) {
      return;
    }
    if (!options.trace) continue;
    double perturb_s = 0.0;
    watch.Restart();
    auto timed = DistributedRelease(*cluster, data, seed, threads, &perturb_s);
    traced.push_back(watch.Seconds());
    perturb.push_back(perturb_s);
    watch.Restart();
    auto reference =
        mdrr::BatchPerturbationEngine(EngineOptions(seed, threads))
            .RunIndependent(data, {kKeepProbability});
    local.push_back(watch.Seconds());
    if (!report.Check(timed.ok() && reference.ok() &&
                          SameRelease(timed.value(), reference.value()),
                      "traced release equals the in-process engine")) {
      return;
    }
  }
  Stopwatch commit;
  const bool committed = cluster->Commit().ok();
  const double commit_s = commit.Seconds();
  report.Check(committed && cluster->JoinWorkers(),
               "commit the session; workers end cleanly");

  if (options.trace) {
    report.Set("net.accept_s", Median(accepts));
    report.Set("net.perturb_column_s", Median(perturb));
    report.Set("net.inprocess_s", Median(local));
    report.Set("net.overhead_ratio", Median(traced) / Median(local));
    report.Set("net.commit_s", commit_s);
    report.Set("trace.records_per_s_delta",
               static_cast<double>(n) / Median(traced) -
                   static_cast<double>(n) / Median(times));
    Note("distributed-release traced: n=%zu, %zu workers, %zu repeats",
         n, kWorkers, traced.size());
    return;
  }

  double total = 0.0;
  for (double t : times) total += t;
  const double median = Median(times);
  const TailStat tail = Tail(times);
  Note("distributed-release: n=%zu, %zu workers; release time over %zu "
       "repeats: median %.4fs, p%.1f %.4fs (%zu beyond)",
       n, kWorkers, times.size(), median, tail.percentile, tail.value,
       tail.beyond);
  report.Set("setup_s", Median(setups));
  report.Set("records_per_s", static_cast<double>(n) / median);
  report.Set("sustained_rps",
             static_cast<double>(n) * static_cast<double>(times.size()) /
                 total);
  double tv_sum = 0.0, query_sum = 0.0;
  for (double v : tv) tv_sum += v;
  for (double v : query_errors) query_sum += v;
  report.Set("query_rel_error", query_sum / kSessions);
  report.Set("marginal_tv", tv_sum / kSessions);
  report.Set("peak_rss_mb", PeakRssMiB());
}

}  // namespace perfbench
