// Workload stream-collect: the always-on StreamingCollector (independent
// mechanism, tumbling windows) fed open-loop.
//
// Set-up synthesizes the Adult records and perturbs them once through
// the sharded engine, as parties would on their own devices; report s of
// any phase carries the perturbed record s mod n. Every phase builds a
// fresh collector and runs three threads: a generator that submits
// reports (one ingest shard), a drain thread that feeds the collector,
// and the main thread that polls windows.
//
//   closed loop  the generator submits as fast as TrySubmit admits;
//                records_per_s is the median over the run's closed-loop
//                phases of reports over the time to the last window.
//                Every phase replays the same reports, so accuracy
//                (marginal_tv, query_rel_error) is scored once, on the
//                first phase's windows.
//   ladder       (untraced run) open loop at fixed rates. Report s is
//                due at t0 + s / rate and is submitted at or after that
//                time (a refused report is retried and stays in the
//                backlog). The backlog is reports due minus reports
//                drained, sampled by the main thread. A step is
//                sustained when the median backlog over its last
//                quarter is at most the reports due in 5 ms plus two
//                windows. The rate doubles from kLadderStart until a
//                step fails, then kBisections geometric bisection steps
//                between the last sustained and the first failed rate
//                narrow the saturation rate to a factor of 2^(1/16)
//                (4.4 %). A pass reports its highest sustained step as
//                measured: its reports over its time to the last window
//                (the step rate, less the final drain). sustained_rps
//                is the median over kLadderPasses passes.
//   reference    (traced run) open loop at kReferenceRate, below
//                saturation, for the rest of the run, as kReferenceRuns
//                sub-runs. A window's latency runs from the due time of
//                its last report to the return of the PollWindows call
//                that emitted it. It is a few microseconds, and its
//                run-to-run spread on a shared 4-vCPU host (30-60 %) is
//                wider than any bound a gate could use, so it is
//                reported as the release.window_latency_* rows instead
//                of an end-to-end metric, next to the ingest rows
//                measured at the same rate.
//
// Gate: every window of every phase must be present, in order, hold
// window_size reports, and equal bit for bit an offline estimate of the
// same reports computed through DirectEncodingOracle.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "harness.h"
#include "mdrr/core/batch_engine.h"
#include "mdrr/core/estimator.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/linalg/lu.h"
#include "mdrr/release/streaming.h"

namespace perfbench {
namespace {

constexpr double kKeepProbability = 0.7;
constexpr uint64_t kWindowSize = 1000;
constexpr double kReferenceRate = 500000.0;
// The ladder: doubling from kLadderStart up to kLadderMax, then
// geometric bisection.
constexpr double kLadderStart = 312.5e3;
constexpr double kLadderMax = 10e6;
constexpr int kBisections = 4;
constexpr int kLadderPasses = 5;
constexpr double kStepSeconds = 0.3;
constexpr double kClosedLoopReports = 400000;
// Fewest closed-loop phases of an untraced run (more fill its time), and
// the closed-loop pairs of a traced run.
constexpr int kClosedLoopRepeats = 7;
constexpr int kReferenceRuns = 8;
constexpr double kBacklogSampleSeconds = 0.0005;
// Windows of the first closed-loop phase whose count queries feed
// query_rel_error, and queries per window.
constexpr size_t kQueryWindows = 128;
constexpr int kQueriesPerWindow = 64;

struct Reports {
  mdrr::Dataset truth;       // True records.
  std::vector<uint32_t> flat;  // Perturbed records, row-major.
  size_t width = 0;
  size_t rows() const { return truth.num_rows(); }
};

mdrr::release::ReleaseSpec MakeSpec(uint64_t seed) {
  mdrr::release::ReleaseSpec spec;
  spec.mechanism.kind = mdrr::release::MechanismKind::kIndependent;
  spec.budget.keep_probability = kKeepProbability;
  spec.streaming.enabled = true;
  spec.streaming.window_kind = mdrr::release::WindowKind::kTumbling;
  spec.streaming.window_size = kWindowSize;
  spec.execution.seed = seed;
  return spec;
}

std::vector<size_t> Cardinalities(const mdrr::Dataset& data) {
  std::vector<size_t> cards;
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    cards.push_back(data.attribute(j).cardinality());
  }
  return cards;
}

// Synthesis + report pre-perturbation + collector creation.
bool SetUp(const RunOptions& options, size_t n, Reports& reports,
           Report& report) {
  mdrr::Dataset data = mdrr::SynthesizeAdult(n, options.seed);
  mdrr::BatchPerturbationOptions engine_options;
  engine_options.seed = options.seed;
  engine_options.num_threads = options.threads;
  auto perturbed = mdrr::BatchPerturbationEngine(engine_options)
                       .RunIndependent(data, {kKeepProbability});
  if (!report.Check(perturbed.ok(), "perturb the reports")) return false;
  const mdrr::Dataset& randomized = perturbed.value().randomized;
  reports.width = data.num_attributes();
  reports.flat.assign(n * reports.width, 0);
  for (size_t j = 0; j < reports.width; ++j) {
    const std::vector<uint32_t>& column = randomized.column(j);
    for (size_t i = 0; i < n; ++i) {
      reports.flat[i * reports.width + j] = column[i];
    }
  }
  reports.truth = std::move(data);
  auto collector = mdrr::release::StreamingCollector::Create(
      MakeSpec(options.seed), Cardinalities(reports.truth), {});
  return report.Check(collector.ok(), "create the collector");
}

struct PhaseResult {
  std::vector<mdrr::release::StreamWindow> windows;
  double seconds = 0.0;         // Start to the last window's emission.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;   // Generator lag, one sample per window.
  std::vector<double> backlog;    // Backlog samples (reports) ...
  std::vector<double> backlog_t;  // ... and their times since the start.
  uint64_t attempts = 0;
  uint64_t rejects = 0;
  double drain_busy_s = 0.0;
  double poll_s = 0.0;
  bool ok = true;
};

// Runs one phase of `total` reports. rate <= 0 is the closed loop.
PhaseResult RunPhase(const RunOptions& options, const Reports& reports,
                     uint64_t total, double rate, bool traced) {
  PhaseResult result;
  auto created = mdrr::release::StreamingCollector::Create(
      MakeSpec(options.seed), Cardinalities(reports.truth), {});
  if (!created.ok()) {
    result.ok = false;
    return result;
  }
  mdrr::release::StreamingCollector& collector = *created.value();
  const size_t width = reports.width;
  const size_t rows = reports.rows();
  std::atomic<uint64_t> drained{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point t0;

  std::thread generator([&] {
    while (!go.load(std::memory_order_acquire)) CpuRelax();
    std::vector<uint32_t> codes(width);
    uint64_t s = 0;
    while (s < total && !stop.load(std::memory_order_relaxed)) {
      const Clock::time_point now = Clock::now();
      uint64_t due = total;
      if (rate > 0.0) {
        const double elapsed = SecondsBetween(t0, now);
        due = std::min<uint64_t>(total,
                                 static_cast<uint64_t>(elapsed * rate) + 1);
        if (s >= due) {
          CpuRelax();
          continue;
        }
      }
      while (s < due) {
        const uint32_t* row = &reports.flat[(s % rows) * width];
        codes.assign(row, row + width);
        ++result.attempts;
        if (!collector.TrySubmit(0, s, codes)) {
          ++result.rejects;
          std::this_thread::yield();
          break;
        }
        if (rate > 0.0 && s % kWindowSize == 0) {
          // Generator lag, sampled at each window's first report.
          result.lag_ms.push_back(
              1e3 * (SecondsBetween(t0, Clock::now()) -
                     static_cast<double>(s) / rate));
        }
        ++s;
      }
    }
  });
  std::thread drain([&] {
    while (!go.load(std::memory_order_acquire)) CpuRelax();
    while (drained.load(std::memory_order_relaxed) < total &&
           !stop.load(std::memory_order_relaxed)) {
      if (traced) {
        const Clock::time_point begin = Clock::now();
        const size_t n = collector.DrainShard(0);
        if (n > 0) {
          result.drain_busy_s += SecondsBetween(begin, Clock::now());
          drained.fetch_add(n, std::memory_order_release);
        } else {
          CpuRelax();
        }
      } else {
        const size_t n = collector.DrainShard(0);
        if (n > 0) {
          drained.fetch_add(n, std::memory_order_release);
        } else {
          CpuRelax();
        }
      }
    }
  });

  const uint64_t expected = total / kWindowSize;
  t0 = Clock::now();
  go.store(true, std::memory_order_release);
  double next_sample = 0.0;
  while (result.windows.size() < expected && result.ok) {
    const size_t before = result.windows.size();
    const Clock::time_point begin = Clock::now();
    auto emitted = collector.PollWindows(result.windows);
    const Clock::time_point now = Clock::now();
    if (!emitted.ok()) {
      result.ok = false;
      break;
    }
    if (emitted.value() == 0) {
      CpuRelax();
    } else if (traced) {
      result.poll_s += SecondsBetween(begin, now);
    }
    const double elapsed = SecondsBetween(t0, now);
    if (rate > 0.0) {
      for (size_t w = before; w < result.windows.size(); ++w) {
        const double due =
            static_cast<double>(result.windows[w].end_sequence - 1) / rate;
        result.latency_ms.push_back(1e3 * (elapsed - due));
      }
      if (elapsed >= next_sample) {
        next_sample = elapsed + kBacklogSampleSeconds;
        const double due_count =
            std::min(static_cast<double>(total), elapsed * rate + 1.0);
        result.backlog_t.push_back(elapsed);
        result.backlog.push_back(
            due_count -
            static_cast<double>(drained.load(std::memory_order_acquire)));
      }
    }
    if (elapsed > 60.0) result.ok = false;  // Wedged: fail, never hang.
  }
  result.seconds = SecondsBetween(t0, Clock::now());
  stop.store(true);
  generator.join();
  drain.join();
  return result;
}

// Gate: every window present, in order, full, and equal to the offline
// DirectEncodingOracle estimate of the same reports.
void CheckWindows(const PhaseResult& phase, uint64_t total,
                  const Reports& reports,
                  const std::vector<mdrr::DirectEncodingOracle>& oracles,
                  Report& report) {
  const uint64_t expected = total / kWindowSize;
  report.Check(phase.ok && phase.windows.size() == expected,
               "every window emitted (" +
                   std::to_string(phase.windows.size()) + " of " +
                   std::to_string(expected) + ")");
  const size_t width = reports.width;
  const size_t rows = reports.rows();
  uint64_t bad = 0;
  for (size_t w = 0; w < phase.windows.size(); ++w) {
    const mdrr::release::StreamWindow& window = phase.windows[w];
    bool ok = window.index == w && window.released &&
              window.begin_sequence == w * kWindowSize &&
              window.num_reports == kWindowSize &&
              window.artifacts.marginal_estimates.size() == width;
    for (size_t j = 0; ok && j < width; ++j) {
      std::vector<int64_t> counts(oracles[j].domain_size(), 0);
      for (uint64_t s = window.begin_sequence; s < window.end_sequence; ++s) {
        ++counts[reports.flat[(s % rows) * width + j]];
      }
      auto raw = oracles[j].EstimateFrequencies(
          counts, static_cast<int64_t>(window.num_reports));
      ok = raw.ok() && mdrr::ProjectToSimplex(raw.value()) ==
                           window.artifacts.marginal_estimates[j];
    }
    if (!ok) ++bad;
  }
  report.Check(bad == 0, std::to_string(bad) +
                             " windows differ from the offline estimate");
}

// True marginals of the records behind sequences [begin, end).
std::vector<std::vector<double>> WindowTruth(const Reports& reports,
                                             uint64_t begin, uint64_t end) {
  const mdrr::Dataset& data = reports.truth;
  const size_t rows = reports.rows();
  std::vector<std::vector<double>> marginals(data.num_attributes());
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    marginals[j].assign(data.attribute(j).cardinality(), 0.0);
    const std::vector<uint32_t>& column = data.column(j);
    for (uint64_t s = begin; s < end; ++s) {
      marginals[j][column[s % rows]] += 1.0;
    }
    for (double& x : marginals[j]) x /= static_cast<double>(end - begin);
  }
  return marginals;
}

// The ladder rule: over the last quarter of the step's schedule (the
// time its last report falls due), the median backlog is at most the
// reports due in 5 ms plus two windows.
bool StepSustained(const PhaseResult& phase, uint64_t total, double rate) {
  const double schedule = static_cast<double>(total) / rate;
  std::vector<double> tail;
  for (size_t i = 0; i < phase.backlog.size(); ++i) {
    if (phase.backlog_t[i] >= 0.75 * schedule &&
        phase.backlog_t[i] <= schedule) {
      tail.push_back(phase.backlog[i]);
    }
  }
  return phase.ok && !tail.empty() &&
         Median(tail) <= rate * 0.005 + 2.0 * kWindowSize;
}

uint64_t WholeWindows(double reports) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(reports / kWindowSize)) * kWindowSize;
}

// One ladder pass (see the file comment); returns the measured rate of
// its highest sustained step, 0 when even the first step fails.
double LadderPass(const RunOptions& options, const Reports& reports,
                  const std::vector<mdrr::DirectEncodingOracle>& oracles,
                  double step_seconds, Report& report) {
  double held = 0.0, held_rate = 0.0, failed_rate = 0.0;
  auto step = [&](double rate) {
    const uint64_t total = WholeWindows(rate * step_seconds);
    PhaseResult phase = RunPhase(options, reports, total, rate, false);
    CheckWindows(phase, total, reports, oracles, report);
    const bool ok = StepSustained(phase, total, rate);
    if (ok) {
      held_rate = rate;
      held = static_cast<double>(total) / phase.seconds;
    } else {
      failed_rate = rate;
    }
    return ok;
  };
  for (double rate = kLadderStart; rate <= kLadderMax; rate *= 2.0) {
    if (!step(rate)) break;
  }
  for (int b = 0; b < kBisections && held_rate > 0.0 && failed_rate > 0.0;
       ++b) {
    step(std::sqrt(held_rate * failed_rate));
  }
  Note("stream-collect ladder pass: sustained %.0f reports/s (measured "
       "%.0f), first failed %.0f reports/s",
       held_rate, held, failed_rate);
  return held;
}

// Accuracy of a phase's windows: every window's marginal TV, and the
// count queries on the first kQueryWindows windows.
void ScoreAccuracy(const PhaseResult& phase, const Reports& reports,
                   std::vector<double>& tv,
                   std::vector<double>& query_errors) {
  const std::vector<mdrr::CountQuery> queries =
      CoverageQueries(reports.truth, kQueriesPerWindow);
  for (size_t w = 0; w < phase.windows.size(); ++w) {
    const mdrr::release::StreamWindow& window = phase.windows[w];
    tv.push_back(MeanTotalVariation(
        window.artifacts.marginal_estimates,
        WindowTruth(reports, window.begin_sequence, window.end_sequence)));
    if (w >= kQueryWindows) continue;
    std::vector<std::vector<uint32_t>> columns(reports.width);
    for (size_t j = 0; j < reports.width; ++j) {
      const std::vector<uint32_t>& column = reports.truth.column(j);
      for (uint64_t s = window.begin_sequence; s < window.end_sequence; ++s) {
        columns[j].push_back(column[s % reports.rows()]);
      }
    }
    mdrr::EmpiricalCounts exact(
        mdrr::Dataset(reports.truth.schema(), std::move(columns)));
    mdrr::IndependentMarginalsEstimate estimate(
        window.artifacts.marginal_estimates,
        static_cast<double>(window.num_reports));
    for (const mdrr::CountQuery& query : queries) {
      query_errors.push_back(mdrr::eval::RelativeError(
          estimate.EstimateCount(query), exact.EstimateCount(query)));
    }
  }
}

// The traced run's reference phase: kReferenceRuns sub-runs at
// kReferenceRate filling the rest of the run. Each sub-run gives a
// latency median and tail; the reported figures are their medians, so
// one host stall in one sub-run does not decide the run's tail.
void RunReference(const RunOptions& options, const Reports& reports,
                  const std::vector<mdrr::DirectEncodingOracle>& oracles,
                  double seconds_left, Report& report) {
  const double scale = std::min(1.0, options.scale);
  const double sub_seconds = std::max(
      0.25 * scale, seconds_left / static_cast<double>(kReferenceRuns));
  const uint64_t ref_total = WholeWindows(kReferenceRate * sub_seconds);
  std::vector<double> p50s, tails, lag_ms;
  uint64_t attempts = 0, rejects = 0, windows = 0;
  double ref_seconds = 0.0, drain_busy_s = 0.0, poll_s = 0.0;
  double backlog_max = 0.0;
  TailStat tail;
  for (int k = 0; k < kReferenceRuns; ++k) {
    PhaseResult ref =
        RunPhase(options, reports, ref_total, kReferenceRate, true);
    CheckWindows(ref, ref_total, reports, oracles, report);
    if (ref.latency_ms.empty()) return;  // The gate has failed the run.
    p50s.push_back(Median(ref.latency_ms));
    tail = Tail(ref.latency_ms);
    tails.push_back(tail.value);
    lag_ms.insert(lag_ms.end(), ref.lag_ms.begin(), ref.lag_ms.end());
    attempts += ref.attempts;
    rejects += ref.rejects;
    windows += ref.windows.size();
    ref_seconds += ref.seconds;
    drain_busy_s += ref.drain_busy_s;
    poll_s += ref.poll_s;
    for (double b : ref.backlog) backlog_max = std::max(backlog_max, b);
  }
  const TailStat lag = Tail(lag_ms);
  report.Set("release.submit_reject_ratio",
             attempts == 0 ? 0.0
                           : static_cast<double>(rejects) /
                                 static_cast<double>(attempts));
  report.Set("release.drain_busy_frac", drain_busy_s / ref_seconds);
  report.Set("release.backlog_max", backlog_max);
  report.Set("release.poll_ms_per_window",
             1e3 * poll_s / static_cast<double>(windows));
  report.Set("loadgen.lag_tail_ms", lag.value);
  report.Set("release.window_latency_p50_ms", Median(p50s));
  report.Set("release.window_latency_tail_ms", Median(tails));
  Note("stream-collect reference: %.0f reports/s, %d sub-runs of %llu "
       "windows; latency tail per sub-run p%.2f over %zu samples (%zu "
       "beyond); generator lag tail p%.3f over %zu windows",
       kReferenceRate, kReferenceRuns,
       static_cast<unsigned long long>(ref_total / kWindowSize),
       tail.percentile, tail.samples, tail.beyond, lag.percentile,
       lag.samples);
}

}  // namespace

void RunStreamCollect(const RunOptions& options, Report& report) {
  const size_t n = std::max<size_t>(
      20000, static_cast<size_t>(std::llround(1000000 * options.scale)));
  std::vector<double> setups;
  Reports reports;
  for (int k = 0; k < 3; ++k) {
    Stopwatch setup;
    Reports fresh;
    if (!SetUp(options, n, fresh, report)) return;
    setups.push_back(setup.Seconds());
    reports = std::move(fresh);
  }
  if (!options.trace) report.Set("setup_s", Median(setups));

  std::vector<mdrr::DirectEncodingOracle> oracles;
  {
    auto collector = mdrr::release::StreamingCollector::Create(
        MakeSpec(options.seed), Cardinalities(reports.truth), {});
    if (!report.Check(collector.ok(), "create the collector")) return;
    for (const mdrr::RrMatrix& matrix : collector.value()->matrices()) {
      oracles.emplace_back(matrix);
    }
  }
  const uint64_t lu_before = mdrr::linalg::LuFactorizationCount();
  const double scale = std::min(1.0, options.scale);
  const uint64_t closed_total = WholeWindows(kClosedLoopReports * scale);
  Stopwatch budget;

  // Warm-up.
  RunPhase(options, reports, closed_total, 0.0, false);

  if (options.trace) {
    // Closed-loop phases with and without the drain/poll timing, for the
    // tracing-overhead row.
    std::vector<double> closed, closed_traced;
    for (int k = 0; k < kClosedLoopRepeats; ++k) {
      for (bool traced : {false, true}) {
        PhaseResult phase =
            RunPhase(options, reports, closed_total, 0.0, traced);
        CheckWindows(phase, closed_total, reports, oracles, report);
        (traced ? closed_traced : closed)
            .push_back(static_cast<double>(closed_total) / phase.seconds);
      }
    }
    RunReference(options, reports, oracles,
                 options.seconds - budget.Seconds(), report);
    const uint64_t lu_delta =
        mdrr::linalg::LuFactorizationCount() - lu_before;
    report.Check(lu_delta == 0, "structured windows run no LU factorization");
    report.Set("linalg.lu_factorizations", static_cast<double>(lu_delta));
    report.Set("trace.records_per_s_delta",
               Median(closed_traced) - Median(closed));
    return;
  }

  // The first closed-loop phase is also scored for accuracy.
  std::vector<double> closed, tv, query_errors;
  {
    PhaseResult phase = RunPhase(options, reports, closed_total, 0.0, false);
    if (options.corrupt && !phase.windows.empty()) {
      phase.windows[phase.windows.size() / 2].num_reports ^= 1;
    }
    CheckWindows(phase, closed_total, reports, oracles, report);
    closed.push_back(static_cast<double>(closed_total) / phase.seconds);
    ScoreAccuracy(phase, reports, tv, query_errors);
  }

  std::vector<double> sustained;
  for (int k = 0; k < kLadderPasses; ++k) {
    sustained.push_back(
        LadderPass(options, reports, oracles, kStepSeconds * scale, report));
  }

  while (closed.size() < static_cast<size_t>(kClosedLoopRepeats) ||
         budget.Seconds() < options.seconds) {
    PhaseResult phase = RunPhase(options, reports, closed_total, 0.0, false);
    CheckWindows(phase, closed_total, reports, oracles, report);
    if (!phase.ok) return;  // The gate has failed the run.
    closed.push_back(static_cast<double>(closed_total) / phase.seconds);
  }
  const uint64_t lu_delta = mdrr::linalg::LuFactorizationCount() - lu_before;
  report.Check(lu_delta == 0, "structured windows run no LU factorization");
  Note("stream-collect: %zu records, window %llu reports, closed loop %zu x "
       "%llu reports, ladder %d passes of %d doubling/bisection steps",
       n, static_cast<unsigned long long>(kWindowSize), closed.size(),
       static_cast<unsigned long long>(closed_total), kLadderPasses,
       kBisections);

  double tv_mean = 0.0;
  for (double v : tv) tv_mean += v;
  report.Set("records_per_s", Median(closed));
  report.Set("sustained_rps", Median(sustained));
  report.Set("query_rel_error", MedianFinite(query_errors));
  report.Set("marginal_tv", tv.empty() ? 0.0 : tv_mean / tv.size());
  report.Set("peak_rss_mb", PeakRssMiB());
}

}  // namespace perfbench
