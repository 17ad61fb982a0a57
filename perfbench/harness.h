// Shared pieces of the perfbench workloads: run options, the metric and
// correctness-gate report, timing and percentile helpers, accuracy
// helpers, and the memory-bandwidth reference.
//
// Every workload fills one Report. Untraced runs (--trace 0) set every
// end-to-end metric; traced runs (--trace 1) set the per-layer rows of
// the layers the workload calls, and every other per-layer row reads 0
// (that layer did no work). Report::Check is the correctness gate: each
// call is one attempted operation, each false one a failure.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mdrr/core/joint_estimate.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/stats/descriptive.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Multiplies every input size; the self-test runs at a tiny scale.
  double scale = 1.0;
  // Deliberately corrupts one released output before the gate checks it,
  // so the self-test can prove the gate trips.
  bool corrupt = false;
  // Worker threads of the parallel policies: min(nproc, 4).
  size_t threads = 4;
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Spin-wait hint for the busy loops of the streaming workload.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void Restart() { start_ = Clock::now(); }
  double Seconds() const { return SecondsBetween(start_, Clock::now()); }

 private:
  Clock::time_point start_;
};

// One metric: its BENCHMARK.json name and unit. Which workload drives a
// per-layer row and which end-to-end metric it moves is documented once,
// in perfbench/METRICS.md (the self-test checks that table against
// BENCHMARK.json).
struct MetricInfo {
  const char* name;
  const char* unit;
};

const std::vector<MetricInfo>& EndToEndMetrics();
const std::vector<MetricInfo>& PerLayerMetrics();

class Report {
 public:
  explicit Report(bool trace);

  // Records a metric. The name must be one of the mode's metrics.
  void Set(const std::string& name, double value);

  // One attempted operation of the correctness gate.
  bool Check(bool ok, const std::string& what);

  // Prints the metric table and the machine-readable result line.
  // Returns the process exit code: 0 only when every metric of the mode
  // was set and no check failed.
  int Finish() const;

 private:
  bool trace_;
  std::map<std::string, double> values_;
  std::map<std::string, bool> set_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// "# ..." lines: human-readable context on stdout (never the last line).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

// The library's median; it requires a non-empty input, so callers guard
// the empty case.
using mdrr::stats::Median;

// The highest percentile that leaves at least ten samples beyond it:
// q = 100 * (1 - 10 / n), evaluated on the sorted samples as the value
// with exactly ten samples above it. With fewer than twenty samples that
// percentile would not lie above the median, so the maximum is reported
// instead (q = 100, nothing beyond).
struct TailStat {
  double value = 0.0;
  double percentile = 100.0;
  size_t beyond = 0;
  size_t samples = 0;
};
TailStat Tail(std::vector<double> values);

// Peak resident set size of this process, MiB.
double PeakRssMiB();

// Same schema size, rows and columns, bit for bit.
bool SameData(const mdrr::Dataset& a, const mdrr::Dataset& b);

// Per-attribute category frequencies of rows [begin, end) of a dataset.
std::vector<std::vector<double>> TrueMarginals(const mdrr::Dataset& data,
                                               size_t begin, size_t end);
// Mean over attributes of the total-variation distance between
// estimated and true marginals.
double MeanTotalVariation(const std::vector<std::vector<double>>& estimate,
                          const std::vector<std::vector<double>>& truth);

// The Section 6.5 count queries every workload answers: `count`
// eval::GenerateCoverageQuery queries cycling through coverages
// {0.1, 0.3, 0.5} and 2, 3 or 4 attributes, drawn from one fixed seed so
// every run asks the same questions (queries depend only on the schema).
std::vector<mdrr::CountQuery> CoverageQueries(const mdrr::Dataset& data,
                                              int count);

// Median over the finite values (relative errors of queries whose true
// count is 0 are infinite and skipped); 0 when none is finite.
double MedianFinite(const std::vector<double>& values);

// STREAM-triad reference a[i] = b[i] + s * c[i] over three arrays of
// `array_bytes` each; returns the best GB/s (10^9 bytes/s) over
// `repeats` passes, counting 24 bytes per element (two reads, one write).
double TriadGBps(size_t array_bytes, size_t threads, int repeats);

// Last-level cache size the host reports, bytes (0 when unknown).
size_t LastLevelCacheBytes();

// Workload entry points (one translation unit each).
void RunAdultClustersRelease(const RunOptions& options, Report& report);
void RunStreamCollect(const RunOptions& options, Report& report);
void RunPartySession(const RunOptions& options, Report& report);
void RunDistributedRelease(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
