#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <thread>

#include "mdrr/eval/subset_query.h"
#include "mdrr/rng/rng.h"

namespace perfbench {

const std::vector<MetricInfo>& EndToEndMetrics() {
  static const std::vector<MetricInfo> metrics = {
      {"setup_s", "s"},
      {"records_per_s", "records/s"},
      {"sustained_rps", "records/s"},
      {"query_rel_error", "ratio"},
      {"marginal_tv", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricInfo>& PerLayerMetrics() {
  static const std::vector<MetricInfo> metrics = {
      {"release.plan_s", "s"},
      {"release.overhead_s", "s"},
      {"core.mechanism_s", "s"},
      {"core.assess_s", "s"},
      {"core.adjust_s", "s"},
      {"core.synthesize_s", "s"},
      {"core.mechanism_t1_s", "s"},
      {"core.adjust_t1_s", "s"},
      {"core.synthesize_t1_s", "s"},
      {"core.adjust_iterations", "count"},
      {"core.adjust_gbps_computed", "GB/s"},
      {"core.adjust_bw_fraction", "ratio"},
      {"mem.triad_gbps", "GB/s"},
      {"linalg.lu_factorizations", "count"},
      {"release.submit_reject_ratio", "ratio"},
      {"release.drain_busy_frac", "ratio"},
      {"release.backlog_max", "records"},
      {"release.window_latency_p50_ms", "ms"},
      {"release.window_latency_tail_ms", "ms"},
      {"release.poll_ms_per_window", "ms"},
      {"loadgen.lag_tail_ms", "ms"},
      {"protocol.session_s", "s"},
      {"protocol.session_t1_s", "s"},
      {"protocol.party_loop_s", "s"},
      {"protocol.messages", "count"},
      {"net.accept_s", "s"},
      {"net.perturb_column_s", "s"},
      {"net.inprocess_s", "s"},
      {"net.overhead_ratio", "ratio"},
      {"net.commit_s", "s"},
      {"trace.records_per_s_delta", "records/s"},
  };
  return metrics;
}

namespace {

const std::vector<MetricInfo>& ModeMetrics(bool trace) {
  return trace ? PerLayerMetrics() : EndToEndMetrics();
}

}  // namespace

Report::Report(bool trace) : trace_(trace) {
  // Per-layer rows of layers a workload never calls read 0.
  for (const MetricInfo& m : ModeMetrics(trace)) {
    values_[m.name] = 0.0;
    set_[m.name] = trace;
  }
}

void Report::Set(const std::string& name, double value) {
  if (values_.count(name) == 0) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    ++failed_;
    return;
  }
  values_[name] = value;
  set_[name] = true;
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 what.c_str());
  }
  return ok;
}

int Report::Finish() const {
  bool complete = true;
  std::printf("# %-30s %22s  %s\n", "metric", "value", "unit");
  for (const MetricInfo& m : ModeMetrics(trace_)) {
    if (!set_.at(m.name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   m.name);
      complete = false;
    }
    std::printf("# %-30s %22.6f  %s\n", m.name, values_.at(m.name), m.unit);
  }
  const double error_ratio =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("# error_ratio %.6f (%llu failed of %llu attempted)\n",
              error_ratio, static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  const bool correct = failed_ == 0 && attempted_ > 0 && complete;
  std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(1, attempted_)),
              static_cast<unsigned long long>(failed_));
  const char* sep = "";
  for (const MetricInfo& m : ModeMetrics(trace_)) {
    double v = values_.at(m.name);
    if (!std::isfinite(v)) v = -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name,
                v, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void Note(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

TailStat Tail(std::vector<double> values) {
  TailStat tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 20) {
    tail.value = values.back();
    return tail;
  }
  tail.beyond = 10;
  tail.value = values[n - 11];
  tail.percentile = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return tail;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool SameData(const mdrr::Dataset& a, const mdrr::Dataset& b) {
  if (a.num_rows() != b.num_rows() ||
      a.num_attributes() != b.num_attributes()) {
    return false;
  }
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

std::vector<std::vector<double>> TrueMarginals(const mdrr::Dataset& data,
                                               size_t begin, size_t end) {
  std::vector<std::vector<double>> marginals(data.num_attributes());
  const double n = static_cast<double>(end - begin);
  for (size_t j = 0; j < data.num_attributes(); ++j) {
    std::vector<double>& m = marginals[j];
    m.assign(data.attribute(j).cardinality(), 0.0);
    const std::vector<uint32_t>& column = data.column(j);
    for (size_t i = begin; i < end; ++i) m[column[i]] += 1.0;
    for (double& x : m) x /= n;
  }
  return marginals;
}

double MeanTotalVariation(const std::vector<std::vector<double>>& estimate,
                          const std::vector<std::vector<double>>& truth) {
  double sum = 0.0;
  for (size_t j = 0; j < truth.size(); ++j) {
    double tv = 0.0;
    for (size_t v = 0; v < truth[j].size(); ++v) {
      const double e = v < estimate[j].size() ? estimate[j][v] : 0.0;
      tv += std::fabs(e - truth[j][v]);
    }
    sum += 0.5 * tv;
  }
  return truth.empty() ? 0.0 : sum / static_cast<double>(truth.size());
}

std::vector<mdrr::CountQuery> CoverageQueries(const mdrr::Dataset& data,
                                              int count) {
  constexpr uint64_t kQuerySeed = 0x5ec65;
  const double sigmas[] = {0.1, 0.3, 0.5};
  mdrr::Rng rng(kQuerySeed);
  std::vector<mdrr::CountQuery> queries;
  for (int q = 0; q < count; ++q) {
    queries.push_back(mdrr::eval::GenerateCoverageQuery(
        data, sigmas[q % 3], 2 + static_cast<size_t>((q / 3) % 3), rng));
  }
  return queries;
}

double MedianFinite(const std::vector<double>& values) {
  std::vector<double> finite;
  finite.reserve(values.size());
  for (double v : values) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  return finite.empty() ? 0.0 : Median(std::move(finite));
}

double TriadGBps(size_t array_bytes, size_t threads, int repeats) {
  const size_t n = std::max<size_t>(1, array_bytes / sizeof(double));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double scalar = 3.0;
  auto pass = [&](size_t t) {
    const size_t begin = n * t / threads;
    const size_t end = n * (t + 1) / threads;
    double* pa = a.data();
    const double* pb = b.data();
    const double* pc = c.data();
    for (size_t i = begin; i < end; ++i) pa[i] = pb[i] + scalar * pc[i];
  };
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r <= repeats; ++r) {  // r == 0 is the untimed warm-up.
    Stopwatch watch;
    std::vector<std::thread> pool;
    for (size_t t = 1; t < threads; ++t) pool.emplace_back(pass, t);
    pass(0);
    for (std::thread& th : pool) th.join();
    if (r > 0) best = std::min(best, watch.Seconds());
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return 24.0 * static_cast<double>(n) / best / 1e9;
}

size_t LastLevelCacheBytes() {
  long bytes = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return bytes > 0 ? static_cast<size_t>(bytes) : 0;
}

}  // namespace perfbench
