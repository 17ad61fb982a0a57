// Workload party-session: the paper's two-round local-anonymization
// protocol (RunDistributedSession) over about 100k simulated parties,
// batched execution, mt19937, min(nproc, 4) threads. Each party holds
// about 2.5 KB of engine state, which sizes the party count.
//
// Untraced run: synthesis five times (set-up); an untimed warm-up
// session, checked against the same session at 1 and 2 threads; then
// timed sessions, one seed each, until --seconds have been spent.
// Traced run: timed sessions as in the untraced run (so the tracing
// overhead is 0 by construction), then the 1-thread batched session and
// the kPartyLoop reference once each, both checked against the N-thread
// transcript.

#include <algorithm>
#include <cmath>

#include "harness.h"
#include "mdrr/core/joint_estimate.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/eval/metrics.h"
#include "mdrr/protocol/session.h"

namespace perfbench {
namespace {

constexpr int kQueries = 200;

mdrr::protocol::SessionOptions MakeOptions(size_t n, uint64_t seed,
                                           size_t threads,
                                           size_t max_threads) {
  mdrr::protocol::SessionOptions options;
  options.keep_probability = 0.7;
  options.round1_keep_probability = 0.7;
  options.seed = seed;
  options.num_threads = threads;
  // The grain only balances load (never changes the transcript): about
  // eight batches per worker at the largest thread count.
  options.shard_size = std::max<size_t>(1, n / (8 * max_threads));
  options.execution = mdrr::protocol::SessionExecution::kBatched;
  options.rng = mdrr::RngKind::kMt19937;
  return options;
}

uint64_t SessionSeed(uint64_t workload_seed, size_t r) {
  return 0xbf58476d1ce4e5b9ULL * (workload_seed + 1) + r;
}

bool SameTranscript(const mdrr::protocol::SessionResult& a,
                    const mdrr::protocol::SessionResult& b) {
  return SameData(a.randomized, b.randomized) && a.clusters == b.clusters &&
         a.cluster_joints == b.cluster_joints &&
         a.round1_epsilon == b.round1_epsilon &&
         a.round2_epsilon == b.round2_epsilon &&
         a.messages_round1 == b.messages_round1 &&
         a.messages_broadcast == b.messages_broadcast &&
         a.messages_round2 == b.messages_round2;
}

// Per-attribute marginals of the released cluster joints.
std::vector<std::vector<double>> SessionMarginals(
    const mdrr::protocol::SessionResult& result, size_t num_attributes) {
  std::vector<std::vector<double>> marginals(num_attributes);
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    for (size_t pos = 0; pos < result.clusters[c].size(); ++pos) {
      marginals[result.clusters[c][pos]] =
          result.cluster_domains[c].MarginalizeTo(result.cluster_joints[c],
                                                  pos);
    }
  }
  return marginals;
}

}  // namespace

void RunPartySession(const RunOptions& options, Report& report) {
  const size_t n = std::max<size_t>(
      2000, static_cast<size_t>(std::llround(100000 * options.scale)));
  const size_t threads = options.threads;
  std::vector<double> setups;
  mdrr::Dataset data;
  for (int k = 0; k < 5; ++k) {
    Stopwatch setup;
    mdrr::Dataset fresh = mdrr::SynthesizeAdult(n, options.seed);
    setups.push_back(setup.Seconds());
    data = std::move(fresh);
  }

  auto run = [&](uint64_t seed, size_t run_threads,
                 mdrr::protocol::SessionExecution execution =
                     mdrr::protocol::SessionExecution::kBatched) {
    mdrr::protocol::SessionOptions session =
        MakeOptions(n, seed, run_threads, threads);
    session.execution = execution;
    return mdrr::protocol::RunDistributedSession(data, session);
  };

  // Warm-up: the first allocation of the party state.
  auto warm = run(SessionSeed(options.seed, 0), threads);
  if (!report.Check(warm.ok(), "warm-up session")) return;
  if (options.corrupt) {
    mdrr::protocol::SessionResult& result = warm.value();
    result.cluster_joints[0][0] += 1e-9;
  }

  if (options.trace) {
    std::vector<double> traced;
    Stopwatch budget;
    for (size_t r = 1; traced.size() < 2 || budget.Seconds() < options.seconds;
         ++r) {
      Stopwatch watch;
      auto session = run(SessionSeed(options.seed, r), threads);
      traced.push_back(watch.Seconds());
      if (!report.Check(session.ok(), "session")) return;
    }
    Stopwatch watch;
    auto single = run(SessionSeed(options.seed, 0), 1);
    report.Set("protocol.session_t1_s", watch.Seconds());
    watch.Restart();
    auto loop = run(SessionSeed(options.seed, 0), 1,
                    mdrr::protocol::SessionExecution::kPartyLoop);
    report.Set("protocol.party_loop_s", watch.Seconds());
    report.Check(single.ok() && SameTranscript(single.value(), warm.value()),
                 "session at 1 thread equals the session at N threads");
    report.Check(loop.ok() && SameTranscript(loop.value(), warm.value()),
                 "party loop equals the batched session");
    const mdrr::protocol::SessionResult& w = warm.value();
    report.Set("protocol.session_s", Median(traced));
    report.Set("protocol.messages",
               static_cast<double>(w.messages_round1 + w.messages_broadcast +
                                   w.messages_round2));
    // The session is timed around the one call, exactly as in the
    // untraced run: tracing adds nothing to it.
    report.Set("trace.records_per_s_delta", 0.0);
    Note("party-session traced: %zu parties, %zu repeats, threads=%zu", n,
         traced.size(), threads);
    return;
  }
  report.Set("setup_s", Median(setups));

  // Gate: the transcript does not depend on the thread count.
  for (size_t t : {size_t{1}, size_t{2}}) {
    auto other = run(SessionSeed(options.seed, 0), t);
    report.Check(other.ok() && SameTranscript(other.value(), warm.value()),
                 "session at " + std::to_string(t) +
                     " threads equals the session at " +
                     std::to_string(threads));
  }

  const std::vector<std::vector<double>> truth =
      TrueMarginals(data, 0, data.num_rows());
  const std::vector<mdrr::CountQuery> queries = CoverageQueries(data, kQueries);
  std::vector<double> exact;
  {
    mdrr::EmpiricalCounts counts(data);
    for (const mdrr::CountQuery& query : queries) {
      exact.push_back(counts.EstimateCount(query));
    }
  }
  auto accuracy = [&](const mdrr::protocol::SessionResult& result,
                      std::vector<double>& tv,
                      std::vector<double>& query_errors) {
    tv.push_back(MeanTotalVariation(
        SessionMarginals(result, data.num_attributes()), truth));
    mdrr::ClusterFactorizationEstimate estimate(
        result.clusters, result.cluster_domains, result.cluster_joints,
        static_cast<double>(n));
    std::vector<double> errors;
    for (size_t q = 0; q < queries.size(); ++q) {
      errors.push_back(mdrr::eval::RelativeError(
          estimate.EstimateCount(queries[q]), exact[q]));
    }
    query_errors.push_back(MedianFinite(errors));
  };

  std::vector<double> times, tv, query_errors;
  accuracy(warm.value(), tv, query_errors);
  Stopwatch budget;
  for (size_t r = 1; times.size() < 3 || budget.Seconds() < options.seconds;
       ++r) {
    Stopwatch watch;
    auto session = run(SessionSeed(options.seed, r), threads);
    times.push_back(watch.Seconds());
    if (!report.Check(session.ok(), "timed session")) return;
    accuracy(session.value(), tv, query_errors);
  }
  double total = 0.0;
  for (double t : times) total += t;
  const double median = Median(times);
  const TailStat tail = Tail(times);
  double tv_sum = 0.0, query_sum = 0.0;
  for (double v : tv) tv_sum += v;
  for (double v : query_errors) query_sum += v;
  Note("party-session: %zu parties, threads=%zu; session time over %zu "
       "repeats: median %.4fs, p%.1f %.4fs (%zu beyond)",
       n, threads, times.size(), median, tail.percentile, tail.value,
       tail.beyond);
  report.Set("records_per_s", static_cast<double>(n) / median);
  report.Set("sustained_rps",
             static_cast<double>(n) * static_cast<double>(times.size()) /
                 total);
  report.Set("query_rel_error",
             query_sum / static_cast<double>(query_errors.size()));
  report.Set("marginal_tv", tv_sum / static_cast<double>(tv.size()));
  report.Set("peak_rss_mb", PeakRssMiB());
}

}  // namespace perfbench
