// perfbench: runs one workload of the repository benchmark and prints
// its metrics. perfbench/run.py builds this program and is the command
// BENCHMARK.json names; see perfbench/METRICS.md for what each workload
// and metric means.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--scale=F] [--corrupt=1]
//
// The last stdout line is "PERFBENCH_RESULT <json>". The exit code is 0
// only when every correctness check passed.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "harness.h"
#include "mdrr/common/flags.h"

int main(int argc, char** argv) {
  mdrr::FlagSet flags;
  flags.Parse(argc, argv);
  perfbench::RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.scale = flags.GetDouble("scale", 1.0);
  options.corrupt = flags.GetInt("corrupt", 0) != 0;
  options.threads = std::clamp<size_t>(std::thread::hardware_concurrency(),
                                       1, 4);

  perfbench::Report report(options.trace);
  if (options.workload == "adult-clusters-release") {
    perfbench::RunAdultClustersRelease(options, report);
  } else if (options.workload == "stream-collect") {
    perfbench::RunStreamCollect(options, report);
  } else if (options.workload == "party-session") {
    perfbench::RunPartySession(options, report);
  } else if (options.workload == "distributed-release") {
    perfbench::RunDistributedRelease(options, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  return report.Finish();
}
