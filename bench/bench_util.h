// Shared helpers for the experiment benches: dataset acquisition (real
// adult.data if --adult_csv points at one, the calibrated synthesizer
// otherwise) and uniform table formatting.

#ifndef MDRR_BENCH_BENCH_UTIL_H_
#define MDRR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "mdrr/common/flags.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/dataset.h"

namespace mdrr::bench {

// Resolves the evaluation dataset. Flags:
//   --adult_csv=PATH  load a real UCI adult.data file;
//   --n=N             synthetic record count (default 32561);
//   --data_seed=S     synthesizer seed (default 2020).
inline Dataset LoadAdult(const FlagSet& flags) {
  std::string path = flags.GetString("adult_csv", "");
  if (!path.empty()) {
    auto loaded = LoadAdultCsv(path);
    if (loaded.ok()) {
      std::fprintf(stderr, "# loaded %zu records from %s\n",
                   loaded.value().num_rows(), path.c_str());
      return std::move(loaded).value();
    }
    std::fprintf(stderr, "# failed to load %s (%s); falling back to synth\n",
                 path.c_str(), loaded.status().ToString().c_str());
  }
  size_t n = static_cast<size_t>(
      flags.GetInt("n", static_cast<int64_t>(kAdultNumRecords)));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("data_seed", 2020));
  return SynthesizeAdult(n, seed);
}

// Paper default is 1000 runs; benches default lower for CI speed.
inline int RunsFlag(const FlagSet& flags, int default_runs = 25) {
  return static_cast<int>(flags.GetInt("runs", default_runs));
}

inline void PrintHeader(const char* title) {
  std::printf("=== %s ===\n", title);
}

// Prints what FlagSet::status() reports (a malformed value, an
// out-of-range integer, an unknown flag name) and returns false. Call it
// after the last flag read, so a typo never runs at a default.
inline bool FlagsOk(const FlagSet& flags) {
  Status status = flags.status();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  return status.ok();
}

}  // namespace mdrr::bench

#endif  // MDRR_BENCH_BENCH_UTIL_H_
