// Minimal --key=value command-line flag parsing for the tools, benches
// and examples.
//
// Example:
//   FlagSet flags;
//   flags.Parse(argc, argv);
//   int runs = flags.GetInt("runs", 25);
//   double sigma = flags.GetDouble("sigma", 0.1);

#ifndef MDRR_COMMON_FLAGS_H_
#define MDRR_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "mdrr/common/status.h"

namespace mdrr {

class FlagSet {
 public:
  // Consumes arguments of the form --key=value or --key (value "true").
  // Non-flag arguments are ignored (so google-benchmark flags pass through).
  void Parse(int argc, char** argv);

  // Has and the getters mark `key` as read (a flag the tool knows).
  bool Has(const std::string& key) const;

  // Typed getters with defaults; a malformed value falls back to the
  // default and its key is recorded in malformed(). GetInt treats a value
  // outside [min, max] as malformed, so a count read into a narrower or
  // unsigned type can neither wrap nor truncate.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value,
                 int64_t min = std::numeric_limits<int64_t>::min(),
                 int64_t max = std::numeric_limits<int64_t>::max()) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  // Keys whose value failed to parse in a typed getter so far.
  const std::set<std::string>& malformed() const { return malformed_; }

  // OK, or InvalidArgument naming every malformed flag and its value and,
  // once any flag has been read, every parsed flag that never was (an
  // unknown or misspelt name). The tools check this after their last
  // flag read and exit non-zero, so neither a typo'd privacy parameter
  // nor a typo'd flag name (--thraeds=4) silently becomes the default.
  Status status() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  mutable std::set<std::string> malformed_;
};

}  // namespace mdrr

#endif  // MDRR_COMMON_FLAGS_H_
