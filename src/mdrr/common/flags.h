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

  bool Has(const std::string& key) const;

  // Typed getters with defaults; a malformed value falls back to the
  // default and its key is recorded in malformed().
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  // Keys whose value failed to parse in a typed getter so far.
  const std::set<std::string>& malformed() const { return malformed_; }

  // OK, or InvalidArgument naming every malformed flag and its value.
  // The tools check this after reading their flags and exit non-zero, so
  // a typo'd privacy parameter never silently becomes the default.
  Status status() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> malformed_;
};

}  // namespace mdrr

#endif  // MDRR_COMMON_FLAGS_H_
