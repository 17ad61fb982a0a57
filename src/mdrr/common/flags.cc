#include "mdrr/common/flags.h"

#include <string_view>

#include "mdrr/common/string_util.h"

namespace mdrr {

void FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) continue;
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool FlagSet::Has(const std::string& key) const {
  read_.insert(key);
  return values_.count(key) > 0;
}

std::string FlagSet::GetString(const std::string& key,
                               const std::string& default_value) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagSet::GetInt(const std::string& key, int64_t default_value,
                        int64_t min, int64_t max) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  auto parsed = ParseInt64(it->second);
  if (parsed.ok() && parsed.value() >= min && parsed.value() <= max) {
    return parsed.value();
  }
  malformed_.insert(key);
  return default_value;
}

double FlagSet::GetDouble(const std::string& key, double default_value) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  auto parsed = ParseDouble(it->second);
  if (parsed.ok()) return parsed.value();
  malformed_.insert(key);
  return default_value;
}

bool FlagSet::GetBool(const std::string& key, bool default_value) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

Status FlagSet::status() const {
  std::string message;
  if (!malformed_.empty()) {
    message = "malformed or out-of-range flag value";
    for (const std::string& key : malformed_) {
      message += " --" + key + "='" + values_.at(key) + "'";
    }
  }
  std::string unknown;
  for (const auto& entry : values_) {
    if (!read_.empty() && read_.count(entry.first) == 0) {
      unknown += " --" + entry.first;
    }
  }
  if (!unknown.empty()) {
    message += (message.empty() ? "" : "; ") + ("unknown flag" + unknown);
  }
  if (message.empty()) return Status::OK();
  return Status::InvalidArgument(message);
}

}  // namespace mdrr
