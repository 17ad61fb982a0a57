// Small string helpers used across the library (no external dependencies).

#ifndef MDRR_COMMON_STRING_UTIL_H_
#define MDRR_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "mdrr/common/status_or.h"

namespace mdrr {

// Splits `input` on `delimiter`; empty fields are preserved.
std::vector<std::string> Split(std::string_view input, char delimiter);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

// Joins `parts` with `separator` in between.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

// Strict numeric parsing: the whole (stripped) string must be consumed.
StatusOr<int64_t> ParseInt64(std::string_view input);
StatusOr<double> ParseDouble(std::string_view input);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// One row of an enum's {value, token} table. An enum with stable text
// tokens (spec files, CLI flags) declares the table once; both lookup
// directions read it.
template <typename E>
struct EnumToken {
  E value;
  const char* token;
};

template <typename E, size_t N>
const char* TokenFor(const EnumToken<E> (&table)[N], E value) {
  for (const EnumToken<E>& row : table) {
    if (row.value == value) return row.token;
  }
  return "unknown";
}

// InvalidArgument "unknown <what> '<token>' (expected a|b|...)" when
// `token` is not in the table.
template <typename E, size_t N>
StatusOr<E> ValueFor(const EnumToken<E> (&table)[N], std::string_view token,
                     const char* what) {
  std::string expected;
  for (const EnumToken<E>& row : table) {
    if (token == row.token) return row.value;
    expected += (expected.empty() ? "" : "|") + std::string(row.token);
  }
  return Status::InvalidArgument("unknown " + std::string(what) + " '" +
                                 std::string(token) + "' (expected " +
                                 expected + ")");
}

}  // namespace mdrr

#endif  // MDRR_COMMON_STRING_UTIL_H_
