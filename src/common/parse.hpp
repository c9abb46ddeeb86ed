// Shared case-insensitive enum parsing.
//
// Every user-facing enum (today, the scheduler kinds) exposes a from_string
// parser with the same contract: lower-case the input, match it against the
// canonical to_string name of each value, and on failure throw
// std::invalid_argument naming the offending input and every valid name.
// This header is that contract, written once.
#pragma once

#include <cctype>
#include <stdexcept>
#include <string>

namespace ecthub {

/// ASCII lower-casing (locale-independent — enum names are plain ASCII).
[[nodiscard]] inline std::string ascii_lower(const std::string& s) {
  std::string out(s.size(), '\0');
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
  }
  return out;
}

/// Matches `name` (case-insensitively) against to_name(v) for each v in
/// `values` and returns the first hit.  Throws std::invalid_argument as
/// "<context> '<name>' (valid, case-insensitive: a|b|c)" otherwise — the
/// error always lists every valid name.
template <typename Range, typename ToName>
[[nodiscard]] auto parse_enum_ci(const std::string& name, const Range& values,
                                 ToName to_name, const std::string& context) {
  const std::string key = ascii_lower(name);
  std::string valid;
  for (const auto value : values) {
    if (key == to_name(value)) return value;
    if (!valid.empty()) valid += '|';
    valid += to_name(value);
  }
  throw std::invalid_argument(context + " '" + name +
                              "' (valid, case-insensitive: " + valid + ")");
}

}  // namespace ecthub
