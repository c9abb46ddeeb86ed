// Shared strict parsing of user input: case-insensitive enum names and
// non-negative sizes.
//
// Every user-facing enum (today, the scheduler kinds) exposes a from_string
// parser with the same contract: lower-case the input, match it against the
// canonical to_string name of each value, and on failure throw
// std::invalid_argument naming the offending input and every valid name.
// Every count, index or seed read from text goes through parse_size.  This
// header is both contracts, written once.
#pragma once

#include <cctype>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ecthub {

/// ASCII lower-casing (locale-independent — enum names are plain ASCII).
[[nodiscard]] inline std::string ascii_lower(const std::string& s) {
  std::string out(s.size(), '\0');
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
  }
  return out;
}

/// Parses `text` as a non-empty run of ASCII digits whose value fits in
/// std::size_t.  Returns nullopt for anything else — a sign, whitespace, a
/// hex prefix, an exponent, trailing garbage or an overflow — all of which
/// std::stoll / std::stoull would tolerate, truncate or wrap.
[[nodiscard]] inline std::optional<std::size_t> parse_size(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
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
