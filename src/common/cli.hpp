// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Unknown flags raise an error so that typos in experiment scripts fail loud:
// every has()/get_*() call marks its flag as recognized, and check_unknown()
// — called by each binary once all flags have been read — throws listing any
// parsed flag nothing ever asked for (`--lockstep-treads 4` must not silently
// run defaults).  The numeric accessors are strict: the whole value must
// parse, so `--threads 4abc` fails instead of reading 4, and a count takes
// only plain digits, so `--episodes -1` fails instead of wrapping to 2^64-1.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ecthub {

class CliFlags {
 public:
  /// Parses argv.  Throws std::invalid_argument on malformed input.
  CliFlags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed accessors return the default when the flag is absent.  get_size
  /// and get_double require the full value to parse — trailing garbage
  /// ("4abc") throws std::invalid_argument instead of truncating.  get_size
  /// (counts, indices, seeds) takes only a run of decimal digits that fits in
  /// std::size_t (common/parse.hpp's parse_size): "-1", "+4", " 4", "0x10"
  /// and "1e3" throw.  get_double rejects "nan", "inf" and "infinity".
  [[nodiscard]] std::string get_string(const std::string& name, std::string def) const;
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const;

  /// Throws std::invalid_argument listing every parsed --flag that no
  /// has()/get_*() call ever consumed, and any positional arguments when the
  /// binary never read positional() (`stations=2500` without the `--` must
  /// not silently run defaults).  Binaries call this once after their last
  /// flag read, so experiment-script typos fail loud instead of silently
  /// running defaults.
  void check_unknown() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    positional_read_ = true;
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Flags a has()/get_*() call asked about — the parser's notion of "known".
  mutable std::set<std::string> consumed_;
  mutable bool positional_read_ = false;
};

}  // namespace ecthub
