#include "common/cli.hpp"

#include "common/parse.hpp"

#include <cmath>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace ecthub {

namespace {
bool looks_like_flag(const std::string& s) { return s.rfind("--", 0) == 0 && s.size() > 2; }
}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag (boolean switch).
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  consumed_.insert(name);
  return values_.count(name) > 0;
}

std::string CliFlags::get_string(const std::string& name, std::string def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(def) : it->second;
}

std::size_t CliFlags::get_size(const std::string& name, std::size_t def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::optional<std::size_t> value = parse_size(it->second);
  if (!value) {
    throw std::invalid_argument("flag --" + name + " expects a non-negative integer, got '" +
                                it->second + "'");
  }
  return *value;
}

std::size_t CliFlags::get_count(const std::string& name, std::size_t def) const {
  const std::size_t value = get_size(name, def);
  if (value == 0) throw std::invalid_argument("--" + name + " must be >= 1");
  return value;
}

double CliFlags::get_double(const std::string& name, double def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::size_t parsed = 0;
  double value = 0.0;
  try {
    value = std::stod(it->second, &parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + it->second + "'");
  }
  if (parsed != it->second.size()) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + it->second +
                                "' (trailing garbage)");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("flag --" + name + " expects a finite number, got '" +
                                it->second + "'");
  }
  return value;
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + v + "'");
}

void CliFlags::check_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : values_) {
    if (consumed_.count(name) > 0) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "--" + name;
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("unrecognized flag(s): " + unknown +
                                " (run with no flags to use defaults; see the binary's "
                                "header comment for the flags it reads)");
  }
  // Stray positionals are the same bug class: `stations=2500` (missing the
  // leading --) must not silently run defaults.
  if (!positional_.empty()) {
    std::string stray;
    for (const std::string& p : positional_) {
      if (!stray.empty()) stray += ", ";
      stray += "'" + p + "'";
    }
    throw std::invalid_argument("unexpected positional argument(s): " + stray +
                                " (flags are --name value; did you drop the --?)");
  }
}

int cli_main(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    const std::string_view path = argc > 0 ? argv[0] : "";
    std::cerr << path.substr(path.find_last_of('/') + 1) << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace ecthub
