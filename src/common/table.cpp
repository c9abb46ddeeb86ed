#include "common/table.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ecthub {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: header must be non-empty");
}

TextTable& TextTable::begin_row() {
  rows_.emplace_back();
  return *this;
}

TextTable& TextTable::add(std::string cell) {
  if (rows_.empty()) throw std::logic_error("TextTable: add before begin_row");
  if (rows_.back().size() >= header_.size()) {
    throw std::logic_error("TextTable: too many cells in row");
  }
  rows_.back().push_back(std::move(cell));
  return *this;
}

TextTable& TextTable::add_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return add(os.str());
}

TextTable& TextTable::add_int(long long v) { return add(std::to_string(v)); }

std::string TextTable::str() const {
  for (const auto& r : rows_) {
    if (r.size() != header_.size()) throw std::logic_error("TextTable: incomplete row");
  }
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) width[c] = std::max(width[c], r[c].size());
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << r[c];
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit_row(r);
  return os.str();
}

void TextTable::print(std::ostream& os) const { os << str(); }

}  // namespace ecthub
