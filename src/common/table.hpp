// Aligned text-table printer used by the bench harnesses to emit the paper's
// tables and figure series in a readable form.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ecthub {

/// A simple column-aligned table.  Cells are strings; numeric helpers format
/// with fixed precision.  Rendering pads every column to its widest cell.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Starts a new row; subsequent add_* calls fill it left to right.
  TextTable& begin_row();
  TextTable& add(std::string cell);
  TextTable& add_double(double v, int precision = 2);
  TextTable& add_int(long long v);

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const noexcept { return header_.size(); }

  /// Renders with a header rule; throws if any row has the wrong arity.
  [[nodiscard]] std::string str() const;
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ecthub
