// Discrete time grid shared by every simulator in the ECT-Hub system.
//
// The paper (Sec. III) models operation over time slots t1..tT.  All our
// generators (traffic, weather, prices, EV occupancy) and the hub environment
// agree on one TimeGrid so that slot indices can be exchanged between modules
// without unit confusion.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>

namespace ecthub {

/// A uniform grid of time slots covering `num_days` days.
///
/// Slots are indexed 0..size()-1.  The grid knows its resolution
/// (slots per day) and converts a slot index to its day, day of week and
/// hour of day.
class TimeGrid {
 public:
  /// @param num_days       length of the horizon in days (>= 1)
  /// @param slots_per_day  resolution; 24 means hourly slots (>= 1)
  TimeGrid(std::size_t num_days, std::size_t slots_per_day);

  /// Total number of slots on the grid.
  [[nodiscard]] std::size_t size() const noexcept { return num_days_ * slots_per_day_; }
  [[nodiscard]] std::size_t num_days() const noexcept { return num_days_; }
  [[nodiscard]] std::size_t slots_per_day() const noexcept { return slots_per_day_; }

  /// Duration of one slot in hours (e.g. 1.0 for hourly slots).
  [[nodiscard]] double slot_hours() const noexcept {
    return 24.0 / static_cast<double>(slots_per_day_);
  }

  /// Day index (0-based) containing slot `t`.
  [[nodiscard]] std::size_t day_of(std::size_t t) const;

  /// Slot index within its day, in [0, slots_per_day).
  [[nodiscard]] std::size_t slot_of_day(std::size_t t) const;

  /// Hour of day at the *start* of slot `t`, in [0, 24).
  [[nodiscard]] double hour_of_day(std::size_t t) const;

  /// Day of week in [0, 7), assuming the horizon starts on day-of-week 0.
  [[nodiscard]] std::size_t day_of_week(std::size_t t) const;

  /// True for day-of-week 5 and 6.
  [[nodiscard]] bool is_weekend(std::size_t t) const;

  friend bool operator==(const TimeGrid& a, const TimeGrid& b) noexcept {
    return a.num_days_ == b.num_days_ && a.slots_per_day_ == b.slots_per_day_;
  }

 private:
  void check_slot(std::size_t t) const;

  std::size_t num_days_;
  std::size_t slots_per_day_;
};

/// Writes f(grid.hour_of_day(t)) into out[t] for every slot t of `grid`
/// (out.size() must equal grid.size()), calling f once per slot of the day.
/// hour_of_day depends only on t % slots_per_day, so every later day is a
/// copy of the first and holds exactly the bits f would have returned.
template <typename F>
void fill_by_slot_of_day(const TimeGrid& grid, std::span<double> out, F f) {
  if (out.size() != grid.size()) {
    throw std::invalid_argument("fill_by_slot_of_day: out.size() != grid.size()");
  }
  const std::size_t day = grid.slots_per_day();
  for (std::size_t s = 0; s < day; ++s) out[s] = f(grid.hour_of_day(s));
  for (std::size_t t = day; t < out.size(); t += day) {
    std::copy_n(out.begin(), day, out.begin() + static_cast<std::ptrdiff_t>(t));
  }
}

}  // namespace ecthub
