// Discrete time grid shared by every simulator in the ECT-Hub system.
//
// The paper (Sec. III) models operation over time slots t1..tT, and every
// slot here is one hour: a day is kSlotsPerDay slots, slot s of a day starts
// at hour s, and a power in kW held for a slot is that many kWh.  All our
// generators (traffic, weather, prices, EV occupancy) and the hub environment
// agree on one TimeGrid so that slot indices can be exchanged between modules
// without unit confusion.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>

namespace ecthub {

/// Slots per day; each slot is one hour.
inline constexpr std::size_t kSlotsPerDay = 24;

/// A grid of one-hour time slots covering `num_days` days.
///
/// Slots are indexed 0..size()-1.  The grid converts a slot index to its
/// day, day of week and hour of day.
class TimeGrid {
 public:
  /// @param num_days       length of the horizon in days (>= 1)
  /// @param slots_per_day  must equal kSlotsPerDay; kept for perfbench, which
  ///                       passes HubEnvConfig::slots_per_day
  TimeGrid(std::size_t num_days, std::size_t slots_per_day);

  /// Total number of slots on the grid.
  [[nodiscard]] std::size_t size() const noexcept { return num_days_ * kSlotsPerDay; }
  [[nodiscard]] std::size_t num_days() const noexcept { return num_days_; }
  [[nodiscard]] static constexpr std::size_t slots_per_day() noexcept { return kSlotsPerDay; }

  /// Duration of one slot in hours.
  [[nodiscard]] static constexpr double slot_hours() noexcept { return 1.0; }

  /// Day index (0-based) containing slot `t`.
  [[nodiscard]] std::size_t day_of(std::size_t t) const;

  /// Slot index within its day, in [0, kSlotsPerDay).
  [[nodiscard]] std::size_t slot_of_day(std::size_t t) const;

  /// Hour of day at the *start* of slot `t`, in [0, 24): its slot of the day.
  [[nodiscard]] double hour_of_day(std::size_t t) const;

  /// Day of week in [0, 7), assuming the horizon starts on day-of-week 0.
  [[nodiscard]] std::size_t day_of_week(std::size_t t) const;

  /// True for day-of-week 5 and 6.
  [[nodiscard]] bool is_weekend(std::size_t t) const;

 private:
  void check_slot(std::size_t t) const;

  std::size_t num_days_;
};

/// Writes f(grid.hour_of_day(t)) into out[t] for every slot t of `grid`
/// (out.size() must equal grid.size()), calling f once per slot of the day.
/// hour_of_day depends only on t % kSlotsPerDay, so every later day is a
/// copy of the first and holds exactly the bits f would have returned.
template <typename F>
void fill_by_slot_of_day(const TimeGrid& grid, std::span<double> out, F f) {
  if (out.size() != grid.size()) {
    throw std::invalid_argument("fill_by_slot_of_day: out.size() != grid.size()");
  }
  for (std::size_t s = 0; s < kSlotsPerDay; ++s) out[s] = f(static_cast<double>(s));
  for (std::size_t t = kSlotsPerDay; t < out.size(); t += kSlotsPerDay) {
    std::copy_n(out.begin(), kSlotsPerDay, out.begin() + static_cast<std::ptrdiff_t>(t));
  }
}

}  // namespace ecthub
