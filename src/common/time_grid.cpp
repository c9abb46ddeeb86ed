#include "common/time_grid.hpp"

#include <string>

namespace ecthub {

TimeGrid::TimeGrid(std::size_t num_days, std::size_t slots_per_day) : num_days_(num_days) {
  if (num_days == 0) throw std::invalid_argument("TimeGrid: num_days must be >= 1");
  if (slots_per_day != kSlotsPerDay) {
    throw std::invalid_argument("TimeGrid: slots_per_day must be 24 (one-hour slots)");
  }
}

void TimeGrid::check_slot(std::size_t t) const {
  if (t >= size()) {
    throw std::out_of_range("TimeGrid: slot " + std::to_string(t) + " out of range [0, " +
                            std::to_string(size()) + ")");
  }
}

std::size_t TimeGrid::day_of(std::size_t t) const {
  check_slot(t);
  return t / kSlotsPerDay;
}

std::size_t TimeGrid::slot_of_day(std::size_t t) const {
  check_slot(t);
  return t % kSlotsPerDay;
}

double TimeGrid::hour_of_day(std::size_t t) const { return static_cast<double>(slot_of_day(t)); }

std::size_t TimeGrid::day_of_week(std::size_t t) const { return day_of(t) % 7; }

bool TimeGrid::is_weekend(std::size_t t) const {
  const std::size_t dow = day_of_week(t);
  return dow == 5 || dow == 6;
}

}  // namespace ecthub
