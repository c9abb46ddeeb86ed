#include "battery/degradation.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::battery {

DegradationModel::DegradationModel(DegradationConfig cfg) : cfg_(cfg) {
  if (cfg_.nominal_cell_voltage <= 0.0) {
    throw std::invalid_argument("DegradationConfig: nominal_cell_voltage <= 0");
  }
  if (cfg_.calendar_fade_per_day < 0.0 || cfg_.cycle_fade_per_kwh < 0.0) {
    throw std::invalid_argument("DegradationConfig: negative fade rate");
  }
  if (cfg_.cells_in_group == 0) {
    throw std::invalid_argument("DegradationConfig: cells_in_group == 0");
  }
}

void DegradationModel::advance(double days, double throughput_kwh) {
  if (days < 0.0 || throughput_kwh < 0.0) {
    throw std::invalid_argument("DegradationModel::advance: negative input");
  }
  fade_ += cfg_.calendar_fade_per_day * days + cfg_.cycle_fade_per_kwh * throughput_kwh;
  fade_ = std::min(fade_, 0.5);  // surrogate valid up to 50% fade
}

double DegradationModel::capacity_fraction() const noexcept { return 1.0 - fade_; }

double DegradationModel::cell_voltage() const noexcept {
  return cfg_.nominal_cell_voltage - cfg_.voltage_per_fade * fade_;
}

std::vector<double> DegradationModel::voltage_trajectory(const DegradationConfig& cfg,
                                                         std::size_t days,
                                                         double daily_throughput_kwh) {
  DegradationModel model(cfg);
  std::vector<double> v;
  v.reserve(days);
  for (std::size_t d = 0; d < days; ++d) {
    model.advance(1.0, daily_throughput_kwh);
    v.push_back(model.cell_voltage());
  }
  return v;
}

}  // namespace ecthub::battery
