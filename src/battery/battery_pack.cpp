#include "battery/battery_pack.hpp"

#include <algorithm>
#include <cmath>

namespace ecthub::battery {

namespace {
constexpr double kEps = 1e-9;
}

void BatteryConfig::validate() const {
  // Written so that NaN fails every check, and every field must be finite.
  for (const double x : {capacity_kwh, charge_rate_kw, discharge_rate_kw, op_cost_per_slot}) {
    if (!std::isfinite(x)) throw std::invalid_argument("BatteryConfig: non-finite field");
  }
  if (!(capacity_kwh > 0.0)) throw std::invalid_argument("BatteryConfig: capacity_kwh <= 0");
  if (!(charge_rate_kw > 0.0)) throw std::invalid_argument("BatteryConfig: charge_rate_kw <= 0");
  if (!(discharge_rate_kw > 0.0)) {
    throw std::invalid_argument("BatteryConfig: discharge_rate_kw <= 0");
  }
  if (!(charge_efficiency > 0.0 && charge_efficiency <= 1.0)) {
    throw std::invalid_argument("BatteryConfig: charge_efficiency out of (0, 1]");
  }
  if (!(discharge_efficiency > 0.0 && discharge_efficiency <= 1.0)) {
    throw std::invalid_argument("BatteryConfig: discharge_efficiency out of (0, 1]");
  }
  if (!(0.0 <= soc_min_frac && soc_min_frac < soc_max_frac && soc_max_frac <= 1.0)) {
    throw std::invalid_argument("BatteryConfig: need 0 <= soc_min < soc_max <= 1");
  }
  if (!(op_cost_per_slot >= 0.0)) throw std::invalid_argument("BatteryConfig: op_cost < 0");
}

BatteryPack::BatteryPack(BatteryConfig cfg, double initial_soc_frac) : cfg_(cfg), soc_kwh_(0.0) {
  cfg_.validate();
  reserve_floor_kwh_ = soc_min_kwh();
  reset_soc_frac(initial_soc_frac);
}

void BatteryPack::reset_soc_frac(double frac) {
  const double kwh = frac * cfg_.capacity_kwh;
  soc_kwh_ = std::clamp(kwh, reserve_floor_kwh_, soc_max_kwh());
}

void BatteryPack::set_reserve_floor_kwh(double floor_kwh) {
  if (floor_kwh < soc_min_kwh() - kEps || floor_kwh > soc_max_kwh() + kEps) {
    throw std::invalid_argument("BatteryPack: reserve floor outside [soc_min, soc_max]");
  }
  reserve_floor_kwh_ = std::clamp(floor_kwh, soc_min_kwh(), soc_max_kwh());
  soc_kwh_ = std::max(soc_kwh_, reserve_floor_kwh_);
}

BpStepResult BatteryPack::step(BpAction action, double dt_hours, double max_discharge_kw) {
  if (dt_hours <= 0.0) throw std::invalid_argument("BatteryPack::step: dt_hours <= 0");
  if (max_discharge_kw < 0.0) {
    throw std::invalid_argument("BatteryPack::step: max_discharge_kw < 0");
  }
  BpStepResult r;
  switch (action) {
    case BpAction::kIdle:
      return r;
    case BpAction::kCharge: {
      // Bus draws R_ch; only eta_ch of it is stored (Eq. 3 with S=+1).
      const double stored_want = cfg_.charge_rate_kw * cfg_.charge_efficiency * dt_hours;
      const double stored = std::min(stored_want, headroom_kwh());
      if (stored <= kEps) return r;  // full: degrade to idle, no wear
      soc_kwh_ += stored;
      r.bus_power_kw = stored / (cfg_.charge_efficiency * dt_hours);
      r.op_cost = cfg_.op_cost_per_slot;
      r.applied = BpAction::kCharge;
      return r;
    }
    case BpAction::kDischarge: {
      // Bus receives up to min(R_dch, throttle); the pack depletes faster by
      // 1/eta_dch.
      const double delivered_want =
          std::min(cfg_.discharge_rate_kw, max_discharge_kw) * dt_hours;
      const double depletable = (soc_kwh_ - reserve_floor_kwh_) * cfg_.discharge_efficiency;
      const double delivered = std::min(delivered_want, depletable);
      if (delivered <= kEps) return r;  // at reserve floor: degrade to idle
      soc_kwh_ -= delivered / cfg_.discharge_efficiency;
      r.bus_power_kw = -delivered / dt_hours;
      r.op_cost = cfg_.op_cost_per_slot;
      r.applied = BpAction::kDischarge;
      return r;
    }
  }
  throw std::logic_error("BatteryPack::step: invalid action");
}

}  // namespace ecthub::battery
