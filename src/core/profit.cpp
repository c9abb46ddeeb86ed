#include "core/profit.hpp"

#include "common/time_grid.hpp"

#include <stdexcept>

namespace ecthub::core {

SlotEconomics slot_economics(double cs_kw, double grid_kw, double srtp, double rtp,
                             double bp_cost) {
  // Written so that NaN fails.
  if (!(cs_kw >= 0.0 && grid_kw >= 0.0)) {
    throw std::invalid_argument("slot_economics: negative or NaN power");
  }
  SlotEconomics e;
  e.revenue = cs_kw * srtp / 1000.0;
  e.grid_cost = grid_kw * rtp / 1000.0;
  e.bp_cost = bp_cost;
  return e;
}

void ProfitLedger::reset() {
  slots_ = 0;
  revenue_ = 0.0;
  grid_cost_ = 0.0;
  bp_cost_ = 0.0;
  daily_.clear();
}

void ProfitLedger::record(const SlotEconomics& e) {
  if (slots_ % kSlotsPerDay == 0) daily_.push_back(0.0);
  daily_.back() += e.profit();
  revenue_ += e.revenue;
  grid_cost_ += e.grid_cost;
  bp_cost_ += e.bp_cost;
  ++slots_;
}

}  // namespace ecthub::core
