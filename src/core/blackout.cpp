#include "core/blackout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecthub::core {

void OutageModel::validate() const {
  // Written so that NaN fails.
  if (!(std::isfinite(rate_per_month) && rate_per_month >= 0.0 && min_duration_h >= 0.0 &&
        std::isfinite(max_duration_h) && max_duration_h >= min_duration_h)) {
    throw std::invalid_argument("OutageModel: need a finite rate >= 0 and 0 <= min <= max < inf");
  }
}

void draw_outages_into(const OutageModel& model, Rng& rng, std::span<std::uint8_t> flags) {
  model.validate();
  if (flags.empty()) throw std::invalid_argument("draw_outages_into: no slots");
  std::fill(flags.begin(), flags.end(), std::uint8_t{0});
  const std::size_t num_slots = flags.size();
  const double horizon_months = static_cast<double>(num_slots) / (30.0 * 24.0);
  const std::uint64_t count = rng.poisson(model.rate_per_month * horizon_months);
  for (std::uint64_t k = 0; k < count; ++k) {
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_slots) - 1));
    const double dur_h = rng.uniform(model.min_duration_h, model.max_duration_h);
    // Cut at the horizon in double: a huge finite duration must not reach
    // the size_t cast, which is undefined at 2^64 and above.
    const double dur = std::min(std::ceil(dur_h), static_cast<double>(num_slots - start));
    const std::size_t end = start + std::max<std::size_t>(1, static_cast<std::size_t>(dur));
    std::fill(flags.begin() + static_cast<std::ptrdiff_t>(start),
              flags.begin() + static_cast<std::ptrdiff_t>(end), std::uint8_t{1});
  }
}

RideThroughResult ride_through(const battery::BatteryConfig& pack, double soc_kwh,
                               const std::vector<double>& bs_kw) {
  pack.validate();
  RideThroughResult r;
  // During a blackout the pack may drain to its hard minimum (soc_min_frac),
  // not the raised trading floor — that band exists exactly for this.
  const double hard_floor = pack.soc_min_frac * pack.capacity_kwh;
  double soc = std::max(soc_kwh, hard_floor);
  r.survived = true;
  for (double draw_kw : bs_kw) {
    // Written so that NaN fails.
    if (!(draw_kw >= 0.0)) throw std::invalid_argument("ride_through: negative or NaN BS draw");
    const double delivered_want = std::min(draw_kw, pack.discharge_rate_kw);
    const double depletable = (soc - hard_floor) * pack.discharge_efficiency;
    if (delivered_want > depletable + 1e-9 || draw_kw > pack.discharge_rate_kw) {
      r.survived = false;
      break;
    }
    soc -= delivered_want / pack.discharge_efficiency;
    r.energy_used_kwh += delivered_want;
    r.slots_survived += 1.0;
  }
  r.final_soc_kwh = soc;
  return r;
}

SurvivalStats outage_survival(const battery::BatteryConfig& pack, double floor_soc_kwh,
                              const std::vector<double>& bs_kw, const OutageModel& model,
                              std::size_t trials, Rng rng) {
  model.validate();
  if (trials == 0) throw std::invalid_argument("outage_survival: trials == 0");
  if (bs_kw.empty()) throw std::invalid_argument("outage_survival: empty BS trace");
  // The window wraps the trace; bounding it by the trace also bounds the
  // buffer, allocated once for the longest outage.
  if (model.max_duration_h > static_cast<double>(bs_kw.size())) {
    throw std::invalid_argument("outage_survival: max_duration_h exceeds the BS trace");
  }
  std::vector<double> window;
  window.reserve(
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(model.max_duration_h))));
  SurvivalStats stats;
  stats.trials = trials;
  for (std::size_t k = 0; k < trials; ++k) {
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bs_kw.size()) - 1));
    const double dur_h = rng.uniform(model.min_duration_h, model.max_duration_h);
    const auto dur_slots = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(dur_h)));
    window.clear();
    for (std::size_t i = 0; i < dur_slots; ++i) {
      window.push_back(bs_kw[(start + i) % bs_kw.size()]);
    }
    const RideThroughResult r = ride_through(pack, floor_soc_kwh, window);
    if (r.survived) stats.survival_rate += 1.0;
    stats.mean_slots_survived += r.slots_survived;
  }
  stats.survival_rate /= static_cast<double>(trials);
  stats.mean_slots_survived /= static_cast<double>(trials);
  return stats;
}

}  // namespace ecthub::core
