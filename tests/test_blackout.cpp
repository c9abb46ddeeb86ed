// Failure-injection tests: grid outages carried by the backup battery
// (the Eq. 6 reserve guarantee, exercised).
#include "battery/reserve.hpp"
#include "core/blackout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ecthub::core {
namespace {

battery::BatteryConfig small_pack() {
  battery::BatteryConfig cfg;
  cfg.capacity_kwh = 20.0;
  cfg.charge_rate_kw = 5.0;
  cfg.discharge_rate_kw = 5.0;
  cfg.discharge_efficiency = 0.9;
  cfg.soc_min_frac = 0.1;
  return cfg;
}

TEST(RideThrough, SurvivesWhenEnergySuffices) {
  // 3 kW for 3 h = 9 kWh delivered needs 10 kWh stored at eta 0.9;
  // SoC 15 kWh with hard floor 2 kWh leaves 13 kWh -> survives.
  const auto r = ride_through(small_pack(), 15.0, {3.0, 3.0, 3.0}, 1.0);
  EXPECT_TRUE(r.survived);
  EXPECT_NEAR(r.energy_used_kwh, 9.0, 1e-9);
  EXPECT_NEAR(r.final_soc_kwh, 15.0 - 10.0, 1e-9);
}

TEST(RideThrough, FailsWhenDepleted) {
  // 4 kW for 5 h = 20 kWh delivered; only (6 - 2) * 0.9 = 3.6 kWh available.
  const auto r = ride_through(small_pack(), 6.0, {4.0, 4.0, 4.0, 4.0, 4.0}, 1.0);
  EXPECT_FALSE(r.survived);
  EXPECT_LT(r.slots_survived, 5.0);
}

TEST(RideThrough, FailsWhenDrawExceedsRate) {
  const auto r = ride_through(small_pack(), 18.0, {6.0}, 1.0);  // > 5 kW rate
  EXPECT_FALSE(r.survived);
}

TEST(RideThrough, UsesFullBandDownToHardMinimum) {
  // Trading floors don't apply during blackouts: only soc_min does.
  battery::BatteryConfig cfg = small_pack();
  const auto r = ride_through(cfg, 20.0, std::vector<double>(4, 4.0), 1.0);
  // 16 kWh delivered needs 17.8 kWh stored; available (20-2)*0.9 = 16.2.
  EXPECT_TRUE(r.survived);
}

TEST(RideThrough, Validation) {
  EXPECT_THROW((void)ride_through(small_pack(), 10.0, {1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)ride_through(small_pack(), 10.0, {-1.0}, 1.0), std::invalid_argument);
  for (const double dt : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)ride_through(small_pack(), 10.0, {1.0}, dt), std::invalid_argument);
  }
}

std::size_t outage_slots(const std::vector<std::uint8_t>& flags) {
  return static_cast<std::size_t>(std::count(flags.begin(), flags.end(), std::uint8_t{1}));
}

TEST(DrawOutagesInto, CountScalesWithRate) {
  OutageModel calm;
  calm.rate_per_month = 0.5;
  OutageModel stormy;
  stormy.rate_per_month = 10.0;
  Rng rng_a(1), rng_b(1);
  std::vector<std::uint8_t> few(24 * 90), many(24 * 90);
  draw_outages_into(calm, 1.0, rng_a, few);
  draw_outages_into(stormy, 1.0, rng_b, many);
  EXPECT_LT(outage_slots(few), outage_slots(many));
}

TEST(DrawOutagesInto, OverwritesEveryFlag) {
  // Reused buffers carry the previous episode's flags (here: garbage); the
  // draw must leave only 0s and 1s, and a zero rate must clear them all.
  OutageModel model;
  model.rate_per_month = 5.0;
  Rng rng(2);
  std::vector<std::uint8_t> flags(24 * 60, std::uint8_t{7});
  draw_outages_into(model, 1.0, rng, flags);
  for (const std::uint8_t f : flags) ASSERT_LE(f, 1u);
  EXPECT_GT(outage_slots(flags), 0u);
  EXPECT_LT(outage_slots(flags), flags.size());
  model.rate_per_month = 0.0;
  draw_outages_into(model, 1.0, rng, flags);
  EXPECT_EQ(std::count(flags.begin(), flags.end(), std::uint8_t{0}),
            static_cast<std::ptrdiff_t>(flags.size()));
}

TEST(DrawOutagesInto, Validation) {
  Rng rng(3);
  std::vector<std::uint8_t> flags(24);
  OutageModel bad;
  bad.max_duration_h = 0.5;
  bad.min_duration_h = 1.0;
  EXPECT_THROW(draw_outages_into(bad, 1.0, rng, flags), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, inf, -1.0}) {
    OutageModel poisoned;
    poisoned.rate_per_month = v;
    EXPECT_THROW(draw_outages_into(poisoned, 1.0, rng, flags), std::invalid_argument) << v;
    poisoned = OutageModel{};
    poisoned.min_duration_h = v;
    EXPECT_THROW(draw_outages_into(poisoned, 1.0, rng, flags), std::invalid_argument) << v;
    poisoned = OutageModel{};
    poisoned.max_duration_h = v;
    EXPECT_THROW(draw_outages_into(poisoned, 1.0, rng, flags), std::invalid_argument) << v;
    EXPECT_THROW(draw_outages_into(OutageModel{}, v, rng, flags), std::invalid_argument) << v;
  }
  EXPECT_THROW(draw_outages_into(OutageModel{}, 0.0, rng, flags), std::invalid_argument);
  std::vector<std::uint8_t> none;
  EXPECT_THROW(draw_outages_into(OutageModel{}, 1.0, rng, none), std::invalid_argument);
}

TEST(DrawOutagesInto, HugeFiniteDurationIsCutAtTheHorizon) {
  // Every outage of a 1000 h model already runs past 48 one-hour slots, so
  // a 1e300 h model must flag the same slots.  Its slot count used to
  // reach an undefined double -> size_t cast, which flagged 1 slot, not all
  // of the outages' slots.
  const auto flags_for = [](double hours) {
    OutageModel model;
    model.rate_per_month = 30.0;
    model.min_duration_h = hours;
    model.max_duration_h = hours;
    Rng rng(3);
    std::vector<std::uint8_t> flags(48);
    draw_outages_into(model, 1.0, rng, flags);
    return flags;
  };
  const std::vector<std::uint8_t> long_outages = flags_for(1000.0);
  EXPECT_EQ(outage_slots(long_outages), 29u);
  EXPECT_EQ(flags_for(1e300), long_outages);
}

TEST(OutageSurvival, ProperReserveGuaranteesSurvival) {
  // Size the floor for the worst 8-hour window (the max outage length);
  // survival at that floor must be 100%.
  const std::vector<double> bs(24 * 14, 3.0);  // constant 3 kW
  battery::BatteryConfig pack = small_pack();
  pack.capacity_kwh = 60.0;
  OutageModel model;
  model.min_duration_h = 1.0;
  model.max_duration_h = 8.0;
  const double reserve = battery::reserve_energy_worst_window(bs, 8, 1.0);  // 24 kWh
  const double floor_frac =
      battery::reserve_floor_fraction(reserve, pack.capacity_kwh, pack.discharge_efficiency);
  const double floor_kwh = floor_frac * pack.capacity_kwh + pack.soc_min_frac * pack.capacity_kwh;
  const auto stats = outage_survival(pack, floor_kwh, bs, model, 1.0, 200, Rng(4));
  EXPECT_DOUBLE_EQ(stats.survival_rate, 1.0);
}

TEST(OutageSurvival, UndersizedReserveFails) {
  const std::vector<double> bs(24 * 14, 3.0);
  battery::BatteryConfig pack = small_pack();
  OutageModel model;
  model.min_duration_h = 6.0;
  model.max_duration_h = 10.0;
  // SoC barely above the hard floor: long outages must fail.
  const auto stats = outage_survival(pack, 4.0, bs, model, 1.0, 200, Rng(5));
  EXPECT_LT(stats.survival_rate, 0.5);
}

TEST(OutageSurvival, Validation) {
  battery::BatteryConfig pack = small_pack();
  OutageModel model;
  // An 8-slot trace holds the default model's longest (8 h) outage, so each
  // case below throws for the reason it names.
  const std::vector<double> trace(8, 1.0);
  EXPECT_THROW((void)outage_survival(pack, 5.0, {}, model, 1.0, 10, Rng(6)),
               std::invalid_argument);
  EXPECT_THROW((void)outage_survival(pack, 5.0, trace, model, 1.0, 0, Rng(6)),
               std::invalid_argument);
  // The model is validated like draw_outages_into's.
  model.min_duration_h = 9.0;  // > max_duration_h
  EXPECT_THROW((void)outage_survival(pack, 5.0, trace, model, 1.0, 10, Rng(6)),
               std::invalid_argument);
  model = OutageModel{};
  model.max_duration_h = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)outage_survival(pack, 5.0, trace, model, 1.0, 10, Rng(6)),
               std::invalid_argument);
  EXPECT_NO_THROW((void)outage_survival(pack, 5.0, trace, OutageModel{}, 1.0, 10, Rng(6)));

  // Windows wrap the two-week trace, so an outage longer than the trace is
  // refused before the window is allocated (1e9 h would be 8 GB), and a slot
  // length must be finite and > 0 before it divides a duration.
  const std::vector<double> two_weeks(24 * 14, 3.0);
  const auto message = [&](const OutageModel& m, double dt) -> std::string {
    try {
      (void)outage_survival(pack, 5.0, two_weeks, m, dt, 10, Rng(6));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  OutageModel huge;
  huge.max_duration_h = 1e9;
  EXPECT_NE(message(huge, 1.0).find("exceeds the BS trace"), std::string::npos);
  OutageModel whole;
  whole.max_duration_h = 24.0 * 14.0;  // exactly the trace: allowed
  EXPECT_EQ(message(whole, 1.0), "no throw");
  whole.max_duration_h = std::nextafter(24.0 * 14.0, 1e9);
  EXPECT_NE(message(whole, 1.0).find("exceeds the BS trace"), std::string::npos);
  for (const double dt : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    EXPECT_NE(message(OutageModel{}, dt).find("dt_hours"), std::string::npos) << dt;
  }
}

}  // namespace
}  // namespace ecthub::core
