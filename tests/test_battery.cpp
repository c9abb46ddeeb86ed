// Tests for the battery point: SoC dynamics (Eqs. 3-5), wear cost (Eq. 8),
// degradation surrogate (Fig. 4) and reserve sizing (Eq. 6).
#include "battery/battery_pack.hpp"
#include "battery/degradation.hpp"
#include "battery/reserve.hpp"
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace ecthub::battery {
namespace {

BatteryConfig small_pack() {
  BatteryConfig cfg;
  cfg.capacity_kwh = 10.0;
  cfg.charge_rate_kw = 2.0;
  cfg.discharge_rate_kw = 2.0;
  cfg.charge_efficiency = 0.9;
  cfg.discharge_efficiency = 0.9;
  cfg.soc_min_frac = 0.2;
  cfg.soc_max_frac = 0.9;
  cfg.op_cost_per_slot = 0.01;
  return cfg;
}

// ---------------------------------------------------------------- pack

TEST(BatteryPack, InitialSocClampedToBounds) {
  BatteryPack p(small_pack(), 0.05);
  EXPECT_DOUBLE_EQ(p.soc_frac(), 0.2);
  BatteryPack q(small_pack(), 0.99);
  EXPECT_DOUBLE_EQ(q.soc_frac(), 0.9);
}

TEST(BatteryPack, IdleChangesNothing) {
  BatteryPack p(small_pack(), 0.5);
  const auto r = p.step(BpAction::kIdle);
  EXPECT_DOUBLE_EQ(r.bus_power_kw, 0.0);
  EXPECT_DOUBLE_EQ(r.op_cost, 0.0);
  EXPECT_DOUBLE_EQ(p.soc_frac(), 0.5);
  EXPECT_EQ(r.applied, BpAction::kIdle);
}

TEST(BatteryPack, ChargeStoresEtaFractionOfDraw) {
  BatteryPack p(small_pack(), 0.5);
  const auto r = p.step(BpAction::kCharge);
  // Bus draws the full rate; eta_ch of it lands in the pack (Eq. 3).
  EXPECT_NEAR(r.bus_power_kw, 2.0, 1e-9);
  EXPECT_NEAR(p.soc_kwh(), 5.0 + 2.0 * 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(r.op_cost, 0.01);
  EXPECT_EQ(r.applied, BpAction::kCharge);
}

TEST(BatteryPack, DischargeDepletesFasterThanDelivered) {
  BatteryPack p(small_pack(), 0.5);
  const auto r = p.step(BpAction::kDischarge);
  EXPECT_NEAR(r.bus_power_kw, -2.0, 1e-9);  // negative = provides power
  EXPECT_NEAR(p.soc_kwh(), 5.0 - 2.0 / 0.9, 1e-9);
  EXPECT_EQ(r.applied, BpAction::kDischarge);
}

TEST(BatteryPack, ChargeStopsAtUpperBound) {
  BatteryPack p(small_pack(), 0.9);
  const auto r = p.step(BpAction::kCharge);
  // Full: the action degrades to idle with no wear cost.
  EXPECT_DOUBLE_EQ(r.bus_power_kw, 0.0);
  EXPECT_DOUBLE_EQ(r.op_cost, 0.0);
  EXPECT_EQ(r.applied, BpAction::kIdle);
  EXPECT_DOUBLE_EQ(p.soc_frac(), 0.9);
}

TEST(BatteryPack, PartialChargeUpToBound) {
  BatteryPack p(small_pack(), 0.85);  // headroom 0.5 kWh < eta*rate = 1.8 kWh
  const auto r = p.step(BpAction::kCharge);
  EXPECT_NEAR(p.soc_frac(), 0.9, 1e-9);
  EXPECT_GT(r.bus_power_kw, 0.0);
  EXPECT_LT(r.bus_power_kw, 2.0);  // only drew what fit
}

TEST(BatteryPack, DischargeStopsAtReserveFloor) {
  BatteryPack p(small_pack(), 0.2);
  const auto r = p.step(BpAction::kDischarge);
  EXPECT_DOUBLE_EQ(r.bus_power_kw, 0.0);
  EXPECT_EQ(r.applied, BpAction::kIdle);
  EXPECT_DOUBLE_EQ(p.soc_frac(), 0.2);
}

TEST(BatteryPack, SocNeverLeavesBounds) {
  BatteryPack p(small_pack(), 0.5);
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<BpAction>(rng.uniform_int(0, 2));
    p.step(a);
    EXPECT_GE(p.soc_frac(), 0.2 - 1e-9);
    EXPECT_LE(p.soc_frac(), 0.9 + 1e-9);
  }
}

TEST(BatteryPack, RoundTripLosesEnergy) {
  // Charge then discharge the same bus energy: SoC must end lower than it
  // started (eta_ch * eta_dch < 1).
  BatteryPack p(small_pack(), 0.5);
  const double initial = p.soc_kwh();
  p.step(BpAction::kCharge);
  p.step(BpAction::kDischarge);
  EXPECT_LT(p.soc_kwh(), initial + 1e-12);
}

TEST(BatteryPack, ReserveFloorRaisesEffectiveMinimum) {
  BatteryPack p(small_pack(), 0.5);
  p.set_reserve_floor_kwh(4.0);  // 40% of 10 kWh
  // Available energy above the floor is 1 kWh stored -> 0.9 deliverable.
  const auto r = p.step(BpAction::kDischarge);
  EXPECT_NEAR(-r.bus_power_kw, 0.9, 1e-9);
  EXPECT_NEAR(p.soc_kwh(), 4.0, 1e-9);
}

TEST(BatteryPack, ReserveFloorOutOfRangeThrows) {
  BatteryPack p(small_pack(), 0.5);
  EXPECT_THROW(p.set_reserve_floor_kwh(0.5), std::invalid_argument);   // below soc_min
  EXPECT_THROW(p.set_reserve_floor_kwh(9.5), std::invalid_argument);   // above soc_max
}

TEST(BatteryPack, FeasibilityChecks) {
  // An action with no headroom degrades to idle; each step runs on a copy.
  const auto applied = [](BatteryPack p, BpAction a) { return p.step(a).applied; };
  const BatteryPack full(small_pack(), 0.9);
  EXPECT_EQ(applied(full, BpAction::kCharge), BpAction::kIdle);
  EXPECT_EQ(applied(full, BpAction::kDischarge), BpAction::kDischarge);
  const BatteryPack empty(small_pack(), 0.2);
  EXPECT_EQ(applied(empty, BpAction::kCharge), BpAction::kCharge);
  EXPECT_EQ(applied(empty, BpAction::kDischarge), BpAction::kIdle);
  EXPECT_EQ(applied(empty, BpAction::kIdle), BpAction::kIdle);
}

// A NaN cap must not discharge at the full rate.
TEST(BatteryPack, BadStepArgumentsThrow) {
  BatteryPack p(small_pack(), 0.5);
  EXPECT_THROW(p.step(BpAction::kDischarge, -1.0), std::invalid_argument);
  EXPECT_THROW(p.step(BpAction::kDischarge, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(p.soc_frac(), 0.5);
}

TEST(BatteryConfig, ValidationCatchesEveryField) {
  auto check_throws = [](auto mutate) {
    BatteryConfig cfg = small_pack();
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  check_throws([](BatteryConfig& c) { c.capacity_kwh = 0.0; });
  check_throws([](BatteryConfig& c) { c.charge_rate_kw = -1.0; });
  check_throws([](BatteryConfig& c) { c.discharge_rate_kw = 0.0; });
  check_throws([](BatteryConfig& c) { c.charge_efficiency = 1.2; });
  check_throws([](BatteryConfig& c) { c.discharge_efficiency = 0.0; });
  check_throws([](BatteryConfig& c) { c.soc_min_frac = 0.95; });
  check_throws([](BatteryConfig& c) { c.op_cost_per_slot = -0.1; });
}

// Property sweep: round-trip efficiency across the configuration space.
class EfficiencySweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EfficiencySweepTest, RoundTripLossMatchesEtaProduct) {
  const auto [eta_ch, eta_dch] = GetParam();
  BatteryConfig cfg = small_pack();
  cfg.capacity_kwh = 100.0;
  cfg.charge_rate_kw = 10.0;
  cfg.discharge_rate_kw = 10.0;
  cfg.charge_efficiency = eta_ch;
  cfg.discharge_efficiency = eta_dch;
  BatteryPack p(cfg, 0.5);
  // Charge one slot: bus pays 10 kWh, pack stores 10 * eta_ch.
  const auto c = p.step(BpAction::kCharge);
  EXPECT_NEAR(c.bus_power_kw, 10.0, 1e-9);
  // Discharge everything stored back out.
  double delivered = 0.0;
  for (;;) {
    const auto d = p.step(BpAction::kDischarge);
    if (d.applied != BpAction::kDischarge) break;
    delivered += -d.bus_power_kw;
  }
  // Delivered energy relative to purchased: eta_ch * eta_dch plus the
  // initially stored band (5 kWh wiggle from starting at 0.5 -> exact value
  // checked as energy conservation instead).
  const double stored_gain = 10.0 * eta_ch;
  const double deliverable = (50.0 + stored_gain - p.soc_min_kwh()) * eta_dch;
  EXPECT_NEAR(delivered, deliverable, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Efficiencies, EfficiencySweepTest,
    ::testing::Values(std::make_tuple(1.0, 1.0), std::make_tuple(0.95, 0.95),
                      std::make_tuple(0.9, 0.85), std::make_tuple(0.8, 0.9)));

// Property sweep: the reserve floor monotonically tightens with T_r.
class ReserveSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReserveSweepTest, ReserveGrowsWithWindow) {
  const std::size_t window = GetParam();
  std::vector<double> trace;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) trace.push_back(rng.uniform(1.0, 4.0));
  const double r1 = reserve_energy_worst_window(trace, window);
  const double r2 = reserve_energy_worst_window(trace, window + 1);
  EXPECT_LE(r1, r2);  // longer outage window never needs less energy
  EXPECT_GE(r1, static_cast<double>(window) * 1.0);
  EXPECT_LE(r1, static_cast<double>(window) * 4.0);
}

INSTANTIATE_TEST_SUITE_P(Windows, ReserveSweepTest, ::testing::Values(1u, 2u, 4u, 8u, 24u));

// ---------------------------------------------------------------- degradation

TEST(Degradation, VoltageDeclinesMonotonically) {
  const auto v = DegradationModel::voltage_trajectory(DegradationConfig{}, 350);
  ASSERT_EQ(v.size(), 350u);
  for (std::size_t d = 1; d < v.size(); ++d) EXPECT_LE(v[d], v[d - 1]);
  EXPECT_LT(v.back(), v.front());
}

TEST(Degradation, CyclingAcceleratesFade) {
  const auto idle = DegradationModel::voltage_trajectory(DegradationConfig{}, 200, 0.0);
  const auto cycled = DegradationModel::voltage_trajectory(DegradationConfig{}, 200, 5.0);
  EXPECT_LT(cycled.back(), idle.back());
}

TEST(Degradation, CapacityFractionDecreases) {
  DegradationModel m(DegradationConfig{});
  const double before = m.capacity_fraction();
  m.advance(100.0, 50.0);
  EXPECT_LT(m.capacity_fraction(), before);
  EXPECT_GT(m.capacity_fraction(), 0.5);  // surrogate clamps at 50% fade
}

TEST(Degradation, FadeSaturatesAtHalf) {
  DegradationModel m(DegradationConfig{});
  m.advance(1e7, 0.0);
  EXPECT_DOUBLE_EQ(m.capacity_fraction(), 0.5);
}

TEST(Degradation, NegativeInputsThrow) {
  DegradationModel m(DegradationConfig{});
  EXPECT_THROW(m.advance(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(m.advance(0.0, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- reserve

TEST(Reserve, WorstWindowFindsPeak) {
  // Trace with a 2-slot peak of 5+6 = 11 kWh.
  const std::vector<double> trace = {1, 2, 5, 6, 1, 1};
  EXPECT_DOUBLE_EQ(reserve_energy_worst_window(trace, 2), 11.0);
}

TEST(Reserve, WorstWindowWholeTrace) {
  const std::vector<double> trace = {1, 2, 3};
  EXPECT_DOUBLE_EQ(reserve_energy_worst_window(trace, 3), 6.0);
}

TEST(Reserve, WorstWindowValidation) {
  EXPECT_THROW((void)reserve_energy_worst_window({1.0}, 2), std::invalid_argument);
  EXPECT_THROW((void)reserve_energy_worst_window({1.0, 2.0}, 0), std::invalid_argument);
}

TEST(Reserve, FloorFractionAccountsForEfficiency) {
  // 9 kWh delivered at 90% efficiency needs 10 kWh stored -> 0.5 of 20 kWh.
  EXPECT_NEAR(reserve_floor_fraction(9.0, 20.0, 0.9), 0.5, 1e-9);
}

TEST(Reserve, FloorFractionClampsAtOne) {
  EXPECT_DOUBLE_EQ(reserve_floor_fraction(100.0, 10.0, 1.0), 1.0);
}

TEST(Reserve, Eq6Invariant) {
  // The paper's Eq. 6: BS energy over the recovery window must fit under the
  // SoC floor.  Verify the floor sized from a trace indeed covers that trace.
  const std::vector<double> bs = {2.0, 3.0, 3.5, 2.5, 2.0, 1.5, 3.0, 3.2};
  const std::size_t recovery_slots = 4;
  const double reserve = reserve_energy_worst_window(bs, recovery_slots);
  double worst = 0.0;
  for (std::size_t t = 0; t + recovery_slots <= bs.size(); ++t) {
    double acc = 0.0;
    for (std::size_t k = 0; k < recovery_slots; ++k) acc += bs[t + k];
    worst = std::max(worst, acc);
  }
  EXPECT_GE(reserve + 1e-9, worst);
}

}  // namespace
}  // namespace ecthub::battery
