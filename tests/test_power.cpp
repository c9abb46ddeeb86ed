// Tests for the BS power model (Eq. 1) and the grid balance (Eq. 7).
#include "power/balance.hpp"
#include "power/base_station.hpp"

#include <gtest/gtest.h>

namespace ecthub::power {
namespace {

TEST(BaseStation, LinearInLoadRate) {
  BaseStationConfig cfg;
  cfg.idle_power_kw = 1.0;
  cfg.full_power_kw = 3.0;
  const BaseStation bs(cfg);
  EXPECT_DOUBLE_EQ(bs.power_kw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(bs.power_kw(0.5), 2.0);
  EXPECT_DOUBLE_EQ(bs.power_kw(1.0), 3.0);
}

TEST(BaseStation, ClampsLoadRate) {
  const BaseStation bs(BaseStationConfig{});
  EXPECT_DOUBLE_EQ(bs.power_kw(-0.5), bs.power_kw(0.0));
  EXPECT_DOUBLE_EQ(bs.power_kw(1.5), bs.power_kw(1.0));
}

TEST(BaseStation, SeriesMatchesScalar) {
  const BaseStation bs(BaseStationConfig{});
  const std::vector<double> load = {0.0, 0.3, 0.7, 1.0};
  const auto series = bs.series(load);
  ASSERT_EQ(series.size(), load.size());
  for (std::size_t t = 0; t < load.size(); ++t) {
    EXPECT_DOUBLE_EQ(series[t], bs.power_kw(load[t]));
  }
}

TEST(BaseStation, TypicalPowerIn5GRange) {
  // Sanity vs the paper: 5G BS draws 2-4 kW at full load.
  const BaseStation bs(BaseStationConfig{});
  EXPECT_GE(bs.power_kw(1.0), 2.0);
  EXPECT_LE(bs.power_kw(1.0), 4.0);
}

TEST(BaseStation, RejectsBadConfig) {
  BaseStationConfig bad;
  bad.idle_power_kw = -0.5;
  EXPECT_THROW(BaseStation{bad}, std::invalid_argument);
  BaseStationConfig bad2;
  bad2.full_power_kw = bad2.idle_power_kw;
  EXPECT_THROW(BaseStation{bad2}, std::invalid_argument);
}

// ---------------------------------------------------------------- balance

TEST(PowerFlow, GridImportCoversDeficit) {
  // BS 2 + CS 7 + BP charging 3 - renewables 4 = 8 kW imported.
  const PowerFlow f{2.0, 7.0, 3.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(f.grid_kw(), 8.0);
}

TEST(PowerFlow, SurplusIsCurtailedNotExported) {
  // Renewables exceed demand: grid import is zero (Eq. 7's max{0, .}) and the
  // surplus is curtailed — the paper's no-feed-in assumption.
  const PowerFlow f{2.0, 0.0, 0.0, 5.0, 3.0};
  EXPECT_DOUBLE_EQ(f.grid_kw(), 0.0);
}

TEST(PowerFlow, DischargingBatteryReducesImport) {
  const PowerFlow idle{3.0, 7.0, 0.0, 0.0, 0.0};
  const PowerFlow discharging{3.0, 7.0, -5.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(idle.grid_kw(), 10.0);
  EXPECT_DOUBLE_EQ(discharging.grid_kw(), 5.0);
}

TEST(PowerFlow, ChargingBatteryIncreasesImport) {
  const PowerFlow charging{3.0, 0.0, 4.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(charging.grid_kw(), 7.0);
}

}  // namespace
}  // namespace ecthub::power
