// Tests for the renewable-generation models (P_PV, P_WT of Eq. 7).
#include "common/stats.hpp"
#include "renewables/plant.hpp"
#include "renewables/pv.hpp"
#include "renewables/wind_turbine.hpp"
#include "weather/weather.hpp"

#include <gtest/gtest.h>

namespace ecthub::renewables {
namespace {

weather::WeatherSeries make_weather(std::size_t days = 2) {
  weather::WeatherGenerator gen(weather::WeatherConfig{}, Rng(77));
  weather::WeatherSeries wx;
  gen.generate_into(TimeGrid(days, 24), wx);
  return wx;
}

// ---------------------------------------------------------------- PV

TEST(PvArray, ZeroAtZeroIrradiance) {
  const PvArray pv(PvConfig{});
  EXPECT_DOUBLE_EQ(pv.power_w(0.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(pv.power_w(-10.0, 20.0), 0.0);
}

TEST(PvArray, PowerScalesWithIrradiance) {
  const PvArray pv(PvConfig{});
  EXPECT_GT(pv.power_w(800.0, 20.0), pv.power_w(400.0, 20.0));
}

TEST(PvArray, HotCellsProduceLess) {
  const PvArray pv(PvConfig{});
  EXPECT_GT(pv.power_w(800.0, 5.0), pv.power_w(800.0, 40.0));
}

TEST(PvArray, InverterClipsAtRatedPower) {
  PvConfig cfg;
  cfg.rated_power_w = 1000.0;
  cfg.area_m2 = 100.0;
  const PvArray pv(cfg);
  EXPECT_DOUBLE_EQ(pv.power_w(1000.0, 0.0), 1000.0);
}

TEST(PvArray, SeriesZeroAtNightPositiveAtNoon) {
  const PvArray pv(PvConfig{});
  const auto wx = make_weather();
  std::vector<double> series(wx.size());
  for (std::size_t t = 0; t < wx.size(); ++t) {
    series[t] = pv.power_w(wx.ghi_wm2[t], wx.temperature_c[t]);
  }
  EXPECT_DOUBLE_EQ(series[2], 0.0);   // 2 am
  EXPECT_GT(series[12], 0.0);         // noon
}

TEST(PvArray, RejectsBadConfig) {
  PvConfig bad;
  bad.efficiency = 0.0;
  EXPECT_THROW(PvArray{bad}, std::invalid_argument);
  PvConfig bad2;
  bad2.area_m2 = -1.0;
  EXPECT_THROW(PvArray{bad2}, std::invalid_argument);
  PvConfig bad3;
  bad3.rated_power_w = 0.0;
  EXPECT_THROW(PvArray{bad3}, std::invalid_argument);
}

// ---------------------------------------------------------------- WT

TEST(WindTurbine, PowerCurveRegions) {
  const WindTurbine wt(WindTurbineConfig{});
  const auto& cfg = wt.config();
  EXPECT_DOUBLE_EQ(wt.power_w(cfg.cut_in_ms - 0.5), 0.0);           // below cut-in
  EXPECT_DOUBLE_EQ(wt.power_w(cfg.rated_speed_ms), cfg.rated_power_w);  // rated
  EXPECT_DOUBLE_EQ(wt.power_w(cfg.rated_speed_ms + 5.0), cfg.rated_power_w);
  EXPECT_DOUBLE_EQ(wt.power_w(cfg.cut_out_ms + 1.0), 0.0);          // storm cut-out
}

TEST(WindTurbine, CubicRampIsMonotone) {
  const WindTurbine wt(WindTurbineConfig{});
  double prev = 0.0;
  for (double v = 3.0; v <= 11.0; v += 0.5) {
    const double p = wt.power_w(v);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(WindTurbine, HalfwaySpeedBelowHalfPower) {
  // Cubic physics: at the midpoint between cut-in and rated the output is
  // well under 50% of rated.
  const WindTurbine wt(WindTurbineConfig{});
  const auto& cfg = wt.config();
  const double mid = 0.5 * (cfg.cut_in_ms + cfg.rated_speed_ms);
  EXPECT_LT(wt.power_w(mid), 0.5 * cfg.rated_power_w);
}

TEST(WindTurbine, RejectsBadConfig) {
  WindTurbineConfig bad;
  bad.cut_in_ms = 12.0;  // above rated speed
  EXPECT_THROW(WindTurbine{bad}, std::invalid_argument);
  WindTurbineConfig bad2;
  bad2.rated_power_w = -5.0;
  EXPECT_THROW(WindTurbine{bad2}, std::invalid_argument);
}

// ---------------------------------------------------------------- plant

TEST(RenewablePlant, UrbanHasPvOnly) {
  const RenewablePlant plant(PlantConfig::urban());
  EXPECT_TRUE(plant.has_pv());
  EXPECT_FALSE(plant.has_wt());
  GenerationSeries gen;
  plant.generate_into(make_weather(), gen);
  EXPECT_GT(stats::sum(gen.pv_w), 0.0);
  EXPECT_DOUBLE_EQ(stats::sum(gen.wt_w), 0.0);
}

TEST(RenewablePlant, RuralHasBoth) {
  const RenewablePlant plant(PlantConfig::rural());
  EXPECT_TRUE(plant.has_pv());
  EXPECT_TRUE(plant.has_wt());
  GenerationSeries gen;
  plant.generate_into(make_weather(7), gen);
  EXPECT_GT(stats::sum(gen.pv_w), 0.0);
  EXPECT_GT(stats::sum(gen.wt_w), 0.0);
}

TEST(RenewablePlant, NoneGeneratesNothing) {
  const RenewablePlant plant(PlantConfig::none());
  GenerationSeries gen;
  plant.generate_into(make_weather(), gen);
  EXPECT_EQ(gen.size(), make_weather().size());
  EXPECT_DOUBLE_EQ(stats::sum(gen.pv_w), 0.0);
  EXPECT_DOUBLE_EQ(stats::sum(gen.wt_w), 0.0);
}

TEST(RenewablePlant, RuralOutGeneratesUrban) {
  const auto wx = make_weather(14);
  GenerationSeries rural;
  RenewablePlant(PlantConfig::rural()).generate_into(wx, rural);
  GenerationSeries urban;
  RenewablePlant(PlantConfig::urban()).generate_into(wx, urban);
  EXPECT_GT(stats::sum(rural.pv_w) + stats::sum(rural.wt_w),
            stats::sum(urban.pv_w) + stats::sum(urban.wt_w));
}

TEST(RenewablePlant, GenerateIntoMatchesGenerateAndReusesBuffers) {
  const auto wx = make_weather(15);
  const RenewablePlant plant(PlantConfig::rural());
  GenerationSeries fresh;
  plant.generate_into(wx, fresh);

  // Stale channels of another length are overwritten whole.
  GenerationSeries reused;
  reused.pv_w.assign(7, -1.0);
  reused.wt_w.assign(7, -1.0);
  plant.generate_into(wx, reused);
  EXPECT_EQ(reused.pv_w, fresh.pv_w);
  EXPECT_EQ(reused.wt_w, fresh.wt_w);

  // A second pass must reuse the channel buffers (no realloc).
  const double* pv_buf = reused.pv_w.data();
  const double* wt_buf = reused.wt_w.data();
  plant.generate_into(wx, reused);
  EXPECT_EQ(reused.pv_w.data(), pv_buf);
  EXPECT_EQ(reused.wt_w.data(), wt_buf);
  EXPECT_EQ(reused.pv_w, fresh.pv_w);  // deterministic given weather
  EXPECT_EQ(reused.wt_w, fresh.wt_w);
}

}  // namespace
}  // namespace ecthub::renewables
