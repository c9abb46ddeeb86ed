// Tests for the network-traffic substrate (Eq. 1 driver).
#include "common/elementary.hpp"
#include "common/stats.hpp"
#include "traffic/generator.hpp"
#include "traffic/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace ecthub::traffic {
namespace {

TEST(DiurnalProfile, ClampsWeightsIntoUnitInterval) {
  std::array<double, 24> w{};
  w[0] = -0.5;
  w[1] = 1.5;
  const DiurnalProfile p(w);
  EXPECT_DOUBLE_EQ(p.hourly()[0], 0.0);
  EXPECT_DOUBLE_EQ(p.hourly()[1], 1.0);
}

TEST(DiurnalProfile, InterpolatesBetweenHours) {
  std::array<double, 24> w{};
  w[0] = 0.0;
  w[1] = 1.0;
  const DiurnalProfile p(w);
  EXPECT_NEAR(p.at_hour(0.5), 0.5, 1e-12);
}

TEST(DiurnalProfile, WrapsAtMidnight) {
  std::array<double, 24> w{};
  w[23] = 1.0;
  w[0] = 0.0;
  const DiurnalProfile p(w);
  EXPECT_NEAR(p.at_hour(23.5), 0.5, 1e-12);
}

TEST(DiurnalProfile, ResidentialPeaksInEvening) {
  const auto p = DiurnalProfile::for_area(AreaType::kResidential);
  EXPECT_GE(p.peak_hour(), 18u);
  EXPECT_LE(p.trough_hour(), 5u);
}

TEST(DiurnalProfile, OfficePeaksInBusinessHours) {
  const auto p = DiurnalProfile::for_area(AreaType::kOffice);
  EXPECT_GE(p.peak_hour(), 8u);
  EXPECT_LE(p.peak_hour(), 17u);
}

TEST(DiurnalProfile, HighwayHasCommutePeaks) {
  const auto p = DiurnalProfile::for_area(AreaType::kHighway);
  const auto& h = p.hourly();
  // Morning commute bump around 7-8h exceeds midday.
  EXPECT_GT(h[8], h[12]);
  // Evening commute bump around 17h exceeds midday.
  EXPECT_GT(h[17], h[12]);
}

TEST(DiurnalProfile, MixedIsAverageOfResidentialAndOffice) {
  const auto r = DiurnalProfile::for_area(AreaType::kResidential).hourly();
  const auto o = DiurnalProfile::for_area(AreaType::kOffice).hourly();
  const auto m = DiurnalProfile::for_area(AreaType::kMixed).hourly();
  for (std::size_t h = 0; h < 24; ++h) EXPECT_NEAR(m[h], 0.5 * (r[h] + o[h]), 1e-12);
}

TEST(AreaType, ToStringCoversAll) {
  EXPECT_EQ(to_string(AreaType::kResidential), "residential");
  EXPECT_EQ(to_string(AreaType::kOffice), "office");
  EXPECT_EQ(to_string(AreaType::kHighway), "highway");
  EXPECT_EQ(to_string(AreaType::kMixed), "mixed");
}

TEST(TrafficGenerator, LoadRateStaysInBounds) {
  TrafficConfig cfg;
  TrafficGenerator gen(cfg, Rng(1));
  const TimeGrid grid(30, 24);
  TrafficTrace trace;
  gen.generate_into(grid, trace);
  ASSERT_EQ(trace.load_rate.size(), grid.size());
  for (double a : trace.load_rate) {
    EXPECT_GE(a, cfg.min_load);
    EXPECT_LE(a, 1.0);
  }
}

TEST(TrafficGenerator, DeterministicGivenSeed) {
  TrafficConfig cfg;
  const TimeGrid grid(7, 24);
  TrafficTrace a;
  TrafficGenerator(cfg, Rng(9)).generate_into(grid, a);
  TrafficTrace b;
  TrafficGenerator(cfg, Rng(9)).generate_into(grid, b);
  EXPECT_EQ(a.load_rate, b.load_rate);
}

TEST(TrafficGenerator, DiurnalShapeSurvivesNoise) {
  // Average over many days: evening load must exceed the small-hours load for
  // the residential profile, as in the paper's Fig. 5.
  TrafficConfig cfg;
  cfg.area = AreaType::kResidential;
  TrafficGenerator gen(cfg, Rng(3));
  const TimeGrid grid(60, 24);
  TrafficTrace trace;
  gen.generate_into(grid, trace);
  double evening = 0.0, night = 0.0;
  std::size_t ne = 0, nn = 0;
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double h = grid.hour_of_day(t);
    if (h >= 19 && h <= 21) {
      evening += trace.load_rate[t];
      ++ne;
    }
    if (h >= 2 && h <= 4) {
      night += trace.load_rate[t];
      ++nn;
    }
  }
  EXPECT_GT(evening / static_cast<double>(ne), 2.0 * night / static_cast<double>(nn));
}

TEST(TrafficGenerator, WeekendFactorReducesOfficeLoad) {
  TrafficConfig cfg;
  cfg.area = AreaType::kOffice;
  cfg.weekend_factor = 0.5;
  cfg.noise_sigma = 0.0;  // isolate the deterministic effect
  TrafficGenerator gen(cfg, Rng(4));
  const TimeGrid grid(7, 24);
  TrafficTrace trace;
  gen.generate_into(grid, trace);
  // Compare the same hour (10am) on a weekday vs Saturday.
  const double weekday = trace.load_rate[10];
  const double saturday = trace.load_rate[5 * 24 + 10];
  EXPECT_NEAR(saturday, weekday * 0.5, 1e-9);
}

TEST(TrafficGenerator, NoiseCreatesAutocorrelatedDeviations) {
  TrafficConfig cfg;
  cfg.noise_persistence = 0.9;
  cfg.noise_sigma = 0.2;
  TrafficGenerator gen(cfg, Rng(5));
  const TimeGrid grid(90, 24);
  TrafficTrace trace;
  gen.generate_into(grid, trace);
  EXPECT_GT(stats::autocorrelation(trace.load_rate, 1), 0.3);
}

TEST(TrafficGenerator, RejectsBadConfig) {
  TrafficConfig bad;
  bad.noise_persistence = 1.0;
  EXPECT_THROW(TrafficGenerator(bad, Rng(1)), std::invalid_argument);
  TrafficConfig bad2;
  bad2.min_load = 1.5;
  EXPECT_THROW(TrafficGenerator(bad2, Rng(1)), std::invalid_argument);
  TrafficConfig bad3;
  bad3.noise_sigma = -0.1;
  EXPECT_THROW(TrafficGenerator(bad3, Rng(1)), std::invalid_argument);
}

TEST(TrafficGenerator, GenerateIntoMatchesGenerateAndReusesBuffers) {
  const TimeGrid grid(3, 24);
  TrafficTrace fresh;
  TrafficGenerator(TrafficConfig{}, Rng(31)).generate_into(grid, fresh);

  TrafficGenerator gen(TrafficConfig{}, Rng(31));
  // Stale buffers of another length are overwritten whole.
  TrafficTrace reused;
  reused.load_rate.assign(7, -1.0);
  gen.generate_into(grid, reused);
  EXPECT_EQ(reused.load_rate, fresh.load_rate);

  // A second pass into the same trace must reuse the buffers (no realloc)
  // and draw a fresh stochastic stream, not replay the first.
  const double* load_buf = reused.load_rate.data();
  const double first_load0 = reused.load_rate[0];
  gen.generate_into(grid, reused);
  EXPECT_EQ(reused.load_rate.data(), load_buf);
  EXPECT_EQ(reused.load_rate.size(), grid.size());
  EXPECT_NE(reused.load_rate[0], first_load0);
}

class AllAreasTest : public ::testing::TestWithParam<AreaType> {};

TEST_P(AllAreasTest, GeneratesValidTraceForEveryArchetype) {
  TrafficConfig cfg;
  cfg.area = GetParam();
  TrafficGenerator gen(cfg, Rng(6));
  const TimeGrid grid(14, 24);
  TrafficTrace trace;
  gen.generate_into(grid, trace);
  EXPECT_EQ(trace.load_rate.size(), grid.size());
  EXPECT_GT(stats::mean(trace.load_rate), 0.05);
  EXPECT_LT(stats::mean(trace.load_rate), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Areas, AllAreasTest,
                         ::testing::Values(AreaType::kResidential, AreaType::kOffice,
                                           AreaType::kHighway, AreaType::kMixed));

// The load rate is the envelope times the weekend factor evaluated slot by
// slot, times the AR(1) noise drawn in slot order: replaying the draws from
// an identically seeded Rng checks that the envelope computed once per slot
// of the day and reused across days holds exactly those bits, at any grid
// resolution.
TEST(TrafficGenerator, TraceReplaysThePerSlotExpression) {
  for (const AreaType area :
       {AreaType::kResidential, AreaType::kOffice, AreaType::kHighway, AreaType::kMixed}) {
    TrafficConfig cfg;
    cfg.area = area;
    const DiurnalProfile profile = DiurnalProfile::for_area(area);
    for (const std::size_t spd : {24u, 96u, 7u}) {
      const TimeGrid grid(9, spd);  // spans a weekend
      TrafficGenerator gen(cfg, Rng(8));
      TrafficTrace trace;
      gen.generate_into(grid, trace);
      ASSERT_EQ(trace.load_rate.size(), grid.size());
      Rng draws(8);
      double ar = 0.0;
      for (std::size_t t = 0; t < grid.size(); ++t) {
        const double weekend = grid.is_weekend(t) ? cfg.weekend_factor : 1.0;
        ar = cfg.noise_persistence * ar + draws.normal(0.0, cfg.noise_sigma);
        const double load = std::clamp(
            profile.at_hour(grid.hour_of_day(t)) * weekend * elementary::exp(ar), cfg.min_load,
            1.0);
        EXPECT_EQ(trace.load_rate[t], load) << to_string(area) << " " << spd << " " << t;
      }
    }
  }
}

}  // namespace
}  // namespace ecthub::traffic
