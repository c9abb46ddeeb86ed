// Tests for the core hub: configuration, environment (Eqs. 1-12 wired
// together), profit ledger, and the policy execution path.
#include "common/elementary.hpp"
#include "common/stats.hpp"
#include "core/fleet.hpp"
#include "core/hub_config.hpp"
#include "core/hub_env.hpp"
#include "core/policy_runner.hpp"
#include "core/profit.hpp"
#include "nn/serialize.hpp"
#include "policy/rule_policies.hpp"
#include "rl/actor_critic.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ecthub::core {
namespace {

HubEnvConfig small_env(std::size_t days = 3) {
  HubEnvConfig cfg;
  cfg.episode_days = days;
  return cfg;
}

// Starts a fresh episode on `env`; returns the buffer holding its initial
// observation, which step_into then advances in place.
std::vector<double> reset_state(EctHubEnv& env) {
  std::vector<double> state(env.state_dim());
  env.reset_into(state);
  return state;
}

// ---------------------------------------------------------------- config

TEST(HubConfig, UrbanPresetHasPvOnly) {
  const HubConfig cfg = HubConfig::urban("u", 1);
  EXPECT_TRUE(cfg.plant.pv.has_value());
  EXPECT_FALSE(cfg.plant.wt.has_value());
  EXPECT_EQ(cfg.traffic.area, traffic::AreaType::kMixed);
}

TEST(HubConfig, RuralPresetHasWind) {
  const HubConfig cfg = HubConfig::rural("r", 2);
  EXPECT_TRUE(cfg.plant.pv.has_value());
  EXPECT_TRUE(cfg.plant.wt.has_value());
  EXPECT_EQ(cfg.traffic.area, traffic::AreaType::kHighway);
}

TEST(DefaultFleet, TwelveHeterogeneousHubs) {
  const auto fleet = default_fleet();
  ASSERT_EQ(fleet.size(), 12u);
  std::size_t rural = 0;  // rural sites carry a wind turbine
  for (const auto& hub : fleet) {
    if (hub.plant.wt.has_value()) ++rural;
  }
  EXPECT_GT(rural, 0u);
  EXPECT_LT(rural, 12u);
  // Seeds and names unique.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      EXPECT_NE(fleet[i].seed, fleet[j].seed);
      EXPECT_NE(fleet[i].name, fleet[j].name);
    }
  }
}

// ---------------------------------------------------------------- profit

TEST(Profit, SlotEconomicsDollarConversion) {
  // 10 kW for 1 h at 100 $/MWh = 1 $.
  const SlotEconomics e = slot_economics(10.0, 10.0, 100.0, 100.0, 0.05, 1.0);
  EXPECT_NEAR(e.revenue, 1.0, 1e-12);
  EXPECT_NEAR(e.grid_cost, 1.0, 1e-12);
  EXPECT_NEAR(e.profit(), -0.05, 1e-12);
}

TEST(Profit, SlotEconomicsValidation) {
  EXPECT_THROW((void)slot_economics(1.0, 1.0, 10.0, 10.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)slot_economics(-1.0, 1.0, 10.0, 10.0, 0.0, 1.0), std::invalid_argument);
}

TEST(Profit, LedgerAggregatesByDay) {
  ProfitLedger ledger(2);  // 2 slots per day
  SlotEconomics e;
  e.revenue = 1.0;
  ledger.record(e);
  ledger.record(e);
  ledger.record(e);
  ASSERT_EQ(ledger.daily_profit().size(), 2u);
  EXPECT_NEAR(ledger.daily_profit()[0], 2.0, 1e-12);
  EXPECT_NEAR(ledger.daily_profit()[1], 1.0, 1e-12);
  EXPECT_NEAR(ledger.total_profit(), 3.0, 1e-12);
  EXPECT_EQ(ledger.slots_recorded(), 3u);
}

TEST(Profit, LedgerTracksComponents) {
  ProfitLedger ledger(24);
  SlotEconomics e;
  e.revenue = 5.0;
  e.grid_cost = 2.0;
  e.bp_cost = 0.5;
  ledger.record(e);
  EXPECT_DOUBLE_EQ(ledger.total_revenue(), 5.0);
  EXPECT_DOUBLE_EQ(ledger.total_grid_cost(), 2.0);
  EXPECT_DOUBLE_EQ(ledger.total_bp_cost(), 0.5);
  EXPECT_DOUBLE_EQ(ledger.total_profit(), 2.5);
}

// ---------------------------------------------------------------- env

TEST(EctHubEnv, ResetProducesStateOfDeclaredDim) {
  EctHubEnv env(HubConfig::urban("t", 3), small_env());
  // reset_into must write every entry of a state_dim() buffer.
  std::vector<double> state(env.state_dim(), std::numeric_limits<double>::quiet_NaN());
  env.reset_into(state);
  for (const double x : state) EXPECT_TRUE(std::isfinite(x));
  EXPECT_EQ(state.size(), env.observation_layout().dim());
  EXPECT_EQ(env.action_count(), 3u);
}

TEST(EctHubEnv, EpisodeTerminatesAtHorizon) {
  EctHubEnv env(HubConfig::urban("t", 4), small_env(2));
  std::vector<double> state = reset_state(env);
  std::size_t steps = 0;
  bool done = false;
  while (!done) {
    done = env.step_into(0, state).done;
    ++steps;
  }
  EXPECT_EQ(steps, 48u);
}

TEST(EctHubEnv, StepBeforeResetThrows) {
  EctHubEnv env(HubConfig::urban("t", 5), small_env());
  std::vector<double> state(env.state_dim());
  EXPECT_THROW(env.step_into(0, state), std::logic_error);
}

TEST(EctHubEnv, BadActionThrows) {
  EctHubEnv env(HubConfig::urban("t", 6), small_env());
  std::vector<double> state = reset_state(env);
  EXPECT_THROW(env.step_into(3, state), std::invalid_argument);
}

TEST(EctHubEnv, SocStaysWithinBoundsUnderRandomActions) {
  EctHubEnv env(HubConfig::rural("t", 7), small_env(5));
  std::vector<double> state = reset_state(env);
  Rng rng(8);
  bool done = false;
  while (!done) {
    done = env.step_into(static_cast<std::size_t>(rng.uniform_int(0, 2)), state).done;
    if (!done) {
      EXPECT_GE(env.soc_frac(), env.hub().battery.soc_min_frac - 1e-9);
      EXPECT_LE(env.soc_frac(), env.hub().battery.soc_max_frac + 1e-9);
    }
  }
}

TEST(EctHubEnv, ReserveFloorCoversBlackoutWindow) {
  // Eq. 6: stored reserve energy (discounted by efficiency) must cover the
  // worst BS draw over the recovery window.
  HubConfig hub = HubConfig::urban("t", 9);
  hub.recovery_hours = 6.0;
  EctHubEnv env(hub, small_env(4));
  reset_state(env);
  const auto& bs = env.bs_power_series();
  double worst = 0.0;
  for (std::size_t t = 0; t + 6 <= bs.size(); ++t) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 6; ++k) acc += bs[t + k];
    worst = std::max(worst, acc);
  }
  const double deliverable =
      env.pack().reserve_floor_kwh() * hub.battery.discharge_efficiency;
  EXPECT_GE(deliverable + 1e-6, std::min(worst, deliverable));  // floor clamped to soc_max
  EXPECT_GE(env.pack().reserve_floor_kwh(), env.pack().soc_min_kwh() - 1e-9);
}

TEST(EctHubEnv, RecoveryBeyondTheHorizonSizesTheWholeEpisode) {
  // A recovery time past the 2-day horizon sizes the Eq. 6 floor over the
  // whole episode, however long it is.  1e300 h used to reach an undefined
  // double -> size_t cast and left the floor at soc_min.
  const auto floor_for = [](double hours) {
    HubConfig hub = HubConfig::urban("t", 9);
    hub.recovery_hours = hours;
    EctHubEnv env(hub, small_env(2));
    reset_state(env);
    return env.pack().reserve_floor_kwh();
  };
  const double whole_episode = floor_for(48.0);
  EctHubEnv probe(HubConfig::urban("t", 9), small_env(2));
  reset_state(probe);
  EXPECT_GT(whole_episode, probe.pack().soc_min_kwh());
  EXPECT_EQ(floor_for(1000.0), whole_episode);
  EXPECT_EQ(floor_for(1e300), whole_episode);
}

TEST(EctHubEnv, ShapedRewardIsProfitDeltaVsIdle) {
  // Shaped episode return == true profit minus the profit an idle policy
  // would have earned on the same exogenous series.  Run the same seed twice.
  const HubConfig hub = HubConfig::urban("t", 1010);
  HubEnvConfig cfg = small_env(2);
  EctHubEnv env_active(hub, cfg);
  EctHubEnv env_idle(hub, cfg);
  std::vector<double> active_state = reset_state(env_active);
  std::vector<double> idle_state = reset_state(env_idle);
  double shaped_acc = 0.0;
  bool done = false;
  while (!done) {
    const StepOutcome r = env_active.step_into(2, active_state);  // discharge whenever possible
    shaped_acc += r.reward;
    done = env_idle.step_into(0, idle_state).done && r.done;
  }
  const double true_delta =
      env_active.ledger().total_profit() - env_idle.ledger().total_profit();
  EXPECT_NEAR(shaped_acc, true_delta, 1e-9);
}

TEST(EctHubEnv, IdleShapedRewardIsZero) {
  EctHubEnv env(HubConfig::rural("t", 1011), small_env(1));
  std::vector<double> state = reset_state(env);
  bool done = false;
  while (!done) {
    const StepOutcome r = env.step_into(0, state);
    EXPECT_DOUBLE_EQ(r.reward, 0.0);
    done = r.done;
  }
}

TEST(EctHubEnv, DiscountsIncreaseChargingRevenue) {
  // Same hub/seed: an evening-discount schedule must attract more EV revenue
  // than no discounts (Incentive stratum only charges when discounted).
  HubConfig hub = HubConfig::urban("t", 11);
  hub.ev_evening_sensitivity = 0.9;

  HubEnvConfig no_disc = small_env(20);
  EctHubEnv env_a(hub, no_disc);
  std::vector<double> state_a = reset_state(env_a);
  bool done = false;
  while (!done) done = env_a.step_into(0, state_a).done;
  const double revenue_no = env_a.ledger().total_revenue();

  HubEnvConfig with_disc = small_env(20);
  with_disc.discount_by_hour.assign(24, false);
  for (std::size_t h = 18; h < 24; ++h) with_disc.discount_by_hour[h] = true;
  EctHubEnv env_b(hub, with_disc);
  std::vector<double> state_b = reset_state(env_b);
  done = false;
  while (!done) done = env_b.step_into(0, state_b).done;
  const double revenue_disc = env_b.ledger().total_revenue();

  EXPECT_GT(revenue_disc, revenue_no);
}

TEST(EctHubEnv, StateChannelsAreNormalized) {
  EctHubEnv env(HubConfig::rural("t", 12), small_env());
  const auto state = reset_state(env);
  for (double s : state) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, -2.0);
    EXPECT_LE(s, 3.0);
  }
}

TEST(EctHubEnv, ConfigValidation) {
  HubEnvConfig bad = small_env();
  bad.discount_by_hour.assign(100, true);  // wrong length
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad), std::invalid_argument);
  HubEnvConfig bad2 = small_env();
  bad2.discount_fraction = 1.0;
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad2), std::invalid_argument);
  HubEnvConfig bad3 = small_env();
  bad3.episode_days = 0;
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad3), std::invalid_argument);

  // NaN slips past a `x < lo` check; every range check must reject it.  The
  // coupling rates and durations must also be finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  HubEnvConfig bad5 = small_env();
  bad5.discount_fraction = nan;
  EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), bad5), std::invalid_argument);
  HubEnvConfig coupled = small_env();
  coupled.coupling.enabled = true;
  EXPECT_NO_THROW(EctHubEnv(HubConfig::urban("t", 13), coupled));
  for (const double v : {nan, std::numeric_limits<double>::infinity()}) {
    HubEnvConfig poisoned = coupled;
    poisoned.coupling.through_rate = v;
    EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), poisoned), std::invalid_argument) << v;
    poisoned = coupled;
    poisoned.coupling.outage.rate_per_month = v;
    EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), poisoned), std::invalid_argument) << v;
    poisoned = coupled;
    poisoned.coupling.outage.min_duration_h = v;
    EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), poisoned), std::invalid_argument) << v;
    poisoned = coupled;
    poisoned.coupling.outage.max_duration_h = v;
    EXPECT_THROW(EctHubEnv(HubConfig::urban("t", 13), poisoned), std::invalid_argument) << v;
  }
}

// ------------------------------------------------------- determinism (golden)

// Golden values generated from the pinned episode generator (urban hub,
// seed 4242, 3-day episode).  If any of these change, episode generation has
// drifted: every stored scenario, fleet comparison and figure changes with
// it.  Regenerate deliberately (print the series at %.17g) or fix the drift.
TEST(EctHubEnvGolden, FixedSeedPinsEpisodeSeries) {
  HubEnvConfig cfg;
  cfg.episode_days = 3;
  EctHubEnv env(HubConfig::urban("golden", 4242), cfg);
  reset_state(env);
  ASSERT_EQ(env.slots_per_episode(), 72u);

  double rtp_sum = 0.0;
  for (std::size_t t = 0; t < 72; ++t) rtp_sum += env.rtp_at(t);
  EXPECT_DOUBLE_EQ(env.rtp_at(0), 65.114522478094145);
  EXPECT_DOUBLE_EQ(env.rtp_at(71), 93.339350094032696);
  EXPECT_DOUBLE_EQ(rtp_sum, 6367.8729657241693);

  const auto& renew = env.renewable_series();
  ASSERT_EQ(renew.size(), 72u);
  double renew_sum = 0.0;
  for (const double r : renew) renew_sum += r;
  EXPECT_DOUBLE_EQ(renew.front(), 0.0);  // midnight: no PV
  EXPECT_DOUBLE_EQ(renew[12], 1.3483604168319443);
  EXPECT_DOUBLE_EQ(renew_sum, 61.824009532754602);

  const auto& bs = env.bs_power_series();
  ASSERT_EQ(bs.size(), 72u);
  double bs_sum = 0.0;
  for (const double b : bs) bs_sum += b;
  EXPECT_DOUBLE_EQ(bs.front(), 1.4889389243393407);
  EXPECT_DOUBLE_EQ(bs.back(), 1.7881486524379024);
  EXPECT_DOUBLE_EQ(bs_sum, 157.04411360164929);

  EXPECT_DOUBLE_EQ(env.soc_frac(), 0.6064111238575508);
}

TEST(EctHubEnvGolden, TwoEnvsSameSeedProduceIdenticalEpisodes) {
  HubEnvConfig cfg;
  cfg.episode_days = 2;
  const HubConfig hub = HubConfig::rural("twin", 777);
  EctHubEnv a(hub, cfg);
  EctHubEnv b(hub, cfg);
  const auto sa = reset_state(a);
  const auto sb = reset_state(b);
  EXPECT_EQ(sa, sb);
  for (std::size_t t = 0; t < a.slots_per_episode(); ++t) {
    ASSERT_EQ(a.rtp_at(t), b.rtp_at(t)) << "slot " << t;
    ASSERT_EQ(a.srtp_at(t), b.srtp_at(t)) << "slot " << t;
  }
  EXPECT_EQ(a.renewable_series(), b.renewable_series());
  EXPECT_EQ(a.bs_power_series(), b.bs_power_series());
  EXPECT_EQ(a.cs_power_series(), b.cs_power_series());
  EXPECT_EQ(a.soc_frac(), b.soc_frac());
}

TEST(EctHubEnvGolden, SuccessiveResetsDrawFreshEpisodes) {
  // Buffer reuse across resets must not replay the previous episode.
  HubEnvConfig cfg;
  cfg.episode_days = 2;
  EctHubEnv env(HubConfig::urban("fresh", 31), cfg);
  std::vector<double> state = reset_state(env);
  const double first_rtp0 = env.rtp_at(0);
  env.reset_into(state);
  EXPECT_NE(env.rtp_at(0), first_rtp0);
}

// ---------------------------------------------------------------- edge cases

TEST(EctHubEnv, EmptyDiscountScheduleMatchesAllFalse) {
  // An empty discount_by_hour means "no discounts" and must behave exactly
  // like an explicit all-false 24-entry schedule.
  const HubConfig hub = HubConfig::urban("nodisc", 55);
  HubEnvConfig empty_cfg = small_env(2);
  HubEnvConfig false_cfg = small_env(2);
  false_cfg.discount_by_hour.assign(24, false);
  EctHubEnv env_empty(hub, empty_cfg);
  EctHubEnv env_false(hub, false_cfg);
  std::vector<double> state = reset_state(env_empty);
  reset_state(env_false);
  for (std::size_t t = 0; t < env_empty.slots_per_episode(); ++t) {
    ASSERT_EQ(env_empty.srtp_at(t), env_false.srtp_at(t)) << "slot " << t;
  }
  EXPECT_EQ(env_empty.cs_power_series(), env_false.cs_power_series());
  EXPECT_NO_THROW(env_empty.step_into(1, state));
}

TEST(EctHubEnv, PoliciesRunOnEmptyDiscountEnv) {
  EctHubEnv env(HubConfig::rural("nodisc", 56), small_env(2));
  policy::TouPolicy tou;
  policy::GreedyPricePolicy greedy;
  policy::ForecastPolicy forecast;
  for (policy::Policy* pol :
       {static_cast<policy::Policy*>(&tou), static_cast<policy::Policy*>(&greedy),
        static_cast<policy::Policy*>(&forecast)}) {
    const auto profits = run_policy(env, *pol, 1);
    ASSERT_EQ(profits.size(), 1u);
    EXPECT_TRUE(std::isfinite(profits[0])) << pol->name();
  }
}

TEST(EctHubEnv, ZeroCapacityBatteryThrowsAtConstruction) {
  HubConfig hub = HubConfig::urban("dead-batt", 57);
  hub.battery.capacity_kwh = 0.0;
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
  hub.battery.capacity_kwh = -5.0;
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
}

TEST(EctHubEnv, NegativeRecoveryHoursThrowsAtConstruction) {
  HubConfig hub = HubConfig::urban("bad-recovery", 58);
  hub.recovery_hours = -1.0;
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
  hub.recovery_hours = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
  hub.recovery_hours = std::numeric_limits<double>::infinity();
  EXPECT_THROW(EctHubEnv(hub, small_env()), std::invalid_argument);
}

// Every double field of HubConfig, nested configs included, set to NaN or
// +inf must fail at construction, before any episode runs.  NaN passes a
// `x <= 0` check, so every component check must be written to reject it.
TEST(EctHubEnv, NonFiniteHubConfigThrowsAtConstruction) {
  struct Field {
    const char* name;
    double& (*at)(HubConfig&);
  };
#define HUB_FIELD(path) Field{#path, [](HubConfig& h) -> double& { return h.path; }}
  const Field fields[] = {
      HUB_FIELD(bs.idle_power_kw),
      HUB_FIELD(bs.full_power_kw),
      HUB_FIELD(battery.capacity_kwh),
      HUB_FIELD(battery.charge_rate_kw),
      HUB_FIELD(battery.discharge_rate_kw),
      HUB_FIELD(battery.charge_efficiency),
      HUB_FIELD(battery.discharge_efficiency),
      HUB_FIELD(battery.soc_min_frac),
      HUB_FIELD(battery.soc_max_frac),
      HUB_FIELD(battery.op_cost_per_slot),
      HUB_FIELD(station.plug_rate_kw),
      HUB_FIELD(plant.pv->area_m2),
      HUB_FIELD(plant.pv->efficiency),
      HUB_FIELD(plant.pv->temp_coeff_per_c),
      HUB_FIELD(plant.pv->inverter_efficiency),
      HUB_FIELD(plant.pv->rated_power_w),
      HUB_FIELD(plant.wt->cut_in_ms),
      HUB_FIELD(plant.wt->rated_speed_ms),
      HUB_FIELD(plant.wt->cut_out_ms),
      HUB_FIELD(plant.wt->rated_power_w),
      HUB_FIELD(traffic.weekend_factor),
      HUB_FIELD(traffic.noise_persistence),
      HUB_FIELD(traffic.noise_sigma),
      HUB_FIELD(traffic.peak_volume_gb),
      HUB_FIELD(traffic.min_load),
      HUB_FIELD(weather.solar.peak_ghi),
      HUB_FIELD(weather.solar.season_daylength_swing_h),
      HUB_FIELD(weather.solar.mean_daylength_h),
      HUB_FIELD(weather.solar.cloud_switch_prob),
      HUB_FIELD(weather.solar.cloudy_transmittance),
      HUB_FIELD(weather.solar.transmittance_sigma),
      HUB_FIELD(weather.wind.mean_speed_ms),
      HUB_FIELD(weather.wind.reversion_rate),
      HUB_FIELD(weather.wind.volatility),
      HUB_FIELD(weather.wind.diurnal_amplitude),
      HUB_FIELD(weather.wind.max_speed_ms),
      HUB_FIELD(weather.mean_temperature_c),
      HUB_FIELD(weather.diurnal_temp_swing_c),
      HUB_FIELD(weather.temp_noise_sigma),
      HUB_FIELD(rtp.base_price),
      HUB_FIELD(rtp.diurnal_amplitude),
      HUB_FIELD(rtp.load_coupling),
      HUB_FIELD(rtp.noise_sigma),
      HUB_FIELD(rtp.noise_persistence),
      HUB_FIELD(rtp.spike_prob),
      HUB_FIELD(rtp.spike_scale),
      HUB_FIELD(rtp.floor_price),
      HUB_FIELD(selling.markup),
      HUB_FIELD(selling.floor),
      HUB_FIELD(ev_popularity),
      HUB_FIELD(ev_evening_sensitivity),
      HUB_FIELD(ev_evening_commuter),
      HUB_FIELD(recovery_hours),
  };
#undef HUB_FIELD
  // The rural preset carries both a PV array and a wind turbine.
  const HubConfig valid = HubConfig::rural("finite", 60);
  EXPECT_NO_THROW(EctHubEnv(valid, small_env(1)));
  for (const Field& field : fields) {
    for (const double v :
         {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity()}) {
      HubConfig hub = valid;
      field.at(hub) = v;
      EXPECT_THROW(EctHubEnv(hub, small_env(1)), std::invalid_argument) << field.name << " = " << v;
    }
  }
}

TEST(EctHubEnv, StepPastEpisodeEndThrows) {
  EctHubEnv env(HubConfig::urban("overrun", 59), small_env(1));
  std::vector<double> state = reset_state(env);
  bool done = false;
  while (!done) done = env.step_into(0, state).done;
  EXPECT_THROW(env.step_into(0, state), std::logic_error);
  // A reset re-arms the episode.
  env.reset_into(state);
  EXPECT_NO_THROW(env.step_into(0, state));
}

TEST(EctHubEnv, IntoOverloadsValidateBufferSize) {
  EctHubEnv env(HubConfig::urban("into-b", 62), small_env(1));
  std::vector<double> wrong(env.state_dim() + 1);
  std::vector<double> right(env.state_dim());
  EXPECT_THROW(env.reset_into(wrong), std::invalid_argument);
  EXPECT_THROW(env.observe_into(right), std::logic_error);  // before reset
  env.reset_into(right);
  EXPECT_THROW(env.observe_into(wrong), std::invalid_argument);
  EXPECT_THROW(env.step_into(0, wrong), std::invalid_argument);
  EXPECT_NO_THROW(env.step_into(0, right));
}

TEST(EctHubEnv, ObserveIntoMatchesResetObservation) {
  EctHubEnv env(HubConfig::urban("into-c", 63), small_env(1));
  const std::vector<double> from_reset = reset_state(env);
  std::vector<double> observed(env.state_dim());
  env.observe_into(observed);
  EXPECT_EQ(observed, from_reset);
}

// The hour channels come from per-slot-of-day tables built at construction;
// they must equal sin/cos of the slot's hour at every slot, including the
// final observation (t == size), which wraps to the next day's first slot.
TEST(EctHubEnv, HourChannelsAreSinCosOfTheSlotHour) {
  for (const std::size_t spd : {24u, 96u, 7u}) {
    HubEnvConfig cfg = small_env(2);
    cfg.slots_per_day = spd;
    EctHubEnv env(HubConfig::urban("hours", 41), cfg);
    const policy::ObservationLayout layout = env.observation_layout();
    const auto check = [&](const std::vector<double>& obs, std::size_t t) {
      const double hour = static_cast<double>(t % spd) * (24.0 / static_cast<double>(spd));
      EXPECT_EQ(obs[layout.hour_sin_index()], elementary::sin(2.0 * std::numbers::pi * hour / 24.0))
          << spd << " " << t;
      EXPECT_EQ(obs[layout.hour_cos_index()], elementary::cos(2.0 * std::numbers::pi * hour / 24.0))
          << spd << " " << t;
    };
    std::vector<double> state = reset_state(env);
    check(state, 0);
    bool done = false;
    while (!done) {
      done = env.step_into(0, state).done;
      check(state, env.current_slot());
    }
    EXPECT_EQ(env.current_slot(), env.slots_per_episode());
  }
}

// The series an uncoupled env's episode is built from, regenerated through
// the public generators in generate_episode's fork order (traffic ->
// weather -> RTP -> EV -> initial SoC); `rng` is left where the env's own
// stream stands after the episode, so successive calls replay successive
// episodes.
struct EpisodeSeries {
  traffic::TrafficTrace traffic;
  weather::WeatherSeries wx;
  renewables::GenerationSeries gen;  ///< watts, as the plant writes them
  std::vector<double> rtp;
  std::vector<double> srtp;
};

EpisodeSeries replay_episode(const HubConfig& hub, const HubEnvConfig& cfg, Rng& rng) {
  const TimeGrid grid(cfg.episode_days, cfg.slots_per_day);
  EpisodeSeries s;
  traffic::TrafficGenerator(hub.traffic, rng.fork()).generate_into(grid, s.traffic);
  weather::WeatherGenerator(hub.weather, rng.fork()).generate_into(grid, s.wx);
  renewables::RenewablePlant(hub.plant).generate_into(s.wx, s.gen);
  pricing::RtpGenerator(hub.rtp, rng.fork()).generate_into(grid, s.traffic.load_rate, s.rtp);
  std::vector<bool> discounted(grid.size(), false);
  if (!cfg.discount_by_hour.empty()) {
    for (std::size_t t = 0; t < grid.size(); ++t) {
      discounted[t] = cfg.discount_by_hour[static_cast<std::size_t>(grid.hour_of_day(t)) % 24];
    }
  }
  pricing::SellingPricePolicy(hub.selling,
                              pricing::DiscountSchedule::from_flags(discounted, cfg.discount_fraction))
      .series_into(s.rtp, s.srtp);
  (void)rng.fork();             // the EV station's stream
  (void)rng.uniform(0.3, 0.9);  // the initial SoC
  return s;
}

// The env keeps its observation windows pre-scaled and rolls them one slot
// per step.  Every observation must hold exactly what dividing each window
// slot on every call gives, series[min(t >= k ? t - k : 0, n - 1)] / scale
// for the slot k back, at every slot: the horizon's clamped window and a
// second episode's reseeded windows included, at every grid the env accepts
// and at lookback 1 and 6.
TEST(EctHubEnv, ObservationWindowsEqualTheScaledSeriesAtEverySlot) {
  using policy::ObservationLayout;
  for (const std::size_t spd : {24u, 96u, 7u}) {
    for (const std::size_t lookback : {1u, 6u}) {
      for (const HubConfig& hub : {HubConfig::urban("window", 71), HubConfig::rural("window", 72)}) {
        HubEnvConfig cfg = small_env(2);
        cfg.slots_per_day = spd;
        cfg.lookback = lookback;
        cfg.discount_by_hour.assign(24, false);
        for (std::size_t h = 10; h < 16; ++h) cfg.discount_by_hour[h] = true;
        EctHubEnv env(hub, cfg);
        const ObservationLayout layout = env.observation_layout();
        Rng rng(hub.seed);
        std::vector<double> state(env.state_dim());
        for (int episode = 0; episode < 2; ++episode) {
          const EpisodeSeries s = replay_episode(hub, cfg, rng);
          const std::size_t n = s.rtp.size();
          std::size_t mismatches = 0;
          const auto check = [&](std::size_t t) {
            const auto window = [&](std::size_t begin, const std::vector<double>& series,
                                    double scale) {
              for (std::size_t k = 0; k < lookback; ++k) {
                const std::size_t idx = std::min(t >= k ? t - k : 0, n - 1);
                if (state[begin + lookback - 1 - k] != series[idx] / scale && mismatches++ == 0) {
                  ADD_FAILURE() << hub.name << " spd " << spd << " lookback " << lookback
                                << " episode " << episode << " slot " << t << " channel at "
                                << begin << " k " << k;
                }
              }
            };
            window(layout.rtp_begin(), s.rtp, ObservationLayout::kPriceScale);
            window(layout.ghi_begin(), s.wx.ghi_wm2, ObservationLayout::kGhiScale);
            window(layout.wind_begin(), s.wx.wind_speed_ms, ObservationLayout::kWindScale);
            window(layout.traffic_begin(), s.traffic.load_rate, 1.0);
            window(layout.srtp_begin(), s.srtp, ObservationLayout::kPriceScale);
            EXPECT_EQ(state[layout.soc_index()], env.soc_frac());
          };
          env.reset_into(state);
          check(0);
          bool done = false;
          while (!done) {
            done = env.step_into(env.current_slot() % 3, state).done;
            check(env.current_slot());
          }
          EXPECT_EQ(env.current_slot(), n);
          EXPECT_EQ(mismatches, 0u);
        }
      }
    }
  }
}

// renewable_series() is filled on its first call of each episode from the
// plant output the step reads in kW; it must be the plant's watts over 1000,
// summed, and must follow a new episode rather than keep the last one's.
TEST(EctHubEnv, RenewableSeriesIsThePlantOutputInKw) {
  const HubConfig hub = HubConfig::rural("renew", 73);
  const HubEnvConfig cfg = small_env(2);
  EctHubEnv env(hub, cfg);
  Rng rng(hub.seed);
  std::vector<double> state(env.state_dim());
  for (int episode = 0; episode < 2; ++episode) {
    const EpisodeSeries s = replay_episode(hub, cfg, rng);
    env.reset_into(state);
    for (int step = 0; step < 5; ++step) env.step_into(1, state);
    const std::vector<double>& renew = env.renewable_series();
    ASSERT_EQ(renew.size(), s.gen.size());
    for (std::size_t t = 0; t < renew.size(); ++t) {
      ASSERT_EQ(renew[t], s.gen.pv_w[t] / 1000.0 + s.gen.wt_w[t] / 1000.0)
          << "episode " << episode << " slot " << t;
    }
    EXPECT_GT(std::accumulate(renew.begin(), renew.end(), 0.0), 0.0);
  }
}

TEST(Profit, LedgerResetClearsTotalsAndDays) {
  ProfitLedger ledger(2);
  SlotEconomics e;
  e.revenue = 3.0;
  ledger.record(e);
  ledger.record(e);
  ledger.reset();
  EXPECT_EQ(ledger.slots_recorded(), 0u);
  EXPECT_DOUBLE_EQ(ledger.total_profit(), 0.0);
  EXPECT_TRUE(ledger.daily_profit().empty());
  // Still aggregates with the original day length after reset.
  ledger.record(e);
  ledger.record(e);
  ledger.record(e);
  EXPECT_EQ(ledger.daily_profit().size(), 2u);
}

// ------------------------------------------------------------------ policies
//
// The rule-based policies read the shared observation vector, never the env:
// these tests drive them exactly the way run_policy / the fleet engine does,
// through the one buffer reset_into()/step_into() write.

TEST(Policies, NoBatteryAlwaysIdles) {
  EctHubEnv env(HubConfig::urban("t", 14), small_env());
  const std::vector<double> state = reset_state(env);
  policy::NoBatteryPolicy pol;
  EXPECT_EQ(pol.decide(state), 0u);
}

TEST(Policies, TouChargesOffPeakDischargesPeak) {
  EctHubEnv env(HubConfig::urban("t", 15), small_env());
  std::vector<double> state = reset_state(env);
  policy::TouPolicy pol(env.observation_layout());
  // Walk the first day and collect decisions by hour.
  std::vector<std::size_t> by_hour(24, 99);
  bool done = false;
  while (!done && env.current_slot() < 24) {
    const auto hour = static_cast<std::size_t>(env.hour_of_day(env.current_slot()));
    by_hour[hour] = pol.decide(state);
    done = env.step_into(0, state).done;
  }
  EXPECT_EQ(by_hour[2], 1u);   // off-peak charge
  EXPECT_EQ(by_hour[18], 2u);  // peak discharge
  EXPECT_EQ(by_hour[12], 0u);  // shoulder idle
}

TEST(Policies, GreedyArbitrageBeatsNoBatteryOnAverage) {
  HubConfig hub = HubConfig::urban("t", 16);
  EctHubEnv env_a(hub, small_env(10));
  EctHubEnv env_b(hub, small_env(10));
  policy::GreedyPricePolicy greedy;
  policy::NoBatteryPolicy none;
  const auto greedy_profit = run_policy(env_a, greedy, 5);
  const auto none_profit = run_policy(env_b, none, 5);
  double mg = 0, mn = 0;
  for (double p : greedy_profit) mg += p;
  for (double p : none_profit) mn += p;
  // Arbitrage should not be catastrophically worse; typically better.
  EXPECT_GT(mg, mn - 1.0);
}

TEST(Policies, ForecastChargesCheapHoursDischargesExpensive) {
  EctHubEnv env(HubConfig::urban("t", 21), small_env(10));
  policy::ForecastPolicy pol(env.observation_layout());
  // Walk several days so the seasonal price curve is learned, then check the
  // decisions: early-morning trough hours should charge, evening peak hours
  // should discharge.
  std::vector<double> state = reset_state(env);
  pol.begin_episode();
  std::vector<std::size_t> last_day_decision(24, 99);
  bool done = false;
  while (!done) {
    const std::size_t t = env.current_slot();
    const auto hour = static_cast<std::size_t>(env.hour_of_day(t));
    const std::size_t a = pol.decide(state);
    if (t >= 9 * 24) last_day_decision[hour] = a;
    done = env.step_into(a, state).done;
  }
  EXPECT_EQ(last_day_decision[3], 1u);   // night trough: charge
  EXPECT_EQ(last_day_decision[20], 2u);  // evening peak: discharge
}

TEST(Policies, ForecastBeatsNoBattery) {
  HubConfig hub = HubConfig::rural("t", 22);
  EctHubEnv env_a(hub, small_env(15));
  EctHubEnv env_b(hub, small_env(15));
  policy::ForecastPolicy fc;
  policy::NoBatteryPolicy none;
  const double fc_profit = stats::mean(run_policy(env_a, fc, 4));
  const double none_profit = stats::mean(run_policy(env_b, none, 4));
  EXPECT_GT(fc_profit, none_profit);
}

TEST(Policies, ForecastRejectsBadBands) {
  EXPECT_THROW(policy::ForecastPolicy({}, 0.8, 0.2), std::invalid_argument);
}

TEST(Policies, RandomIsDeterministicPerSeed) {
  EctHubEnv env(HubConfig::urban("t", 17), small_env());
  const std::vector<double> state = reset_state(env);
  policy::RandomPolicy a(5), b(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.decide(state), b.decide(state));
}

TEST(Policies, RunPolicyReturnsPerEpisodeProfits) {
  EctHubEnv env(HubConfig::urban("t", 18), small_env(2));
  policy::TouPolicy pol;
  const auto profits = run_policy(env, pol, 3);
  EXPECT_EQ(profits.size(), 3u);
  for (double p : profits) EXPECT_TRUE(std::isfinite(p));
}

// ---------------------------------------------------------------- fleet

TEST(Fleet, ExportedActorMatchesTrainingPolicyDecisions) {
  // DrlPolicy mirrors the actor path of rl::ActorCritic (same layer shapes,
  // names *and* activations).  The two definitions live in different modules,
  // so pin their functional parity: if either side's architecture drifts,
  // the deployed greedy decisions stop matching the training-time ones here
  // instead of silently skewing every fleet sweep.
  rl::ActorCriticConfig ac_cfg;
  ac_cfg.state_dim = 33;
  ac_cfg.trunk_dim = 16;
  ac_cfg.head_dim = 8;
  nn::Rng init_rng(77);
  rl::ActorCritic trained(ac_cfg, init_rng);
  policy::DrlPolicy deployed(export_actor_checkpoint(trained));
  Rng obs_rng(5);
  nn::Matrix states(50, ac_cfg.state_dim);
  for (double& x : states.data()) x = obs_rng.uniform(0.0, 1.5);
  rl::ActorCritic::RowsWorkspace ws;
  const nn::Matrix& logits = *trained.forward_rows(states, 0, states.rows(), ws).logits;
  for (std::size_t r = 0; r < states.rows(); ++r) {
    std::size_t argmax = 0;
    for (std::size_t a = 1; a < logits.cols(); ++a) {
      if (logits(r, a) > logits(r, argmax)) argmax = a;
    }
    const std::span<const double> state(states.data().data() + r * states.cols(), states.cols());
    EXPECT_EQ(deployed.decide(state), argmax) << "state " << r;
  }
}

TEST(Fleet, RunHubExperimentSmoke) {
  DrlFleetTrainConfig cfg;
  cfg.env.episode_days = 2;
  cfg.ppo.episodes_per_iteration = 1;
  cfg.iterations = 1;
  const auto result = run_hub_experiment(HubConfig::urban("smoke", 19),
                                         std::vector<bool>(24, false), cfg, 1, "Test");
  EXPECT_EQ(result.method, "Test");
  EXPECT_EQ(result.daily_rewards.size(), 2u);
  EXPECT_EQ(result.train_curve.size(), 1u);
  EXPECT_TRUE(std::isfinite(result.avg_daily_reward));
  // One test episode: the Table III cell is the mean of its Fig. 13 days.
  EXPECT_EQ(result.avg_daily_reward, stats::mean(result.daily_rewards));
}

TEST(Fleet, RunHubExperimentAveragesEachDayOverTestEpisodes) {
  DrlFleetTrainConfig cfg;
  cfg.env.episode_days = 3;
  cfg.ppo.episodes_per_iteration = 1;
  cfg.iterations = 1;
  const HubConfig hub = HubConfig::urban("days", 29);
  std::vector<bool> evening(24, false);
  for (std::size_t h = 18; h < 24; ++h) evening[h] = true;
  const auto result = run_hub_experiment(hub, evening, cfg, 3, "Test");

  // Replay the three test episodes: the same training recipe, then the
  // deployed actor on a fresh env of the hub.
  cfg.env.discount_by_hour = evening;
  EctHubEnv env(hub, cfg.env);
  policy::DrlPolicy deployed(train_drl_checkpoint(hub, cfg));
  std::vector<std::vector<double>> ledgers;
  for (int e = 0; e < 3; ++e) {
    (void)run_policy(env, deployed, 1);
    ledgers.push_back(env.ledger().daily_profit());
  }
  ASSERT_EQ(result.daily_rewards.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(result.daily_rewards[d], (ledgers[0][d] + ledgers[1][d] + ledgers[2][d]) / 3.0)
        << "day " << d;
  }
  // The episodes differ, so the mean is not the first episode's series.
  EXPECT_NE(result.daily_rewards, ledgers[0]);
}

TEST(Fleet, RunHubExperimentRejectsZeroTestEpisodesBeforeTraining) {
  DrlFleetTrainConfig cfg;
  cfg.env.episode_days = 2;
  // Training would throw on its own (no lanes); the test-episode check must
  // come first, so the message names test_episodes.
  cfg.train_hubs = 0;
  try {
    (void)run_hub_experiment(HubConfig::urban("zero", 19), std::vector<bool>(24, false), cfg, 0,
                             "Test");
    FAIL() << "run_hub_experiment accepted 0 test episodes";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("test_episodes"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------------ nn golden

// Absolute outputs of the nn arithmetic on real hub observations.  The
// identity suites compare execution paths with each other (row blocks, batch
// sizes, crew sizes); these pin what every path must produce, so a matmul
// kernel that rounded differently — on every path alike — fails here.
// Regenerate deliberately by printing the values (doubles at %.17g, digests
// in hex), like EctHubEnvGolden.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the values' bit patterns, each fed least significant byte
/// first.
std::uint64_t fnv1a(const std::vector<double>& values) {
  std::string bytes;
  for (const double x : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<char>((bits >> (8 * b)) & 0xFF));
  }
  return fnv1a(bytes);
}

// The coupled outage front, pinned across rates that range from no outage
// to several a week: every slot's outage flag, export and served import,
// plus each episode's profit, through one digest.  A changed outage draw
// fails here; regenerate deliberately (print the count and the digest in
// hex), like the goldens above.
TEST(EctHubEnvGolden, CoupledOutageFrontIsPinned) {
  std::string bytes;
  const auto put = [&bytes](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<char>((bits >> (8 * b)) & 0xFF));
  };
  std::size_t outage_slots = 0;
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    for (const double rate : {0.0, 1.0, 6.0, 20.0}) {
      HubEnvConfig cfg = small_env(30);
      cfg.coupling.enabled = true;
      cfg.coupling.through_rate = 0.5;
      cfg.coupling.front_seed = 0x5eed + seed;
      cfg.coupling.outage = OutageModel{rate, 1.0, 9.0};
      EctHubEnv env(HubConfig::urban("front", seed), cfg);
      std::vector<double> state(env.state_dim());
      for (int episode = 0; episode < 3; ++episode) {
        env.reset_into(state);
        for (std::size_t t = 0; t < env.slots_per_episode(); ++t) {
          SlotCoupling coupling;
          coupling.import_kw = static_cast<double>(t % 5) * 3.0;
          (void)env.step_into(t % 3, state, coupling);
          if (coupling.outage) ++outage_slots;
          bytes.push_back(coupling.outage ? '\1' : '\0');
          put(coupling.export_kw);
          put(coupling.served_import_kw);
        }
        put(env.ledger().total_profit());
      }
    }
  }
  EXPECT_EQ(outage_slots, 786u);
  EXPECT_EQ(fnv1a(bytes), 0x11c8fa2fe71263aaULL);
}

rl::ActorCriticConfig golden_actor_config() {
  rl::ActorCriticConfig cfg;
  cfg.state_dim = policy::ObservationLayout{}.dim();  // 33 -> 64 -> 32 -> 3
  return cfg;
}

/// One observation per slot of a TOU-run 6-day episode of an urban hub,
/// then of a rural one: 288 rows.
nn::Matrix tou_run_observations() {
  const HubConfig hubs[] = {HubConfig::urban("nn-golden", 1301),
                            HubConfig::rural("nn-golden", 1302)};
  nn::Matrix obs(2 * 6 * 24, policy::ObservationLayout{}.dim());
  std::size_t row = 0;
  for (const HubConfig& hub : hubs) {
    EctHubEnv env(hub, small_env(6));
    policy::TouPolicy tou(env.observation_layout());
    std::vector<double> state(env.state_dim());
    env.reset_into(state);
    bool done = false;
    while (!done) {
      std::copy(state.begin(), state.end(),
                obs.data().begin() + static_cast<std::ptrdiff_t>(row * obs.cols()));
      ++row;
      done = env.step_into(tou.decide(state), state).done;
    }
  }
  EXPECT_EQ(row, obs.rows());
  return obs;
}

TEST(NnGolden, ActorForwardRowsPinsTouRunLogits) {
  const nn::Matrix obs = tou_run_observations();
  nn::Rng init_rng(1303);
  const rl::ActorCritic ac(golden_actor_config(), init_rng);
  rl::ActorCritic::RowsWorkspace ws;
  const rl::ActorCritic::RowsOutput out = ac.forward_rows(obs, 0, obs.rows(), ws);
  const nn::Matrix& logits = *out.logits;
  ASSERT_EQ(logits.rows(), obs.rows());
  ASSERT_EQ(logits.cols(), 3u);

  std::string actions;  // argmax per row; the first maximum wins ties
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    std::size_t best = 0;
    for (std::size_t a = 1; a < 3; ++a) {
      if (logits(r, a) > logits(r, best)) best = a;
    }
    actions.push_back(static_cast<char>('0' + best));
  }
  EXPECT_EQ(actions,
            "000000111111111000000000000001111111111100000000000001111111111110000000"
            "000001100001000000000000000001111111110000000000000001111111111110000000"
            "000011111111111110000000000000000012110000000000000000011111111002000000"
            "010101011111100000000000000000110121111100000000000001111111111110000000");
  EXPECT_EQ(fnv1a(logits.data()), 0x2308b08d0de4b136ULL);
  EXPECT_EQ(fnv1a(out.values->data()), 0x8523f26dd8fd2702ULL);
  const struct {
    std::size_t row;
    double logit[3];
  } rows[] = {
      {0, {0.19709668492275145, -0.14231372016996424, -0.018085143085027816}},
      {41, {0.13024032588476966, -0.044149705838337834, 0.049156488941547651}},
      {82, {0.16878902123488637, 0.16475274669622916, -0.0051329365222754879}},
      {123, {0.22527926626036027, 0.032829713063946206, -0.13942677247332108}},
      {164, {0.18387098783993533, -0.31625550536016817, 0.079911929055136707}},
      {205, {-0.0072564528760414495, 0.48465279735076905, 0.064086254474554641}},
      {246, {0.13715012927454961, 0.23930708219480001, -0.1071207555889527}},
      {287, {0.21390846662377666, -0.23735465985473858, -0.0044442159352143336}},
  };
  for (const auto& want : rows) {
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(logits(want.row, a), want.logit[a]) << "row " << want.row << " action " << a;
    }
  }

  // The deployed actor answers the same through both DrlPolicy entry points.
  policy::DrlPolicy deployed(export_actor_checkpoint(ac));
  std::vector<std::size_t> batch(obs.rows());
  deployed.decide_batch(obs, batch);
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    const std::size_t want = static_cast<std::size_t>(actions[r] - '0');
    EXPECT_EQ(batch[r], want) << "decide_batch row " << r;
    const std::span<const double> row(obs.data().data() + r * obs.cols(), obs.cols());
    EXPECT_EQ(deployed.decide(row), want) << "decide row " << r;
  }
}

TEST(NnGolden, PpoUpdatePinsCheckpointDigest) {
  rl::PpoConfig cfg;
  cfg.update_epochs = 2;
  cfg.minibatch_size = 32;
  rl::PpoTrainer trainer(cfg, golden_actor_config(), nn::Rng(1304));

  // A fixed small rollout: one 2-day urban episode sampled from the actor.
  EctHubEnv env(HubConfig::urban("ppo-golden", 1305), small_env(2));
  rl::RolloutBuffer buffer;
  nn::Rng sample_rng(1306);
  rl::ActorCritic::RowsWorkspace ws;
  std::vector<double> state = reset_state(env);
  bool done = false;
  while (!done) {
    const rl::ActorCritic::Sample s = trainer.policy().act(state, sample_rng);
    rl::Transition t;
    t.state = state;
    const StepOutcome step = env.step_into(s.action, state);
    t.action = s.action;
    t.log_prob = s.log_prob;
    t.reward = step.reward;
    t.value = s.value;
    t.done = step.done;
    t.truncated = step.truncated;
    if (step.truncated) t.bootstrap_value = trainer.policy().value_of(state, ws);
    buffer.add(std::move(t));
    done = step.done;
  }
  ASSERT_EQ(buffer.size(), 48u);

  const rl::PpoUpdateStats stats = trainer.update(buffer);
  const std::string blob = nn::save_parameters(std::as_const(trainer.policy()).parameters());
  EXPECT_EQ(fnv1a(blob), 0x970770746bcea43bULL);
  EXPECT_EQ(stats.policy_loss, -0.011878043311861024);
  EXPECT_EQ(stats.value_loss, 0.92403244281060382);
  EXPECT_EQ(stats.entropy, 1.0553891186594018);
  EXPECT_EQ(stats.mean_ratio, 0.98976733545975659);
  EXPECT_EQ(stats.clip_fraction, 0.0);
}

TEST(EctHubEnv, HorizonEndIsTruncatedWithRealObservation) {
  // The horizon is a time limit, not a terminal state: the last step must
  // flag truncated alongside done and hand back a real (finite, in-range)
  // final observation for the critic bootstrap — not a zeroed buffer.
  EctHubEnv env(HubConfig::urban("trunc", 64), small_env(1));
  std::vector<double> state = reset_state(env);
  StepOutcome last;
  bool done = false;
  while (!done) {
    std::fill(state.begin(), state.end(), 0.0);  // every step must overwrite it
    last = env.step_into(1, state);
    done = last.done;
  }
  EXPECT_TRUE(last.truncated);
  double magnitude = 0.0;
  for (const double x : state) {
    EXPECT_TRUE(std::isfinite(x));
    magnitude += std::abs(x);
  }
  EXPECT_GT(magnitude, 0.0);
}

TEST(EctHubEnv, MidEpisodeStepsAreNotTruncated) {
  EctHubEnv env(HubConfig::urban("trunc2", 65), small_env(1));
  std::vector<double> state = reset_state(env);
  const StepOutcome first = env.step_into(0, state);
  EXPECT_FALSE(first.done);
  EXPECT_FALSE(first.truncated);
}

TEST(VecCollectorFleet, CheckpointBlobIdenticalAcrossCollectorThreads) {
  // train_drl_checkpoint routes through the vectorized collector; the crew
  // size must not leak into the trained weights.
  const auto train = [](std::size_t collector_threads) {
    DrlFleetTrainConfig cfg;
    cfg.env.episode_days = 1;
    cfg.ppo.episodes_per_iteration = 2;
    cfg.iterations = 2;
    cfg.train_hubs = 3;
    cfg.collector_threads = collector_threads;
    return train_drl_checkpoint(HubConfig::urban("vec", 21), cfg);
  };
  const policy::DrlCheckpoint one = train(1);
  const policy::DrlCheckpoint four = train(4);
  EXPECT_EQ(one.blob, four.blob);
  EXPECT_FALSE(one.blob.empty());
  // Absolute pin of the trained weights: the training recipe must not drift.
  EXPECT_EQ(fnv1a(one.blob), 0x468ee1fc46472076ULL);
}

TEST(VecCollectorFleet, HubExperimentIdenticalAcrossCollectorThreads) {
  // The Table III / Fig. 13 path trains through the same collector crew; the
  // crew size must not leak into its training curve or test rewards.
  const auto run = [](std::size_t collector_threads) {
    DrlFleetTrainConfig cfg;
    cfg.env.episode_days = 1;
    cfg.ppo.episodes_per_iteration = 2;
    cfg.iterations = 2;
    cfg.train_hubs = 3;
    cfg.collector_threads = collector_threads;
    std::vector<bool> evening(24, false);
    for (std::size_t h = 18; h < 24; ++h) evening[h] = true;
    return run_hub_experiment(HubConfig::urban("vec-exp", 23), evening, cfg, 2, "Test");
  };
  const HubMethodResult one = run(1);
  const HubMethodResult four = run(4);
  EXPECT_EQ(one.avg_daily_reward, four.avg_daily_reward);
  EXPECT_EQ(one.daily_rewards, four.daily_rewards);
  EXPECT_EQ(one.train_curve, four.train_curve);
  EXPECT_EQ(one.train_curve.size(), 2u);
  EXPECT_EQ(one.daily_rewards.size(), 1u);
}

TEST(VecCollectorFleet, MultiLaneTrainingValidates) {
  DrlFleetTrainConfig cfg;
  EXPECT_THROW((void)train_drl_checkpoint(std::vector<DrlTrainLane>{}, cfg),
               std::invalid_argument);
  cfg.train_hubs = 0;
  EXPECT_THROW((void)train_drl_checkpoint(HubConfig::urban("bad", 22), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace ecthub::core
