// Integration tests: the full pipeline wired end-to-end — dataset -> pricing
// models -> discount schedules -> hub environment -> policies/PPO.
#include "causal/ect_price.hpp"
#include "causal/evaluate.hpp"
#include "causal/uplift.hpp"
#include "core/fleet.hpp"
#include "core/policy_runner.hpp"
#include "policy/rule_policies.hpp"
#include "ev/dataset.hpp"

#include <gtest/gtest.h>

namespace ecthub {
namespace {

/// Majority-vote conversion of per-item decisions into a weekly schedule
/// (mirrors the bench helper; duplicated here deliberately to keep the test
/// independent of bench code).
std::vector<bool> to_schedule(const std::vector<causal::Item>& items,
                              const std::vector<bool>& decisions, std::size_t station) {
  std::vector<std::size_t> yes(24, 0), total(24, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].station_id != station) continue;
    ++total[items[i].hour];
    if (decisions[i]) ++yes[items[i].hour];
  }
  std::vector<bool> out(24, false);
  for (std::size_t h = 0; h < 24; ++h) {
    out[h] = total[h] > 0 && 2 * yes[h] > total[h];
  }
  return out;
}

struct PipelineFixture : public ::testing::Test {
  void SetUp() override {
    ev::DatasetConfig dcfg;
    dcfg.num_stations = 4;
    dcfg.num_days = 90;
    const ev::ChargingDataset dataset(dcfg, Rng(777));
    const auto split = dataset.split(0.8);
    train = causal::encode(split.train);
    test = causal::encode(split.test);

    causal::EctPriceConfig pcfg;
    pcfg.ncf.num_stations = 4;
    pcfg.ncf.embedding_dim = 8;
    pcfg.epochs = 3;
    model = std::make_unique<causal::EctPriceModel>(pcfg, Rng(778));
    model->fit(train);
  }

  std::vector<causal::Item> train, test;
  std::unique_ptr<causal::EctPriceModel> model;
};

TEST_F(PipelineFixture, EctPriceBeatsRandomStratification) {
  const auto preds = model->predict(test);
  const double acc = causal::strata_accuracy(test, preds);
  EXPECT_GT(acc, 0.40);  // 3-class; random-guess is ~1/3 even before priors
}

TEST_F(PipelineFixture, EctPriceRewardBeatsDiscountingEverything) {
  const auto preds = model->predict(test);
  const auto smart = causal::decide_by_strata(preds, 0.3);
  const std::vector<bool> all(test.size(), true);
  const auto smart_out = causal::evaluate_decisions("smart", 0.3, test, smart);
  const auto blanket_out = causal::evaluate_decisions("blanket", 0.3, test, all);
  // Targeted discounting earns positive reward and avoids most Always items;
  // the blanket policy pays the discount to every Always item.
  EXPECT_GT(smart_out.reward, 0.0);
  EXPECT_GE(smart_out.reward, blanket_out.reward);
  EXPECT_LT(smart_out.always, blanket_out.always);
}

TEST_F(PipelineFixture, ScheduleFeedsHubEnvironment) {
  const auto preds = model->predict(test);
  const auto decisions = causal::decide_by_strata(preds, 0.2);
  const auto schedule = to_schedule(test, decisions, 0);

  core::HubConfig hub = core::HubConfig::urban("pipeline", 779);
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 5;
  env_cfg.discount_by_hour = schedule;
  core::EctHubEnv env(hub, env_cfg);
  policy::GreedyPricePolicy sched;
  const auto profits = core::run_policy(env, sched, 2);
  EXPECT_EQ(profits.size(), 2u);
  for (double p : profits) EXPECT_TRUE(std::isfinite(p));
}

TEST_F(PipelineFixture, DiscountsAvoidBusyDaytime) {
  // The end-to-end property the paper's Fig. 12 implies: discounts
  // concentrate off the busy daytime (Always Charge) hours.  Evening hours
  // (18-24h) must receive a higher discount rate than midday (10-16h).
  const auto preds = model->predict(test);
  const auto decisions = causal::decide_by_strata(preds, 0.25);
  std::size_t evening_disc = 0, evening_total = 0, midday_disc = 0, midday_total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto schedule = to_schedule(test, decisions, s);
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      const std::size_t hour = t;
      if (hour >= 18) {
        ++evening_total;
        if (schedule[t]) ++evening_disc;
      } else if (hour >= 10 && hour < 16) {
        ++midday_total;
        if (schedule[t]) ++midday_disc;
      }
    }
  }
  const double evening_rate =
      static_cast<double>(evening_disc) / static_cast<double>(evening_total);
  const double midday_rate =
      static_cast<double>(midday_disc) / static_cast<double>(midday_total);
  EXPECT_GT(evening_rate, midday_rate);
}

TEST(Integration, PpoImprovesOverItsOwnStart) {
  // Short training on a tiny hub: final iterations should not be worse than
  // the first (PPO stability, the point of the clip).
  core::DrlFleetTrainConfig cfg;
  cfg.env.episode_days = 3;
  cfg.ppo.episodes_per_iteration = 2;
  cfg.iterations = 6;
  const auto result = core::run_hub_experiment(core::HubConfig::urban("ppo", 780),
                                               std::vector<bool>(24, false), cfg, 2, "PPO");
  ASSERT_EQ(result.train_curve.size(), 6u);
  double first2 = (result.train_curve[0] + result.train_curve[1]) / 2.0;
  double last2 = (result.train_curve[4] + result.train_curve[5]) / 2.0;
  EXPECT_GT(last2, first2 - 2.0);  // never collapses
}

TEST(Integration, UpliftBaselineDrivesPipelineToo) {
  ev::DatasetConfig dcfg;
  dcfg.num_stations = 2;
  dcfg.num_days = 40;
  const ev::ChargingDataset dataset(dcfg, Rng(781));
  const auto split = dataset.split(0.75);
  const auto train = causal::encode(split.train);
  const auto test = causal::encode(split.test);

  causal::UpliftConfig ucfg;
  ucfg.ncf.num_stations = 2;
  ucfg.ncf.embedding_dim = 8;
  ucfg.epochs = 2;
  causal::OutcomeRegression orm(ucfg, Rng(782));
  orm.fit(train);
  const auto decisions = causal::decide_by_uplift(orm.uplift(test));
  const auto schedule = to_schedule(test, decisions, 0);

  core::HubConfig hub = core::HubConfig::rural("or-pipeline", 783);
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 3;
  env_cfg.discount_by_hour = schedule;
  core::EctHubEnv env(hub, env_cfg);
  policy::TouPolicy sched;
  const auto profits = core::run_policy(env, sched, 1);
  EXPECT_TRUE(std::isfinite(profits.front()));
}

}  // namespace
}  // namespace ecthub
