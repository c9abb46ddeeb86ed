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
  // Targeted discounting earns at least the blanket policy's reward and
  // pays the discount to fewer Always items.  Its reward is not asserted
  // positive: the dataset's unmeasured daily demand factor inflates the
  // predicted Incentive mass about twofold, and the reward is positive in
  // only 7 of the 40 seed pairs (777 + 1000k, 778 + 1000k).
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
  // concentrate off the busy daytime (Always Charge) hours, so the evening
  // (18-24h) is discounted at a higher rate than midday (10-16h).
  //
  // What the fixture's data allow.  The unmeasured daily demand factor U of
  // ev/dataset.hpp raises the discount propensity, so treated days are
  // busier, and ECT-Price's estimates converge to f01 = P(Y=1 | T=1) -
  // P(Y=1 | T=0) and f11 = P(Y=1 | T=0): about E[U | T=1] P(Incentive) +
  // (E[U | T=1] - E[U | T=0]) P(Always) and E[U | T=0] P(Always), with the
  // difference 0.34-0.44 and E[U | T=0] 0.79-0.86 over the stations'
  // profile ranges.  Integrating over U there, the expected gain at
  // c = 0.25 is at least 0.018 in every evening and midday cell: in the
  // large-sample limit the zero-threshold rule discounts all of those
  // hours, both rates are 1, and a strict comparison of them is a coin flip
  // over seeds (it held in 17 of the 40 seed pairs (777 + 1000k,
  // 778 + 1000k) on Mersenne Twister streams and in 18 on the xoshiro256**
  // ones).  The same limit keeps the order within a station: each evening
  // hour's gain exceeds each midday hour's by at least 0.04 times the
  // station's popularity, and the six evening hours are the station's top
  // six.  So:
  //  - the threshold rule discounts a station's midday hour only when it
  //    discounts that station's evening: evening rate >= midday rate;
  //  - a budget of a quarter of the items ranked by expected gain (Table
  //    II's decision stage, the one the confounder calls for) reaches each
  //    station's evening hours before any of its midday hours: evening
  //    rate > midday rate.
  const auto preds = model->predict(test);
  const auto hour_rates = [&](const std::vector<bool>& decisions) {
    std::size_t evening_disc = 0, evening_total = 0, midday_disc = 0, midday_total = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto schedule = to_schedule(test, decisions, s);
      for (std::size_t hour = 0; hour < schedule.size(); ++hour) {
        if (hour >= 18) {
          ++evening_total;
          if (schedule[hour]) ++evening_disc;
        } else if (hour >= 10 && hour < 16) {
          ++midday_total;
          if (schedule[hour]) ++midday_disc;
        }
      }
    }
    return std::pair{static_cast<double>(evening_disc) / static_cast<double>(evening_total),
                     static_cast<double>(midday_disc) / static_cast<double>(midday_total)};
  };
  const auto [evening_rate, midday_rate] = hour_rates(causal::decide_by_strata(preds, 0.25));
  EXPECT_GE(evening_rate, midday_rate);
  const auto [ranked_evening_rate, ranked_midday_rate] = hour_rates(
      causal::decide_top_k(causal::strata_gain_scores(preds, 0.25), test.size() / 4));
  EXPECT_GT(ranked_evening_rate, ranked_midday_rate);
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
