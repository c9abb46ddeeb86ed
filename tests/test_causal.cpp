// Tests for the causal module: feature encoding, NCF backbone, the ECT-Price
// multi-task model (loss identities Eq. 13-23) and the uplift baselines.
#include "causal/ect_price.hpp"
#include "causal/evaluate.hpp"
#include "causal/ncf.hpp"
#include "causal/uplift.hpp"
#include "ev/dataset.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace ecthub::causal {
namespace {

std::vector<Item> small_dataset(std::size_t days = 60, std::uint64_t seed = 21) {
  ev::DatasetConfig cfg;
  cfg.num_stations = 4;
  cfg.num_days = days;
  const ev::ChargingDataset ds(cfg, Rng(seed));
  return encode(ds.records());
}

NcfConfig small_ncf() {
  NcfConfig cfg;
  cfg.num_stations = 4;
  cfg.embedding_dim = 8;
  cfg.hidden_dims = {16};
  return cfg;
}

// ---------------------------------------------------------------- features

TEST(Features, EncodeTimeValidatesHour) {
  EXPECT_EQ(encode_time(0), 0u);
  EXPECT_EQ(encode_time(23), 23u);
  EXPECT_THROW((void)encode_time(24), std::invalid_argument);
}

TEST(Features, EncodePreservesFields) {
  ev::ChargingRecord rec;
  rec.station = 2;
  rec.day = 5;
  rec.hour = 13;
  rec.day_of_week = 5;
  rec.treated = true;
  rec.charged = true;
  rec.stratum = ev::Stratum::kAlways;
  const auto items = encode({rec});
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].station_id, 2u);
  EXPECT_EQ(items[0].time_id, encode_time(13));
  EXPECT_TRUE(items[0].treated);
  EXPECT_TRUE(items[0].charged);
  EXPECT_EQ(items[0].stratum, ev::Stratum::kAlways);
  EXPECT_EQ(items[0].hour, 13u);
}

TEST(Features, MakeBatchGathers) {
  const auto items = small_dataset(5);
  const Batch b = make_batch(items, {0, 2, 4});
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.station_ids[1], items[2].station_id);
  EXPECT_THROW(make_batch(items, {items.size()}), std::out_of_range);
}

// ---------------------------------------------------------------- NCF

TEST(NcfBackbone, FeatureDimIsThreeTimesEmbedding) {
  Rng rng(1);
  NcfBackbone backbone(small_ncf(), rng, "t");
  EXPECT_EQ(backbone.feature_dim(), 24u);
  const nn::Matrix z = backbone.forward({0, 1}, {3, 20});
  EXPECT_EQ(z.rows(), 2u);
  EXPECT_EQ(z.cols(), 24u);
}

TEST(NcfBackbone, PlusBranchIsSumOfEmbeddings) {
  Rng rng(2);
  NcfBackbone backbone(small_ncf(), rng, "t");
  const nn::Matrix z = backbone.forward({1}, {5});
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(z(0, 16 + c), z(0, c) + z(0, 8 + c), 1e-12);
  }
}

TEST(NcfBackbone, IdSizeMismatchThrows) {
  Rng rng(3);
  NcfBackbone backbone(small_ncf(), rng, "t");
  EXPECT_THROW(backbone.forward({0, 1}, {0}), std::invalid_argument);
}

TEST(NcfRegressor, LearnsSimpleSignal) {
  // Target depends only on the station id: the regressor must separate them.
  Rng rng(4);
  NcfRegressor reg(small_ncf(), nn::Activation::kSigmoid, rng, "t");
  nn::Adam opt(nn::AdamConfig{.lr = 0.05});
  std::vector<Item> items;
  std::vector<double> targets;
  for (std::size_t rep = 0; rep < 50; ++rep) {
    for (std::size_t s = 0; s < 4; ++s) {
      Item it;
      it.station_id = s;
      it.time_id = rep % kTimeVocab;
      items.push_back(it);
      targets.push_back(s < 2 ? 1.0 : 0.0);
    }
  }
  std::vector<std::size_t> idx(items.size());
  std::iota(idx.begin(), idx.end(), 0);
  for (int epoch = 0; epoch < 30; ++epoch) {
    reg.train_step(make_batch(items, idx), targets, opt);
  }
  EXPECT_GT(reg.predict(0, 3), 0.7);
  EXPECT_LT(reg.predict(3, 3), 0.3);
}

// ---------------------------------------------------------------- ECT-Price

TEST(EctPrice, PredictionsFormDistribution) {
  EctPriceConfig cfg;
  cfg.ncf = small_ncf();
  cfg.epochs = 1;
  EctPriceModel model(cfg, Rng(5));
  const auto items = small_dataset(10);
  model.fit(items);
  const auto preds = model.predict(items);
  ASSERT_EQ(preds.size(), items.size());
  for (const auto& p : preds) {
    EXPECT_NEAR(p.p_none + p.p_incentive + p.p_always, 1.0, 1e-9);
    EXPECT_GE(p.propensity, 0.0);
    EXPECT_LE(p.propensity, 1.0);
  }
}

TEST(EctPrice, LossDecreasesOverEpochs) {
  EctPriceConfig cfg;
  cfg.ncf = small_ncf();
  cfg.epochs = 4;
  EctPriceModel model(cfg, Rng(6));
  const auto stats = model.fit(small_dataset(30));
  ASSERT_EQ(stats.epoch_loss.size(), 4u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

TEST(EctPrice, RecoversEveningIncentiveStructure) {
  // After training on the confounded log, the predicted Incentive probability
  // mass must concentrate in the evening (the ground-truth structure,
  // Fig. 11-12).
  EctPriceConfig cfg;
  cfg.ncf = small_ncf();
  cfg.epochs = 3;
  EctPriceModel model(cfg, Rng(7));
  const auto items = small_dataset(120);
  model.fit(items);
  const auto preds = model.predict(items);
  const auto dist = period_distribution(items, preds);
  // Period 3 (18-24h) carries the largest predicted-Incentive mass.
  EXPECT_GT(dist.shares[3][1], dist.shares[1][1]);
  EXPECT_GT(dist.shares[3][1], dist.shares[2][1]);
}

TEST(EctPrice, PropensityTracksLoggingPolicy) {
  // g(X) should learn that nights were discounted more often.
  EctPriceConfig cfg;
  cfg.ncf = small_ncf();
  cfg.epochs = 3;
  EctPriceModel model(cfg, Rng(8));
  model.fit(small_dataset(120));
  const auto night = model.predict_one(0, encode_time(21));
  const auto day = model.predict_one(0, encode_time(10));
  EXPECT_GT(night.propensity, day.propensity);
}

TEST(EctPrice, LossIdentityStructure) {
  // Eq. 13-16 at the optimum: f00*g targets exactly the (Y=0, T=1) share.
  // Structural check on LossParts: all components non-negative and finite.
  EctPriceConfig cfg;
  cfg.ncf = small_ncf();
  cfg.epochs = 1;
  EctPriceModel model(cfg, Rng(9));
  const auto items = small_dataset(10);
  model.fit(items);
  const auto parts = model.evaluate_loss(items);
  for (double l : {parts.l1, parts.l2, parts.l3, parts.l4, parts.lp}) {
    EXPECT_GE(l, 0.0);
    EXPECT_TRUE(std::isfinite(l));
  }
  EXPECT_NEAR(parts.total(), parts.l1 + parts.l2 + parts.l3 + parts.l4 + parts.lp, 1e-12);
}

TEST(EctPrice, ArgmaxMapping) {
  StrataPrediction p;
  p.p_none = 0.2;
  p.p_incentive = 0.5;
  p.p_always = 0.3;
  EXPECT_EQ(p.argmax(), ev::Stratum::kIncentive);
  p.p_always = 0.6;
  EXPECT_EQ(p.argmax(), ev::Stratum::kAlways);
  p.p_none = 0.9;
  EXPECT_EQ(p.argmax(), ev::Stratum::kNone);
}

TEST(EctPrice, EmptyTrainingThrows) {
  EctPriceConfig cfg;
  cfg.ncf = small_ncf();
  EctPriceModel model(cfg, Rng(10));
  EXPECT_THROW(model.fit({}), std::invalid_argument);
}

// ---------------------------------------------------------------- baselines

UpliftConfig small_uplift() {
  UpliftConfig cfg;
  cfg.ncf = small_ncf();
  cfg.epochs = 2;
  return cfg;
}

TEST(UpliftBaselines, AllProduceFiniteScores) {
  const auto items = small_dataset(40);
  OutcomeRegression orm(small_uplift(), Rng(11));
  InversePropensityScoring ips(small_uplift(), Rng(12));
  DoublyRobust dr(small_uplift(), Rng(13));
  for (UpliftModel* m : std::vector<UpliftModel*>{&orm, &ips, &dr}) {
    m->fit(items);
    const auto tau = m->uplift(items);
    ASSERT_EQ(tau.size(), items.size());
    for (double t : tau) EXPECT_TRUE(std::isfinite(t));
  }
}

TEST(UpliftBaselines, OrDetectsEveningUplift) {
  // Mean estimated uplift in the evening must exceed the daytime mean: the
  // Incentive stratum lives in the evening.
  const auto items = small_dataset(120);
  OutcomeRegression orm(small_uplift(), Rng(14));
  orm.fit(items);
  const auto tau = orm.uplift(items);
  double evening = 0, day = 0;
  std::size_t ne = 0, nd = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].hour >= 19 && items[i].hour <= 22) {
      evening += tau[i];
      ++ne;
    }
    if (items[i].hour >= 9 && items[i].hour <= 14) {
      day += tau[i];
      ++nd;
    }
  }
  EXPECT_GT(evening / static_cast<double>(ne), day / static_cast<double>(nd));
}

TEST(UpliftBaselines, IpsPropensityLearnsNightBias)  {
  const auto items = small_dataset(120);
  InversePropensityScoring ips(small_uplift(), Rng(15));
  ips.fit(items);
  EXPECT_GT(ips.propensity(0, encode_time(21)), ips.propensity(0, encode_time(10)));
}

TEST(UpliftBaselines, NamesAreStable) {
  EXPECT_EQ(OutcomeRegression(small_uplift(), Rng(1)).name(), "OR");
  EXPECT_EQ(InversePropensityScoring(small_uplift(), Rng(1)).name(), "IPS");
  EXPECT_EQ(DoublyRobust(small_uplift(), Rng(1)).name(), "DR");
}

TEST(UpliftBaselines, OrRequiresBothArms) {
  auto items = small_dataset(5);
  for (auto& it : items) it.treated = true;  // no control arm
  OutcomeRegression orm(small_uplift(), Rng(16));
  EXPECT_THROW(orm.fit(items), std::invalid_argument);
}

// ---------------------------------------------------------------- evaluate

TEST(Evaluate, DecideByUpliftThreshold) {
  const auto decisions = decide_by_uplift({-0.5, 0.0, 0.1, 0.6}, 0.05);
  EXPECT_EQ(decisions, (std::vector<bool>{false, false, true, true}));
}

TEST(Evaluate, DecideByStrataExpectedGainRule) {
  // Discount iff (1 - c) * p_incentive > c * p_always.
  StrataPrediction inc{0.1, 0.8, 0.1, 0.5};   // strong incentive mass
  StrataPrediction alw{0.1, 0.05, 0.85, 0.5};  // strong always mass
  const auto decisions = decide_by_strata({inc, alw}, 0.3);
  EXPECT_TRUE(decisions[0]);
  EXPECT_FALSE(decisions[1]);
}

TEST(Evaluate, DecideByStrataDependsOnDiscountDepth) {
  // A borderline cell: discounted at 10% but not at 60%.
  StrataPrediction p{0.6, 0.15, 0.25, 0.5};
  EXPECT_TRUE(decide_by_strata({p}, 0.1)[0]);   // 0.9*0.15 > 0.1*0.25
  EXPECT_FALSE(decide_by_strata({p}, 0.6)[0]);  // 0.4*0.15 < 0.6*0.25
}

TEST(Evaluate, DecideByStrataValidation) {
  StrataPrediction p{0.4, 0.3, 0.3, 0.5};
  EXPECT_THROW(decide_by_strata({p}, 0.0), std::invalid_argument);
  EXPECT_THROW(decide_by_strata({p}, 1.0), std::invalid_argument);
}

TEST(Evaluate, RewardConvention) {
  // One of each true stratum, all discounted at c = 0.2:
  // reward = (1 - 0.2) [Incentive] - 0.2 [Always] + 0 [None] = 0.6.
  std::vector<Item> items(3);
  items[0].stratum = ev::Stratum::kIncentive;
  items[1].stratum = ev::Stratum::kAlways;
  items[2].stratum = ev::Stratum::kNone;
  const auto out = evaluate_decisions("x", 0.2, items, {true, true, true});
  EXPECT_EQ(out.incentive, 1u);
  EXPECT_EQ(out.always, 1u);
  EXPECT_EQ(out.none, 1u);
  EXPECT_NEAR(out.reward, 0.6, 1e-12);
}

TEST(Evaluate, UndiscountedItemsNotCounted) {
  std::vector<Item> items(2);
  items[0].stratum = ev::Stratum::kIncentive;
  items[1].stratum = ev::Stratum::kAlways;
  const auto out = evaluate_decisions("x", 0.3, items, {false, false});
  EXPECT_EQ(out.incentive + out.always + out.none, 0u);
  EXPECT_DOUBLE_EQ(out.reward, 0.0);
}

TEST(Evaluate, RewardDecreasesWithDiscountDepth) {
  std::vector<Item> items(10);
  for (auto& it : items) it.stratum = ev::Stratum::kIncentive;
  const std::vector<bool> all(10, true);
  const double r10 = evaluate_decisions("x", 0.1, items, all).reward;
  const double r50 = evaluate_decisions("x", 0.5, items, all).reward;
  EXPECT_GT(r10, r50);
}

TEST(Evaluate, Validation) {
  std::vector<Item> items(2);
  EXPECT_THROW(evaluate_decisions("x", 0.2, items, {true}), std::invalid_argument);
  EXPECT_THROW(evaluate_decisions("x", 0.0, items, {true, true}), std::invalid_argument);
  EXPECT_THROW(evaluate_decisions("x", 1.0, items, {true, true}), std::invalid_argument);
}

TEST(Evaluate, StrataAccuracyPerfectAndZero) {
  std::vector<Item> items(2);
  items[0].stratum = ev::Stratum::kIncentive;
  items[1].stratum = ev::Stratum::kNone;
  StrataPrediction inc{0.0, 1.0, 0.0, 0.5};
  StrataPrediction none{1.0, 0.0, 0.0, 0.5};
  EXPECT_DOUBLE_EQ(strata_accuracy(items, {inc, none}), 1.0);
  EXPECT_DOUBLE_EQ(strata_accuracy(items, {none, inc}), 0.0);
}

TEST(Evaluate, PeriodDistributionSharesSumToOne) {
  const auto items = small_dataset(20);
  std::vector<StrataPrediction> preds(items.size(), StrataPrediction{0.3, 0.4, 0.3, 0.5});
  const auto dist = period_distribution(items, preds);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_NEAR(dist.shares[p][0] + dist.shares[p][1] + dist.shares[p][2], 1.0, 1e-9);
  }
}

TEST(EctPrice, GradientsMatchFiniteDifference) {
  // The hand-derived gradients of the five-loss objective (Eq. 18-23, with
  // the corrected L4) against central finite differences.
  const auto items = small_dataset(2, 77);
  EctPriceConfig cfg;
  cfg.ncf = small_ncf();
  cfg.ncf.embedding_dim = 4;
  cfg.ncf.hidden_dims = {8};
  EctPriceModel model(cfg, Rng(78));
  model.compute_gradients(items);
  auto params = model.parameters();
  const double eps = 1e-6;
  for (auto& p : params) {
    for (std::size_t k = 0; k < std::min<std::size_t>(2, p.value->data().size()); ++k) {
      const double analytic = p.grad->data()[k];
      const double orig = p.value->data()[k];
      p.value->data()[k] = orig + eps;
      const double lp = model.evaluate_loss(items).total();
      p.value->data()[k] = orig - eps;
      const double lm = model.evaluate_loss(items).total();
      p.value->data()[k] = orig;
      EXPECT_NEAR(analytic, (lp - lm) / (2.0 * eps), 1e-5) << p.name;
    }
  }
}

TEST(EctPrice, ConvergesToTrueStrataOnSingleCell) {
  // End-to-end identifiability: one cell with known strata and propensity;
  // the model must recover them from observational (Y, T) pairs.
  Rng rng(79);
  std::vector<Item> items;
  const double true_i = 0.3, true_a = 0.2, true_e = 0.4;
  for (int k = 0; k < 6000; ++k) {
    Item it;
    it.station_id = 0;
    it.time_id = 0;
    const double u = rng.uniform();
    const ev::Stratum s = u < true_a ? ev::Stratum::kAlways
                                     : (u < true_a + true_i ? ev::Stratum::kIncentive
                                                            : ev::Stratum::kNone);
    it.treated = rng.bernoulli(true_e);
    it.charged = (s == ev::Stratum::kAlways) || (s == ev::Stratum::kIncentive && it.treated);
    items.push_back(it);
  }
  EctPriceConfig cfg;
  cfg.ncf.num_stations = 1;
  cfg.ncf.embedding_dim = 8;
  cfg.ncf.hidden_dims = {16};
  cfg.epochs = 15;
  EctPriceModel model(cfg, Rng(80));
  model.fit(items);
  const auto p = model.predict_one(0, 0);
  EXPECT_NEAR(p.p_incentive, true_i, 0.05);
  EXPECT_NEAR(p.p_always, true_a, 0.05);
  EXPECT_NEAR(p.propensity, true_e, 0.05);
}

TEST(Evaluate, StrataGainScores) {
  StrataPrediction p{0.5, 0.3, 0.2, 0.5};
  const auto scores = strata_gain_scores({p}, 0.25);
  EXPECT_NEAR(scores[0], 0.75 * 0.3 - 0.25 * 0.2, 1e-12);
  EXPECT_THROW(strata_gain_scores({p}, 0.0), std::invalid_argument);
}

TEST(Evaluate, TopKSelectsHighestScores) {
  const std::vector<double> scores = {0.1, 0.5, 0.3, 0.9, 0.2};
  const auto sel = decide_top_k(scores, 2);
  EXPECT_EQ(sel, (std::vector<bool>{false, true, false, true, false}));
}

TEST(Evaluate, TopKSkipsNonPositiveScores) {
  // Items a method scores as unprofitable are never forced into the budget.
  const std::vector<double> scores = {-0.1, 0.5, 0.0, -0.9};
  const auto sel = decide_top_k(scores, 4);
  EXPECT_EQ(sel, (std::vector<bool>{false, true, false, false}));
}

TEST(Evaluate, TopKZeroBudgetSelectsNothing) {
  const auto sel = decide_top_k({1.0, 2.0}, 0);
  EXPECT_EQ(sel, (std::vector<bool>{false, false}));
}

TEST(Evaluate, TopKBudgetLargerThanPositives) {
  const auto sel = decide_top_k({1.0, -1.0}, 10);
  EXPECT_EQ(sel, (std::vector<bool>{true, false}));
}

TEST(Evaluate, StationCurvesAveragePredictions) {
  std::vector<Item> items(2);
  items[0].station_id = 1;
  items[0].hour = 5;
  items[1].station_id = 1;
  items[1].hour = 5;
  std::vector<StrataPrediction> preds = {{0.2, 0.6, 0.2, 0.5}, {0.4, 0.2, 0.4, 0.5}};
  const auto curves = strata_curves_for_station(items, preds, 1);
  EXPECT_NEAR(curves.p_incentive[5], 0.4, 1e-12);
  EXPECT_NEAR(curves.p_none[5], 0.3, 1e-12);
}

}  // namespace
}  // namespace ecthub::causal
