// Tests for the RL substrate: actor-critic, GAE, and PPO — including an
// end-to-end learning check on a toy bandit-style MDP — plus the vectorized
// rollout collector's bit-identity contract.
#include "rl/actor_critic.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_collector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ecthub::rl {
namespace {

// A 2-step toy environment: action 1 yields +1 reward, others 0.  PPO must
// drive the policy toward always picking action 1.
class ToyEnv : public Env {
 public:
  void reset_into(std::span<double> state) override {
    t_ = 0;
    observe(state);
  }
  StepOutcome step_into(std::size_t action, std::span<double> next_state) override {
    ++t_;
    observe(next_state);
    return StepOutcome{action == 1 ? 1.0 : 0.0, t_ >= 8, false};
  }
  std::size_t state_dim() const override { return 3; }
  std::size_t action_count() const override { return 3; }

 private:
  void observe(std::span<double> out) const {
    out[0] = static_cast<double>(t_) / 8.0;
    out[1] = 1.0;
    out[2] = 0.5;
  }
  std::size_t t_ = 0;
};

// ToyEnv is deterministic and pays 1 per action-1 step, so a greedy policy
// earns the maximal 8 per episode exactly when action 1 has the largest
// logit at each of the 8 states an episode visits.
void expect_greedy_picks_action_one(const ActorCritic& ac) {
  std::vector<std::vector<double>> rows;
  for (std::size_t t = 0; t < 8; ++t) rows.push_back({static_cast<double>(t) / 8.0, 1.0, 0.5});
  const nn::Matrix states = nn::Matrix::from_rows(rows);
  ActorCritic::RowsWorkspace ws;
  const nn::Matrix& logits = *ac.forward_rows(states, 0, states.rows(), ws).logits;
  for (std::size_t t = 0; t < states.rows(); ++t) {
    std::size_t best = 0;
    for (std::size_t a = 1; a < logits.cols(); ++a) {
      if (logits(t, a) > logits(t, best)) best = a;
    }
    EXPECT_EQ(best, 1u) << "toy state " << t;
  }
}

ActorCriticConfig small_ac() {
  ActorCriticConfig cfg;
  cfg.state_dim = 3;
  cfg.action_count = 3;
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  return cfg;
}

// ---------------------------------------------------------------- ActorCritic

TEST(ActorCritic, ProbabilitiesFormDistribution) {
  nn::Rng rng(1);
  ActorCritic ac(small_ac(), rng);
  const nn::Matrix states = nn::Matrix::randn(4, 3, rng);
  const PolicyOutput out = ac.forward(states);
  EXPECT_EQ(out.probs.rows(), 4u);
  EXPECT_EQ(out.values.cols(), 1u);
  for (std::size_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_GE(out.probs(r, a), 0.0);
      sum += out.probs(r, a);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ActorCritic, ActReturnsConsistentSample) {
  nn::Rng rng(2);
  ActorCritic ac(small_ac(), rng);
  nn::Rng act_rng(3);
  const auto sample = ac.act({0.1, 0.2, 0.3}, act_rng);
  EXPECT_LT(sample.action, 3u);
  EXPECT_LE(sample.log_prob, 0.0);
  EXPECT_TRUE(std::isfinite(sample.value));
}

TEST(ActorCritic, StateDimMismatchThrows) {
  nn::Rng rng(5);
  ActorCritic ac(small_ac(), rng);
  nn::Rng act_rng(6);
  EXPECT_THROW(ac.act({0.1}, act_rng), std::invalid_argument);
}

TEST(ActorCritic, RejectsBadConfig) {
  nn::Rng rng(7);
  ActorCriticConfig bad = small_ac();
  bad.state_dim = 0;
  EXPECT_THROW(ActorCritic(bad, rng), std::invalid_argument);
  ActorCriticConfig bad2 = small_ac();
  bad2.action_count = 1;
  EXPECT_THROW(ActorCritic(bad2, rng), std::invalid_argument);
}

// ---------------------------------------------------------------- GAE

TEST(RolloutBuffer, GaeSingleStepIsTdError) {
  RolloutBuffer buf;
  Transition t;
  t.reward = 1.0;
  t.value = 0.5;
  t.done = true;
  buf.add(t);
  const auto targets = buf.compute_gae(0.99, 0.95, /*last_value=*/123.0);
  // Terminal step: bootstrap masked out, advantage = r - V = 0.5.
  EXPECT_NEAR(targets.advantages[0], 0.5, 1e-12);
  EXPECT_NEAR(targets.returns[0], 1.0, 1e-12);
}

TEST(RolloutBuffer, GaeDiscountsFutureRewards) {
  RolloutBuffer buf;
  for (int i = 0; i < 3; ++i) {
    Transition t;
    t.reward = i == 2 ? 1.0 : 0.0;
    t.value = 0.0;
    t.done = i == 2;
    buf.add(t);
  }
  const auto targets = buf.compute_gae(0.5, 1.0, 0.0);
  // With gamma=0.5, lambda=1: returns are 0.25, 0.5, 1.0.
  EXPECT_NEAR(targets.returns[0], 0.25, 1e-12);
  EXPECT_NEAR(targets.returns[1], 0.5, 1e-12);
  EXPECT_NEAR(targets.returns[2], 1.0, 1e-12);
}

TEST(RolloutBuffer, GaeRespectsEpisodeBoundaries) {
  // Two one-step episodes; the second's reward must not leak into the first.
  RolloutBuffer buf;
  Transition a;
  a.reward = 0.0;
  a.value = 0.0;
  a.done = true;
  buf.add(a);
  Transition b;
  b.reward = 100.0;
  b.value = 0.0;
  b.done = true;
  buf.add(b);
  const auto targets = buf.compute_gae(0.99, 0.95, 0.0);
  EXPECT_NEAR(targets.advantages[0], 0.0, 1e-12);
  EXPECT_NEAR(targets.advantages[1], 100.0, 1e-12);
}

TEST(RolloutBuffer, GaeValidation) {
  RolloutBuffer buf;
  EXPECT_THROW(buf.compute_gae(0.9, 0.9, 0.0), std::logic_error);
  Transition t;
  buf.add(t);
  EXPECT_THROW(buf.compute_gae(1.5, 0.9, 0.0), std::invalid_argument);
}

TEST(RolloutBuffer, NormalizeZeroMeanUnitVar) {
  std::vector<double> adv = {1.0, 2.0, 3.0, 4.0, 5.0};
  RolloutBuffer::normalize(adv);
  double mean = 0.0, var = 0.0;
  for (double a : adv) mean += a;
  mean /= 5.0;
  for (double a : adv) var += (a - mean) * (a - mean);
  var /= 5.0;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-6);
}

TEST(RolloutBuffer, ClearEmpties) {
  RolloutBuffer buf;
  buf.add(Transition{});
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
}

// ---------------------------------------------------------------- PPO

TEST(Ppo, RejectsBadConfig) {
  PpoConfig bad;
  bad.clip_epsilon = 0.0;
  EXPECT_THROW(PpoTrainer(bad, small_ac(), nn::Rng(1)), std::invalid_argument);
  PpoConfig bad2;
  bad2.minibatch_size = 0;
  EXPECT_THROW(PpoTrainer(bad2, small_ac(), nn::Rng(1)), std::invalid_argument);
}

TEST(Ppo, UpdateReportsFiniteStats) {
  PpoConfig cfg;
  cfg.update_epochs = 2;
  PpoTrainer trainer(cfg, small_ac(), nn::Rng(8));
  ToyEnv env;
  const auto history = trainer.train_fleet({&env}, 2);
  ASSERT_EQ(history.size(), 2u);
  for (const auto& h : history) {
    EXPECT_TRUE(std::isfinite(h.update.policy_loss));
    EXPECT_TRUE(std::isfinite(h.update.value_loss));
    EXPECT_GE(h.update.entropy, 0.0);
    EXPECT_GT(h.update.mean_ratio, 0.0);
    EXPECT_GE(h.update.clip_fraction, 0.0);
    EXPECT_LE(h.update.clip_fraction, 1.0);
  }
}

TEST(Ppo, LearnsToyBandit) {
  PpoConfig cfg;
  cfg.episodes_per_iteration = 8;
  cfg.entropy_coeff = 0.005;
  PpoTrainer trainer(cfg, small_ac(), nn::Rng(9));
  ToyEnv env;
  trainer.train_fleet({&env}, 25);
  // The greedy policy should now collect the maximal reward.
  expect_greedy_picks_action_one(trainer.policy());
}

TEST(Ppo, EmptyBufferUpdateThrows) {
  PpoTrainer trainer(PpoConfig{}, small_ac(), nn::Rng(11));
  RolloutBuffer empty;
  EXPECT_THROW(trainer.update(empty), std::invalid_argument);
}

// Property sweep: across clip settings, one update keeps the realized
// probability ratios near 1 (the stability property the clip exists for).
class ClipSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ClipSweepTest, MeanRatioStaysNearOne) {
  PpoConfig cfg;
  cfg.clip_epsilon = GetParam();
  cfg.update_epochs = 3;
  PpoTrainer trainer(cfg, small_ac(), nn::Rng(21));
  ToyEnv env;
  const auto history = trainer.train_fleet({&env}, 2);
  for (const auto& h : history) {
    EXPECT_GT(h.update.mean_ratio, 1.0 - 3.0 * GetParam());
    EXPECT_LT(h.update.mean_ratio, 1.0 + 3.0 * GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Clips, ClipSweepTest, ::testing::Values(0.1, 0.2, 0.3));

// Property sweep: GAE returns equal discounted reward sums when lambda = 1.
class GammaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweepTest, LambdaOneReturnsAreDiscountedSums) {
  const double gamma = GetParam();
  RolloutBuffer buf;
  const std::vector<double> rewards = {1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < rewards.size(); ++i) {
    Transition t;
    t.reward = rewards[i];
    t.value = 0.0;
    t.done = i + 1 == rewards.size();
    buf.add(t);
  }
  const auto targets = buf.compute_gae(gamma, 1.0, 0.0);
  for (std::size_t i = 0; i < rewards.size(); ++i) {
    double expected = 0.0, g = 1.0;
    for (std::size_t k = i; k < rewards.size(); ++k) {
      expected += g * rewards[k];
      g *= gamma;
    }
    EXPECT_NEAR(targets.returns[i], expected, 1e-12) << "gamma " << gamma;
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, GammaSweepTest, ::testing::Values(0.0, 0.5, 0.9, 1.0));

TEST(Ppo, RatioNearOneOnFirstUpdate) {
  // On the first update over freshly collected data the new/old ratio starts
  // at 1 and stays near it thanks to clipping.
  PpoConfig cfg;
  cfg.update_epochs = 1;
  PpoTrainer trainer(cfg, small_ac(), nn::Rng(12));
  ToyEnv env;
  const auto history = trainer.train_fleet({&env}, 1);
  EXPECT_NEAR(history[0].update.mean_ratio, 1.0, 0.3);
}

// ------------------------------------------------- forward/backward cache

TEST(ActorCritic, BackwardRejectsMismatchedGradShapes) {
  nn::Rng rng(30);
  ActorCritic ac(small_ac(), rng);
  const nn::Matrix states = nn::Matrix::randn(4, 3, rng);
  (void)ac.forward(states);
  // Wrong batch size and wrong column counts must all be rejected.
  EXPECT_THROW(ac.backward(nn::Matrix(3, 3, 0.0), nn::Matrix(3, 1, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ac.backward(nn::Matrix(4, 2, 0.0), nn::Matrix(4, 1, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ac.backward(nn::Matrix(4, 3, 0.0), nn::Matrix(4, 2, 0.0)),
               std::invalid_argument);
}

TEST(ActorCritic, ActBetweenForwardAndBackwardKeepsGradients) {
  // Regression: act() used to run through forward() and clobber the cached
  // softmax batch, silently pairing backward()'s gradients with a 1-row
  // cache.  It now uses its own scratch, so interleaving it must leave the
  // training gradients bit-identical.
  nn::Rng init_a(31), init_b(31);
  ActorCritic clean(small_ac(), init_a);
  ActorCritic interleaved(small_ac(), init_b);

  nn::Rng data_rng(32);
  const nn::Matrix states = nn::Matrix::randn(5, 3, data_rng);
  nn::Matrix dprobs = nn::Matrix::randn(5, 3, data_rng);
  nn::Matrix dvalues = nn::Matrix::randn(5, 1, data_rng);

  clean.zero_grad();
  (void)clean.forward(states);
  clean.backward(dprobs, dvalues);

  interleaved.zero_grad();
  (void)interleaved.forward(states);
  nn::Rng act_rng(33);
  (void)interleaved.act({0.1, 0.2, 0.3}, act_rng);
  interleaved.backward(dprobs, dvalues);  // would throw (or corrupt) before

  const auto pa = clean.parameters();
  const auto pb = interleaved.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].grad->data().size(), pb[i].grad->data().size());
    for (std::size_t k = 0; k < pa[i].grad->data().size(); ++k) {
      EXPECT_EQ(pa[i].grad->data()[k], pb[i].grad->data()[k]) << pa[i].name;
    }
  }
}

// ------------------------------------------------- batched stochastic forward

TEST(VecCollectorActRows, MatchesPerRowActAcrossRaggedSplits) {
  nn::Rng rng(40);
  ActorCritic ac(small_ac(), rng);
  const std::size_t n = 7;
  const nn::Matrix states = nn::Matrix::randn(n, 3, rng);

  // Per-row reference: each row samples from its own stream via act().
  std::vector<ActorCritic::Sample> expected(n);
  {
    std::vector<nn::Rng> rngs;
    for (std::size_t r = 0; r < n; ++r) rngs.emplace_back(1000 + r);
    for (std::size_t r = 0; r < n; ++r) {
      std::vector<double> state(3);
      for (std::size_t c = 0; c < 3; ++c) state[c] = states(r, c);
      expected[r] = ac.act(state, rngs[r]);
    }
  }

  // Ragged block splits of the same rows must reproduce the samples bitwise.
  for (const std::vector<std::size_t>& bounds :
       {std::vector<std::size_t>{0, n}, std::vector<std::size_t>{0, 1, n},
        std::vector<std::size_t>{0, 3, 5, n}, std::vector<std::size_t>{0, 2, 3, 4, n}}) {
    std::vector<nn::Rng> rngs;
    for (std::size_t r = 0; r < n; ++r) rngs.emplace_back(1000 + r);
    std::vector<ActorCritic::Sample> got(n);
    for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
      ActorCritic::RowsWorkspace ws;  // fresh per block, like a crew member's
      ac.act_rows(states, bounds[b], bounds[b + 1], std::span<nn::Rng>(rngs),
                  std::span<ActorCritic::Sample>(got), ws);
    }
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(got[r].action, expected[r].action) << "row " << r;
      EXPECT_EQ(got[r].log_prob, expected[r].log_prob) << "row " << r;
      EXPECT_EQ(got[r].value, expected[r].value) << "row " << r;
    }
  }
}

TEST(VecCollectorActRows, ActiveMaskSkipsRowsWithoutConsumingStreams) {
  nn::Rng rng(41);
  ActorCritic ac(small_ac(), rng);
  const nn::Matrix states = nn::Matrix::randn(4, 3, rng);
  std::vector<nn::Rng> rngs{nn::Rng(1), nn::Rng(2), nn::Rng(3), nn::Rng(4)};
  std::vector<nn::Rng> rngs_ref{nn::Rng(1), nn::Rng(2), nn::Rng(3), nn::Rng(4)};
  std::vector<ActorCritic::Sample> got(4), expected(4);
  const std::vector<std::uint8_t> active = {1, 0, 1, 0};

  ActorCritic::RowsWorkspace ws;
  ac.act_rows(states, 0, 4, std::span<nn::Rng>(rngs),
              std::span<ActorCritic::Sample>(got), ws,
              std::span<const std::uint8_t>(active));
  ActorCritic::RowsWorkspace ws_ref;
  ac.act_rows(states, 0, 4, std::span<nn::Rng>(rngs_ref),
              std::span<ActorCritic::Sample>(expected), ws_ref);

  // Live rows match the unmasked run; masked rows left their streams intact.
  EXPECT_EQ(got[0].action, expected[0].action);
  EXPECT_EQ(got[2].action, expected[2].action);
  EXPECT_EQ(rngs[1].uniform(), nn::Rng(2).uniform());
  EXPECT_EQ(rngs[3].uniform(), nn::Rng(4).uniform());
}

TEST(VecCollectorActRows, ValueOfMatchesForward) {
  nn::Rng rng(42);
  ActorCritic ac(small_ac(), rng);
  const std::vector<double> state = {0.3, -0.7, 1.1};
  ActorCritic::RowsWorkspace ws;
  const double v = ac.value_of(std::span<const double>(state), ws);
  const PolicyOutput out = ac.forward(nn::Matrix::from_rows({state}));
  EXPECT_EQ(v, out.values(0, 0));
}

// ------------------------------------------------- truncation-aware GAE

TEST(RolloutBuffer, TruncatedTailBootstrapsCriticValue) {
  // Hand-computed: gamma=0.5, lambda=1, a 2-step episode cut by a time limit.
  //   t1: delta = 2 + 0.5*3.0 - 0.4 = 3.1  -> adv1 = 3.1, ret1 = 3.5
  //   t0: delta = 1 + 0.5*0.4 - 0.2 = 1.0  -> adv0 = 1.0 + 0.5*3.1 = 2.55
  RolloutBuffer buf;
  Transition t0;
  t0.reward = 1.0;
  t0.value = 0.2;
  buf.add(t0);
  Transition t1;
  t1.reward = 2.0;
  t1.value = 0.4;
  t1.done = true;
  t1.truncated = true;
  t1.bootstrap_value = 3.0;
  buf.add(t1);
  const auto targets = buf.compute_gae(0.5, 1.0, 0.0);
  EXPECT_NEAR(targets.advantages[1], 3.1, 1e-12);
  EXPECT_NEAR(targets.returns[1], 3.5, 1e-12);
  EXPECT_NEAR(targets.advantages[0], 2.55, 1e-12);
  EXPECT_NEAR(targets.returns[0], 2.75, 1e-12);
}

TEST(RolloutBuffer, TruncationDoesNotLeakAcrossEpisodes) {
  // A truncated episode followed by a terminal one: the bootstrap feeds only
  // its own episode's advantages; the chain still cuts at the boundary.
  RolloutBuffer buf;
  Transition a;
  a.reward = 0.0;
  a.value = 0.0;
  a.done = true;
  a.truncated = true;
  a.bootstrap_value = 10.0;
  buf.add(a);
  Transition b;
  b.reward = 1.0;
  b.value = 0.0;
  b.done = true;
  buf.add(b);
  const auto targets = buf.compute_gae(0.5, 0.9, 0.0);
  EXPECT_NEAR(targets.advantages[0], 5.0, 1e-12);  // 0 + 0.5*10 - 0
  EXPECT_NEAR(targets.advantages[1], 1.0, 1e-12);  // untouched by the 10.0
}

TEST(RolloutBuffer, TruncatedVersusTerminalDiffer) {
  const auto make = [](bool truncated) {
    RolloutBuffer buf;
    Transition t;
    t.reward = 1.0;
    t.value = 0.5;
    t.done = true;
    t.truncated = truncated;
    t.bootstrap_value = 2.0;
    buf.add(t);
    return buf.compute_gae(0.9, 0.95, 0.0);
  };
  EXPECT_NEAR(make(false).advantages[0], 0.5, 1e-12);          // 1 - 0.5
  EXPECT_NEAR(make(true).advantages[0], 0.5 + 0.9 * 2.0, 1e-12);
}

// ------------------------------------------------- vectorized collection

// Episodes in these tests end by time limit, which EctHubEnv reports as
// truncated; ToyTruncEnv mirrors that so the bootstrap path is exercised.
class ToyTruncEnv final : public ToyEnv {
 public:
  StepOutcome step_into(std::size_t action, std::span<double> next_state) override {
    StepOutcome out = ToyEnv::step_into(action, next_state);
    out.truncated = out.done;
    return out;
  }
};

std::vector<std::unique_ptr<Env>> make_lanes(std::size_t n) {
  std::vector<std::unique_ptr<Env>> lanes;
  for (std::size_t i = 0; i < n; ++i) lanes.push_back(std::make_unique<ToyTruncEnv>());
  return lanes;
}

std::vector<Env*> as_ptrs(const std::vector<std::unique_ptr<Env>>& lanes) {
  std::vector<Env*> out;
  for (const auto& l : lanes) out.push_back(l.get());
  return out;
}

void expect_buffers_equal(const std::vector<RolloutBuffer>& a,
                          const std::vector<RolloutBuffer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ta = a[i].transitions();
    const auto& tb = b[i].transitions();
    ASSERT_EQ(ta.size(), tb.size()) << "lane " << i;
    for (std::size_t k = 0; k < ta.size(); ++k) {
      EXPECT_EQ(ta[k].state, tb[k].state) << "lane " << i << " step " << k;
      EXPECT_EQ(ta[k].action, tb[k].action) << "lane " << i << " step " << k;
      EXPECT_EQ(ta[k].log_prob, tb[k].log_prob) << "lane " << i << " step " << k;
      EXPECT_EQ(ta[k].reward, tb[k].reward) << "lane " << i << " step " << k;
      EXPECT_EQ(ta[k].value, tb[k].value) << "lane " << i << " step " << k;
      EXPECT_EQ(ta[k].done, tb[k].done) << "lane " << i << " step " << k;
      EXPECT_EQ(ta[k].truncated, tb[k].truncated) << "lane " << i << " step " << k;
      EXPECT_EQ(ta[k].bootstrap_value, tb[k].bootstrap_value)
          << "lane " << i << " step " << k;
    }
  }
}

TEST(VecCollector, RejectsInvalidLaneSets) {
  VecCollectorConfig cfg;
  EXPECT_THROW(VecRolloutCollector({}, cfg), std::invalid_argument);
  ToyTruncEnv env;
  EXPECT_THROW(VecRolloutCollector({&env, nullptr}, cfg), std::invalid_argument);
  EXPECT_THROW(VecRolloutCollector({&env, &env}, cfg), std::invalid_argument);
}

TEST(VecCollector, RejectsActorMismatchAndZeroEpisodes) {
  auto lanes = make_lanes(2);
  VecRolloutCollector collector(as_ptrs(lanes), VecCollectorConfig{});
  nn::Rng rng(50);
  ActorCritic ac(small_ac(), rng);
  EXPECT_THROW(collector.collect(ac, 0), std::invalid_argument);
  ActorCriticConfig wide = small_ac();
  wide.state_dim = 5;
  ActorCritic mismatched(wide, rng);
  EXPECT_THROW(collector.collect(mismatched, 1), std::invalid_argument);
}

TEST(VecCollector, BitIdenticalAcrossThreadCounts) {
  // The contract the whole tentpole rests on: every crew size collects the
  // same transitions, bit for bit, as the serial per-lane reference.
  const std::size_t n = 5;
  const std::size_t eps = 3;
  nn::Rng rng(51);
  ActorCritic ac(small_ac(), rng);

  auto ref_lanes = make_lanes(n);
  VecRolloutCollector reference(as_ptrs(ref_lanes), VecCollectorConfig{});
  const auto ref_stats = reference.collect_serial(ac, eps);
  EXPECT_EQ(ref_stats.episodes, n * eps);
  EXPECT_EQ(ref_stats.transitions, n * eps * 8);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto lanes = make_lanes(n);
    VecCollectorConfig cfg;
    cfg.threads = threads;
    VecRolloutCollector collector(as_ptrs(lanes), cfg);
    const auto stats = collector.collect(ac, eps);
    EXPECT_EQ(stats.episodes, ref_stats.episodes) << threads << " threads";
    EXPECT_EQ(stats.transitions, ref_stats.transitions) << threads << " threads";
    EXPECT_EQ(stats.total_reward, ref_stats.total_reward) << threads << " threads";
    expect_buffers_equal(collector.buffers(), reference.buffers());
  }
}

TEST(VecCollector, RecordsTruncationBootstrapOnEpisodeTails) {
  auto lanes = make_lanes(2);
  VecRolloutCollector collector(as_ptrs(lanes), VecCollectorConfig{});
  nn::Rng rng(52);
  ActorCritic ac(small_ac(), rng);
  collector.collect(ac, 2);

  // ToyEnv's terminal observation is {1, 1, 0.5} regardless of actions.
  ActorCritic::RowsWorkspace ws;
  const std::vector<double> terminal = {1.0, 1.0, 0.5};
  const double v_terminal = ac.value_of(std::span<const double>(terminal), ws);
  for (const RolloutBuffer& buf : collector.buffers()) {
    for (const Transition& t : buf.transitions()) {
      if (t.done) {
        EXPECT_TRUE(t.truncated);
        EXPECT_EQ(t.bootstrap_value, v_terminal);
      } else {
        EXPECT_EQ(t.bootstrap_value, 0.0);
      }
    }
  }
}

TEST(VecCollector, MergedGaeMatchesPerLaneGae) {
  // Lanes hold whole episodes, so GAE over the lane-merged buffer must equal
  // each lane's GAE concatenated — the property train_fleet's update relies
  // on when it merges the per-lane buffers.
  auto lanes = make_lanes(3);
  VecRolloutCollector collector(as_ptrs(lanes), VecCollectorConfig{});
  nn::Rng rng(53);
  ActorCritic ac(small_ac(), rng);
  collector.collect(ac, 2);

  RolloutBuffer merged;
  for (const RolloutBuffer& lane : collector.buffers()) merged.append(lane);
  const auto merged_targets = merged.compute_gae(0.97, 0.95, 0.0);

  std::size_t offset = 0;
  for (const RolloutBuffer& lane : collector.buffers()) {
    const auto lane_targets = lane.compute_gae(0.97, 0.95, 0.0);
    for (std::size_t k = 0; k < lane.size(); ++k) {
      EXPECT_EQ(merged_targets.advantages[offset + k], lane_targets.advantages[k]);
      EXPECT_EQ(merged_targets.returns[offset + k], lane_targets.returns[k]);
    }
    offset += lane.size();
  }
  EXPECT_EQ(offset, merged.size());
}

TEST(VecCollector, TrainFleetWeightsIdenticalAcrossThreadCounts) {
  // End to end: K train_fleet iterations at different collector crew sizes
  // leave the trainer with bit-identical weights.
  const auto train = [](std::size_t threads) {
    PpoConfig cfg;
    cfg.episodes_per_iteration = 2;
    cfg.update_epochs = 2;
    PpoTrainer trainer(cfg, small_ac(), nn::Rng(54));
    auto lanes = make_lanes(4);
    VecCollectorConfig collector;
    collector.threads = threads;
    collector.seed = 77;
    trainer.train_fleet(as_ptrs(lanes), 3, collector);
    std::vector<std::vector<double>> weights;
    for (const auto& p : std::as_const(trainer).policy().parameters()) {
      weights.push_back(p.value->data());
    }
    return weights;
  };
  const auto w1 = train(1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const auto wk = train(threads);
    ASSERT_EQ(w1.size(), wk.size());
    for (std::size_t i = 0; i < w1.size(); ++i) {
      EXPECT_EQ(w1[i], wk[i]) << "parameter " << i << " at " << threads << " threads";
    }
  }
}

TEST(VecCollector, TrainFleetLearnsToyBandit) {
  PpoConfig cfg;
  cfg.episodes_per_iteration = 4;
  cfg.entropy_coeff = 0.005;
  PpoTrainer trainer(cfg, small_ac(), nn::Rng(9));
  auto lanes = make_lanes(4);
  VecCollectorConfig collector;
  collector.threads = 2;
  trainer.train_fleet(as_ptrs(lanes), 15, collector);
  expect_greedy_picks_action_one(trainer.policy());
}

}  // namespace
}  // namespace ecthub::rl
