// Tests for the unified Policy API: the observation layout contract, the
// batched-vs-scalar equivalence of decide_rows() for every policy kind,
// and the DrlPolicy checkpoint round trip.
#include "common/binio.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "forecast/predictors.hpp"
#include "policy/drl_policy.hpp"
#include "policy/observation.hpp"
#include "policy/rule_policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ecthub::policy {
namespace {

// Synthetic but layout-valid observation: random channel windows, random
// SoC, exact phase encoding of `hour`.
std::vector<double> fake_obs(const ObservationLayout& layout, Rng& rng, double hour) {
  std::vector<double> obs(layout.dim());
  for (std::size_t i = 0; i < layout.soc_index(); ++i) obs[i] = rng.uniform(0.0, 1.5);
  obs[layout.soc_index()] = rng.uniform(0.0, 1.0);
  obs[layout.hour_sin_index()] = std::sin(2.0 * std::numbers::pi * hour / 24.0);
  obs[layout.hour_cos_index()] = std::cos(2.0 * std::numbers::pi * hour / 24.0);
  return obs;
}

nn::Matrix fake_obs_batch(const ObservationLayout& layout, Rng& rng, std::size_t rows) {
  nn::Matrix m(rows, layout.dim());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<double> obs = fake_obs(layout, rng, static_cast<double>(r % 24));
    for (std::size_t c = 0; c < obs.size(); ++c) m(r, c) = obs[c];
  }
  return m;
}

// ------------------------------------------------------------------ layout

TEST(ObservationLayout, DefaultMatchesHubEnvStateDim) {
  // 5 channels x 6 lookback + SoC + hour phase — the EctHubEnv default.
  EXPECT_EQ(ObservationLayout{}.dim(), 33u);
}

TEST(ObservationLayout, AccessorsDecodeTheEncodedFeatures) {
  const ObservationLayout layout{2};
  // [rtp0 rtp1 | ghi0 ghi1 | wind0 wind1 | traf0 traf1 | srtp0 srtp1 |
  //  soc sin cos], newest value last within each window.
  std::vector<double> obs = {0.5, 0.8, 0.1, 0.2, 0.3, 0.4, 0.6,
                             0.7, 0.4, 0.9, 0.55, 0.0, 1.0};
  ASSERT_EQ(obs.size(), layout.dim());
  EXPECT_DOUBLE_EQ(layout.rtp(obs), 0.8 * ObservationLayout::kPriceScale);
  EXPECT_DOUBLE_EQ(layout.srtp(obs), 0.9 * ObservationLayout::kPriceScale);
  EXPECT_DOUBLE_EQ(layout.soc(obs), 0.55);
  EXPECT_DOUBLE_EQ(layout.hour_of_day(obs), 0.0);
}

TEST(ObservationLayout, HourOfDaySurvivesThePhaseRoundTripExactly) {
  const ObservationLayout layout;
  Rng rng(7);
  for (std::size_t h = 0; h < 24; ++h) {
    const auto obs = fake_obs(layout, rng, static_cast<double>(h));
    EXPECT_DOUBLE_EQ(layout.hour_of_day(obs), static_cast<double>(h)) << h;
  }
  // Sub-hour slots (e.g. 48 slots/day) decode too.
  const auto obs = fake_obs(layout, rng, 13.5);
  EXPECT_DOUBLE_EQ(layout.hour_of_day(obs), 13.5);
}

TEST(ObservationLayout, WrongSizeIsRejected) {
  const ObservationLayout layout;
  const std::vector<double> too_short(5, 0.0);
  EXPECT_THROW((void)layout.soc(too_short), std::invalid_argument);
}

// -------------------------------------------------- batched-vs-scalar parity

// For every stateless policy kind, the batched decide_rows() over a whole
// matrix (and DrlPolicy::decide_batch) must equal the row-by-row decide()
// sequence — the contract that makes lockstep fleets interchangeable with
// per-hub execution.  Stateful kinds have no batched form: they refuse it,
// and fleets step them one hub at a time.
TEST(PolicyBatching, DecideBatchMatchesScalarForEveryKind) {
  const ObservationLayout layout;
  using Factory = std::function<std::unique_ptr<Policy>()>;
  nn::Rng drl_rng(99);
  DrlPolicyConfig drl_cfg;
  drl_cfg.state_dim = layout.dim();
  drl_cfg.trunk_dim = 16;
  drl_cfg.head_dim = 8;
  const DrlCheckpoint ckpt = DrlPolicy(drl_cfg, drl_rng).checkpoint();

  const std::vector<Factory> factories = {
      [&] { return std::make_unique<NoBatteryPolicy>(); },
      [&] { return std::make_unique<TouPolicy>(layout); },
      [&] { return std::make_unique<GreedyPricePolicy>(layout); },
      [&] { return std::make_unique<ForecastPolicy>(layout); },
      [&] { return std::make_unique<RandomPolicy>(42); },
      [&] { return std::make_unique<DrlPolicy>(ckpt); },
  };
  for (const Factory& make : factories) {
    Rng obs_rng(11);
    const nn::Matrix obs = fake_obs_batch(layout, obs_rng, 40);
    const auto scalar_pol = make();
    const auto batch_pol = make();
    std::vector<std::size_t> scalar_actions(obs.rows()), batch_actions(obs.rows());
    const double* data = obs.data().data();
    for (std::size_t i = 0; i < obs.rows(); ++i) {
      scalar_actions[i] =
          scalar_pol->decide(std::span<const double>(data + i * obs.cols(), obs.cols()));
    }
    for (const std::size_t a : scalar_actions) EXPECT_LT(a, 3u) << scalar_pol->name();
    const auto ws = batch_pol->make_workspace();
    if (!batch_pol->stateless()) {
      EXPECT_THROW(batch_pol->decide_rows(obs, 0, obs.rows(),
                                          std::span<std::size_t>(batch_actions), *ws),
                   std::logic_error)
          << scalar_pol->name();
      continue;
    }
    batch_pol->decide_rows(obs, 0, obs.rows(), std::span<std::size_t>(batch_actions), *ws);
    EXPECT_EQ(scalar_actions, batch_actions) << scalar_pol->name();
    if (auto* drl = dynamic_cast<DrlPolicy*>(batch_pol.get())) {
      std::fill(batch_actions.begin(), batch_actions.end(), 99);
      drl->decide_batch(obs, std::span<std::size_t>(batch_actions));
      EXPECT_EQ(scalar_actions, batch_actions) << scalar_pol->name();
    }
  }
}

// ----------------------------------------------- row-block decide parity

// Every stateless policy must reproduce its row-by-row decide() output
// bit-exactly when the batch is split into arbitrary row-blocks — including
// 1-row and ragged splits — each computed through its own workspace.  This
// is the contract that lets the lockstep fleet shard one observation matrix
// across a worker crew.
TEST(PolicyRowBlocks, ArbitrarySplitsMatchFullBatchForEveryStatelessKind) {
  const ObservationLayout layout;
  nn::Rng drl_rng(99);
  DrlPolicyConfig drl_cfg;
  drl_cfg.state_dim = layout.dim();
  drl_cfg.trunk_dim = 16;
  drl_cfg.head_dim = 8;
  const DrlCheckpoint ckpt = DrlPolicy(drl_cfg, drl_rng).checkpoint();

  std::vector<std::unique_ptr<Policy>> policies;
  policies.push_back(std::make_unique<NoBatteryPolicy>());
  policies.push_back(std::make_unique<TouPolicy>(layout));
  policies.push_back(std::make_unique<DrlPolicy>(ckpt));

  constexpr std::size_t kRows = 41;  // odd on purpose: ragged split fodder
  Rng obs_rng(13);
  const nn::Matrix obs = fake_obs_batch(layout, obs_rng, kRows);
  const std::vector<std::vector<std::size_t>> split_sets = {
      {0, kRows},                          // the full batch as one block
      {0, 1, 2, 3, kRows},                 // 1-row blocks up front
      {0, 7, 7, 19, 40, kRows},            // ragged, including an empty block
      {0, 40, kRows},                      // a 1-row tail
  };
  for (const auto& pol : policies) {
    ASSERT_TRUE(pol->stateless()) << pol->name();
    std::vector<std::size_t> full(kRows, 99), blocked(kRows, 99);
    for (std::size_t r = 0; r < kRows; ++r) {
      full[r] = pol->decide(std::span<const double>(obs.data().data() + r * obs.cols(),
                                                    obs.cols()));
    }
    for (const std::vector<std::size_t>& splits : split_sets) {
      std::fill(blocked.begin(), blocked.end(), 99);
      const auto ws = pol->make_workspace();
      ASSERT_NE(ws, nullptr) << pol->name();
      for (std::size_t s = 0; s + 1 < splits.size(); ++s) {
        pol->decide_rows(obs, splits[s], splits[s + 1], std::span<std::size_t>(blocked),
                         *ws);
      }
      EXPECT_EQ(blocked, full) << pol->name();
    }
  }
}

TEST(PolicyRowBlocks, ConcurrentDisjointBlocksOnOneSharedInstanceMatch) {
  // The threaded contract itself: several threads calling decide_rows on
  // disjoint row-blocks of one shared instance — each with its own
  // workspace — must reproduce the single-threaded full batch bit for bit.
  const ObservationLayout layout;
  nn::Rng drl_rng(7);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  const DrlCheckpoint ckpt = DrlPolicy(cfg, drl_rng).checkpoint();
  DrlPolicy shared(ckpt);

  constexpr std::size_t kRows = 67;
  constexpr std::size_t kThreads = 4;
  Rng obs_rng(29);
  const nn::Matrix obs = fake_obs_batch(layout, obs_rng, kRows);
  std::vector<std::size_t> full(kRows), threaded(kRows, 99);
  shared.decide_batch(obs, std::span<std::size_t>(full));

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const std::size_t begin = kRows * t / kThreads;
      const std::size_t end = kRows * (t + 1) / kThreads;
      const auto ws = shared.make_workspace();
      // Two passes through the same workspace: reuse must not perturb bits.
      shared.decide_rows(obs, begin, end, std::span<std::size_t>(threaded), *ws);
      shared.decide_rows(obs, begin, end, std::span<std::size_t>(threaded), *ws);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(threaded, full);
}

TEST(PolicyRowBlocks, StatefulPoliciesRejectRowBlockCalls) {
  const ObservationLayout layout;
  Rng rng(3);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 4);
  std::vector<std::size_t> actions(4);
  GreedyPricePolicy greedy(layout);
  const auto ws = greedy.make_workspace();
  ASSERT_NE(ws, nullptr);
  EXPECT_THROW(
      greedy.decide_rows(obs, 0, 4, std::span<std::size_t>(actions), *ws),
      std::logic_error);
  RandomPolicy random(1);
  const auto rws = random.make_workspace();
  EXPECT_THROW(
      random.decide_rows(obs, 0, 4, std::span<std::size_t>(actions), *rws),
      std::logic_error);
}

TEST(PolicyRowBlocks, BadRangesAndForeignWorkspacesAreRejected) {
  const ObservationLayout layout;
  Rng rng(5);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 6);
  std::vector<std::size_t> actions(6);
  TouPolicy tou(layout);
  const auto tou_ws = tou.make_workspace();
  EXPECT_THROW(tou.decide_rows(obs, 4, 2, std::span<std::size_t>(actions), *tou_ws),
               std::invalid_argument);
  EXPECT_THROW(tou.decide_rows(obs, 0, 7, std::span<std::size_t>(actions), *tou_ws),
               std::invalid_argument);
  std::vector<std::size_t> too_few(3);
  EXPECT_THROW(tou.decide_rows(obs, 0, 3, std::span<std::size_t>(too_few), *tou_ws),
               std::invalid_argument);

  nn::Rng drl_rng(11);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  DrlPolicy drl(cfg, drl_rng);
  // A base (TOU) workspace is not a DRL forward scratch.
  EXPECT_THROW(drl.decide_rows(obs, 0, 6, std::span<std::size_t>(actions), *tou_ws),
               std::invalid_argument);
}

TEST(PolicyBatching, ActionSpanSizeMismatchThrows) {
  const ObservationLayout layout;
  Rng rng(3);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 4);
  std::vector<std::size_t> too_few(3);
  TouPolicy tou(layout);
  EXPECT_THROW(tou.decide_rows(obs, 0, obs.rows(), std::span<std::size_t>(too_few),
                               *tou.make_workspace()),
               std::invalid_argument);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  nn::Rng drl_rng(5);
  DrlPolicy drl(cfg, drl_rng);
  EXPECT_THROW(drl.decide_batch(obs, std::span<std::size_t>(too_few)),
               std::invalid_argument);
}

TEST(PolicyStatefulness, StatelessFlagsMatchTheImplementations) {
  const ObservationLayout layout;
  EXPECT_TRUE(NoBatteryPolicy().stateless());
  EXPECT_TRUE(TouPolicy(layout).stateless());
  EXPECT_FALSE(GreedyPricePolicy(layout).stateless());
  EXPECT_FALSE(ForecastPolicy(layout).stateless());
  EXPECT_FALSE(RandomPolicy(1).stateless());
  nn::Rng rng(1);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  EXPECT_TRUE(DrlPolicy(cfg, rng).stateless());
}

TEST(PolicyStatefulness, GreedyWindowClearsAtEpisodeStart) {
  const ObservationLayout layout;
  Rng rng(17);
  GreedyPricePolicy a(layout), b(layout);
  // Feed `a` a first episode, then reset both and replay the same second
  // episode: a's decisions must match the never-polluted b's exactly.
  for (std::size_t t = 0; t < 30; ++t) {
    (void)a.decide(fake_obs(layout, rng, static_cast<double>(t % 24)));
  }
  a.begin_episode();
  b.begin_episode();
  Rng replay(23);
  for (std::size_t t = 0; t < 30; ++t) {
    const auto obs = fake_obs(layout, replay, static_cast<double>(t % 24));
    EXPECT_EQ(a.decide(obs), b.decide(obs)) << "slot " << t;
  }
}

// The GreedyPricePolicy decision rule the sorted window replaced: copy the
// trailing window, sort it, and read each quantile off the sorted copy.
class GreedyReference {
 public:
  GreedyReference(double low_q, double high_q) : low_q_(low_q), high_q_(high_q) {}
  void begin_episode() { seen_.clear(); }
  std::size_t decide(double now) {
    seen_.push_back(now);
    if (seen_.size() > 25) seen_.erase(seen_.begin());
    const double p_lo = stats::percentile(seen_, low_q_);
    const double p_hi = stats::percentile(seen_, high_q_);
    if (now <= p_lo) return 1;
    if (now >= p_hi) return 2;
    return 0;
  }

 private:
  double low_q_, high_q_;
  std::vector<double> seen_;
};

// One observation carrying `price` in the RTP channel (the only one the
// price rules read); returns the price the policy decodes from it.
double set_price(const ObservationLayout& layout, std::vector<double>& obs, double price) {
  obs[layout.rtp_begin() + layout.lookback - 1] = price / ObservationLayout::kPriceScale;
  return layout.rtp(obs);
}

TEST(GreedyPricePolicy, SortedWindowDecidesLikeSortingTheWindow) {
  const ObservationLayout layout;
  struct Stream {
    double low_q, high_q;
    std::uint64_t seed;
  };
  for (const Stream& s : {Stream{30.0, 70.0, 1}, Stream{0.0, 100.0, 2}, Stream{12.5, 87.5, 3}}) {
    GreedyPricePolicy pol(layout, s.low_q, s.high_q);
    GreedyReference ref(s.low_q, s.high_q);
    Rng rng(s.seed);
    std::vector<double> obs(layout.dim(), 0.0);
    std::size_t left_in_episode = 0;
    for (std::size_t i = 0; i < 100000; ++i) {
      if (left_in_episode == 0) {
        // Episode restarts, many shorter than the 25-price window.
        left_in_episode = static_cast<std::size_t>(rng.uniform_int(1, 80));
        pol.begin_episode();
        ref.begin_episode();
      }
      --left_in_episode;
      double price = 0.0;
      switch (rng.uniform_int(0, 4)) {
        case 0: price = rng.normal(60.0, 40.0); break;  // negatives too
        case 1: price = static_cast<double>(rng.uniform_int(-3, 3)); break;  // repeats
        case 2: price = rng.bernoulli(0.5) ? -0.0 : 0.0; break;
        case 3: price = std::ldexp(rng.normal(0.0, 1.0), -1074 / 2); break;  // tiny
        default: price = 70.0; break;
      }
      const double now = set_price(layout, obs, price);
      ASSERT_EQ(pol.decide(obs), ref.decide(now)) << "stream " << s.seed << " price " << i;
    }
  }
}

TEST(GreedyPricePolicy, NaNPriceIsRejected) {
  const ObservationLayout layout;
  GreedyPricePolicy pol(layout);
  std::vector<double> obs(layout.dim(), 0.5);
  (void)pol.decide(obs);
  obs[layout.rtp_begin() + layout.lookback - 1] = std::nan("");
  EXPECT_THROW((void)pol.decide(obs), std::invalid_argument);
}

// The ForecastPolicy decision rule before season_range(): the predicted
// day's low and high from 24 predict() calls.
TEST(ForecastPolicy, SeasonRangeDecidesLikeThePredictLoop) {
  const ObservationLayout layout;
  ForecastPolicy pol(layout);
  forecast::SeasonalNaivePredictor ref(24);
  Rng rng(9);
  std::vector<double> obs(layout.dim(), 0.0);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < 20000; ++i) {
    if (i % 500 == 0) {
      pol.begin_episode();
      slot = 0;
    }
    const double price = rng.bernoulli(0.2) ? static_cast<double>(rng.uniform_int(40, 42))
                                            : rng.normal(70.0, 25.0);
    const double now_price = set_price(layout, obs, price);
    ref.observe(slot, now_price);
    double lo = ref.predict(0), hi = lo;
    for (std::size_t h = 1; h < 24; ++h) {
      lo = std::min(lo, ref.predict(h));
      hi = std::max(hi, ref.predict(h));
    }
    const double now = ref.predict(slot);
    ++slot;
    std::size_t expected = 0;
    if (!(hi - lo < 1e-9)) {
      const double pos = (now - lo) / (hi - lo);
      expected = pos <= 0.3 ? 1 : (pos >= 0.7 ? 2 : 0);
    }
    ASSERT_EQ(pol.decide(obs), expected) << "slot " << i;
  }
}

// ------------------------------------------------------------- DRL policy

TEST(DrlPolicy, CheckpointRoundTripsThroughAStream) {
  const ObservationLayout layout;
  nn::Rng rng(321);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  cfg.trunk_dim = 24;
  cfg.head_dim = 12;
  DrlPolicy original(cfg, rng);

  const DrlCheckpoint restored_ckpt = DrlCheckpoint::parse(original.checkpoint().serialize());
  EXPECT_EQ(restored_ckpt.config.state_dim, cfg.state_dim);
  EXPECT_EQ(restored_ckpt.config.trunk_dim, cfg.trunk_dim);
  EXPECT_EQ(restored_ckpt.config.head_dim, cfg.head_dim);
  DrlPolicy restored(restored_ckpt);

  Rng obs_rng(55);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto obs = fake_obs(layout, obs_rng, static_cast<double>(i % 24));
    EXPECT_EQ(original.decide(obs), restored.decide(obs)) << "obs " << i;
  }
}

TEST(DrlPolicy, CheckpointLoadsAreIndependentOfThreadLoadHistory) {
  // Regression test: checkpoint restoration used to draw its throwaway init
  // weights from one `static thread_local` RNG shared by every policy loaded
  // on that thread, so a restored policy's construction consumed state that
  // other loads depended on.  Each load now owns a fixed-seed RNG, so a
  // restored policy is a pure function of its checkpoint: every load — first
  // or hundredth on a thread, interleaved with other shapes, or on a fresh
  // thread — must reproduce the source weights bit for bit.
  const ObservationLayout layout;
  nn::Rng rng(2718);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  DrlPolicy source(cfg, rng);
  const DrlCheckpoint ckpt = source.checkpoint();

  const auto expect_matches_source = [&](DrlPolicy& restored, const char* what) {
    auto got = restored.parameters();
    auto want = source.parameters();
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t p = 0; p < want.size(); ++p) {
      ASSERT_EQ(got[p].name, want[p].name) << what;
      ASSERT_EQ(got[p].value->data().size(), want[p].value->data().size()) << what;
      for (std::size_t i = 0; i < want[p].value->data().size(); ++i) {
        EXPECT_EQ(got[p].value->data()[i], want[p].value->data()[i])
            << what << ": " << want[p].name << "[" << i << "]";
      }
    }
  };

  // Interleave loads of a different architecture so any shared RNG state
  // would be advanced by a different number of draws between loads.
  DrlPolicyConfig other_cfg = cfg;
  other_cfg.trunk_dim = 24;
  other_cfg.head_dim = 4;
  nn::Rng other_rng(4);
  const DrlCheckpoint other_ckpt = DrlPolicy(other_cfg, other_rng).checkpoint();

  DrlPolicy first(ckpt);
  DrlPolicy interloper(other_ckpt);
  DrlPolicy second(ckpt);
  expect_matches_source(first, "first load");
  expect_matches_source(second, "load after an interleaved different shape");

  std::unique_ptr<DrlPolicy> threaded;
  std::thread loader([&] { threaded = std::make_unique<DrlPolicy>(ckpt); });
  loader.join();
  expect_matches_source(*threaded, "load on a fresh thread");
}

TEST(DrlPolicy, LoadRejectsGarbageAndMismatchedBlobs) {
  EXPECT_THROW((void)DrlCheckpoint::parse("not a checkpoint at all, sorry"),
               std::runtime_error);

  // A blob serialized for one architecture must not load into another.
  nn::Rng rng(9);
  DrlPolicyConfig small;
  small.state_dim = 33;
  small.trunk_dim = 8;
  small.head_dim = 4;
  DrlCheckpoint ckpt = DrlPolicy(small, rng).checkpoint();
  ckpt.config.trunk_dim = 16;  // lie about the shape
  EXPECT_THROW((void)DrlPolicy{ckpt}, std::runtime_error);
}

TEST(DrlPolicy, CheckpointWidthsTheBlobCannotHoldAreRejectedBeforeSizing) {
  // Each width is checked against the blob before any layer is allocated:
  // sizing a 2^27-wide trunk first would take gigabytes, and 2^40 or
  // UINT64_MAX would throw bad_alloc or length_error instead of a typed error.
  nn::Rng rng(10);
  DrlPolicyConfig cfg;
  cfg.state_dim = 33;
  cfg.trunk_dim = 8;
  cfg.head_dim = 4;
  const DrlCheckpoint good = DrlPolicy(cfg, rng).checkpoint();
  for (const std::uint64_t width :
       {std::uint64_t{1} << 27, std::uint64_t{1} << 40, UINT64_MAX}) {
    for (std::size_t DrlPolicyConfig::*field :
         {&DrlPolicyConfig::state_dim, &DrlPolicyConfig::action_count,
          &DrlPolicyConfig::trunk_dim, &DrlPolicyConfig::head_dim}) {
      DrlCheckpoint ckpt = good;
      ckpt.config.*field = width;
      EXPECT_THROW((void)DrlPolicy{ckpt}, binio::FormatError) << width;
    }
  }
}

TEST(DrlPolicy, OldFormatCheckpointIsMagicErrorAskingForReexport) {
  // The pre-ECDR layout: host-endian u64 magic "ECTPDRL1", four widths, the
  // blob size and the blob, with no version or checksum.
  nn::Rng rng(11);
  DrlPolicyConfig cfg;
  cfg.state_dim = 33;
  const DrlCheckpoint ckpt = DrlPolicy(cfg, rng).checkpoint();
  std::string old;
  for (const std::uint64_t field :
       {std::uint64_t{0x4543545044524c31}, std::uint64_t{cfg.state_dim},
        std::uint64_t{cfg.action_count}, std::uint64_t{cfg.trunk_dim},
        std::uint64_t{cfg.head_dim}, std::uint64_t{ckpt.blob.size()}}) {
    binio::put_u64(old, field);
  }
  old += ckpt.blob;
  try {
    (void)DrlCheckpoint::parse(old);
    ADD_FAILURE() << "parsed a pre-ECDR checkpoint";
  } catch (const binio::MagicError& e) {
    EXPECT_NE(std::string(e.what()).find("re-export"), std::string::npos) << e.what();
  }
}

TEST(DrlPolicy, BitFlippedCheckpointIsChecksumError) {
  nn::Rng rng(12);
  DrlPolicyConfig cfg;
  cfg.state_dim = 33;
  const std::string pristine = DrlPolicy(cfg, rng).checkpoint().serialize();
  ASSERT_EQ(pristine.substr(0, 4), "ECDR");
  // One byte in the widths section, one in the blob's weights, one in the
  // checksum trailer itself.
  for (const std::size_t at : {std::size_t{30}, pristine.size() / 2, pristine.size() - 1}) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ 0x08u);
    EXPECT_THROW((void)DrlCheckpoint::parse(bytes), binio::ChecksumError) << "byte " << at;
  }
}

TEST(DrlPolicy, ValidatesItsConfig) {
  nn::Rng rng(1);
  DrlPolicyConfig bad;
  bad.state_dim = 0;
  EXPECT_THROW((void)DrlPolicy(bad, rng), std::invalid_argument);
  bad.state_dim = 10;
  bad.action_count = 1;
  EXPECT_THROW((void)DrlPolicy(bad, rng), std::invalid_argument);
  bad.action_count = 3;
  bad.trunk_dim = 0;
  EXPECT_THROW((void)DrlPolicy(bad, rng), std::invalid_argument);
}

TEST(DrlPolicy, DecideRejectsWrongStateDim) {
  nn::Rng rng(2);
  DrlPolicyConfig cfg;
  cfg.state_dim = 33;
  DrlPolicy pol(cfg, rng);
  const std::vector<double> wrong(12, 0.0);
  EXPECT_THROW((void)pol.decide(wrong), std::invalid_argument);
  const nn::Matrix wrong_batch(2, 12);
  std::vector<std::size_t> actions(2);
  EXPECT_THROW(pol.decide_batch(wrong_batch, std::span<std::size_t>(actions)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ecthub::policy
