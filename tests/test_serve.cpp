// DecisionService contract tests: batch-vs-service bit-identity for every
// stateless policy kind across batching windows, concurrent-client
// determinism (the TSan workhorse), clean shutdown with in-flight requests,
// observability counters against an injected fake clock, and the
// zero-steady-state-allocation guarantee in the test_alloc counting-new
// style (this binary replaces global operator new/delete with a counter).
#include "common/rng.hpp"
#include "policy/drl_policy.hpp"
#include "policy/observation.hpp"
#include "policy/rule_policies.hpp"
#include "serve/decision_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting operator-new hook, same replacement set as tests/test_alloc.cpp:
// every heap allocation in this binary bumps the counter so the steady-state
// decide() path can be audited for zero allocations.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ecthub::serve {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

// Injected fake clock: advances by exactly 1 us per read, so a sequential
// request (one enqueue read, one scatter read) always measures 1 us of
// latency — the statistics become fully deterministic.
std::atomic<std::uint64_t> g_fake_clock{0};
std::uint64_t fake_now_us() { return g_fake_clock.fetch_add(1, std::memory_order_relaxed); }

// Synthetic but layout-valid observation rows (the test_policy idiom).
nn::Matrix fake_obs_batch(const policy::ObservationLayout& layout, Rng& rng,
                          std::size_t rows) {
  nn::Matrix m(rows, layout.dim());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < layout.soc_index(); ++i) m(r, i) = rng.uniform(0.0, 1.5);
    m(r, layout.soc_index()) = rng.uniform(0.0, 1.0);
    const double hour = static_cast<double>(r % 24);
    m(r, layout.hour_sin_index()) = std::sin(2.0 * std::numbers::pi * hour / 24.0);
    m(r, layout.hour_cos_index()) = std::cos(2.0 * std::numbers::pi * hour / 24.0);
  }
  return m;
}

std::span<const double> row_span(const nn::Matrix& m, std::size_t r) {
  return {m.data().data() + r * m.cols(), m.cols()};
}

// Every stateless policy family the service must serve bit-identically.
// The serial oracle: the policy's decide() on each row, in row order.
std::vector<std::size_t> decide_each_row(policy::Policy& policy, const nn::Matrix& obs) {
  std::vector<std::size_t> actions(obs.rows());
  for (std::size_t r = 0; r < obs.rows(); ++r) actions[r] = policy.decide(row_span(obs, r));
  return actions;
}

std::vector<std::shared_ptr<policy::Policy>> stateless_policies() {
  std::vector<std::shared_ptr<policy::Policy>> out;
  out.push_back(std::make_shared<policy::NoBatteryPolicy>());
  out.push_back(std::make_shared<policy::TouPolicy>());
  nn::Rng drl_rng(99);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = policy::ObservationLayout{}.dim();
  out.push_back(std::make_shared<policy::DrlPolicy>(cfg, drl_rng));
  return out;
}

// Drives `clients` threads through the service, each submitting its strided
// share of the observation rows, and returns one action per row.
std::vector<std::size_t> serve_all_rows(DecisionService& service, const nn::Matrix& obs,
                                        std::size_t clients) {
  std::vector<std::size_t> actions(obs.rows(), 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = t; r < obs.rows(); r += clients) {
        actions[r] = service.decide(row_span(obs, r));
      }
    });
  }
  for (auto& th : threads) th.join();
  return actions;
}

// ------------------------------------------------------- bit-identity

TEST(ServeBitIdentity, MatchesDecideBatchForEveryPolicyAcrossWindows) {
  const policy::ObservationLayout layout;
  Rng rng(7);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 64);

  // Three window regimes: flush-every-request, fill-or-timer with a small
  // cap (full-batch flushes dominate), and timer-driven with a cap larger
  // than the client count (every flush is a timer flush).
  const ServiceConfig configs[] = {
      {.max_batch = 1, .max_wait_us = 0},
      {.max_batch = 8, .max_wait_us = 100},
      {.max_batch = 128, .max_wait_us = 200},
  };

  for (const auto& policy : stateless_policies()) {
    const std::vector<std::size_t> expected = decide_each_row(*policy, obs);
    for (const ServiceConfig& cfg : configs) {
      DecisionService service(policy, layout.dim(), cfg);
      const std::vector<std::size_t> got = serve_all_rows(service, obs, 8);
      EXPECT_EQ(got, expected)
          << policy->name() << " diverged from per-row decide at max_batch="
          << cfg.max_batch << " max_wait_us=" << cfg.max_wait_us;
      const ServiceStats stats = service.stats();
      EXPECT_EQ(stats.requests, obs.rows());
      EXPECT_EQ(stats.queue_depth, 0u);
      EXPECT_GE(stats.flushes, obs.rows() / cfg.max_batch);
    }
  }
}

TEST(ServeBitIdentity, SingleSequentialClientIsBatchOfOne) {
  // With one caller the service degenerates to decide() row by row; a
  // zero wait window means no flush ever has a peer to wait for.
  const policy::ObservationLayout layout;
  Rng rng(11);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 16);
  auto policy = std::make_shared<policy::TouPolicy>();
  const std::vector<std::size_t> expected = decide_each_row(*policy, obs);

  DecisionService service(policy, layout.dim(), {.max_batch = 4, .max_wait_us = 0});
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    EXPECT_EQ(service.decide(row_span(obs, r)), expected[r]) << "row " << r;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, obs.rows());
  EXPECT_EQ(stats.flushes, obs.rows());  // one row per flush
  EXPECT_EQ(stats.batch_size_hist[1], obs.rows());
}

// ------------------------------------------------------- concurrency (TSan)

TEST(ServeConcurrency, ManyClientsStayDeterministicUnderContention) {
  // The TSan workhorse: sustained contention on one shared service, every
  // thread checking each answer against the per-row decide oracle in place.
  const policy::ObservationLayout layout;
  Rng rng(23);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 64);
  nn::Rng drl_rng(31);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  auto policy = std::make_shared<policy::DrlPolicy>(cfg, drl_rng);
  const std::vector<std::size_t> expected = decide_each_row(*policy, obs);

  DecisionService service(policy, layout.dim(), {.max_batch = 8, .max_wait_us = 50});
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsPerClient = 40;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::size_t r = (t * kRequestsPerClient + i * 13) % obs.rows();
        if (service.decide(row_span(obs, r)) != expected[r]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * kRequestsPerClient);
  EXPECT_LE(stats.max_queue_depth, kClients);
  EXPECT_GE(stats.mean_batch_size, 1.0);
}

// ------------------------------------------------------- shutdown

TEST(ServeShutdown, DrainsInflightRequestsWithCorrectActions) {
  // A huge batch cap and an hour-long window guarantee the worker is holding
  // the batch open when shutdown() lands: every blocked caller must still
  // receive its bit-identical action from the drain flush.
  const policy::ObservationLayout layout;
  Rng rng(5);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 6);
  auto policy = std::make_shared<policy::TouPolicy>();
  const std::vector<std::size_t> expected = decide_each_row(*policy, obs);

  DecisionService service(policy, layout.dim(),
                          {.max_batch = 128, .max_wait_us = 3'600'000'000ULL});
  std::vector<std::size_t> got(obs.rows(), 999);
  std::vector<std::thread> clients;
  clients.reserve(obs.rows());
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    clients.emplace_back([&, r] { got[r] = service.decide(row_span(obs, r)); });
  }
  // All six must be parked in the pending queue before we pull the plug.
  while (service.stats().queue_depth < obs.rows()) std::this_thread::yield();

  service.shutdown();
  for (auto& th : clients) th.join();
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    EXPECT_EQ(got[r], expected[r]) << "in-flight row " << r << " lost its action";
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, obs.rows());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.max_queue_depth, obs.rows());

  // After shutdown the service fails loudly instead of hanging.
  EXPECT_THROW((void)service.decide(row_span(obs, 0)), std::runtime_error);
  service.shutdown();  // idempotent
}

// ------------------------------------------------------- construction contract

TEST(ServeContract, RejectsStatefulPoliciesLikeDecideRows) {
  // GreedyPrice accumulates a realized-price window per decide() call;
  // micro-batching it would interleave unrelated callers into that state.
  const std::size_t dim = policy::ObservationLayout{}.dim();
  EXPECT_THROW(DecisionService(std::make_shared<policy::GreedyPricePolicy>(), dim),
               std::invalid_argument);
  EXPECT_THROW(DecisionService(std::make_shared<policy::ForecastPolicy>(), dim),
               std::invalid_argument);
  EXPECT_THROW(DecisionService(std::make_shared<policy::RandomPolicy>(), dim),
               std::invalid_argument);
}

TEST(ServeContract, ValidatesConstructionAndObservationShape) {
  const std::size_t dim = policy::ObservationLayout{}.dim();
  EXPECT_THROW(DecisionService(nullptr, dim), std::invalid_argument);
  EXPECT_THROW(DecisionService(std::make_shared<policy::NoBatteryPolicy>(), 0),
               std::invalid_argument);
  EXPECT_THROW(DecisionService(std::make_shared<policy::NoBatteryPolicy>(), dim,
                               {.max_batch = 0}),
               std::invalid_argument);

  DecisionService service(std::make_shared<policy::NoBatteryPolicy>(), dim);
  const std::vector<double> short_obs(dim - 1, 0.0);
  EXPECT_THROW((void)service.decide(short_obs), std::invalid_argument);
}

// ------------------------------------------------------- observability

TEST(ServeStats, FakeClockMakesLatencyPercentilesDeterministic) {
  // Sequential client + auto-advancing fake clock: every request reads the
  // clock once at enqueue and once at scatter, so each latency sample is
  // exactly 1 us and every percentile collapses to 1.0.
  g_fake_clock.store(0);
  const policy::ObservationLayout layout;
  Rng rng(13);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 10);
  DecisionService service(std::make_shared<policy::NoBatteryPolicy>(), layout.dim(),
                          {.max_batch = 1, .max_wait_us = 0, .now_us = &fake_now_us});
  for (std::size_t r = 0; r < obs.rows(); ++r) (void)service.decide(row_span(obs, r));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.flushes, 10u);
  EXPECT_EQ(stats.full_batch_flushes, 10u);  // max_batch == 1: every flush is full
  EXPECT_EQ(stats.timer_flushes, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 1.0);
  ASSERT_EQ(stats.batch_size_hist.size(), 2u);
  EXPECT_EQ(stats.batch_size_hist[1], 10u);
  EXPECT_EQ(stats.latency_samples, 10u);
  EXPECT_DOUBLE_EQ(stats.latency_p50_us, 1.0);
  EXPECT_DOUBLE_EQ(stats.latency_p95_us, 1.0);
  EXPECT_DOUBLE_EQ(stats.latency_p99_us, 1.0);
  EXPECT_DOUBLE_EQ(stats.latency_max_us, 1.0);
}

TEST(ServeStats, PartialFlushesCountAsTimerFlushes) {
  // One sequential client against a 4-row cap: the queue never fills, so
  // every flush is released by the batching window, not the cap.
  const policy::ObservationLayout layout;
  Rng rng(17);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 5);
  DecisionService service(std::make_shared<policy::NoBatteryPolicy>(), layout.dim(),
                          {.max_batch = 4, .max_wait_us = 500});
  for (std::size_t r = 0; r < obs.rows(); ++r) (void)service.decide(row_span(obs, r));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.full_batch_flushes, 0u);
  EXPECT_EQ(stats.timer_flushes, stats.flushes);
  EXPECT_EQ(stats.batch_size_hist[1], stats.flushes);
  // No clock injected: latency tracking stays off.
  EXPECT_EQ(stats.latency_samples, 0u);
  EXPECT_DOUBLE_EQ(stats.latency_p99_us, 0.0);
}

// ------------------------------------------------------- allocation audit

TEST(ServeAlloc, SequentialSteadyStateIsAllocationFree) {
  // After the first requests have warmed the ticket pool, the admission
  // matrix and the policy workspace, the decide() round trip — enqueue,
  // flush forward, scatter, wake — must perform zero heap allocations in
  // this thread AND the worker.
  const policy::ObservationLayout layout;
  Rng rng(29);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 16);
  nn::Rng drl_rng(37);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  auto policy = std::make_shared<policy::DrlPolicy>(cfg, drl_rng);
  DecisionService service(policy, layout.dim(),
                          {.max_batch = 4, .max_wait_us = 0, .now_us = &fake_now_us});

  for (std::size_t r = 0; r < obs.rows(); ++r) (void)service.decide(row_span(obs, r));
  const std::uint64_t before = allocations();
  for (std::size_t pass = 0; pass < 4; ++pass) {
    for (std::size_t r = 0; r < obs.rows(); ++r) (void)service.decide(row_span(obs, r));
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "decide() allocated on a warmed service";
}

TEST(ServeAlloc, ConcurrentRoundsCostNoMoreThanFewerRounds) {
  // Multi-client variant in the test_alloc "more episodes may not cost more"
  // idiom: thread spawn overhead is identical between the two runs, so any
  // difference would be a per-request allocation under real micro-batching.
  const policy::ObservationLayout layout;
  Rng rng(43);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 32);
  nn::Rng drl_rng(47);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  auto policy = std::make_shared<policy::DrlPolicy>(cfg, drl_rng);
  DecisionService service(policy, layout.dim(), {.max_batch = 8, .max_wait_us = 100});

  constexpr std::size_t kClients = 4;
  const auto run_rounds = [&](std::size_t rounds) {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < rounds; ++i) {
          (void)service.decide(row_span(obs, (t * rounds + i) % obs.rows()));
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  // Warm-up until the ticket pool and the policy workspace are at their
  // high-water marks: kClients requests pending at once, hence a
  // kClients-row flush.  A loaded host can keep a fixed number of rounds
  // from getting there, so warm up until the stats show it, within a bound.
  const auto warmed = [&service] {
    const ServiceStats s = service.stats();
    return s.max_queue_depth == kClients && s.batch_size_hist[kClients] > 0;
  };
  for (int attempt = 0; attempt < 500 && !warmed(); ++attempt) run_rounds(8);
  ASSERT_TRUE(warmed()) << "warm-up never had " << kClients << " requests pending at once";
  const std::uint64_t before_short = allocations();
  run_rounds(2);
  const std::uint64_t short_cost = allocations() - before_short;
  const std::uint64_t before_long = allocations();
  run_rounds(16);
  const std::uint64_t long_cost = allocations() - before_long;
  EXPECT_LE(long_cost, short_cost)
      << "extra serving rounds allocated beyond thread-spawn overhead";
}

}  // namespace
}  // namespace ecthub::serve
