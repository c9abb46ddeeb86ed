// DecisionService input validation and latency percentiles.  Kept out of
// test_serve.cpp, which replaces the global operator new/delete to count
// allocations: GCC 12's -Wmismatched-new-delete misfires on that file's
// existing tests once it grows enough to change GCC's inlining of the
// replacements.
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "policy/drl_policy.hpp"
#include "policy/observation.hpp"
#include "policy/rule_policies.hpp"
#include "serve/decision_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ecthub::serve {
namespace {

TEST(ServeContract, RejectsNonFiniteObservationsBeforeAdmission) {
  // A NaN feature makes every DRL logit NaN, and the argmax would silently
  // answer action 0 (idle): decide() must refuse it, naming the first bad
  // feature, before the request reaches the queue.
  const std::size_t dim = policy::ObservationLayout{}.dim();
  nn::Rng init(99);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = dim;
  const auto actor = std::make_shared<policy::DrlPolicy>(cfg, init);
  Rng rng(41);
  nn::Matrix obs(2, dim);
  for (double& x : obs.data()) x = rng.uniform(-1.0, 1.0);
  std::vector<std::size_t> want(obs.rows());
  actor->decide_batch(obs, want);

  DecisionService service(actor, dim, {.max_batch = 1, .max_wait_us = 0});
  for (const double poison : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    std::vector<double> bad(obs.data().begin(),
                            obs.data().begin() + static_cast<std::ptrdiff_t>(dim));
    bad[2] = poison;
    bad[5] = poison;
    try {
      (void)service.decide(bad);
      ADD_FAILURE() << "served an observation holding " << poison;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("feature 2 "), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(service.stats().requests, 0u);
  EXPECT_EQ(service.stats().max_queue_depth, 0u);
  // The next valid request is served as if nothing had happened.
  EXPECT_EQ(service.decide(std::span<const double>(obs.data().data() + dim, dim)), want[1]);
  EXPECT_EQ(service.stats().requests, 1u);
}

// Scripted clock for sequential single-row requests: read 2k is request k's
// enqueue and read 2k + 1 its scatter, scripted_latency(k) us later.
std::atomic<std::uint64_t> g_script_reads{0};
std::uint64_t scripted_latency(std::uint64_t k) { return (k * 37) % 101 + 1; }
std::uint64_t scripted_now_us() {
  const std::uint64_t read = g_script_reads.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t k = read / 2;
  return 1000 * k + (read % 2 == 0 ? 0 : scripted_latency(k));
}

TEST(ServeStats, VaryingLatenciesGiveTheWindowsPercentiles) {
  g_script_reads.store(0);
  const policy::ObservationLayout layout;
  Rng rng(19);
  nn::Matrix obs(200, layout.dim());
  for (double& x : obs.data()) x = rng.uniform(-1.0, 1.0);
  DecisionService service(std::make_shared<policy::NoBatteryPolicy>(), layout.dim(),
                          {.max_batch = 1, .max_wait_us = 0, .now_us = &scripted_now_us});
  std::vector<double> latencies;
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    const std::size_t dim = obs.cols();
    (void)service.decide(std::span<const double>(obs.data().data() + r * dim, dim));
    latencies.push_back(static_cast<double>(scripted_latency(r)));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.latency_samples, latencies.size());
  EXPECT_EQ(stats.latency_p50_us, stats::percentile(latencies, 50.0));
  EXPECT_EQ(stats.latency_p95_us, stats::percentile(latencies, 95.0));
  EXPECT_EQ(stats.latency_p99_us, stats::percentile(latencies, 99.0));
  EXPECT_EQ(stats.latency_max_us, *std::max_element(latencies.begin(), latencies.end()));
}

}  // namespace
}  // namespace ecthub::serve
