// Decision-service demo: the ROADMAP's "decision service mode" in ~100
// lines.  An ECT-DRL actor (fresh weights — a real deployment would load a
// DrlCheckpoint) is wrapped in a DecisionService; concurrent client threads
// each call decide(obs) with single observations, the service micro-batches
// them into one GEMM per flush, and every answer is cross-checked against
// calling decide_batch directly — bit-identity is the whole point.  Ends
// with the service's own observability snapshot.
//
//   $ ./decision_server [--clients 4] [--requests 64] [--max-batch 8]
//                       [--wait-us 200]
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "policy/drl_policy.hpp"
#include "policy/observation.hpp"
#include "serve/decision_service.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <numbers>
#include <span>
#include <thread>
#include <vector>

namespace {

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const std::size_t clients = flags.get_size("clients", 4);
  const std::size_t requests = flags.get_size("requests", 64);
  const std::size_t max_batch = flags.get_size("max-batch", 8);
  const std::uint64_t wait_us = flags.get_size("wait-us", 200);
  flags.check_unknown();

  // The policy under service: one shared stateless ECT-DRL actor.
  const policy::ObservationLayout layout;
  nn::Rng rng(7);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  auto actor = std::make_shared<policy::DrlPolicy>(cfg, rng);

  // A pool of layout-valid observations standing in for live hub states.
  Rng obs_rng(11);
  nn::Matrix obs(64, layout.dim());
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    for (std::size_t i = 0; i < layout.soc_index(); ++i)
      obs(r, i) = obs_rng.uniform(0.0, 1.5);
    obs(r, layout.soc_index()) = obs_rng.uniform(0.0, 1.0);
    const double hour = static_cast<double>(r % 24);
    obs(r, layout.hour_sin_index()) = std::sin(2.0 * std::numbers::pi * hour / 24.0);
    obs(r, layout.hour_cos_index()) = std::cos(2.0 * std::numbers::pi * hour / 24.0);
  }
  std::vector<std::size_t> expected(obs.rows(), 0);
  actor->decide_batch(obs, std::span<std::size_t>(expected));

  serve::ServiceConfig service_cfg;
  service_cfg.max_batch = max_batch;
  service_cfg.max_wait_us = wait_us;
  service_cfg.now_us = &steady_now_us;
  serve::DecisionService service(actor, layout.dim(), service_cfg);
  std::cout << "decision_server: " << actor->name() << " behind a DecisionService "
            << "(max_batch " << max_batch << ", window " << wait_us << " us), "
            << clients << " clients x " << requests << " requests\n";

  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < requests; ++i) {
        const std::size_t r = (t * requests + i) % obs.rows();
        const std::size_t action = service.decide(
            std::span<const double>(obs.data().data() + r * obs.cols(), obs.cols()));
        if (action != expected[r]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  service.shutdown();

  const serve::ServiceStats stats = service.stats();
  std::cout << "\n  requests        " << stats.requests << "\n"
            << "  flushes         " << stats.flushes << " (mean batch "
            << stats.mean_batch_size << ", " << stats.full_batch_flushes
            << " full, " << stats.timer_flushes << " timer)\n"
            << "  max queue depth " << stats.max_queue_depth << "\n"
            << "  latency us      p50 " << stats.latency_p50_us << ", p95 "
            << stats.latency_p95_us << ", p99 " << stats.latency_p99_us << ", max "
            << stats.latency_max_us << "\n";

  if (mismatches.load() != 0) {
    std::cerr << "\ndecision_server: " << mismatches.load()
              << " action(s) diverged from decide_batch — bit-identity broken\n";
    return 1;
  }
  std::cout << "\nAll " << stats.requests
            << " served actions bit-identical to decide_batch.\n";
  return 0;
}
