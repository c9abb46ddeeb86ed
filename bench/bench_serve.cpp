// Decision-service benchmark: request latency percentiles and throughput of
// the micro-batched DecisionService versus offered load and batching window.
//
// A closed-loop load generator drives the service: each client thread
// submits one observation, blocks for its action, checks it against the
// decide_batch oracle, and immediately submits the next — so offered load
// scales with the client count.  The sweep crosses --clients-list with
// --wait-list (the max_wait_us batching window) on one shared ECT-DRL actor
// and reports, per cell, the flush batch shape (mean batch size, share of
// full-batch flushes) next to the enqueue->scatter latency percentiles the
// service itself recorded through its injected clock.
//
// Reading the table: at 1 client every flush is a batch of one, so the
// latency column is the pure single-row forward cost plus wakeup overhead —
// the floor.  More clients raise the mean batch size (one GEMM amortized
// over more requests, higher throughput) while the batching window bounds
// how long a lone request waits for peers: window 0 never waits, larger
// windows trade tail latency for fuller batches.
//
//   $ ./bench_serve [--requests 2000] [--clients-list 1,4,16]
//                   [--wait-list 0,100,400] [--max-batch 32] [--seed 7]
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "policy/drl_policy.hpp"
#include "policy/observation.hpp"
#include "serve/decision_service.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numbers>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace ecthub;

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::size_t> parse_size_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stoul(tok));
  if (out.empty()) throw std::invalid_argument("empty list: " + csv);
  return out;
}

nn::Matrix fake_obs_pool(const policy::ObservationLayout& layout, Rng& rng,
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

struct CellResult {
  double wall_s = 0.0;
  std::uint64_t mismatches = 0;
  serve::ServiceStats stats;
};

// One sweep cell: `clients` closed-loop threads push `requests` total
// requests through a fresh service and every answer is checked against the
// decide_batch oracle on the spot.
CellResult run_cell(const std::shared_ptr<policy::Policy>& policy,
                    const nn::Matrix& obs, const std::vector<std::size_t>& expected,
                    std::size_t clients, std::size_t requests,
                    const serve::ServiceConfig& cfg) {
  serve::DecisionService service(policy, obs.cols(), cfg);
  std::atomic<std::uint64_t> mismatches{0};

  // Warm-up outside the timed window: ticket pool, workspace, matmul scratch.
  for (std::size_t r = 0; r < std::min<std::size_t>(obs.rows(), 2 * cfg.max_batch); ++r) {
    (void)service.decide({obs.data().data() + r * obs.cols(), obs.cols()});
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t share = requests / clients;
      for (std::size_t i = 0; i < share; ++i) {
        const std::size_t r = (t * share + i * 13) % obs.rows();
        const std::size_t action =
            service.decide({obs.data().data() + r * obs.cols(), obs.cols()});
        if (action != expected[r]) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  CellResult cell;
  cell.wall_s = std::chrono::duration<double>(t1 - t0).count();
  cell.mismatches = mismatches.load();
  cell.stats = service.stats();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const std::size_t requests = flags.get_size("requests", 2000);
  const std::size_t max_batch = flags.get_size("max-batch", 32);
  const std::uint64_t seed = flags.get_size("seed", 7);
  const std::vector<std::size_t> clients_list =
      parse_size_list(flags.get_string("clients-list", "1,4,16"));
  const std::vector<std::size_t> wait_list =
      parse_size_list(flags.get_string("wait-list", "0,100,400"));
  flags.check_unknown();

  const policy::ObservationLayout layout;
  nn::Rng drl_rng(seed);
  policy::DrlPolicyConfig drl_cfg;
  drl_cfg.state_dim = layout.dim();
  auto policy = std::make_shared<policy::DrlPolicy>(drl_cfg, drl_rng);

  Rng obs_rng(seed + 1);
  const nn::Matrix obs = fake_obs_pool(layout, obs_rng, 256);
  std::vector<std::size_t> expected(obs.rows(), 0);
  policy->decide_batch(obs, std::span<std::size_t>(expected));

  std::cout << "bench_serve: ECT-DRL decision service, micro-batched decide(obs)\n"
            << "  requests/cell " << requests << ", max_batch " << max_batch
            << ", hardware_concurrency " << std::thread::hardware_concurrency()
            << "\n\n";

  TextTable table({"clients", "wait_us", "req/s", "mean_batch", "full%",
                   "p50_us", "p95_us", "p99_us", "max_us", "bitident"});
  std::uint64_t total_mismatches = 0;
  for (const std::size_t clients : clients_list) {
    for (const std::size_t wait_us : wait_list) {
      serve::ServiceConfig cfg;
      cfg.max_batch = max_batch;
      cfg.max_wait_us = wait_us;
      cfg.now_us = &steady_now_us;
      const CellResult cell = run_cell(policy, obs, expected, clients, requests, cfg);
      total_mismatches += cell.mismatches;
      const auto& s = cell.stats;
      const double full_pct =
          s.flushes > 0 ? 100.0 * static_cast<double>(s.full_batch_flushes) /
                              static_cast<double>(s.flushes)
                        : 0.0;
      table.begin_row()
          .add_int(static_cast<long long>(clients))
          .add_int(static_cast<long long>(wait_us))
          .add_double(static_cast<double>(requests) / cell.wall_s, 0)
          .add_double(s.mean_batch_size, 2)
          .add_double(full_pct, 1)
          .add_double(s.latency_p50_us, 1)
          .add_double(s.latency_p95_us, 1)
          .add_double(s.latency_p99_us, 1)
          .add_double(s.latency_max_us, 1)
          .add(cell.mismatches == 0 ? "ok" : "FAIL");
    }
  }
  table.print(std::cout);

  if (total_mismatches != 0) {
    std::cerr << "\nbench_serve: " << total_mismatches
              << " request(s) diverged from the decide_batch oracle\n";
    return 1;
  }
  std::cout << "\nAll " << (clients_list.size() * wait_list.size())
            << " cells bit-identical to decide_batch.\n";
  return 0;
}
