// Fleet-engine benchmark: multi-hub throughput vs thread count, plus the
// batched-inference payoff of the unified Policy API.
//
// Part 1 runs the same N-hub fleet (cycling through the built-in scenarios)
// at each requested thread count, reports wall time / throughput / speedup,
// and cross-checks that every thread count reproduces the 1-thread per-hub
// profits bit for bit — the determinism contract of the FleetRunner.
//
// Part 2 measures ECT-DRL fleet inference two ways: per-hub execution (one
// matrix-vector actor forward per hub per slot) against lockstep execution
// (one matrix-matrix forward across all hubs per slot), both end-to-end and
// as a pure-inference microbenchmark, again cross-checking bit-identity.
//
// Part 3 sweeps --threads-list over run_lockstep's crew (lockstep_threads):
// each slot's env stepping and row-block inference shard across the
// barrier-synchronized members — thread x batch parallelism on one fleet,
// still bit-identical to the per-hub reference.  The sweep runs the
// rule-policy fleet, where stepping is the entire slot cost.  Wall-clock
// scaling needs real cores — the table prints hardware_concurrency so a
// flat curve on a 1-core box reads as the environment, not a regression.
//
// Part 4 measures training-side throughput: PPO rollout collection over 8
// urban replica lanes, serial per-lane act() against the vectorized lockstep
// collector (one 8-row stochastic GEMM per slot, env stepping sharded across
// the BarrierCrew) at 1/4/8 collector threads.  Per-lane RNG streams make
// every cell's collected buffers bit-comparable to the serial reference.
//
// Part 5 times forked process sharding against the single-process run,
// checking the merged report byte for byte.
//
// Part 6 prices the metro coupling layer: the same spatially generated
// fleet runs uncoupled and coupled (per-slot CouplingBus exchange plus the
// correlated weather/outage fronts), reporting the throughput cost and the
// routed spillover, with the coupled run cross-checked bit-identical across
// crew sizes.
//
//   $ ./bench_fleet [--hubs 64] [--days 4] [--episodes 1]
//                   [--threads-list 1,2,4,8] [--base-seed 7]
//                   [--drl-iters 3] [--inference-reps 200]
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "rl/vec_collector.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/shard_driver.hpp"
#include "sim/shard_io.hpp"
#include "spatial/metro.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

std::vector<std::size_t> parse_thread_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<std::size_t>(std::stoul(item)));
  }
  return out;
}

double now_ms_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

bool results_identical(const std::vector<ecthub::sim::HubRunResult>& a,
                       const std::vector<ecthub::sim::HubRunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].profit != b[i].profit || a[i].revenue != b[i].revenue ||
        a[i].soc.checksum != b[i].soc.checksum ||
        a[i].spill_exported_kwh != b[i].spill_exported_kwh ||
        a[i].spill_served_kwh != b[i].spill_served_kwh) {
      return false;
    }
  }
  return true;
}

bool buffers_identical(const std::vector<ecthub::rl::RolloutBuffer>& a,
                       const std::vector<ecthub::rl::RolloutBuffer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ta = a[i].transitions();
    const auto& tb = b[i].transitions();
    if (ta.size() != tb.size()) return false;
    for (std::size_t k = 0; k < ta.size(); ++k) {
      if (ta[k].state != tb[k].state || ta[k].action != tb[k].action ||
          ta[k].log_prob != tb[k].log_prob || ta[k].reward != tb[k].reward ||
          ta[k].value != tb[k].value || ta[k].done != tb[k].done ||
          ta[k].truncated != tb[k].truncated ||
          ta[k].bootstrap_value != tb[k].bootstrap_value) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const auto require_positive = [&](const char* name, std::size_t def) {
    const std::size_t v = flags.get_size(name, def);
    if (v == 0) {
      std::cerr << "bench_fleet: --" << name << " must be >= 1\n";
      std::exit(1);
    }
    return v;
  };
  const std::size_t hubs = require_positive("hubs", 64);
  const std::size_t days = require_positive("days", 4);
  const std::size_t episodes = require_positive("episodes", 1);
  const std::size_t drl_iters = require_positive("drl-iters", 3);
  const std::size_t inference_reps = require_positive("inference-reps", 200);
  const std::uint64_t base_seed = flags.get_size("base-seed", 7);
  const std::vector<std::size_t> thread_list =
      parse_thread_list(flags.get_string("threads-list", "1,2,4,8"));
  flags.check_unknown();

  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  const std::vector<sim::FleetJob> jobs = sim::make_fleet_jobs(
      registry, registry.keys(), hubs, days, sim::SchedulerKind::kGreedyPrice);

  const std::size_t slots = episodes * days * jobs.front().env.slots_per_day;
  std::cout << "=== Fleet throughput: " << hubs << " hubs x " << slots
            << " slots, base seed " << base_seed << " ===\n";

  const auto timed_run = [&](const std::vector<sim::FleetJob>& fleet_jobs,
                             std::size_t threads, bool lockstep,
                             std::vector<sim::HubRunResult>& out) {
    sim::FleetRunnerConfig cfg;
    cfg.base_seed = base_seed;
    cfg.threads = threads;
    cfg.lockstep_threads = lockstep ? threads : 1;
    cfg.episodes_per_hub = episodes;
    const sim::FleetRunner runner(cfg);
    const auto start = std::chrono::steady_clock::now();
    out = lockstep ? runner.run_lockstep(fleet_jobs) : runner.run(fleet_jobs);
    return now_ms_since(start);
  };

  // The reference is always an explicit 1-thread run — every entry of
  // --threads-list is checked against it, whatever order it lists.
  std::vector<sim::HubRunResult> reference;
  const double serial_ms = timed_run(jobs, 1, false, reference);

  TextTable table({"threads", "wall ms", "hubs/s", "kslots/s", "speedup", "bit-identical"});
  for (const std::size_t threads : thread_list) {
    std::vector<sim::HubRunResult> results;
    const double ms = timed_run(jobs, threads, false, results);
    const bool identical = results_identical(results, reference);
    table.begin_row()
        .add_int(static_cast<long long>(threads))
        .add_double(ms, 1)
        .add_double(static_cast<double>(hubs) * 1000.0 / ms, 1)
        .add_double(static_cast<double>(hubs * slots) / ms, 1)
        .add_double(serial_ms / ms, 2)
        .add(identical ? "yes" : "NO");
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION at " << threads << " threads\n";
      table.print(std::cout);
      return 1;
    }
  }
  table.print(std::cout);

  // --- Part 2: ECT-DRL fleet — per-hub matrix-vector vs lockstep GEMM -----
  std::cout << "\n=== ECT-DRL inference: per-hub (matrix-vector) vs lockstep "
               "(matrix-matrix) ===\n";
  std::cout << "training actor: " << drl_iters << " PPO iteration(s)...\n";
  core::DrlFleetTrainConfig train_cfg;
  train_cfg.env = registry.at("urban").env;
  train_cfg.env.episode_days = days;
  train_cfg.iterations = drl_iters;
  train_cfg.seed = mix_seed(base_seed, 0x5eedULL);
  const auto checkpoint = std::make_shared<policy::DrlCheckpoint>(core::train_drl_checkpoint(
      registry.make_hub("urban", "drl-train", train_cfg.seed), train_cfg));

  const std::vector<sim::FleetJob> drl_jobs = sim::make_fleet_jobs(
      registry, registry.keys(), hubs, days, sim::SchedulerKind::kDrl, checkpoint);

  std::vector<sim::HubRunResult> per_hub, lockstep;
  const double per_hub_ms = timed_run(drl_jobs, 1, false, per_hub);
  const double lockstep_ms = timed_run(drl_jobs, 1, true, lockstep);
  const bool drl_identical = results_identical(per_hub, lockstep);

  TextTable drl_table({"mode", "wall ms", "kslots/s", "speedup", "bit-identical"});
  drl_table.begin_row()
      .add("per-hub serial")
      .add_double(per_hub_ms, 1)
      .add_double(static_cast<double>(hubs * slots) / per_hub_ms, 1)
      .add_double(1.0, 2)
      .add("reference");
  drl_table.begin_row()
      .add("lockstep batched")
      .add_double(lockstep_ms, 1)
      .add_double(static_cast<double>(hubs * slots) / lockstep_ms, 1)
      .add_double(per_hub_ms / lockstep_ms, 2)
      .add(drl_identical ? "yes" : "NO");
  drl_table.print(std::cout);
  if (!drl_identical) {
    std::cerr << "DETERMINISM VIOLATION: lockstep DRL differs from per-hub\n";
    return 1;
  }

  // Pure-inference microbenchmark: the same decisions with the env stepping
  // cost stripped away — the raw matrix-vector vs matrix-matrix gap.
  {
    policy::DrlPolicy actor(*checkpoint);
    const std::size_t dim = checkpoint->config.state_dim;
    nn::Matrix obs(hubs, dim);
    Rng rng(base_seed);
    for (double& x : obs.data()) x = rng.uniform(0.0, 1.5);
    std::vector<std::size_t> scalar_actions(hubs), batch_actions(hubs);

    const auto scalar_start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < inference_reps; ++rep) {
      const double* data = obs.data().data();
      for (std::size_t i = 0; i < hubs; ++i) {
        scalar_actions[i] = actor.decide(std::span<const double>(data + i * dim, dim));
      }
    }
    const double scalar_ms = now_ms_since(scalar_start);

    const auto batch_start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < inference_reps; ++rep) {
      actor.decide_batch(obs, std::span<std::size_t>(batch_actions));
    }
    const double batch_ms = now_ms_since(batch_start);

    if (scalar_actions != batch_actions) {
      std::cerr << "DETERMINISM VIOLATION: decide_batch differs from decide\n";
      return 1;
    }
    const double decisions = static_cast<double>(hubs * inference_reps);
    TextTable micro({"forward", "wall ms", "Mdecisions/s", "speedup"});
    micro.begin_row()
        .add("matrix-vector x hubs")
        .add_double(scalar_ms, 1)
        .add_double(decisions / scalar_ms / 1000.0, 3)
        .add_double(1.0, 2);
    micro.begin_row()
        .add("matrix-matrix batch")
        .add_double(batch_ms, 1)
        .add_double(decisions / batch_ms / 1000.0, 3)
        .add_double(scalar_ms / batch_ms, 2);
    std::cout << "\n--- Pure inference, " << hubs << " hubs x " << inference_reps
              << " reps ---\n";
    micro.print(std::cout);
  }

  // --- Part 3: threaded lockstep — env stepping sharded across the crew ---
  // The heuristic fleet from part 1 in lockstep at each crew size: env
  // stepping (the entire slot cost for rule policies) shards across the
  // barrier-synchronized members.  Every row must reproduce the per-hub
  // reference bit for bit.
  std::cout << "\n=== Threaded lockstep scaling: " << hubs << " hubs, "
            << to_string(jobs.front().scheduler) << " fleet, "
            << std::thread::hardware_concurrency() << " hardware core(s) ===\n";
  std::vector<sim::HubRunResult> lockstep_serial;
  const double lockstep_serial_ms = timed_run(jobs, 1, true, lockstep_serial);
  if (!results_identical(lockstep_serial, reference)) {
    std::cerr << "DETERMINISM VIOLATION: lockstep differs from per-hub\n";
    return 1;
  }
  TextTable scaling({"lockstep threads", "wall ms", "kslots/s", "speedup", "bit-identical"});
  for (const std::size_t threads : thread_list) {
    std::vector<sim::HubRunResult> results;
    const double ms = timed_run(jobs, threads, true, results);
    const bool identical = results_identical(results, reference);
    scaling.begin_row()
        .add_int(static_cast<long long>(threads))
        .add_double(ms, 1)
        .add_double(static_cast<double>(hubs * slots) / ms, 1)
        .add_double(lockstep_serial_ms / ms, 2)
        .add(identical ? "yes" : "NO");
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION at " << threads << " lockstep threads\n";
      scaling.print(std::cout);
      return 1;
    }
  }
  scaling.print(std::cout);

  // --- Part 4: vectorized PPO rollout collection — training throughput ----
  // (Runs before the metro part so a --hubs 1 invocation still reaches it.)
  // Fresh envs per cell: lane episode sequences depend on env-internal RNG
  // state, so every collector gets its own replica fleet and the same
  // collector seed — the buffers must then match the serial run bit for bit.
  {
    constexpr std::size_t kLanes = 8;
    const std::size_t train_eps = std::max<std::size_t>(4, episodes);
    core::HubEnvConfig lane_env = registry.at("urban").env;
    lane_env.episode_days = days;
    const auto make_lane_envs = [&]() {
      std::vector<std::unique_ptr<core::EctHubEnv>> envs;
      envs.reserve(kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        envs.push_back(std::make_unique<core::EctHubEnv>(
            registry.make_hub("urban", "train-" + std::to_string(l),
                              mix_seed(base_seed, l)),
            lane_env));
      }
      return envs;
    };
    const auto as_ptrs = [](const std::vector<std::unique_ptr<core::EctHubEnv>>& envs) {
      std::vector<rl::Env*> out;
      out.reserve(envs.size());
      for (const auto& e : envs) out.push_back(e.get());
      return out;
    };

    std::cout << "\n=== Vectorized rollout collection: " << kLanes << " urban lanes x "
              << train_eps << " episode(s), " << std::thread::hardware_concurrency()
              << " hardware core(s) ===\n";

    const auto probe = make_lane_envs();
    rl::ActorCriticConfig ac_cfg;
    ac_cfg.state_dim = probe.front()->state_dim();
    ac_cfg.action_count = probe.front()->action_count();
    nn::Rng ac_rng(mix_seed(base_seed, 0xac7ULL));
    rl::ActorCritic actor(ac_cfg, ac_rng);
    rl::VecCollectorConfig vec_cfg;
    vec_cfg.seed = mix_seed(base_seed, 0xc011ULL);

    auto serial_envs = make_lane_envs();
    rl::VecRolloutCollector serial_collector(as_ptrs(serial_envs), vec_cfg);
    const auto serial_start = std::chrono::steady_clock::now();
    const rl::VecRolloutCollector::Stats serial_stats =
        serial_collector.collect_serial(actor, train_eps);
    const double serial_collect_ms = now_ms_since(serial_start);

    TextTable train_table(
        {"collector", "wall ms", "ktransitions/s", "speedup", "bit-identical"});
    train_table.begin_row()
        .add("serial per-lane act")
        .add_double(serial_collect_ms, 1)
        .add_double(static_cast<double>(serial_stats.transitions) / serial_collect_ms, 1)
        .add_double(1.0, 2)
        .add("reference");
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      auto lane_envs = make_lane_envs();
      rl::VecCollectorConfig cell_cfg = vec_cfg;
      cell_cfg.threads = threads;
      rl::VecRolloutCollector collector(as_ptrs(lane_envs), cell_cfg);
      const auto start = std::chrono::steady_clock::now();
      const rl::VecRolloutCollector::Stats stats = collector.collect(actor, train_eps);
      const double ms = now_ms_since(start);
      const bool identical =
          stats.transitions == serial_stats.transitions &&
          stats.total_reward == serial_stats.total_reward &&
          buffers_identical(collector.buffers(), serial_collector.buffers());
      train_table.begin_row()
          .add("vectorized x" + std::to_string(threads))
          .add_double(ms, 1)
          .add_double(static_cast<double>(stats.transitions) / ms, 1)
          .add_double(serial_collect_ms / ms, 2)
          .add(identical ? "yes" : "NO");
      if (!identical) {
        std::cerr << "DETERMINISM VIOLATION: vectorized collection at " << threads
                  << " collector thread(s) differs from the serial reference\n";
        train_table.print(std::cout);
        return 1;
      }
    }
    train_table.print(std::cout);
    std::cout << "(env stepping dominates the slot and shards across the crew, so "
                 "speedup > 1.5 at 8 lanes needs real cores — see hardware core "
                 "count above)\n";
  }

  // --- Part 5: process sharding — forked "fleet of fleets" vs one process --
  // The part-1 fleet again, split 1/2/4/8 ways across forked worker
  // processes (one shard file per child, each worker single-threaded so the
  // speedup column shows pure process-level scaling), then merged from the
  // shard files.  The merged report must be BYTE-identical in serialized
  // form to the single-process report, and every per-hub result field-
  // identical — the whole-sweep determinism contract the shard layer rides
  // on.  Runs before the metro part so a --hubs 1 invocation reaches it.
  {
    std::cout << "\n=== Process sharding: forked workers + shard-file merge vs "
                 "single process ===\n";
    const sim::AggregateReport whole_report(reference);
    const std::string whole_bytes = sim::serialize_report(whole_report);
    sim::FleetRunnerConfig shard_cfg;
    shard_cfg.base_seed = base_seed;
    shard_cfg.threads = 1;
    shard_cfg.episodes_per_hub = episodes;
    const sim::ShardDriver driver(shard_cfg);
    TextTable shard_table(
        {"shards", "wall ms", "hubs/s", "speedup", "bit-identical"});
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      std::string tmpl =
          (std::filesystem::temp_directory_path() / "bench_fleet_shards.XXXXXX")
              .string();
      if (::mkdtemp(tmpl.data()) == nullptr) {
        std::cerr << "bench_fleet: cannot create a shard directory\n";
        return 1;
      }
      const std::filesystem::path dir(tmpl);
      const auto start = std::chrono::steady_clock::now();
      const sim::ShardMerge merged = driver.run_forked(jobs, shards, dir);
      const double ms = now_ms_since(start);
      const bool identical =
          results_identical(merged.results, reference) &&
          sim::serialize_report(merged.report) == whole_bytes;
      shard_table.begin_row()
          .add_int(static_cast<long long>(shards))
          .add_double(ms, 1)
          .add_double(static_cast<double>(hubs) * 1000.0 / ms, 1)
          .add_double(serial_ms / ms, 2)
          .add(identical ? "yes" : "NO");
      std::filesystem::remove_all(dir);
      if (!identical) {
        std::cerr << "SHARD IDENTITY VIOLATION at " << shards << " shards\n";
        shard_table.print(std::cout);
        return 1;
      }
    }
    shard_table.print(std::cout);
    std::cout << "(merged AggregateReport compared byte-for-byte in serialized "
                 "form against the single-process run)\n";
  }

  // --- Part 6: metro coupling — coupled vs uncoupled throughput/spillover --
  // The same spatially generated fleet twice: once uncoupled (coupling
  // stripped, the pre-metro hot path) and once coupled (through-traffic,
  // CouplingBus exchange at every slot barrier, correlated fronts).  The
  // delta is the price of the coupling layer; the spillover columns are what
  // it buys.  The coupled run must be bit-identical across crew sizes.
  if (hubs < 2) {
    std::cout << "\n(skipping metro coupling part: needs --hubs >= 2)\n";
    return 0;
  }
  std::cout << "\n=== Metro coupling: " << hubs << " hubs, greedy fleet ===\n";
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = hubs;
  metro_cfg.neighbors_per_hub = std::min<std::size_t>(3, hubs - 1);
  const spatial::MetroMap metro(metro_cfg, base_seed);
  const std::vector<sim::FleetJob> coupled_jobs = sim::make_metro_fleet_jobs(
      metro, registry, registry.keys(), days, sim::SchedulerKind::kGreedyPrice);
  std::vector<sim::FleetJob> uncoupled_jobs = coupled_jobs;
  for (sim::FleetJob& job : uncoupled_jobs) {
    job.env.coupling = core::HubCouplingConfig{};
    job.neighbors.clear();
  }

  std::vector<sim::HubRunResult> coupled_ref, uncoupled_results;
  const double coupled_ms = timed_run(coupled_jobs, 1, true, coupled_ref);
  const double uncoupled_ms = timed_run(uncoupled_jobs, 1, true, uncoupled_results);

  const std::size_t crew = thread_list.empty()
                               ? 1
                               : *std::max_element(thread_list.begin(), thread_list.end());
  std::vector<sim::HubRunResult> coupled_crew;
  const double coupled_crew_ms = timed_run(coupled_jobs, crew, true, coupled_crew);
  if (!results_identical(coupled_crew, coupled_ref)) {
    std::cerr << "DETERMINISM VIOLATION: coupled fleet differs across crew sizes\n";
    return 1;
  }

  const auto spill_totals = [](const std::vector<sim::HubRunResult>& results) {
    double exported = 0.0, served = 0.0;
    std::size_t outages = 0;
    for (const sim::HubRunResult& r : results) {
      exported += r.spill_exported_kwh;
      served += r.spill_served_kwh;
      outages += r.outage_slots;
    }
    return std::tuple<double, double, std::size_t>{exported, served, outages};
  };
  const auto [coupled_out, coupled_in, coupled_outages] = spill_totals(coupled_ref);

  TextTable metro_table({"mode", "wall ms", "kslots/s", "spill-out(kWh)", "spill-in(kWh)",
                         "outage slots", "bit-identical"});
  metro_table.begin_row()
      .add("uncoupled x1")
      .add_double(uncoupled_ms, 1)
      .add_double(static_cast<double>(hubs * slots) / uncoupled_ms, 1)
      .add_double(0.0, 1)
      .add_double(0.0, 1)
      .add_int(0)
      .add("reference");
  metro_table.begin_row()
      .add("coupled x1")
      .add_double(coupled_ms, 1)
      .add_double(static_cast<double>(hubs * slots) / coupled_ms, 1)
      .add_double(coupled_out, 1)
      .add_double(coupled_in, 1)
      .add_int(static_cast<long long>(coupled_outages))
      .add("reference");
  metro_table.begin_row()
      .add("coupled x" + std::to_string(crew))
      .add_double(coupled_crew_ms, 1)
      .add_double(static_cast<double>(hubs * slots) / coupled_crew_ms, 1)
      .add_double(coupled_out, 1)
      .add_double(coupled_in, 1)
      .add_int(static_cast<long long>(coupled_outages))
      .add("yes");
  metro_table.print(std::cout);
  std::cout << "(coupling overhead: " << (coupled_ms / uncoupled_ms - 1.0) * 100.0
            << "% on the serial slot loop)\n";
  return 0;
}
