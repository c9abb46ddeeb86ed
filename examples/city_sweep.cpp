// City sweep: the multi-hub simulation engine end to end.
//
// Instantiates a fleet of hubs across the registered scenarios (all six
// built-ins by default), runs every hub's episodes with per-hub
// deterministic seeding, and prints the per-hub detail plus the
// per-scenario and per-scheduler aggregate tables.
//
// Any scheduler kind can drive the fleet, including the trained ECT-DRL
// actor: with --scheduler drl (or all) a small PPO run trains in process —
// or a checkpoint loads from disk — and the fleet deploys that one actor
// across every hub.  --scheduler all sweeps every kind over the *same*
// hubs and seeds, so the per-scheduler table is a fair Table III-style
// comparison; --lockstep switches to slot-synchronous execution with one
// batched policy call per fleet slot.
//
//   $ ./city_sweep                                  # 6 scenarios x 2 hubs
//   $ ./city_sweep --hubs-per-scenario 8 --threads 8 --scheduler forecast
//   $ ./city_sweep --scenarios urban,price-spike --days 7 --episodes 2
//   $ ./city_sweep --scheduler all --lockstep       # 5 heuristics + ECT-DRL
//   $ ./city_sweep --scheduler drl --lockstep --lockstep-threads 8
//   $ ./city_sweep --scheduler drl --drl-checkpoint actor.ckpt --drl-iters 8
//   $ ./city_sweep --scheduler drl --drl-hubs 8 --drl-threads 4
//   $ ./city_sweep --drl-zoo --drl-hubs 2           # specialist vs generalist
//   $ ./city_sweep --metro 16 --scheduler all       # coupled metro fleet
//   $ ./city_sweep --shard 0/4 --shard-out s0.ecsh  # run shard 0 of 4
//   $ ./city_sweep --merge-shards 's*.ecsh'         # merge shard files
//   $ ./city_sweep --list                           # show the registry
//
// --drl-hubs N trains on N lockstep replica lanes of the training hub (the
// vectorized PPO collector) and --drl-threads T shards collection across T
// crew members (0 = one per CPU it may run on).  The trained weights are
// bit-identical at any T, so the flag is purely a throughput choice.
//
// --drl-zoo trains the per-scenario actor zoo instead of sweeping: one PPO
// specialist per selected scenario plus one generalist trained across all of
// them, then deploys both on a fresh evaluation fleet per scenario and
// prints the specialist-vs-generalist profit table.
//
// --lockstep-threads N shards each lockstep slot — env stepping and the
// batched inference, as row-block GEMMs — across a crew of N members (0 =
// one per CPU it may run on) and implies --lockstep; results are bit-identical
// at any thread count.
//
// Sharded sweeps ("fleet of fleets"): one machine runs the plain sweep on
// its --threads crew.  Several processes or machines each run --shard i/n,
// which runs only the contiguous job range shard i of n owns — with the
// hubs' *global* ids and seeds, so shard membership cannot change any
// trajectory — and writes one shard file (--shard-out).  --merge-shards
// <glob> folds the files back into the tables the plain sweep prints, equal
// to them for the same seed.  Sharding needs a single --scheduler (not
// 'all') and an uncoupled fleet (no --metro): the CouplingBus exchange
// spans the whole fleet every slot.
//
// A path exits 1 on a flag it would ignore, naming it: --merge-shards takes
// no other flag, --drl-zoo takes none of --scheduler, --metro, --lockstep,
// --lockstep-threads, --drl-checkpoint, --shard and --shard-out, and
// --shard (which always runs the per-hub path) takes neither --lockstep nor
// --lockstep-threads.
//
// --metro N replaces the i.i.d. hub bag with a spatially generated metro of
// N hubs (MetroMap seeded from --base-seed): sites derive from base-station
// density on a synthetic road network, demand spills between road-graph
// neighbors at every slot barrier, and weather/outage fronts are correlated
// across the metro.  Coupled fleets are lockstep-only, so --metro implies
// --lockstep; results stay bit-identical at any --lockstep-threads.
#include "common/binio.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "policy/drl_policy.hpp"
#include "sim/drl_zoo.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "sim/shard_io.hpp"
#include "spatial/metro.hpp"

#include <glob.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Loads the checkpoint from `path` when it exists; otherwise trains a fresh
// actor on the first scenario's hub and (when a path was given) saves it.
// A file that exists but does not load throws, before any hub runs.
std::shared_ptr<const ecthub::policy::DrlCheckpoint> obtain_drl_checkpoint(
    const ecthub::sim::ScenarioRegistry& registry, const std::string& scenario_key,
    std::size_t days, std::size_t iterations, std::size_t train_hubs,
    std::size_t collector_threads, std::uint64_t base_seed, const std::string& path) {
  using namespace ecthub;
  if (!path.empty() && std::filesystem::exists(path)) {
    std::cout << "loading ECT-DRL checkpoint from " << path << "\n";
    auto ckpt = std::make_shared<policy::DrlCheckpoint>(
        policy::DrlCheckpoint::parse(binio::read_file(path)));
    (void)policy::DrlPolicy(*ckpt);  // widths and blob checked up front
    return ckpt;
  }
  const sim::Scenario& scenario = registry.at(scenario_key);
  core::DrlFleetTrainConfig train_cfg;
  train_cfg.env = scenario.env;
  train_cfg.env.episode_days = days;
  train_cfg.iterations = iterations;
  train_cfg.train_hubs = train_hubs;
  train_cfg.collector_threads = collector_threads;
  train_cfg.seed = mix_seed(base_seed, 0x5eedULL);
  const core::HubConfig train_hub =
      scenario.make_hub(scenario_key + "-drl-train", train_cfg.seed);
  std::cout << "training ECT-DRL in process: " << iterations << " PPO iteration(s) on '"
            << scenario_key << "' (" << train_hubs << " lockstep lane(s), " << days
            << " day episodes)...\n";
  auto ckpt = std::make_shared<policy::DrlCheckpoint>(
      core::train_drl_checkpoint(train_hub, train_cfg));
  if (!path.empty()) {
    try {
      binio::write_file(path, ckpt->serialize());
      std::cout << "saved checkpoint to " << path << "\n";
    } catch (const binio::Error& e) {
      std::cerr << "city_sweep: " << e.what() << "; continuing without saving\n";
    }
  }
  return ckpt;
}

// Parses "i/n" (e.g. "0/4") into shard coordinates via the strict
// sim::parse_shard_spec (full-token digits, exactly one '/'); exits on
// nonsense like "1/4abc" or "0x1/4" instead of silently truncating.
std::pair<std::size_t, std::size_t> parse_shard_spec(const std::string& spec) {
  try {
    return ecthub::sim::parse_shard_spec(spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "city_sweep: --shard " << e.what() << "\n";
    std::exit(1);
  }
}

std::vector<std::filesystem::path> expand_glob(const std::string& pattern) {
  ::glob_t matches{};
  const int rc = ::glob(pattern.c_str(), 0, nullptr, &matches);
  std::vector<std::filesystem::path> paths;
  if (rc == 0) {
    paths.assign(matches.gl_pathv, matches.gl_pathv + matches.gl_pathc);
  }
  ::globfree(&matches);
  if (rc != 0 && rc != GLOB_NOMATCH) {
    std::cerr << "city_sweep: glob('" << pattern << "') failed\n";
    std::exit(1);
  }
  return paths;
}

void print_fleet_report(const std::vector<ecthub::sim::HubRunResult>& results,
                        const ecthub::sim::AggregateReport& report) {
  ecthub::sim::per_hub_table(results).print(std::cout);
  std::cout << "\n--- Aggregate by scenario ---\n";
  report.scenario_table().print(std::cout);
  std::cout << "\n--- Aggregate by scheduler ---\n";
  report.scheduler_table().print(std::cout);
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  const bool list_mode = flags.get_bool("list");

  const std::size_t hubs_per_scenario = flags.get_count("hubs-per-scenario", 2);
  const std::size_t days = flags.get_count("days", 7);
  const std::size_t episodes = flags.get_count("episodes", 1);
  const std::size_t drl_iters = flags.get_count("drl-iters", 4);
  const std::size_t drl_hubs = flags.get_count("drl-hubs", 1);
  const std::size_t drl_threads = flags.get_size("drl-threads", 1);  // 0 = one per CPU
  const std::size_t threads = flags.get_size("threads", 0);  // 0 = one per CPU
  const std::uint64_t base_seed = flags.get_size("base-seed", 7);
  const bool metro_mode = flags.has("metro");
  const std::size_t metro_hubs = metro_mode ? flags.get_count("metro", 0) : 0;
  if (metro_mode && metro_hubs < 2) {
    std::cerr << "city_sweep: --metro needs at least 2 hubs\n";
    return 1;
  }
  // An explicit --lockstep-threads would be silently ignored by the per-hub
  // path, so it implies --lockstep; a coupled metro *requires* lockstep.
  const bool lockstep =
      flags.get_bool("lockstep") || flags.has("lockstep-threads") || metro_mode;
  const std::size_t lockstep_threads =
      flags.get_size("lockstep-threads", 1);  // 0 = one per CPU

  const std::string scheduler_arg = flags.get_string("scheduler", "tou");
  std::vector<sim::SchedulerKind> kinds;
  if (scheduler_arg == "all") {
    kinds = sim::all_scheduler_kinds();
  } else {
    kinds.push_back(sim::scheduler_kind_from_string(scheduler_arg));
  }

  std::vector<std::string> scenario_keys = registry.keys();
  if (flags.has("scenarios")) scenario_keys = split_csv(flags.get_string("scenarios", ""));
  if (scenario_keys.empty()) {
    std::cerr << "city_sweep: --scenarios selected no scenarios\n";
    return 1;
  }

  // The late paths' flags, hoisted so every read precedes check_unknown():
  // a typo'd flag fails loudly up front instead of silently running defaults.
  const bool merge_mode = flags.has("merge-shards");
  const std::string merge_pattern = flags.get_string("merge-shards", "");
  const bool zoo_mode = flags.get_bool("drl-zoo");
  const std::string checkpoint_path = flags.get_string("drl-checkpoint", "");
  const bool shard_run = flags.has("shard");
  const std::string shard_spec_arg = flags.get_string("shard", "");
  const bool shard_out_given = flags.has("shard-out");
  const std::string shard_out = flags.get_string("shard-out", "");
  flags.check_unknown();

  // A flag the chosen path would ignore, or a sweep a shard cannot split,
  // fails loud before anything trains or runs.  --merge-shards reads only
  // its glob, --drl-zoo trains its own actors and evaluates them per hub,
  // and a shard always runs the per-hub path.
  const auto first_given = [&](std::initializer_list<const char*> names) -> const char* {
    for (const char* name : names) {
      if (flags.has(name)) return name;
    }
    return nullptr;
  };
  const char* mode = merge_mode ? "--merge-shards" : zoo_mode ? "--drl-zoo" : "--shard";
  const char* ignored =
      merge_mode ? first_given({"shard", "shard-out", "list", "hubs-per-scenario", "days",
                                "episodes", "drl-iters", "drl-hubs", "drl-threads", "threads",
                                "base-seed", "metro", "lockstep", "lockstep-threads",
                                "scheduler", "scenarios", "drl-zoo", "drl-checkpoint"})
      : zoo_mode ? first_given({"scheduler", "metro", "lockstep", "lockstep-threads",
                                "drl-checkpoint", "shard", "shard-out"})
      : shard_run ? first_given({"lockstep", "lockstep-threads"})
                  : nullptr;
  std::string misuse;
  if (ignored != nullptr) {
    misuse = std::string(mode) + " cannot take --" + ignored;
  } else if (shard_out_given && !shard_run) {
    misuse = "--shard-out needs --shard";
  } else if (shard_run && shard_out.empty()) {
    misuse = "--shard requires --shard-out <path>";
  } else if (shard_run && metro_mode) {
    misuse = "--shard cannot split a coupled metro fleet (the CouplingBus exchange spans "
             "every hub each slot)";
  } else if (shard_run && kinds.size() != 1) {
    misuse = "--shard needs a single --scheduler, not 'all'";
  }
  if (!misuse.empty()) {
    std::cerr << "city_sweep: " << misuse << "\n";
    return 1;
  }
  const auto [shard_index, shard_count] =
      shard_run ? parse_shard_spec(shard_spec_arg) : std::pair<std::size_t, std::size_t>{0, 1};

  if (list_mode) {
    TextTable table({"scenario", "summary"});
    for (const std::string& key : registry.keys()) {
      table.begin_row().add(key).add(registry.at(key).summary);
    }
    table.print(std::cout);
    return 0;
  }

  // Merge pre-existing shard files (possibly produced on other machines):
  // pure aggregation, no simulation runs here.
  if (merge_mode) {
    const std::string& pattern = merge_pattern;
    const std::vector<std::filesystem::path> paths = expand_glob(pattern);
    if (paths.empty()) {
      std::cerr << "city_sweep: --merge-shards '" << pattern
                << "' matched no shard files\n";
      return 1;
    }
    try {
      const sim::ShardData merged = sim::merge_shard_files(paths);
      std::cout << "=== Merged " << paths.size() << " shard file(s): "
                << merged.results.size() << " hubs ===\n\n";
      print_fleet_report(merged.results, merged.report);
    } catch (const std::exception& e) {
      std::cerr << "city_sweep: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (zoo_mode) {
    core::DrlFleetTrainConfig zoo_cfg;
    zoo_cfg.env.episode_days = days;
    zoo_cfg.iterations = drl_iters;
    zoo_cfg.train_hubs = drl_hubs;
    zoo_cfg.collector_threads = drl_threads;
    zoo_cfg.seed = mix_seed(base_seed, 0x5eedULL);
    std::cout << "=== Actor zoo: " << scenario_keys.size() << " scenario(s), "
              << drl_iters << " PPO iteration(s), " << drl_hubs
              << " lane(s) per specialist ===\n";
    const sim::ActorZoo zoo = sim::train_actor_zoo(registry, scenario_keys, zoo_cfg);

    sim::FleetRunnerConfig eval_cfg;
    eval_cfg.base_seed = base_seed;
    eval_cfg.threads = threads;
    eval_cfg.episodes_per_hub = episodes;
    const sim::FleetRunner eval_runner(eval_cfg);

    // Deploy both actors on the *same* fresh evaluation fleet per scenario
    // (identical hubs, seeds and episodes) so the edge column is fair.
    const auto profit_per_hub_day =
        [&](const std::string& key, const policy::DrlCheckpoint& ckpt) {
          const std::vector<std::string> expanded(hubs_per_scenario, key);
          const auto ckpt_ptr = std::make_shared<policy::DrlCheckpoint>(ckpt);
          const std::vector<sim::FleetJob> jobs =
              sim::make_fleet_jobs(registry, expanded, expanded.size(), days,
                                   sim::SchedulerKind::kDrl, ckpt_ptr);
          double profit = 0.0;
          for (const sim::HubRunResult& r : eval_runner.run(jobs)) profit += r.profit;
          return profit / static_cast<double>(hubs_per_scenario * episodes * days);
        };

    TextTable table({"scenario", "specialist $/hub-day", "generalist $/hub-day",
                     "specialist edge"});
    for (const std::string& key : zoo.keys) {
      const double spec = profit_per_hub_day(key, zoo.specialists.at(key));
      const double gen = profit_per_hub_day(key, zoo.generalist);
      const double denom = std::abs(gen) > 1e-9 ? std::abs(gen) : 1.0;
      std::ostringstream edge;
      edge.setf(std::ios::fixed);
      edge.precision(1);
      edge << ((spec - gen) / denom * 100.0) << " %";
      table.begin_row().add(key).add_double(spec).add_double(gen).add(edge.str());
    }
    std::cout << "\n--- Specialist vs generalist ("
              << hubs_per_scenario << " eval hub(s)/scenario, " << episodes
              << " episode(s) x " << days << " day(s)) ---\n";
    table.print(std::cout);
    return 0;
  }

  // The trained actor deployed fleet-wide whenever a kDrl sweep runs.
  std::shared_ptr<const policy::DrlCheckpoint> checkpoint;
  if (std::find(kinds.begin(), kinds.end(), sim::SchedulerKind::kDrl) != kinds.end()) {
    try {
      checkpoint = obtain_drl_checkpoint(registry, scenario_keys.front(), days, drl_iters,
                                         drl_hubs, drl_threads, base_seed,
                                         checkpoint_path);
    } catch (const std::exception& e) {
      std::cerr << "city_sweep: " << e.what() << "\n";
      return 1;
    }
  }

  // One job per (scenario, replica), grouped by scenario: hub ids are
  // assigned by job order, and the runner derives every hub's seed from
  // (base_seed, hub_id).  Each scheduler kind sweeps the *same* job list —
  // identical hubs, seeds and episodes — so kinds are directly comparable.
  std::vector<std::string> expanded;
  expanded.reserve(scenario_keys.size() * hubs_per_scenario);
  for (const std::string& key : scenario_keys) {
    expanded.insert(expanded.end(), hubs_per_scenario, key);
  }

  // Metro mode: a spatially generated coupled fleet instead of the i.i.d.
  // bag.  The map is a pure function of (config, base_seed), so reruns are
  // bit-reproducible, and every scheduler kind sweeps the same metro.
  std::optional<spatial::MetroMap> metro;
  if (metro_mode) {
    spatial::MetroConfig metro_cfg;
    metro_cfg.num_hubs = metro_hubs;
    metro_cfg.neighbors_per_hub = std::min<std::size_t>(3, metro_hubs - 1);
    metro.emplace(metro_cfg, base_seed);
  }

  sim::FleetRunnerConfig runner_cfg;
  runner_cfg.base_seed = base_seed;
  runner_cfg.threads = threads;
  runner_cfg.lockstep_threads = lockstep_threads;
  runner_cfg.episodes_per_hub = episodes;

  // ---- one shard of a sharded sweep ("fleet of fleets") --------------------
  if (shard_run) {
    const std::vector<sim::FleetJob> jobs = sim::make_fleet_jobs(
        registry, expanded, expanded.size(), days, kinds.front(), checkpoint);
    try {
      const sim::ShardData shard = sim::run_shard(jobs, shard_index, shard_count, runner_cfg);
      sim::save_shard(shard_out, shard);
      std::cout << "shard " << shard_index << "/" << shard_count << ": hubs ["
                << shard.plan.begin << ", " << shard.plan.end << ") of "
                << shard.plan.job_count << " -> " << shard_out << "\n";
    } catch (const std::exception& e) {
      std::cerr << "city_sweep: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  const sim::FleetRunner runner(runner_cfg);
  const std::size_t fleet_size = metro ? metro->hubs().size() : expanded.size();
  std::cout << "=== City sweep: " << fleet_size << " hubs, " << scenario_keys.size()
            << " scenarios, " << episodes << " episode(s) x " << days
            << " day(s), scheduler=" << scheduler_arg;
  if (metro) std::cout << ", metro-coupled";
  if (lockstep) {
    std::cout << ", lockstep-batched ("
              << (lockstep_threads == 0 ? std::string("hw")
                                        : std::to_string(lockstep_threads))
              << " thread(s))";
  }
  std::cout << " ===\n\n";

  if (metro) {
    std::size_t urban = 0;
    for (const spatial::MetroHub& h : metro->hubs()) urban += h.urban ? 1 : 0;
    std::cout << "metro: " << metro->hubs().size() << " hubs (" << urban << " urban, "
              << (metro->hubs().size() - urban) << " rural), "
              << metro->config().neighbors_per_hub << " neighbors/hub over "
              << metro->roads().total_length() << " km of roads, seed " << base_seed
              << ", checksum " << metro->checksum() << "\n\n";
  }

  std::vector<sim::HubRunResult> results;
  for (const sim::SchedulerKind kind : kinds) {
    const std::shared_ptr<const policy::DrlCheckpoint> kind_ckpt =
        kind == sim::SchedulerKind::kDrl ? checkpoint : nullptr;
    const std::vector<sim::FleetJob> jobs =
        metro ? sim::make_metro_fleet_jobs(*metro, registry, scenario_keys, days, kind,
                                           kind_ckpt)
              : sim::make_fleet_jobs(registry, expanded, expanded.size(), days, kind,
                                     kind_ckpt);
    std::vector<sim::HubRunResult> batch =
        lockstep ? runner.run_lockstep(jobs) : runner.run(jobs);
    results.insert(results.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }

  const sim::AggregateReport report(results);
  print_fleet_report(results, report);

  if (metro) {
    const sim::GroupStats totals = report.totals();
    std::cout << "\n--- Metro coupling ---\n"
              << "through-traffic demand: " << totals.through_kwh << " kWh\n"
              << "spillover routed to neighbors: " << totals.spill_exported_kwh << " kWh\n"
              << "spillover served by neighbors: " << totals.spill_served_kwh << " kWh\n"
              << "spillover dropped (one-hop bound): " << totals.spill_dropped_kwh << " kWh\n"
              << "front outage slots endured: " << totals.outage_slots << "\n";
  }
  return 0;
}

int main(int argc, char** argv) { return ecthub::cli_main(argc, argv, run); }
