// Tests for the multi-hub simulation engine: the scenario registry, the
// per-scenario golden corpus, the deterministic per-hub seeding, the policy
// factory, the parallel fleet runner and its lockstep-batched twin (the
// bit-identity contract every future sharding/batching PR depends on), and
// the aggregate report arithmetic.
#include "common/binio.hpp"
#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "sim/coupling.hpp"
#include "sim/drl_zoo.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "spatial/metro.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace ecthub::sim {
namespace {

// Builds `n` small jobs cycling through the built-in scenarios.
std::vector<FleetJob> make_jobs(std::size_t n, std::size_t days = 2,
                                SchedulerKind sched = SchedulerKind::kGreedyPrice) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  return make_fleet_jobs(registry, registry.keys(), n, days, sched);
}

// A small randomly-initialized actor checkpoint matching the default hub
// observation layout — training is irrelevant for execution-path identity.
std::shared_ptr<const policy::DrlCheckpoint> tiny_checkpoint(std::size_t state_dim = 0) {
  nn::Rng rng(123);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = state_dim == 0 ? policy::ObservationLayout{}.dim() : state_dim;
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  policy::DrlPolicy actor(cfg, rng);
  return std::make_shared<policy::DrlCheckpoint>(actor.checkpoint());
}

std::vector<HubRunResult> run_fleet(const std::vector<FleetJob>& jobs, std::size_t threads,
                                    std::uint64_t base_seed = 7,
                                    std::size_t episodes = 1) {
  FleetRunnerConfig cfg;
  cfg.base_seed = base_seed;
  cfg.threads = threads;
  cfg.episodes_per_hub = episodes;
  return FleetRunner(cfg).run(jobs);
}

// ------------------------------------------------------------ registry

TEST(ScenarioRegistry, HasAllSixBuiltins) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  EXPECT_EQ(reg.size(), 6u);
  for (const char* key : {"urban", "rural", "high-renewables", "blackout-prone",
                          "price-spike", "heatwave"}) {
    EXPECT_TRUE(reg.contains(key)) << key;
    EXPECT_FALSE(reg.at(key).summary.empty());
  }
  EXPECT_EQ(reg.keys(), builtin_scenario_keys());
}

TEST(ScenarioRegistry, UnknownKeyThrows) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  EXPECT_FALSE(reg.contains("atlantis"));
  EXPECT_THROW((void)reg.at("atlantis"), std::out_of_range);
  EXPECT_THROW((void)reg.make_hub("atlantis", "h", 1), std::out_of_range);
}

TEST(ScenarioRegistry, RejectsDuplicatesAndBadScenarios) {
  ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  Scenario dup;
  dup.key = "urban";
  dup.make_hub = [](const std::string& name, std::uint64_t seed) {
    return core::HubConfig::urban(name, seed);
  };
  EXPECT_THROW(reg.add(dup), std::invalid_argument);
  Scenario unnamed;
  unnamed.make_hub = dup.make_hub;
  EXPECT_THROW(reg.add(unnamed), std::invalid_argument);
  Scenario no_factory;
  no_factory.key = "ghost";
  EXPECT_THROW(reg.add(no_factory), std::invalid_argument);
}

TEST(ScenarioRegistry, FactoriesAreDeterministic) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  for (const std::string& key : reg.keys()) {
    const core::HubConfig a = reg.make_hub(key, "h", 123);
    const core::HubConfig b = reg.make_hub(key, "h", 123);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.battery.capacity_kwh, b.battery.capacity_kwh);
    EXPECT_EQ(a.rtp.spike_prob, b.rtp.spike_prob);
    EXPECT_EQ(a.recovery_hours, b.recovery_hours);
  }
}

TEST(ScenarioRegistry, PresetsDifferWhereItMatters) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  EXPECT_GT(reg.make_hub("price-spike", "h", 1).rtp.spike_prob,
            reg.make_hub("urban", "h", 1).rtp.spike_prob);
  EXPECT_GT(reg.make_hub("blackout-prone", "h", 1).recovery_hours,
            reg.make_hub("urban", "h", 1).recovery_hours);
  EXPECT_GT(reg.make_hub("heatwave", "h", 1).weather.mean_temperature_c,
            reg.make_hub("urban", "h", 1).weather.mean_temperature_c);
  EXPECT_GT(reg.make_hub("high-renewables", "h", 1).battery.capacity_kwh,
            reg.make_hub("rural", "h", 1).battery.capacity_kwh);
}

// ------------------------------------------------------------ golden corpus

// Golden checksums for every built-in scenario preset: hub "golden", seed
// 4242, one 2-day episode under the scenario's own discount schedule.  If
// any value changes, the preset or the episode generators drifted — every
// stored sweep comparison and figure changes with it.  Regenerate
// deliberately (print the sums at %.17g) or fix the drift.
struct GoldenScenario {
  const char* key;
  double rtp_sum;
  double srtp_sum;
  double renewable_sum;
  double bs_sum;
  double cs_sum;
  double soc0;
};

TEST(ScenarioGolden, FixedSeedPinsEveryPreset) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const GoldenScenario golden[] = {
      {"blackout-prone", 4293.1334589462303, 7942.296899050526, 50.608294258038789,
       106.54735138418731, 86.400000000000006, 0.6064111238575508},
      {"heatwave", 4297.7923237537943, 7536.1285334034983, 67.30046048118426,
       130.61853301092128, 108.00000000000003, 0.6064111238575508},
      {"high-renewables", 4299.2270506618033, 7953.5700437243368, 572.23862631167765,
       107.15671055574462, 110.0, 0.6064111238575508},
      {"price-spike", 5545.6635025026217, 9993.009549355027, 46.842754156405775,
       106.54735138418731, 86.400000000000006, 0.6064111238575508},
      {"rural", 4299.2270506618033, 7953.5700437243368, 233.22526619603875,
       107.15671055574462, 110.0, 0.6064111238575508},
      {"urban", 4293.1334589462303, 7527.5096335095041, 46.842754156405775,
       106.54735138418731, 108.00000000000003, 0.6064111238575508},
  };
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  ASSERT_EQ(std::size(golden), reg.size());
  for (const GoldenScenario& g : golden) {
    const Scenario& scenario = reg.at(g.key);
    core::HubEnvConfig env_cfg = scenario.env;
    env_cfg.episode_days = 2;
    core::EctHubEnv env(reg.make_hub(g.key, "golden", 4242), env_cfg);
    std::vector<double> state(env.state_dim());
    env.reset_into(state);
    ASSERT_EQ(env.slots_per_episode(), 48u) << g.key;
    double rtp = 0.0, srtp = 0.0;
    for (std::size_t t = 0; t < 48; ++t) {
      rtp += env.rtp_at(t);
      srtp += env.srtp_at(t);
    }
    EXPECT_DOUBLE_EQ(rtp, g.rtp_sum) << g.key;
    EXPECT_DOUBLE_EQ(srtp, g.srtp_sum) << g.key;
    EXPECT_DOUBLE_EQ(sum(env.renewable_series()), g.renewable_sum) << g.key;
    EXPECT_DOUBLE_EQ(sum(env.bs_power_series()), g.bs_sum) << g.key;
    EXPECT_DOUBLE_EQ(sum(env.cs_power_series()), g.cs_sum) << g.key;
    EXPECT_DOUBLE_EQ(env.soc_frac(), g.soc0) << g.key;
  }
}

// ------------------------------------------------------------ seeding

TEST(MixSeed, DistinctAcrossHubsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 1000; ++id) seen.insert(mix_seed(7, id));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across the fleet
  EXPECT_NE(mix_seed(7, 0), mix_seed(8, 0));
  EXPECT_EQ(mix_seed(7, 3), mix_seed(7, 3));
}

// ------------------------------------------------------------ policy factory

TEST(PolicyFactory, NamesRoundTripForEveryKind) {
  const auto ckpt = tiny_checkpoint();
  EXPECT_EQ(all_scheduler_kinds().size(), 6u);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    EXPECT_EQ(scheduler_kind_from_string(to_string(kind)), kind);
    const auto pol = make_policy(kind, 42, policy::ObservationLayout{},
                                 kind == SchedulerKind::kDrl ? ckpt : nullptr);
    ASSERT_NE(pol, nullptr);
    EXPECT_FALSE(pol->name().empty());
  }
  EXPECT_THROW((void)scheduler_kind_from_string("ppo2"), std::invalid_argument);
}

TEST(PolicyFactory, ParseIsCaseInsensitive) {
  EXPECT_EQ(scheduler_kind_from_string("TOU"), SchedulerKind::kTou);
  EXPECT_EQ(scheduler_kind_from_string("Drl"), SchedulerKind::kDrl);
  EXPECT_EQ(scheduler_kind_from_string("GREEDY"), SchedulerKind::kGreedyPrice);
  EXPECT_EQ(scheduler_kind_from_string("ForeCast"), SchedulerKind::kForecast);
  EXPECT_EQ(scheduler_kind_from_string("NONE"), SchedulerKind::kNoBattery);
  EXPECT_EQ(scheduler_kind_from_string("Random"), SchedulerKind::kRandom);
}

TEST(PolicyFactory, ParseErrorListsEveryValidName) {
  try {
    (void)scheduler_kind_from_string("atlantis");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("atlantis"), std::string::npos);
    for (const SchedulerKind kind : all_scheduler_kinds()) {
      EXPECT_NE(msg.find(to_string(kind)), std::string::npos) << to_string(kind);
    }
  }
}

TEST(PolicyFactory, DrlRequiresMatchingCheckpoint) {
  const policy::ObservationLayout layout;  // dim 33
  EXPECT_THROW((void)make_policy(SchedulerKind::kDrl, 1, layout, nullptr),
               std::invalid_argument);
  // A checkpoint trained for a different observation shape must be rejected.
  const auto mismatched = tiny_checkpoint(policy::ObservationLayout{3}.dim());
  EXPECT_THROW((void)make_policy(SchedulerKind::kDrl, 1, layout, mismatched),
               std::invalid_argument);
  EXPECT_NE(make_policy(SchedulerKind::kDrl, 1, layout, tiny_checkpoint()), nullptr);
}

TEST(FleetJobs, MakeFleetJobsCyclesScenarios) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto jobs = make_fleet_jobs(reg, {"urban", "rural"}, 5, 3, SchedulerKind::kTou);
  ASSERT_EQ(jobs.size(), 5u);
  EXPECT_EQ(jobs[0].scenario, "urban");
  EXPECT_EQ(jobs[1].scenario, "rural");
  EXPECT_EQ(jobs[4].scenario, "urban");
  EXPECT_EQ(jobs[2].env.episode_days, 3u);
  EXPECT_EQ(jobs[3].hub.name, "rural-3");
  EXPECT_EQ(jobs[3].scheduler, SchedulerKind::kTou);
  EXPECT_THROW((void)make_fleet_jobs(reg, {}, 2, 3, SchedulerKind::kTou),
               std::invalid_argument);
  EXPECT_THROW((void)make_fleet_jobs(reg, {"atlantis"}, 1, 3, SchedulerKind::kTou),
               std::out_of_range);
}

TEST(FleetJobs, CheckpointIsAttachedToEveryJob) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  const auto jobs = make_fleet_jobs(reg, {"urban"}, 3, 2, SchedulerKind::kDrl, ckpt);
  for (const FleetJob& job : jobs) {
    EXPECT_EQ(job.scheduler, SchedulerKind::kDrl);
    EXPECT_EQ(job.checkpoint.get(), ckpt.get());
  }
}

// ------------------------------------------------------------ fleet runner

TEST(FleetRunner, ParallelRunIsBitIdenticalToSerial) {
  // The acceptance criterion: 32 hubs, 8 threads vs 1 thread, every per-hub
  // ledger total equal to the last bit.
  const std::vector<FleetJob> jobs = make_jobs(32);
  const auto serial = run_fleet(jobs, 1);
  const auto parallel = run_fleet(jobs, 8);
  ASSERT_EQ(serial.size(), 32u);
  ASSERT_EQ(parallel.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(serial[i].hub_id, i);
    EXPECT_EQ(parallel[i].seed, serial[i].seed);
    EXPECT_EQ(parallel[i].profit, serial[i].profit) << "hub " << i;
    EXPECT_EQ(parallel[i].revenue, serial[i].revenue) << "hub " << i;
    EXPECT_EQ(parallel[i].grid_cost, serial[i].grid_cost) << "hub " << i;
    EXPECT_EQ(parallel[i].bp_cost, serial[i].bp_cost) << "hub " << i;
    EXPECT_EQ(parallel[i].soc.checksum, serial[i].soc.checksum) << "hub " << i;
    EXPECT_EQ(parallel[i].episode_profit, serial[i].episode_profit) << "hub " << i;
  }
}

TEST(FleetRunner, RerunWithSameBaseSeedReproducesExactly) {
  // Same base seed, different thread counts, repeated runs: identical.
  const std::vector<FleetJob> jobs = make_jobs(32);
  const auto first = run_fleet(jobs, 8);
  const auto again = run_fleet(jobs, 8);
  const auto odd_threads = run_fleet(jobs, 3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(first[i].profit, again[i].profit) << "hub " << i;
    EXPECT_EQ(first[i].profit, odd_threads[i].profit) << "hub " << i;
    EXPECT_EQ(first[i].soc.checksum, again[i].soc.checksum) << "hub " << i;
    EXPECT_EQ(first[i].soc.checksum, odd_threads[i].soc.checksum) << "hub " << i;
  }
}

TEST(FleetRunner, BaseSeedChangesResults) {
  const std::vector<FleetJob> jobs = make_jobs(4);
  const auto a = run_fleet(jobs, 2, 7);
  const auto b = run_fleet(jobs, 2, 8);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NE(a[i].seed, b[i].seed);
    if (a[i].profit != b[i].profit) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FleetRunner, HubsHaveIndependentStreams) {
  // Two replicas of the same scenario must see different stochastic draws
  // (distinct mixed seeds), not a shared or duplicated stream.
  std::vector<FleetJob> jobs = make_jobs(2);
  jobs[1] = jobs[0];
  const auto results = run_fleet(jobs, 2);
  EXPECT_NE(results[0].seed, results[1].seed);
  EXPECT_NE(results[0].profit, results[1].profit);
}

TEST(FleetRunner, MultiEpisodeAccounting) {
  const std::vector<FleetJob> jobs = make_jobs(2);
  const auto results = run_fleet(jobs, 2, 7, 3);
  for (const HubRunResult& r : results) {
    EXPECT_EQ(r.episodes, 3u);
    ASSERT_EQ(r.episode_profit.size(), 3u);
    double sum = 0.0;
    for (const double p : r.episode_profit) sum += p;
    EXPECT_DOUBLE_EQ(sum, r.profit);
    EXPECT_EQ(r.soc.samples, r.slots_per_episode);
    EXPECT_GE(r.soc.min, 0.0);
    EXPECT_LE(r.soc.max, 1.0);
    EXPECT_GE(r.soc.mean, r.soc.min);
    EXPECT_LE(r.soc.mean, r.soc.max);
  }
}

TEST(FleetRunner, EmptyJobListAndBadConfig) {
  FleetRunnerConfig cfg;
  EXPECT_TRUE(FleetRunner(cfg).run({}).empty());
  cfg.episodes_per_hub = 0;
  EXPECT_THROW(FleetRunner{cfg}, std::invalid_argument);
}

// ------------------------------------------------------------ lockstep

void expect_results_bit_identical(const std::vector<HubRunResult>& a,
                                  const std::vector<HubRunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hub_id, b[i].hub_id);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].scheduler, b[i].scheduler);
    EXPECT_EQ(a[i].profit, b[i].profit) << "hub " << i;
    EXPECT_EQ(a[i].revenue, b[i].revenue) << "hub " << i;
    EXPECT_EQ(a[i].grid_cost, b[i].grid_cost) << "hub " << i;
    EXPECT_EQ(a[i].bp_cost, b[i].bp_cost) << "hub " << i;
    EXPECT_EQ(a[i].episode_profit, b[i].episode_profit) << "hub " << i;
    EXPECT_EQ(a[i].soc.first, b[i].soc.first) << "hub " << i;
    EXPECT_EQ(a[i].soc.last, b[i].soc.last) << "hub " << i;
    EXPECT_EQ(a[i].soc.checksum, b[i].soc.checksum) << "hub " << i;
    EXPECT_EQ(a[i].soc.samples, b[i].soc.samples) << "hub " << i;
    EXPECT_EQ(a[i].through_kwh, b[i].through_kwh) << "hub " << i;
    EXPECT_EQ(a[i].spill_exported_kwh, b[i].spill_exported_kwh) << "hub " << i;
    EXPECT_EQ(a[i].spill_served_kwh, b[i].spill_served_kwh) << "hub " << i;
    EXPECT_EQ(a[i].spill_dropped_kwh, b[i].spill_dropped_kwh) << "hub " << i;
    EXPECT_EQ(a[i].outage_slots, b[i].outage_slots) << "hub " << i;
  }
}

TEST(FleetRunnerLockstep, BitIdenticalToPerHubAcrossAllKinds) {
  // The acceptance criterion of the lockstep engine: every scheduler kind —
  // shared-batched stateless policies (none/tou/drl) and per-hub stateful
  // ones (greedy/forecast/random) side by side in one fleet — produces the
  // same ledgers to the last bit as the per-hub threaded path.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  std::vector<FleetJob> jobs;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto batch =
        make_fleet_jobs(reg, reg.keys(), 3, 2, kind,
                        kind == SchedulerKind::kDrl ? ckpt : nullptr);
    jobs.insert(jobs.end(), batch.begin(), batch.end());
  }
  FleetRunnerConfig cfg;
  cfg.threads = 4;
  cfg.episodes_per_hub = 2;  // exercise mid-lockstep episode turnover
  const FleetRunner runner(cfg);
  const auto per_hub = runner.run(jobs);
  const auto lockstep = runner.run_lockstep(jobs);
  expect_results_bit_identical(per_hub, lockstep);
}

TEST(FleetRunnerLockstep, DrlFleetRunsOneSharedActor) {
  // A pure ECT-DRL fleet: all hubs batch through one policy instance, and
  // the run matches the per-hub path exactly.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  const auto jobs =
      make_fleet_jobs(reg, reg.keys(), 8, 2, SchedulerKind::kDrl, ckpt);
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  const FleetRunner runner(cfg);
  const auto per_hub = runner.run(jobs);
  const auto lockstep = runner.run_lockstep(jobs);
  expect_results_bit_identical(per_hub, lockstep);
  for (const HubRunResult& r : lockstep) {
    EXPECT_EQ(r.scheduler, SchedulerKind::kDrl);
    ASSERT_EQ(r.episode_profit.size(), 1u);
    EXPECT_TRUE(std::isfinite(r.profit));
  }
}

TEST(FleetRunnerLockstep, EmptyJobList) {
  EXPECT_TRUE(FleetRunner(FleetRunnerConfig{}).run_lockstep({}).empty());
}

// Physics every result must satisfy, whatever path produced it: the last
// episode's SoC stays inside the job's Eq. 5 pack bounds (± 1e-12 for the
// kWh -> fraction division) and was sampled once per slot.
void expect_soc_within_pack_bounds(const std::vector<FleetJob>& jobs,
                                   const std::vector<HubRunResult>& results) {
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const battery::BatteryConfig& pack = jobs[i].hub.battery;
    const SocDigest& soc = results[i].soc;
    EXPECT_GE(soc.min, pack.soc_min_frac - 1e-12) << "hub " << i;
    EXPECT_LE(soc.max, pack.soc_max_frac + 1e-12) << "hub " << i;
    EXPECT_EQ(soc.samples, results[i].slots_per_episode) << "hub " << i;
  }
}

// ------------------------------------------------------------ threaded lockstep

std::vector<HubRunResult> run_lockstep_fleet(const std::vector<FleetJob>& jobs,
                                             std::size_t lockstep_threads,
                                             std::size_t episodes = 1) {
  FleetRunnerConfig cfg;
  cfg.lockstep_threads = lockstep_threads;
  cfg.episodes_per_hub = episodes;
  return FleetRunner(cfg).run_lockstep(jobs);
}

TEST(LockstepDeterminism, FourWayBitIdentity64HubsAllScenariosAllSchedulers) {
  // The determinism harness of the threaded engine: a 64-hub fleet covering
  // every built-in scenario and every scheduler kind, executed four ways —
  // per-hub run(), and lockstep on crews of 1, 3 (ragged partitions) and 8
  // members, each member running row-block GEMMs on its own lanes — must
  // produce bit-identical per-hub episode checksums across all paths.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  const std::vector<std::string>& keys = reg.keys();
  const std::vector<SchedulerKind>& kinds = all_scheduler_kinds();
  std::vector<FleetJob> jobs;
  jobs.reserve(64);
  for (std::size_t i = 0; i < 64; ++i) {
    const std::string& key = keys[i % keys.size()];
    const SchedulerKind kind = kinds[(i / keys.size()) % kinds.size()];
    FleetJob job;
    job.hub = reg.at(key).make_hub(key + "-" + std::to_string(i), 0);
    job.env = reg.at(key).env;
    job.env.episode_days = 2;
    job.scenario = key;
    job.scheduler = kind;
    if (kind == SchedulerKind::kDrl) job.checkpoint = ckpt;
    jobs.push_back(std::move(job));
  }
  // Every scheduler kind must actually be in the fleet.
  std::set<SchedulerKind> covered;
  for (const FleetJob& job : jobs) covered.insert(job.scheduler);
  ASSERT_EQ(covered.size(), kinds.size());

  FleetRunnerConfig cfg;
  cfg.threads = 8;
  cfg.episodes_per_hub = 2;  // exercise mid-lockstep episode turnover
  cfg.lockstep_threads = 1;
  const auto per_hub = FleetRunner(cfg).run(jobs);
  const auto lockstep_1 = FleetRunner(cfg).run_lockstep(jobs);
  cfg.lockstep_threads = 3;
  const auto lockstep_3 = FleetRunner(cfg).run_lockstep(jobs);
  cfg.lockstep_threads = 8;
  const auto lockstep_8 = FleetRunner(cfg).run_lockstep(jobs);

  expect_results_bit_identical(per_hub, lockstep_1);
  expect_results_bit_identical(per_hub, lockstep_3);
  expect_results_bit_identical(per_hub, lockstep_8);

  // The same runs as physics: SoC within the pack bounds, the ledger total
  // equal to its episodes' left fold, and no coupling on an uncoupled fleet.
  expect_soc_within_pack_bounds(jobs, per_hub);
  for (const HubRunResult& r : per_hub) {
    ASSERT_EQ(r.episode_profit.size(), 2u) << r.hub_name;
    EXPECT_EQ(r.profit, (0.0 + r.episode_profit[0]) + r.episode_profit[1]) << r.hub_name;
    EXPECT_EQ(r.through_kwh, 0.0) << r.hub_name;
    EXPECT_EQ(r.spill_exported_kwh, 0.0) << r.hub_name;
    EXPECT_EQ(r.spill_served_kwh, 0.0) << r.hub_name;
    EXPECT_EQ(r.spill_dropped_kwh, 0.0) << r.hub_name;
    EXPECT_EQ(r.outage_slots, 0u) << r.hub_name;
  }
}

TEST(LockstepDeterminism, GemmPlacementIsBitIdenticalAtEveryThreadCount) {
  // Each crew size splits the shared observation matrices into different
  // row blocks, so 1/2/5 members on a mixed fleet place the GEMMs three
  // ways: every one must reproduce run(), the run_job oracle — row-block
  // GEMMs are an execution detail, never a numerics change.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  std::vector<FleetJob> jobs;
  for (const SchedulerKind kind :
       {SchedulerKind::kDrl, SchedulerKind::kTou, SchedulerKind::kGreedyPrice}) {
    const auto batch = make_fleet_jobs(reg, reg.keys(), 5, 2, kind,
                                       kind == SchedulerKind::kDrl ? ckpt : nullptr);
    jobs.insert(jobs.end(), batch.begin(), batch.end());
  }
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 2;
  const auto reference = FleetRunner(cfg).run(jobs);
  for (const std::size_t threads : {1u, 2u, 5u}) {
    cfg.lockstep_threads = threads;
    expect_results_bit_identical(reference, FleetRunner(cfg).run_lockstep(jobs));
  }
}

// ------------------------------------------------------------ metro coupling

// A 64-hub spatially generated metro fleet with coupling enabled on every
// hub.  Half the fleet runs the batched DRL path (so row-block GEMMs and the
// exchange interleave), half runs a stateful per-hub scheduler.
std::vector<FleetJob> make_coupled_metro_jobs(std::size_t hubs) {
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = hubs;
  const spatial::MetroMap metro(metro_cfg, 42);
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  auto jobs = make_metro_fleet_jobs(metro, reg, reg.keys(), 2, SchedulerKind::kDrl,
                                    tiny_checkpoint());
  for (std::size_t i = 0; i < jobs.size(); i += 2) {
    jobs[i].scheduler = SchedulerKind::kGreedyPrice;
    jobs[i].checkpoint = nullptr;
  }
  return jobs;
}

TEST(LockstepDeterminism, CoupledMetroFleetBitIdenticalAcrossThreadsAndGemm) {
  // The acceptance criterion of the coupling layer: a 64-hub coupled metro
  // fleet — CouplingBus exchange at every slot barrier, correlated fronts,
  // through-traffic, episode turnover mid-run — is bit-identical between
  // lockstep x1, x3 and x8 (three different row-block GEMM splits), spill
  // ledgers included.
  const std::vector<FleetJob> jobs = make_coupled_metro_jobs(64);
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 2;  // exercise pending-import drop at turnover
  cfg.lockstep_threads = 1;
  const auto reference = FleetRunner(cfg).run_lockstep(jobs);
  for (const std::size_t threads : {3u, 8u}) {
    cfg.lockstep_threads = threads;
    expect_results_bit_identical(reference, FleetRunner(cfg).run_lockstep(jobs));
  }

  // The coupling must actually be live: demand flowed over the bus and some
  // of it was absorbed by neighbors.
  double exported = 0.0, served = 0.0, dropped = 0.0, through = 0.0;
  for (const HubRunResult& r : reference) {
    exported += r.spill_exported_kwh;
    served += r.spill_served_kwh;
    dropped += r.spill_dropped_kwh;
    through += r.through_kwh;
  }
  EXPECT_GT(through, 0.0);
  EXPECT_GT(exported, 0.0);
  EXPECT_GT(served, 0.0);

  // Physics: SoC within the pack bounds, and imports only come from
  // exports, so what neighbors served or dropped cannot exceed what was
  // exported (the rest was still in flight at turnover).
  expect_soc_within_pack_bounds(jobs, reference);
  EXPECT_LE(served + dropped, exported * (1.0 + 1e-12));
}

// ------------------------------------------------------------ fleet golden

// Absolute per-hub results for two small fixed-seed fleets.  The identity
// suites above compare execution paths with each other; these pin what they
// all must produce, so a bookkeeping slip shared by every path (episode
// turnover, the SoC digest, the ledger fold, the spill totals) cannot pass
// unnoticed.  Rule policies only, so no nn arithmetic enters the golden.
// Regenerate deliberately by printing the fields at %.17g, like
// ScenarioGolden.
struct GoldenHub {
  double profit;
  double episode_profit[2];
  double soc[6];    ///< first, last, min, max, mean, checksum
  double spill[4];  ///< through, exported, served, dropped (kWh)
  std::size_t outage_slots;
};

void expect_golden(const std::vector<HubRunResult>& got, const GoldenHub* golden,
                   std::size_t n) {
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const HubRunResult& r = got[i];
    const GoldenHub& g = golden[i];
    EXPECT_EQ(r.hub_id, i);
    EXPECT_DOUBLE_EQ(r.profit, g.profit) << "hub " << i;
    ASSERT_EQ(r.episode_profit.size(), 2u) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.episode_profit[0], g.episode_profit[0]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.episode_profit[1], g.episode_profit[1]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.soc.first, g.soc[0]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.soc.last, g.soc[1]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.soc.min, g.soc[2]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.soc.max, g.soc[3]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.soc.mean, g.soc[4]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.soc.checksum, g.soc[5]) << "hub " << i;
    EXPECT_EQ(r.soc.samples, 48u) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.through_kwh, g.spill[0]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.spill_exported_kwh, g.spill[1]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.spill_served_kwh, g.spill[2]) << "hub " << i;
    EXPECT_DOUBLE_EQ(r.spill_dropped_kwh, g.spill[3]) << "hub " << i;
    EXPECT_EQ(r.outage_slots, g.outage_slots) << "hub " << i;
  }
}

TEST(FleetRunnerGolden, PerHubTouAndGreedyTwoEpisodes) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  std::vector<FleetJob> jobs = make_fleet_jobs(reg, {"urban", "rural"}, 2, 2, SchedulerKind::kTou);
  for (FleetJob& job :
       make_fleet_jobs(reg, {"urban", "rural"}, 2, 2, SchedulerKind::kGreedyPrice)) {
    jobs.push_back(std::move(job));
  }
  const GoldenHub golden[] = {
      // urban-0, tou
      {15.016892812861862, {8.0658981452905305, 6.9509946675713312},
       {0.37004546688792495, 0.7262201963391306, 0.53622019633913054, 0.94999999999999996,
        0.87219246101844605, 41.865238128885409},
       {0, 0, 0, 0}, 0},
      // rural-1, tou
      {15.403987894303054, {5.4709030735092954, 9.9330848207937592},
       {0.6033177496509039, 0.94999999999999996, 0.79331774965090385, 0.94999999999999996,
        0.94644184801192333, 45.429208704572318},
       {0, 0, 0, 0}, 0},
      // urban-0, greedy
      {12.259179627942897, {6.2263119428858209, 6.0328676850570764},
       {0.53064675584988019, 0.62080902746560851, 0.55708977658302883, 0.94999999999999996,
        0.83762931013895303, 40.206206886669747},
       {0, 0, 0, 0}, 0},
      // rural-1, greedy
      {34.864098148263579, {16.896447902959039, 17.96765024530454},
       {0.53656166144479844, 0.76102240099292051, 0.60510422029030153, 0.94999999999999996,
        0.80029852394442302, 38.414329149332303},
       {0, 0, 0, 0}, 0},
  };
  FleetRunnerConfig cfg;
  cfg.base_seed = 7;
  cfg.threads = 2;
  cfg.episodes_per_hub = 2;
  expect_golden(FleetRunner(cfg).run(jobs), golden, std::size(golden));
}

TEST(FleetRunnerGolden, CoupledMetroLockstep) {
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = 8;
  const spatial::MetroMap metro(metro_cfg, 42);
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  std::vector<FleetJob> jobs =
      make_metro_fleet_jobs(metro, reg, reg.keys(), 2, SchedulerKind::kTou);
  for (std::size_t i = 1; i < jobs.size(); i += 2) jobs[i].scheduler = SchedulerKind::kGreedyPrice;
  const GoldenHub golden[] = {
      // blackout-prone-0, tou
      {43.93026167367195, {25.901981582528776, 18.028280091143174},
       {0.37004546688792495, 0.73039554812169394, 0.39090324980234237, 0.94999999999999996,
        0.83742954643956857, 40.196618229099293},
       {345.59999999999985, 72.000000000000014, 45.599999999999994, 4.8000000000000007}, 0},
      // heatwave-1, greedy
      {16.494266144690414, {6.71597900120703, 9.7782871434833822},
       {0.6033177496509039, 0.26059889525561225, 0.20000000000000001, 0.94999999999999996,
        0.69768368654017554, 33.488816953928428},
       {122.40000000000003, 43.200000000000003, 49.266666666666652, 86.666666666666671}, 0},
      // high-renewables-2, tou
      {104.48546455173097, {50.11917036011301, 54.366294191617961},
       {0.53064675584988019, 0.94999999999999996, 0.70877175584988028, 0.94999999999999996,
        0.93843700282796216, 45.044976135742182},
       {495, 33, 26.399999999999995, 7.2000000000000011}, 0},
      // price-spike-3, greedy
      {50.865623322058624, {28.787230793043385, 22.078392529015236},
       {0.53656166144479844, 0.40927294039314643, 0.20000000000000001, 0.94999999999999996,
        0.56761006376586542, 27.24528306076154},
       {367.19999999999982, 108.00000000000001, 55.333333333333321, 14.4}, 0},
      // rural-4, tou
      {22.671513444690696, {10.452746954613746, 12.218766490076948},
       {0.77519800812941508, 0.94999999999999996, 0.73908696388535977, 0.94999999999999996,
        0.92423486969738267, 44.363273745474366},
       {77, 22, 12, 12}, 0},
      // urban-5, greedy
      {30.333904207399726, {15.892909316807961, 14.440994890591764},
       {0.77716779086057941, 0.53945354443411131, 0.20000000000000001, 0.94999999999999996,
        0.69397879598573942, 33.31098220731549},
       {144, 72.000000000000014, 20.466666666666669, 46.866666666666667}, 0},
      // blackout-prone-6, tou
      {40.79698431523213, {23.243721329647876, 17.553262985584254},
       {0.62447938418101323, 0.66838967553021522, 0.43651267815261402, 0.94999999999999996,
        0.84345570666198577, 40.485873919775315},
       {410.39999999999969, 36, 30.066666666666659, 16.933333333333334}, 0},
      // heatwave-7, greedy
      {14.611554701030666, {7.1980370454920033, 7.4135176555386639},
       {0.52866066830773872, 0.20000000000000001, 0.20000000000000001, 0.94999999999999996,
        0.61450531676650155, 29.496255204792075},
       {151.19999999999999, 64.800000000000011, 6.0666666666666664, 16.933333333333334}, 0},
  };
  FleetRunnerConfig cfg;
  cfg.base_seed = 7;
  cfg.lockstep_threads = 2;
  cfg.episodes_per_hub = 2;
  expect_golden(FleetRunner(cfg).run_lockstep(jobs), golden, std::size(golden));
}

TEST(FleetRunner, RunRejectsCoupledJobs) {
  // Per-hub execution cannot honor the slot-synchronous exchange; both the
  // coupling flag and a bare neighbor list must route callers to
  // run_lockstep with a clear error.
  std::vector<FleetJob> jobs = make_jobs(2);
  jobs[0].env.coupling.enabled = true;
  EXPECT_THROW((void)FleetRunner(FleetRunnerConfig{}).run(jobs), std::invalid_argument);

  std::vector<FleetJob> neighbor_jobs = make_jobs(2);
  neighbor_jobs[1].neighbors = {0};
  EXPECT_THROW((void)FleetRunner(FleetRunnerConfig{}).run(neighbor_jobs),
               std::invalid_argument);
  // run_lockstep accepts the same job set.
  EXPECT_EQ(FleetRunner(FleetRunnerConfig{}).run_lockstep(neighbor_jobs).size(), 2u);
}

TEST(CouplingBus, RoutesEqualSharesAndDeliversNextTake) {
  // Hub 0 exports to {1, 2}; hub 1 exports to {0}; hub 2 has no neighbors.
  CouplingBus bus({{1, 2}, {0}, {}});
  ASSERT_EQ(bus.lanes(), 3u);
  bus.deposit(0, 10.0);
  bus.deposit(1, 4.0);
  // Nothing is visible until the barrier exchange.
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  bus.exchange();
  EXPECT_DOUBLE_EQ(bus.take(0), 4.0);  // all of hub 1's export
  EXPECT_DOUBLE_EQ(bus.take(1), 5.0);  // half of hub 0's export
  EXPECT_DOUBLE_EQ(bus.take(2), 5.0);
  // take() drains: a second read in the same slot sees nothing.
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  // Exports without neighbors vanish (hub 2 has nowhere to route).
  bus.deposit(2, 7.0);
  bus.exchange();
  EXPECT_DOUBLE_EQ(bus.take(0), 0.0);
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  EXPECT_DOUBLE_EQ(bus.take(2), 0.0);
  // drop_pending clears a lane's queued imports at episode turnover.
  bus.deposit(0, 6.0);
  bus.exchange();
  bus.drop_pending(1);
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  EXPECT_DOUBLE_EQ(bus.take(2), 3.0);
}

TEST(CouplingBus, RejectsBadNeighborLists) {
  EXPECT_THROW(CouplingBus({{1}, {5}}), std::invalid_argument);  // out of range
  EXPECT_THROW(CouplingBus({{0}, {0}}), std::invalid_argument);  // self-loop
}

TEST(FleetRunnerLockstep, OversubscribedThreadsMatchSerial) {
  // More workers than hubs: partitions clamp to the fleet size and the
  // result stays bit-identical.
  const std::vector<FleetJob> jobs = make_jobs(3);
  expect_results_bit_identical(run_lockstep_fleet(jobs, 1),
                               run_lockstep_fleet(jobs, 16));
}

TEST(FleetRunnerLockstep, SingleHubFleetRunsThreaded) {
  const std::vector<FleetJob> jobs = make_jobs(1);
  const auto serial = run_lockstep_fleet(jobs, 1);
  const auto threaded = run_lockstep_fleet(jobs, 4);
  ASSERT_EQ(threaded.size(), 1u);
  expect_results_bit_identical(serial, threaded);
  EXPECT_TRUE(std::isfinite(threaded[0].profit));
}

TEST(FleetRunnerLockstep, HardwareConcurrencyDefaultMatchesSerial) {
  // lockstep_threads == 0 resolves to the CPUs in the affinity mask.
  const std::vector<FleetJob> jobs = make_jobs(6);
  expect_results_bit_identical(run_lockstep_fleet(jobs, 1),
                               run_lockstep_fleet(jobs, 0));
}

TEST(FleetRunnerLockstep, BarrierStressManySlotsManyEpisodes) {
  // Thousands of barrier crossings on a tiny fleet: 2 hubs x 10 days x 3
  // episodes with 2 workers is ~1440 slots -> ~2880 barrier phases.  Any
  // lost-wakeup or ordering bug shows up as a hang (ctest timeout) or a
  // checksum mismatch.
  const std::vector<FleetJob> jobs = make_jobs(2, 10);
  expect_results_bit_identical(run_lockstep_fleet(jobs, 1, 3),
                               run_lockstep_fleet(jobs, 2, 3));
}

TEST(FleetRunnerLockstep, WorkerExceptionPropagatesWithoutDeadlock) {
  // A negative traffic noise sigma makes TrafficGenerator's constructor
  // throw at the first reset — which threaded lockstep performs on a worker
  // thread.  The crew must surface the exception, not deadlock or crash.
  std::vector<FleetJob> jobs = make_jobs(8);
  jobs[5].hub.traffic.noise_sigma = -1.0;
  FleetRunnerConfig cfg;
  cfg.lockstep_threads = 4;
  const FleetRunner runner(cfg);
  EXPECT_THROW((void)runner.run_lockstep(jobs), std::invalid_argument);
  // The runner stays usable after a failed fleet.
  jobs[5].hub.traffic.noise_sigma = 0.08;
  const auto results = runner.run_lockstep(jobs);
  ASSERT_EQ(results.size(), 8u);
  EXPECT_TRUE(std::isfinite(results[5].profit));
}

TEST(FleetRunnerLockstep, SerialWorkerExceptionAlsoPropagates) {
  std::vector<FleetJob> jobs = make_jobs(4);
  jobs[0].hub.traffic.noise_sigma = -1.0;
  EXPECT_THROW((void)run_lockstep_fleet(jobs, 1), std::invalid_argument);
}

TEST(FleetRunner, WorkerExceptionsPropagate) {
  // A zero-capacity battery makes EctHubEnv construction throw inside the
  // crew member running that job, on one member or two; the runner must
  // surface it, not deadlock or crash — and stay usable afterwards.
  for (const std::size_t threads : {1u, 2u}) {
    std::vector<FleetJob> jobs = make_jobs(4);
    jobs[2].hub.battery.capacity_kwh = 0.0;
    FleetRunnerConfig cfg;
    cfg.threads = threads;
    const FleetRunner runner(cfg);
    EXPECT_THROW((void)runner.run(jobs), std::invalid_argument) << threads;
    // The runner stays usable once the bad job is fixed.
    jobs[2] = make_jobs(4)[2];
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(std::isfinite(results[2].profit)) << threads;
  }
}

// Prices near DBL_MAX are finite and pass every config check, but a slot's
// profit, or a running sum of finite ones, overflows.  These helpers build
// the one-hub TOU job at a given price and replay its episodes on one env,
// as FleetRunner steps them, so the tests find where the overflow happens on
// this host without pinning libm's bits.
std::vector<FleetJob> overflow_jobs(double price) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  std::vector<FleetJob> jobs = make_fleet_jobs(registry, {"urban"}, 1, 2, SchedulerKind::kTou);
  jobs[0].hub.rtp.base_price = price;
  jobs[0].hub.rtp.diurnal_amplitude = price;
  return jobs;
}

struct OverflowReplay {
  bool rewards_finite;  ///< every slot's reward in every replayed episode
  bool totals_finite;   ///< the dollar totals summed over the episodes
  std::size_t episode;  ///< where the replay stopped
  std::size_t slot;     ///< the non-finite reward's slot, if any
};

/// Replays up to `episodes` episodes, stopping at the first non-finite
/// reward or running total.
OverflowReplay replay_episodes(const FleetJob& job, const FleetRunnerConfig& cfg,
                               std::size_t episodes) {
  core::HubConfig hub = job.hub;
  hub.seed = mix_seed(cfg.base_seed, cfg.hub_id_offset);
  core::EctHubEnv env(hub, job.env);
  const auto pol = make_policy(SchedulerKind::kTou, 0, env.observation_layout());
  std::vector<double> state(env.state_dim());
  double revenue = 0.0, grid_cost = 0.0, bp_cost = 0.0, profit = 0.0;
  for (std::size_t e = 0; e < episodes; ++e) {
    env.reset_into(state);
    for (std::size_t t = 0; t < env.slots_per_episode(); ++t) {
      if (!std::isfinite(env.step_into(pol->decide(state), state).reward)) {
        return {false, true, e, t};
      }
    }
    const core::ProfitLedger& ledger = env.ledger();
    revenue += ledger.total_revenue();
    grid_cost += ledger.total_grid_cost();
    bp_cost += ledger.total_bp_cost();
    profit += ledger.total_profit();
    if (!(std::isfinite(revenue) && std::isfinite(grid_cost) && std::isfinite(bp_cost) &&
          std::isfinite(profit))) {
      return {true, false, e, 0};
    }
  }
  return {true, true, episodes, 0};
}

void expect_both_paths_throw(const std::vector<FleetJob>& jobs, const FleetRunnerConfig& cfg,
                             const std::string& expected) {
  const FleetRunner runner(cfg);
  for (const bool lockstep : {false, true}) {
    try {
      (void)(lockstep ? runner.run_lockstep(jobs) : runner.run(jobs));
      ADD_FAILURE() << "no throw, lockstep " << lockstep;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), expected) << "lockstep " << lockstep;
    }
  }
}

TEST(FleetRunner, NonFiniteRewardNamesTheHubEpisodeAndSlot) {
  const std::vector<FleetJob> jobs = overflow_jobs(1.5e308);
  const FleetRunnerConfig cfg;
  const OverflowReplay replay = replay_episodes(jobs[0], cfg, 1);
  ASSERT_FALSE(replay.rewards_finite);
  expect_both_paths_throw(jobs, cfg,
                          "FleetRunner: hub 'urban-0' (id 0) episode 0 slot " +
                              std::to_string(replay.slot) + ": non-finite reward");
}

TEST(FleetRunner, NonFiniteProfitTotalNamesTheHubAndEpisode) {
  // Lower the price until every slot's reward stays finite; the totals
  // summed over enough episodes still overflow, and the fold must say so
  // instead of handing back infinite or NaN totals.
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 5000;
  double price = 1.5e308;
  OverflowReplay replay = replay_episodes(overflow_jobs(price)[0], cfg, cfg.episodes_per_hub);
  while (!replay.rewards_finite) {
    price *= 0.75;
    replay = replay_episodes(overflow_jobs(price)[0], cfg, cfg.episodes_per_hub);
  }
  ASSERT_FALSE(replay.totals_finite) << "price " << price;
  expect_both_paths_throw(overflow_jobs(price), cfg,
                          "FleetRunner: hub 'urban-0' (id 0) episode " +
                              std::to_string(replay.episode) + ": non-finite profit total");
}

// ------------------------------------------------------------ report

HubRunResult fake_result(std::size_t id, const std::string& scenario, double profit,
                         SchedulerKind sched = SchedulerKind::kTou) {
  HubRunResult r;
  r.hub_id = id;
  r.hub_name = scenario + "-" + std::to_string(id);
  r.scenario = scenario;
  r.scheduler = sched;
  r.episodes = 1;
  r.revenue = profit + 10.0;
  r.grid_cost = 8.0;
  r.bp_cost = 2.0;
  r.profit = profit;
  r.soc.mean = 0.5;
  return r;
}

TEST(AggregateReport, GroupsByScenarioAndScheduler) {
  const std::vector<HubRunResult> results = {
      fake_result(0, "urban", 4.0, SchedulerKind::kTou),
      fake_result(1, "urban", 6.0, SchedulerKind::kForecast),
      fake_result(2, "rural", 1.0, SchedulerKind::kTou),
  };
  const AggregateReport report(results);
  EXPECT_EQ(report.totals().hubs, 3u);
  EXPECT_DOUBLE_EQ(report.totals().profit, 11.0);
  ASSERT_EQ(report.by_scenario().size(), 2u);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("urban").profit, 10.0);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("urban").profit_per_hub(), 5.0);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("rural").profit, 1.0);
  ASSERT_EQ(report.by_scheduler().size(), 2u);
  EXPECT_EQ(report.by_scheduler().at("tou").hubs, 2u);
  EXPECT_DOUBLE_EQ(report.totals().mean_soc(), 0.5);
}

TEST(AggregateReport, MergeFoldsShards) {
  AggregateReport a({fake_result(0, "urban", 4.0)});
  const AggregateReport b({fake_result(1, "urban", 6.0), fake_result(2, "rural", 1.0)});
  a.merge(b);
  EXPECT_EQ(a.totals().hubs, 3u);
  EXPECT_DOUBLE_EQ(a.totals().profit, 11.0);
  EXPECT_DOUBLE_EQ(a.by_scenario().at("urban").profit, 10.0);
  EXPECT_EQ(a.by_scenario().at("rural").hubs, 1u);
}

TEST(AggregateReport, TablesRenderOneRowPerGroupPlusTotal) {
  const std::vector<HubRunResult> results = {
      fake_result(0, "urban", 4.0),
      fake_result(1, "rural", 1.0),
  };
  const AggregateReport report(results);
  EXPECT_EQ(report.scenario_table().num_rows(), 3u);   // 2 scenarios + TOTAL
  EXPECT_EQ(report.scheduler_table().num_rows(), 2u);  // 1 scheduler + TOTAL
  EXPECT_EQ(per_hub_table(results).num_rows(), 2u);
  EXPECT_FALSE(report.scenario_table().str().empty());
}

// ---------------------------------------------------------------- actor zoo

core::DrlFleetTrainConfig tiny_zoo_cfg() {
  core::DrlFleetTrainConfig cfg;
  cfg.env.episode_days = 1;
  cfg.iterations = 1;
  cfg.train_hubs = 1;
  cfg.seed = 2024;
  cfg.ppo.episodes_per_iteration = 1;
  return cfg;
}

TEST(DrlZoo, TrainsSpecialistPerKeyPlusGeneralist) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  const ActorZoo zoo =
      train_actor_zoo(registry, {"urban", "rural"}, tiny_zoo_cfg());
  EXPECT_EQ(zoo.keys, (std::vector<std::string>{"rural", "urban"}));  // sorted
  ASSERT_EQ(zoo.specialists.size(), 2u);
  EXPECT_FALSE(zoo.specialists.at("urban").blob.empty());
  EXPECT_FALSE(zoo.specialists.at("rural").blob.empty());
  EXPECT_FALSE(zoo.generalist.blob.empty());
  // Different training fleets and seed streams: the actors must differ.
  EXPECT_NE(zoo.specialists.at("urban").blob, zoo.specialists.at("rural").blob);
  EXPECT_NE(zoo.generalist.blob, zoo.specialists.at("urban").blob);
  // Every checkpoint deploys through the Policy API.
  policy::DrlPolicy deployed(zoo.generalist);
  EXPECT_LT(deployed.decide(std::vector<double>(
                zoo.generalist.config.state_dim, 0.1)),
            3u);
}

TEST(DrlZoo, DeterministicAcrossRunsAndCollectorThreads) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  core::DrlFleetTrainConfig cfg = tiny_zoo_cfg();
  const ActorZoo a = train_actor_zoo(registry, {"urban"}, cfg);
  cfg.collector_threads = 4;
  const ActorZoo b = train_actor_zoo(registry, {"urban"}, cfg);
  EXPECT_EQ(a.specialists.at("urban").blob, b.specialists.at("urban").blob);
  EXPECT_EQ(a.generalist.blob, b.generalist.blob);
  // Absolute pins of the trained weights: the zoo recipe must not drift.
  EXPECT_EQ(binio::fnv1a(a.specialists.at("urban").blob), 0xf27fb642dfec9bd6ULL);
  EXPECT_EQ(binio::fnv1a(a.generalist.blob), 0xd7bf5394cb4a118aULL);
}

// ------------------------------------------------------------ per-slot physics

// Counts of the coupling paths the physics runs exercised.
struct PathCounts {
  std::size_t slots = 0;
  std::size_t outage_slots = 0;
  std::size_t export_slots = 0;
  std::size_t served_import_slots = 0;
};

// Steps one episode of `jobs` slot by slot, as the lockstep runner does:
// each lane decides on its own observation, coupled lanes take the imports
// routed to them and deposit their exports, and the CouplingBus exchanges at
// the slot barrier.  After every step it checks the hub's physics:
//  * the reserve floor (Eq. 6) - 1e-9 <= SoC <= soc_max + 1e-9;
//  * the slot's grid cost in the ledger is >= 0;
//  * that grid cost is Eq. 7's max(0, bs + cs + bp - renewables) x RTP x dt
//    / 1000, with cs from the SlotCoupling outputs (0 in an outage) and bp
//    from the SoC change.
void check_physics_per_slot(std::vector<FleetJob> jobs, PathCounts& counts) {
  std::vector<std::unique_ptr<core::EctHubEnv>> envs;
  std::vector<std::unique_ptr<policy::Policy>> policies;
  std::vector<std::vector<double>> states;
  std::vector<std::vector<std::size_t>> neighbors;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].hub.seed = mix_seed(7, i);
    envs.push_back(std::make_unique<core::EctHubEnv>(jobs[i].hub, jobs[i].env));
    policies.push_back(make_policy(jobs[i].scheduler, mix_seed(11, i),
                                   envs[i]->observation_layout(), jobs[i].checkpoint));
    states.emplace_back(envs[i]->state_dim());
    neighbors.push_back(jobs[i].neighbors);
    envs[i]->reset_into(states[i]);
    policies[i]->begin_episode();
  }
  CouplingBus bus(neighbors);
  const std::size_t slots = envs.front()->slots_per_episode();
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::size_t i = 0; i < envs.size(); ++i) {
      core::EctHubEnv& env = *envs[i];
      const std::string where = jobs[i].hub.name + " " + to_string(jobs[i].scheduler) +
                                " slot " + std::to_string(t);
      ASSERT_EQ(env.current_slot(), t) << where;
      const std::size_t action = policies[i]->decide(states[i]);
      const double soc_before = env.pack().soc_kwh();
      const double grid_cost_before = env.ledger().total_grid_cost();
      core::SlotCoupling c;
      c.import_kw = bus.take(i);
      (void)env.step_into(action, states[i], c);
      bus.deposit(i, c.export_kw);

      const battery::BatteryPack& pack = env.pack();
      ASSERT_GE(pack.soc_kwh(), pack.reserve_floor_kwh() - 1e-9) << where;
      ASSERT_LE(pack.soc_kwh(), pack.soc_max_kwh() + 1e-9) << where;
      const double grid_cost = env.ledger().total_grid_cost() - grid_cost_before;
      ASSERT_GE(grid_cost, 0.0) << where;

      const battery::BatteryConfig& bc = jobs[i].hub.battery;
      const double d_soc = pack.soc_kwh() - soc_before;
      const double bp_kw =
          d_soc >= 0.0 ? d_soc / bc.charge_efficiency : d_soc * bc.discharge_efficiency;
      const double cs_kw = c.outage ? 0.0
                                    : env.cs_power_series()[t] + (c.through_kw - c.export_kw) +
                                          c.served_import_kw;
      const double grid_kw = std::max(
          0.0, env.bs_power_series()[t] + cs_kw + bp_kw - env.renewable_series()[t]);
      const double want = grid_kw * env.rtp_at(t) / 1000.0;
      // 1e-9 relative; the floor covers slots whose import cancels to ~0
      // when discharge is throttled to the net load.
      ASSERT_NEAR(grid_cost, want, 1e-9 * std::max(std::abs(want), 1e-3)) << where;

      ++counts.slots;
      if (c.outage) ++counts.outage_slots;
      if (c.export_kw > 0.0) ++counts.export_slots;
      if (c.served_import_kw > 0.0) ++counts.served_import_slots;
    }
    bus.exchange();
  }
}

TEST(HubPhysics, EverySlotHoldsEq7AndTheSocBoundsAcrossScenariosAndSchedulers) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = 12;
  const spatial::MetroMap metro(metro_cfg, 42);
  PathCounts uncoupled, coupled;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    // kDrl runs a fixed-seed untrained actor: its actions are arbitrary,
    // which is what a physics check wants.
    const auto ckpt = kind == SchedulerKind::kDrl ? tiny_checkpoint() : nullptr;
    check_physics_per_slot(make_fleet_jobs(reg, reg.keys(), 6, 2, kind, ckpt), uncoupled);
    if (HasFatalFailure()) return;
    std::vector<FleetJob> jobs = make_metro_fleet_jobs(metro, reg, reg.keys(), 2, kind, ckpt);
    // A dense outage front, so the 2-day episodes include outage slots.
    for (FleetJob& job : jobs) job.env.coupling.outage.rate_per_month = 60.0;
    check_physics_per_slot(jobs, coupled);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(uncoupled.slots, 6u * 6u * 48u);
  EXPECT_EQ(uncoupled.outage_slots + uncoupled.export_slots + uncoupled.served_import_slots, 0u);
  EXPECT_EQ(coupled.slots, 6u * 12u * 48u);
  EXPECT_GT(coupled.outage_slots, 0u);
  EXPECT_GT(coupled.export_slots, 0u);
  EXPECT_GT(coupled.served_import_slots, 0u);
}

TEST(DrlZoo, ValidatesInputs) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  core::DrlFleetTrainConfig cfg = tiny_zoo_cfg();
  EXPECT_THROW((void)train_actor_zoo(registry, {"nope"}, cfg), std::out_of_range);
  cfg.train_hubs = 0;
  EXPECT_THROW((void)train_actor_zoo(registry, {"urban"}, cfg),
               std::invalid_argument);
}

TEST(DrlZoo, EmptyKeySelectionCoversWholeRegistry) {
  // Dedup + default-to-all behaviour, without paying for six trainings: a
  // two-scenario registry built from the urban/rural presets.
  const ScenarioRegistry builtins = ScenarioRegistry::with_builtins();
  ScenarioRegistry registry;
  registry.add(builtins.at("urban"));
  registry.add(builtins.at("rural"));
  const ActorZoo zoo = train_actor_zoo(registry, {}, tiny_zoo_cfg());
  EXPECT_EQ(zoo.keys, registry.keys());
  EXPECT_EQ(zoo.specialists.size(), 2u);
}

}  // namespace
}  // namespace ecthub::sim
