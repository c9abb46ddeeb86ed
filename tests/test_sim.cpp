// Tests for the multi-hub simulation engine: the scenario registry, the
// per-scenario golden corpus, the deterministic per-hub seeding, the policy
// factory, the parallel fleet runner and its lockstep-batched twin (the
// bit-identity contract every future sharding/batching PR depends on), and
// the aggregate report arithmetic.
#include "common/binio.hpp"
#include "policy/drl_policy.hpp"
#include "sim/coupling.hpp"
#include "sim/drl_zoo.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "spatial/metro.hpp"

#include <gtest/gtest.h>

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
      {"blackout-prone", 4422.8543568678506, 8182.2805602055214, 43.887883932540582,
       107.9055819122873, 129.60000000000002, 0.61776257063720164},
      {"heatwave", 4428.2849770388948, 7767.0694802434637, 51.094910293962094,
       132.62810150114856, 144.0, 0.61776257063720164},
      {"high-renewables", 4424.9477848423494, 8186.1534019583432, 624.53472962883586,
       108.11492470973729, 143.0, 0.61776257063720164},
      {"price-spike", 4975.0754927678645, 8924.0408095788644, 30.985610570435121,
       107.9055819122873, 129.60000000000002, 0.61776257063720164},
      {"rural", 4424.9477848423494, 8186.1534019583432, 247.04302255018914,
       108.11492470973729, 143.0, 0.61776257063720164},
      {"urban", 4422.8543568678506, 7757.0228329270312, 30.985610570435121,
       107.9055819122873, 144.0, 0.61776257063720164},
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
  double exported = 0.0, served = 0.0, through = 0.0;
  for (const HubRunResult& r : reference) {
    exported += r.spill_exported_kwh;
    served += r.spill_served_kwh;
    through += r.through_kwh;
  }
  EXPECT_GT(through, 0.0);
  EXPECT_GT(exported, 0.0);
  EXPECT_GT(served, 0.0);
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
      {-0.81316542066121067, {-0.40171174247689823, -0.41145367818431244},
       {0.36423879507865364, 0.93521781250435665, 0.53158969392842426, 0.94999999999999996,
        0.88071686969184271, 42.274409745208452},
       {0, 0, 0, 0}, 0},
      // rural-1, tou
      {15.531872934775732, {8.129360047168662, 7.4025128876070703},
       {0.40853036217838856, 0.94999999999999996, 0.59853036217838851, 0.94999999999999996,
        0.92664721504196335, 44.479066322014241},
       {0, 0, 0, 0}, 0},
      // urban-0, greedy
      {18.359423878309897, {9.4274351258733695, 8.9319887524365278},
       {0.7447078033033212, 0.48848424117229966, 0.27990126048480946, 0.94999999999999996,
        0.78710359419236708, 37.780972521233622},
       {0, 0, 0, 0}, 0},
      // rural-1, greedy
      {37.044231031557835, {21.965616328344762, 15.078614703213074},
       {0.76350665799801321, 0.94999999999999996, 0.47331535328162672, 0.94999999999999996,
        0.82375098574593786, 39.540047315805019},
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
      {28.617609106115726, {14.541961718252455, 14.07564738786327},
       {0.36423879507865364, 0.75652828667317629, 0.49995308079293932, 0.94999999999999996,
        0.88245876597738293, 42.358020766914379},
       {352.7999999999999, 43.200000000000003, 19.199999999999999, 4.7999999999999998}, 0},
      // heatwave-1, greedy
      {44.834085895208432, {24.032530751924867, 20.801555143283561},
       {0.40853036217838856, 0.20000000000000001, 0.20000000000000001, 0.94999999999999996,
        0.63957861827273532, 30.699773677091294},
       {338.39999999999986, 72.000000000000014, 48.133333333333333, 15.666666666666668}, 0},
      // high-renewables-2, tou
      {51.77731443161322, {25.242517673607598, 26.534796758005619},
       {0.7447078033033212, 0.94999999999999996, 0.88736563479343078, 0.94999999999999996,
        0.9423174322108302, 45.231236746119848},
       {253, 88, 4.7999999999999998, 0}, 0},
      // price-spike-3, greedy
      {49.856857360591448, {31.019988046794381, 18.836869313797063},
       {0.76350665799801321, 0.69721778797682932, 0.20000000000000001, 0.94999999999999996,
        0.57102998458428578, 27.409439260045719},
       {359.99999999999983, 57.600000000000009, 44.466666666666669, 24.133333333333333}, 0},
      // rural-4, tou
      {82.991922841331061, {37.875615829005667, 45.116307012325393},
       {0.72126017324382019, 0.67760001419354732, 0.48760001419354737, 0.94999999999999996,
        0.88144556882538139, 42.309387303618308},
       {451, 33, 77.333333333333343, 0}, 0},
      // urban-5, greedy
      {14.857578624439912, {11.18312417298967, 3.674454451450242},
       {0.49495014610560273, 0.54094247382218741, 0.47387220617690268, 0.94999999999999996,
        0.83828536642526397, 40.237697588412672},
       {79.200000000000017, 21.600000000000001, 25.533333333333335, 3.7999999999999994}, 0},
      // blackout-prone-6, tou
      {15.273795185565469, {8.1301781871696708, 7.1436169983957978},
       {0.71641615715112739, 0.81078623432447039, 0.6750719486101846, 0.94999999999999996,
        0.89864842955528224, 43.135124618653549},
       {144.00000000000003, 57.600000000000001, 39.666666666666671, 28.93333333333333}, 0},
      // heatwave-7, greedy
      {7.8372894075939676, {4.9253485782171422, 2.9119408293768254},
       {0.30437018247674319, 0.7358410200640545, 0.42443856104244476, 0.94999999999999996,
        0.81150521877559989, 38.952250501228797},
       {64.800000000000011, 0, 21.866666666666667, 7.4666666666666659}, 0},
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
  // lockstep_threads == 0 resolves to hardware_concurrency.
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
  EXPECT_DOUBLE_EQ(report.totals().profit.value(), 11.0);
  ASSERT_EQ(report.by_scenario().size(), 2u);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("urban").profit.value(), 10.0);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("urban").profit_per_hub(), 5.0);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("rural").profit.value(), 1.0);
  ASSERT_EQ(report.by_scheduler().size(), 2u);
  EXPECT_EQ(report.by_scheduler().at("tou").hubs, 2u);
  EXPECT_DOUBLE_EQ(report.totals().mean_soc(), 0.5);
}

TEST(AggregateReport, MergeFoldsShards) {
  AggregateReport a({fake_result(0, "urban", 4.0)});
  const AggregateReport b({fake_result(1, "urban", 6.0), fake_result(2, "rural", 1.0)});
  a.merge(b);
  EXPECT_EQ(a.totals().hubs, 3u);
  EXPECT_DOUBLE_EQ(a.totals().profit.value(), 11.0);
  EXPECT_DOUBLE_EQ(a.by_scenario().at("urban").profit.value(), 10.0);
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
  EXPECT_EQ(binio::fnv1a(a.specialists.at("urban").blob), 0x72143650e11319ccULL);
  EXPECT_EQ(binio::fnv1a(a.generalist.blob), 0x9417eaae8a8660fcULL);
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
