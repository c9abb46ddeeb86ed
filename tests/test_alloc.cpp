// Allocation-audit regression tests.
//
// The fleet engine's hot path — EctHubEnv::reset_into + a full episode of
// step_into — is required to perform ZERO heap allocations after warm-up:
// every episode buffer is regenerated in place through the generate_into /
// simulate_into / series_into overloads and the observation is written in
// place through observe_into.  This binary replaces the global operator
// new/delete pair with a counting hook so any allocation that sneaks back
// onto the step or reset path fails a test here instead of silently eroding
// fleet throughput.
#include "common/rng.hpp"
#include "common/time_grid.hpp"
#include "core/hub_config.hpp"
#include "core/hub_env.hpp"
#include "core/policy_runner.hpp"
#include "ev/station.hpp"
#include "policy/drl_policy.hpp"
#include "policy/rule_policies.hpp"
#include "pricing/rtp.hpp"
#include "pricing/selling.hpp"
#include "renewables/plant.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/scenario.hpp"
#include "spatial/metro.hpp"
#include "traffic/generator.hpp"
#include "weather/weather.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting operator-new hook: every heap allocation in this binary bumps the
// counter.  The sized/array/aligned forms are all provided so the
// replacement set is complete and no allocation (including a future
// over-aligned SIMD buffer) escapes the counter through a default form.
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
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ecthub {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(AllocationAudit, HookObservesVectorAllocations) {
  // Sanity-check the hook itself: a vector allocation must be visible,
  // otherwise the zero-allocation assertions below would be vacuous.
  const std::uint64_t before = allocations();
  std::vector<double> v(257);
  v[0] = 1.0;
  EXPECT_GT(allocations(), before);
  EXPECT_EQ(v.size(), 257u);
}

TEST(AllocationAudit, HubResetAndFullEpisodeAllocationFreeAfterWarmup) {
  core::HubConfig hub = core::HubConfig::urban("alloc-hub", 991);
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 2;
  // Exercise the discount/selling path too, not just full-price episodes.
  env_cfg.discount_by_hour.assign(24, false);
  for (std::size_t h = 18; h < 24; ++h) env_cfg.discount_by_hour[h] = true;
  core::EctHubEnv env(std::move(hub), env_cfg);

  std::vector<double> state(env.state_dim());
  const auto run_episode = [&] {
    env.reset_into(state);
    bool done = false;
    std::size_t t = 0;
    while (!done) done = env.step_into(t++ % 3, state).done;
  };

  run_episode();  // warm-up: buffers and capacities settle
  run_episode();
  const std::uint64_t before = allocations();
  run_episode();
  EXPECT_EQ(allocations() - before, 0u)
      << "reset_into/step_into allocated on the steady-state episode path";
}

TEST(AllocationAudit, RuralHubEpisodeAlsoAllocationFree) {
  // The rural preset runs the full renewable plant (PV + wind turbine).
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 2;
  core::EctHubEnv env(core::HubConfig::rural("alloc-rural", 992), env_cfg);
  std::vector<double> state(env.state_dim());
  const auto run_episode = [&] {
    env.reset_into(state);
    bool done = false;
    std::size_t t = 0;
    while (!done) done = env.step_into((t++ / 4) % 3, state).done;
  };
  run_episode();
  run_episode();
  const std::uint64_t before = allocations();
  run_episode();
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(AllocationAudit, RunPolicyAllocatesOnlyItsBufferAndResult) {
  // core::run_policy (Table III, the scheduler ablation, the hub examples)
  // steps one observation buffer in place.  Once the env and the policy are
  // warm, a call allocates that buffer and the returned profit vector —
  // nothing per episode or per slot, under every scheduler family.
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 2;
  const policy::ObservationLayout layout{env_cfg.lookback};
  nn::Rng rng(43);
  policy::DrlPolicyConfig drl_cfg;
  drl_cfg.state_dim = layout.dim();
  policy::DrlPolicy drl(drl_cfg, rng);
  policy::TouPolicy tou(layout);
  policy::GreedyPricePolicy greedy(layout);
  policy::ForecastPolicy forecast(layout);
  policy::NoBatteryPolicy none;
  for (policy::Policy* pol : {static_cast<policy::Policy*>(&tou),
                              static_cast<policy::Policy*>(&greedy),
                              static_cast<policy::Policy*>(&forecast),
                              static_cast<policy::Policy*>(&none),
                              static_cast<policy::Policy*>(&drl)}) {
    core::EctHubEnv env(core::HubConfig::urban("alloc-run", 993), env_cfg);
    (void)core::run_policy(env, *pol, 1);  // warm-up
    for (const std::size_t episodes : {std::size_t{1}, std::size_t{3}}) {
      const std::uint64_t before = allocations();
      const std::vector<double> profits = core::run_policy(env, *pol, episodes);
      const std::uint64_t used = allocations() - before;
      EXPECT_EQ(used, 2u) << pol->name() << ", " << episodes << " episode(s)";
      EXPECT_EQ(profits.size(), episodes);
    }
  }
}

TEST(AllocationAudit, WeatherGenerateIntoAllocationFreeAfterWarmup) {
  const TimeGrid grid(2, 24);
  weather::SolarModel solar(weather::SolarConfig{}, Rng(31));
  weather::WindModel wind(weather::WindConfig{}, Rng(32));
  weather::WeatherGenerator wx_gen(weather::WeatherConfig{}, Rng(33));
  std::vector<double> ghi, speed;
  weather::WeatherSeries wx;
  solar.generate_into(grid, ghi);  // warm-up
  wind.generate_into(grid, speed);
  wx_gen.generate_into(grid, wx);

  const std::uint64_t before = allocations();
  solar.generate_into(grid, ghi);
  wind.generate_into(grid, speed);
  wx_gen.generate_into(grid, wx);
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(AllocationAudit, PlantAndStationRegenerateAllocationFreeAfterWarmup) {
  const TimeGrid grid(2, 24);
  weather::WeatherGenerator wx_gen(weather::WeatherConfig{}, Rng(34));
  weather::WeatherSeries wx;
  wx_gen.generate_into(grid, wx);

  const renewables::RenewablePlant plant(renewables::PlantConfig::rural());
  renewables::GenerationSeries gen;
  plant.generate_into(wx, gen);  // warm-up

  const ev::ChargingStation station(ev::StationConfig{}, ev::StrataProfile(0.8, 0.7, 0.3));
  const std::vector<bool> discounted(grid.size(), false);
  ev::OccupancySeries occ;
  Rng ev_rng(35);
  station.simulate_into(grid, discounted, ev_rng, occ);  // warm-up

  const std::uint64_t before = allocations();
  plant.generate_into(wx, gen);
  station.simulate_into(grid, discounted, ev_rng, occ);
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(AllocationAudit, DrlDecideRowsReusesItsWorkspaceAllocationFree) {
  // The worker-GEMM inference kernel: after the first call has sized the
  // workspace buffers (and the internal matmul scratch has seen its largest
  // shape), repeated row-block forwards — full batch, ragged blocks, 1-row
  // blocks — must perform zero heap allocations.  So must the scalar
  // decide() of every per-hub DRL hub, which stages its observation in the
  // policy's member workspace.
  const policy::ObservationLayout layout;
  nn::Rng rng(41);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  policy::DrlPolicy actor(cfg, rng);

  nn::Matrix obs(64, layout.dim());
  Rng obs_rng(42);
  for (double& x : obs.data()) x = obs_rng.uniform(0.0, 1.5);
  std::vector<std::size_t> actions(obs.rows());
  const auto ws = actor.make_workspace();

  const auto row = [&obs](std::size_t r) {
    return std::span<const double>(obs.data().data() + r * obs.cols(), obs.cols());
  };

  actor.decide_rows(obs, 0, obs.rows(), std::span<std::size_t>(actions), *ws);  // warm-up
  (void)actor.decide(row(0));
  const std::uint64_t before = allocations();
  actor.decide_rows(obs, 0, obs.rows(), std::span<std::size_t>(actions), *ws);
  actor.decide_rows(obs, 0, 17, std::span<std::size_t>(actions), *ws);
  actor.decide_rows(obs, 17, 64, std::span<std::size_t>(actions), *ws);
  actor.decide_rows(obs, 5, 6, std::span<std::size_t>(actions), *ws);
  for (std::size_t r = 0; r < obs.rows(); r += 9) {
    EXPECT_EQ(actor.decide(row(r)), actions[r]) << "row " << r;
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "decide_rows or decide allocated on a warmed workspace";
}

TEST(AllocationAudit, WorkerGemmLockstepSlotLoopAllocationFreeAfterWarmup) {
  // The steady-state slot loop of the lockstep path (row-block GEMMs on the
  // crew) must not allocate: running the same DRL fleet for more episodes may not cost a
  // single extra allocation — every allocation belongs to setup or the
  // first-episode warm-up, none to the per-slot path (workspace reuse, no
  // per-slot scratch growth).
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  nn::Rng rng(123);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = policy::ObservationLayout{}.dim();
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  policy::DrlPolicy actor(cfg, rng);
  const auto ckpt = std::make_shared<policy::DrlCheckpoint>(actor.checkpoint());
  const std::vector<sim::FleetJob> jobs = sim::make_fleet_jobs(
      registry, registry.keys(), 12, 2, sim::SchedulerKind::kDrl, ckpt);

  const auto run_with_episodes = [&](std::size_t episodes) {
    sim::FleetRunnerConfig runner_cfg;
    runner_cfg.lockstep_threads = 1;
    runner_cfg.episodes_per_hub = episodes;
    const std::uint64_t before = allocations();
    const auto results = sim::FleetRunner(runner_cfg).run_lockstep(jobs);
    EXPECT_EQ(results.size(), jobs.size());
    return allocations() - before;
  };

  (void)run_with_episodes(2);  // settle any process-wide one-time buffers
  const std::uint64_t short_run = run_with_episodes(2);
  const std::uint64_t long_run = run_with_episodes(6);
  EXPECT_EQ(long_run, short_run)
      << "extra lockstep episodes allocated: the slot loop is not allocation-free";
}


TEST(AllocationAudit, GreedyFleetSlotLoopAllocationFreeAfterWarmup) {
  // The stateful rule-policy path: GreedyPricePolicy reads two trailing
  // percentiles every slot off its sorted window, which slides in place
  // (stats::percentile's by-value overload copies — the hot path reads
  // stats::sorted_percentile instead).
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  const std::vector<sim::FleetJob> jobs = sim::make_fleet_jobs(
      registry, registry.keys(), 8, 2, sim::SchedulerKind::kGreedyPrice);
  const auto run_with_episodes = [&](std::size_t episodes) {
    sim::FleetRunnerConfig runner_cfg;
    runner_cfg.lockstep_threads = 1;
    runner_cfg.episodes_per_hub = episodes;
    const std::uint64_t before = allocations();
    const auto results = sim::FleetRunner(runner_cfg).run_lockstep(jobs);
    EXPECT_EQ(results.size(), jobs.size());
    return allocations() - before;
  };
  (void)run_with_episodes(2);  // settle any process-wide one-time buffers
  const std::uint64_t short_run = run_with_episodes(2);
  const std::uint64_t long_run = run_with_episodes(6);
  EXPECT_EQ(long_run, short_run)
      << "extra greedy episodes allocated: the price windows do not reuse their capacity";
}

TEST(AllocationAudit, CoupledMetroSlotLoopAllocationFreeAfterWarmup) {
  // The metro coupling layer rides the same zero-alloc contract: the
  // per-slot CouplingBus exchange (deposit/take/exchange), the 3-arg
  // step_into with its through/outage series, and pending-import drops at
  // episode turnover must all reuse buffers sized at setup — extra coupled
  // episodes may not cost a single allocation.
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = 8;
  const spatial::MetroMap metro(metro_cfg, 42);
  const std::vector<sim::FleetJob> jobs = sim::make_metro_fleet_jobs(
      metro, registry, registry.keys(), 2, sim::SchedulerKind::kGreedyPrice);

  const auto run_with_episodes = [&](std::size_t episodes) {
    sim::FleetRunnerConfig runner_cfg;
    runner_cfg.lockstep_threads = 1;
    runner_cfg.episodes_per_hub = episodes;
    const std::uint64_t before = allocations();
    const auto results = sim::FleetRunner(runner_cfg).run_lockstep(jobs);
    EXPECT_EQ(results.size(), jobs.size());
    return allocations() - before;
  };

  (void)run_with_episodes(2);  // settle any process-wide one-time buffers
  const std::uint64_t short_run = run_with_episodes(2);
  const std::uint64_t long_run = run_with_episodes(6);
  EXPECT_EQ(long_run, short_run)
      << "extra coupled episodes allocated: the exchange path is not allocation-free";
}

TEST(AllocationAudit, PricingAndTrafficRegenerateAllocationFreeAfterWarmup) {
  const TimeGrid grid(2, 24);
  traffic::TrafficGenerator traffic_gen(traffic::TrafficConfig{}, Rng(36));
  traffic::TrafficTrace trace;
  traffic_gen.generate_into(grid, trace);  // warm-up

  pricing::RtpGenerator rtp_gen(pricing::RtpConfig{}, Rng(37));
  std::vector<double> rtp;
  rtp_gen.generate_into(grid, trace.load_rate, rtp);  // warm-up

  const pricing::SellingPricePolicy selling(
      pricing::SellingConfig{}, pricing::DiscountSchedule(grid.size()));
  std::vector<double> srtp;
  selling.series_into(rtp, srtp);  // warm-up

  const std::uint64_t before = allocations();
  traffic_gen.generate_into(grid, trace);
  rtp_gen.generate_into(grid, trace.load_rate, rtp);
  selling.series_into(rtp, srtp);
  EXPECT_EQ(allocations() - before, 0u);
}

}  // namespace
}  // namespace ecthub
