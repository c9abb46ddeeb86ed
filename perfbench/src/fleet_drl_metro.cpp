// fleet_drl_metro: a metro-coupled ECT-DRL fleet under
// FleetRunner::run_lockstep with a 4-member crew and the default GEMM
// placement.  The fleet is sized so every member's lanes overflow its L2:
// a hub holds ~0.1 MB of episode series and lockstep touches every hub each
// slot.
#include "workloads.hpp"

#include "common/crew.hpp"
#include "common/rng.hpp"
#include "common/time_grid.hpp"
#include "sim/coupling.hpp"
#include "sim/metro.hpp"
#include "sim/scenario.hpp"
#include "spatial/metro.hpp"

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>

namespace perfbench {

using namespace ecthub;

namespace {

std::size_t metro_hubs(Size size) { return size == Size::kSmoke ? 12 : 192; }

struct Setup {
  std::vector<sim::FleetJob> jobs;
  sim::FleetRunnerConfig cfg;
};

Setup build(const RunOptions& opt) {
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = metro_hubs(opt.size);
  const spatial::MetroMap metro(metro_cfg, mix_seed(opt.seed, kMetroStream));
  Setup s;
  s.jobs = sim::make_metro_fleet_jobs(metro, registry, sim::builtin_scenario_keys(),
                                      episode_days(opt.size), sim::SchedulerKind::kDrl,
                                      make_actor(opt.seed));
  s.cfg.base_seed = mix_seed(opt.seed, kFleetStream);
  s.cfg.lockstep_threads = opt.threads;
  return s;
}

/// Crew accounting of one traced rep, from its kCrewRun / kMember spans.
struct CrewTotals {
  double wait_ns = 0.0;      ///< member time spent outside its own work
  double capacity_ns = 0.0;  ///< slot wall x members
  double max_busy_ns = 0.0;  ///< sum over slots of the slowest member
  double mean_busy_ns = 0.0; ///< sum over slots of the mean member
  std::size_t slots = 0;
};

CrewTotals crew_totals(const Tracer& tracer, std::size_t members) {
  std::map<std::uint32_t, double> wall;
  std::map<std::uint32_t, std::vector<double>> busy;
  for (const std::vector<Span>* spans : tracer.buffers()) {
    for (const Span& s : *spans) {
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      if (s.name == SpanName::kCrewRun) wall[s.slot] = dur;
      if (s.name == SpanName::kMember) busy[s.slot].push_back(dur);
    }
  }
  CrewTotals t;
  for (const auto& [slot, w] : wall) {
    const std::vector<double>& b = busy[slot];
    if (b.size() != members) continue;
    double sum = 0.0, mx = 0.0;
    for (const double d : b) {
      sum += d;
      mx = std::max(mx, d);
      t.wait_ns += std::max(0.0, w - d);
    }
    t.capacity_ns += w * static_cast<double>(members);
    t.max_busy_ns += mx;
    t.mean_busy_ns += sum / static_cast<double>(members);
    ++t.slots;
  }
  return t;
}

/// run_lockstep's worker-placement slot loop re-driven through public calls
/// with a span around each: EctHubEnv reset_into / step_into / observe_into,
/// Policy::decide_rows, CouplingBus take / deposit / exchange and
/// BarrierCrew::run.  Every job runs the same stateless actor, so all lanes
/// share one policy and lane i owns row i of one observation matrix — the
/// single-group case of run_lockstep.  Must reproduce run_lockstep's
/// results bit for bit; `observe_mismatches` counts sampled observe_into
/// calls that disagree with the observation step_into wrote.
std::vector<sim::HubRunResult> traced_lockstep(const std::vector<sim::FleetJob>& jobs,
                                               const sim::FleetRunnerConfig& cfg,
                                               Tracer& tracer,
                                               std::size_t& observe_mismatches) {
  const std::size_t n = jobs.size();
  for (const sim::FleetJob& job : jobs) {
    if (job.scheduler != sim::SchedulerKind::kDrl || job.checkpoint != jobs.front().checkpoint ||
        job.env.lookback != jobs.front().env.lookback) {
      throw std::invalid_argument("traced_lockstep: jobs must share one DRL actor and layout");
    }
  }

  struct Lane {
    std::unique_ptr<core::EctHubEnv> env;
    double dt_hours = 1.0;
    std::size_t episodes_done = 0;
    std::size_t action = 0;
    bool active = true;
    bool needs_begin = true;
    bool record_soc = false;
    sim::SocDigest soc;
    sim::HubRunResult result;
  };
  std::vector<Lane> lanes(n);
  std::vector<std::vector<std::size_t>> neighbors(n);
  bool coupled = false;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::FleetJob& job = jobs[i];
    Lane& lane = lanes[i];
    const std::uint64_t hub_seed = mix_seed(cfg.base_seed, cfg.hub_id_offset + i);
    core::HubConfig hub = job.hub;
    hub.seed = hub_seed;
    lane.env = std::make_unique<core::EctHubEnv>(std::move(hub), job.env);
    lane.dt_hours = TimeGrid(job.env.episode_days, job.env.slots_per_day).slot_hours();
    lane.result.hub_id = cfg.hub_id_offset + i;
    lane.result.hub_name = job.hub.name;
    lane.result.scenario = job.scenario;
    lane.result.scheduler = job.scheduler;
    lane.result.seed = hub_seed;
    lane.result.episodes = cfg.episodes_per_hub;
    lane.result.slots_per_episode = lane.env->slots_per_episode();
    lane.result.episode_profit.reserve(cfg.episodes_per_hub);
    neighbors[i] = job.neighbors;
    coupled = coupled || job.coupled();
  }

  const policy::ObservationLayout layout = lanes.front().env->observation_layout();
  const std::unique_ptr<policy::Policy> pol =
      sim::make_policy(sim::SchedulerKind::kDrl, 0, layout, jobs.front().checkpoint);
  const std::size_t dim = layout.dim();
  nn::Matrix obs(n, dim);
  std::vector<std::size_t> actions(n);
  std::optional<sim::CouplingBus> bus;
  if (coupled) bus.emplace(std::move(neighbors));

  const std::size_t threads = std::min(std::max<std::size_t>(cfg.lockstep_threads, 1), n);
  std::vector<std::unique_ptr<policy::Policy::Workspace>> workspaces;
  for (std::size_t w = 0; w < threads; ++w) workspaces.push_back(pol->make_workspace());
  std::vector<std::vector<double>> scratch(threads, std::vector<double>(dim));
  std::vector<std::size_t> bad_observe(threads, 0);
  std::atomic<std::size_t> active_count{n};
  std::uint32_t slot = 0;
  std::uint64_t crew_span = kNoParent;

  const auto row = [&](std::size_t i) {
    return std::span<double>(obs.data().data() + i * dim, dim);
  };

  const std::function<void(std::size_t)> member = [&](std::size_t w) {
    const Scope busy(tracer, SpanName::kMember, slot, static_cast<std::uint32_t>(w), crew_span);
    const std::size_t begin = n * w / threads;
    const std::size_t end = n * (w + 1) / threads;
    // Episode turnover.
    bool live = false;
    for (std::size_t i = begin; i < end; ++i) {
      Lane& lane = lanes[i];
      if (!lane.active) continue;
      live = true;
      if (!lane.needs_begin) continue;
      lane.needs_begin = false;
      if (bus) bus->drop_pending(i);
      {
        const Scope s(tracer, SpanName::kReset, slot);
        lane.env->reset_into(row(i));
      }
      lane.record_soc = lane.episodes_done + 1 == cfg.episodes_per_hub;
      if (lane.record_soc) {
        lane.soc = sim::SocDigest{};
        lane.soc.first = lane.env->soc_frac();
        lane.soc.min = std::numeric_limits<double>::infinity();
        lane.soc.max = -std::numeric_limits<double>::infinity();
      }
    }
    // The member's row-block forward.
    if (live) {
      const Scope s(tracer, SpanName::kDecideRows, slot, static_cast<std::uint32_t>(end - begin));
      pol->decide_rows(obs, begin, end, std::span<std::size_t>(actions), *workspaces[w]);
    }
    // Step every live lane.
    for (std::size_t i = begin; i < end; ++i) {
      Lane& lane = lanes[i];
      if (!lane.active) continue;
      lane.action = actions[i];
      core::StepOutcome sr;
      if (bus) {
        core::SlotCoupling sc;
        {
          const Scope s(tracer, SpanName::kTake, slot);
          sc.import_kw = bus->take(i);
        }
        {
          const Scope s(tracer, SpanName::kStepCoupled, slot);
          sr = lane.env->step_into(lane.action, row(i), sc);
        }
        {
          const Scope s(tracer, SpanName::kDeposit, slot);
          bus->deposit(i, sc.export_kw);
        }
        lane.result.through_kwh += sc.through_kw * lane.dt_hours;
        lane.result.spill_exported_kwh += sc.export_kw * lane.dt_hours;
        lane.result.spill_served_kwh += sc.served_import_kw * lane.dt_hours;
        lane.result.spill_dropped_kwh += sc.dropped_import_kw * lane.dt_hours;
        if (sc.outage) ++lane.result.outage_slots;
      } else {
        const Scope s(tracer, SpanName::kStep, slot);
        sr = lane.env->step_into(lane.action, row(i));
      }
      if (!sr.done && (slot + i) % kObserveEvery == 0) {
        {
          const Scope s(tracer, SpanName::kObserve, slot);
          lane.env->observe_into(scratch[w]);
        }
        const std::span<const double> written = row(i);
        if (!std::equal(written.begin(), written.end(), scratch[w].begin())) ++bad_observe[w];
      }
      if (lane.record_soc) {
        const double soc = lane.env->soc_frac();
        lane.soc.last = soc;
        lane.soc.min = std::min(lane.soc.min, soc);
        lane.soc.max = std::max(lane.soc.max, soc);
        lane.soc.checksum += soc;
        ++lane.soc.samples;
      }
      if (!sr.done) continue;
      if (lane.record_soc) {
        lane.soc.mean = lane.soc.samples > 0
                            ? lane.soc.checksum / static_cast<double>(lane.soc.samples)
                            : 0.0;
        lane.result.soc = lane.soc;
      }
      const core::ProfitLedger& ledger = lane.env->ledger();
      lane.result.revenue += ledger.total_revenue();
      lane.result.grid_cost += ledger.total_grid_cost();
      lane.result.bp_cost += ledger.total_bp_cost();
      lane.result.profit += ledger.total_profit();
      lane.result.episode_profit.push_back(ledger.total_profit());
      ++lane.episodes_done;
      if (lane.episodes_done < cfg.episodes_per_hub) {
        lane.needs_begin = true;
      } else {
        lane.active = false;
        active_count.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  };

  BarrierCrew crew(threads);
  while (active_count.load(std::memory_order_relaxed) > 0) {
    {
      const Scope run(tracer, SpanName::kCrewRun, slot);
      crew_span = run.id();
      crew.run(member);
    }
    if (bus) {
      const Scope s(tracer, SpanName::kExchange, slot);
      bus->exchange();
    }
    ++slot;
  }

  for (const std::size_t bad : bad_observe) observe_mismatches += bad;
  std::vector<sim::HubRunResult> results(n);
  for (std::size_t i = 0; i < n; ++i) results[i] = std::move(lanes[i].result);
  return results;
}

/// The serial reference: run_lockstep with one crew member.
struct Reference {
  std::vector<sim::HubRunResult> results;
  double wall_s = 0.0;
};

Reference reference(const Setup& setup) {
  sim::FleetRunnerConfig serial = setup.cfg;
  serial.lockstep_threads = 1;
  Reference ref;
  const double t0 = now_s();
  ref.results = sim::FleetRunner(serial).run_lockstep(setup.jobs);
  ref.wall_s = now_s() - t0;
  return ref;
}

/// One run_lockstep of the whole fleet, compared hub by hub with the
/// reference; returns the hub-slots it simulated.
double checked_run(const sim::FleetRunner& runner, const Setup& setup, const Reference& ref,
                   Outcome& out) {
  const std::size_t hubs = setup.jobs.size();
  out.attempted += hubs;
  try {
    const std::vector<sim::HubRunResult> results = runner.run_lockstep(setup.jobs);
    for (std::size_t i = 0; i < hubs; ++i) out.failed += results[i] == ref.results[i] ? 0 : 1;
  } catch (const std::exception& e) {
    out.failed += hubs;
    log(std::string("run_lockstep threw: ") + e.what());
  }
  return static_cast<double>(hubs * ref.results.front().slots_per_episode);
}

}  // namespace

Outcome run_fleet_drl_metro(const RunOptions& opt) {
  Outcome out;
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  time_setup(setup_s, kFirstSetupCalls, kFirstSetupS, [&] { setup.emplace(build(opt)); });
  log("fleet_drl_metro: " + std::to_string(setup->jobs.size()) + " coupled DRL hubs, crew " +
      std::to_string(opt.threads));
  const Reference ref = reference(*setup);
  const sim::FleetRunner runner(setup->cfg);
  out.reps = timed_loop(
      opt.seconds, 3, static_cast<double>(opt.threads),
      [&] { return checked_run(runner, *setup, ref, out); },
      [&] { time_setup(setup_s, 1, kSetupBlockS, [&] { (void)build(opt); }); });
  out.detail.num("serial_reference_s", ref.wall_s);
  emit_end_to_end(out, static_cast<double>(opt.threads), setup_s);
  return out;
}

void profile_fleet_drl_metro(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                             Layers& layers) {
  const Setup setup = build(opt);
  const std::vector<sim::FleetJob>& jobs = setup.jobs;
  const Reference ref = reference(setup);
  const std::size_t hubs = jobs.size();
  const std::size_t slots_per_episode = ref.results.front().slots_per_episode;

  // The workload the traced run is for cycles through untraced, serial-
  // reference and traced repetitions, so the baselines of the overhead and
  // the speedup sample the same host phases.
  const sim::FleetRunner runner(setup.cfg);
  const auto untraced_rep = [&] {
    out.reps.push_back(
        timed_loop(0.0, 1, 0.0, [&] { return checked_run(runner, setup, ref, out); }).front());
  };

  Tracer tracer;
  std::vector<double> traced_walls, serial_walls;
  CrewTotals crew;
  std::vector<NameTotals> totals;
  std::size_t observe_mismatches = 0;
  const double trace_start = now_s();
  while (traced_walls.empty() ||
         now_s() - trace_start < budget.untraced_s + budget.traced_s) {
    if (budget.own()) {
      untraced_rep();
      serial_walls.push_back(reference(setup).wall_s);
    }
    tracer.clear();
    out.attempted += hubs;
    const double t0 = now_s();
    const std::vector<sim::HubRunResult> results =
        traced_lockstep(jobs, setup.cfg, tracer, observe_mismatches);
    traced_walls.push_back(now_s() - t0);
    for (std::size_t i = 0; i < hubs; ++i) out.failed += results[i] == ref.results[i] ? 0 : 1;
    if (results != ref.results) out.errors.push_back("traced replica differs from run_lockstep");
    const CrewTotals c = crew_totals(tracer, std::min(opt.threads, hubs));
    crew.wait_ns += c.wait_ns;
    crew.capacity_ns += c.capacity_ns;
    crew.max_busy_ns += c.max_busy_ns;
    crew.mean_busy_ns += c.mean_busy_ns;
    crew.slots += c.slots;
    accumulate(totals, tracer.totals());
  }
  if (observe_mismatches > 0) {
    out.errors.push_back(std::to_string(observe_mismatches) +
                         " observe_into samples differ from the step_into observation");
  }
  const std::size_t stage_mismatches = replay_stages(hub_specs(jobs, setup.cfg), layers);
  if (stage_mismatches > 0) {
    out.errors.push_back(std::to_string(stage_mismatches) + " replayed stage series differ");
  }

  env_layers(totals, slots_per_episode, layers);
  rows_layers(totals, actor_macs_per_row(jobs.front().checkpoint->config), layers);
  layers["sim.barrier_wait_frac"] = crew.wait_ns / crew.capacity_ns;
  layers["sim.crew_imbalance"] = crew.max_busy_ns / crew.mean_busy_ns;
  layers["sim.exchange_ns_per_slot"] =
      static_cast<double>(totals[static_cast<std::size_t>(SpanName::kExchange)].total_ns) /
      static_cast<double>(crew.slots);
  double routed = 0.0;
  for (const sim::HubRunResult& r : ref.results) routed += r.spill_exported_kwh;
  layers["sim.routed_kwh"] = routed;
  if (budget.own()) {
    const double untraced_wall = median_wall(out.reps, static_cast<double>(opt.threads));
    own_layers(opt, out.reps, untraced_wall, serial_walls, traced_walls, layers);
  }
  add_span_detail(out, "spans.fleet_drl_metro", totals);
}

}  // namespace perfbench
