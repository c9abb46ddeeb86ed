// sweep_rules: per-hub FleetRunner::run on a 4-thread pool over uncoupled
// jobs of the none / tou / greedy / forecast rule policies, each across the
// six scenarios, followed by an in-memory shard round trip of the results
// (plan_shard -> serialize_shard -> parse_shard -> AggregateReport::merge).
// No nn, no barrier: episode generation and step_into are the whole slot.
// `random` is left out: its policy seed tag is private to fleet_runner.cpp,
// so the traced replica could not reproduce it.
#include "workloads.hpp"

#include "common/rng.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "sim/shard_io.hpp"

#include <atomic>
#include <limits>
#include <optional>
#include <thread>

namespace perfbench {

using namespace ecthub;

namespace {

constexpr std::size_t kShards = 8;

const std::vector<sim::SchedulerKind>& rule_kinds() {
  static const std::vector<sim::SchedulerKind> kinds = {
      sim::SchedulerKind::kNoBattery, sim::SchedulerKind::kTou,
      sim::SchedulerKind::kGreedyPrice, sim::SchedulerKind::kForecast};
  return kinds;
}

SpanName decide_span(sim::SchedulerKind kind) {
  switch (kind) {
    case sim::SchedulerKind::kNoBattery: return SpanName::kDecideNone;
    case sim::SchedulerKind::kTou: return SpanName::kDecideTou;
    case sim::SchedulerKind::kGreedyPrice: return SpanName::kDecideGreedy;
    default: return SpanName::kDecideForecast;
  }
}

/// Hubs per (rule kind, scenario).
std::size_t hubs_per_cell(Size size) { return size == Size::kSmoke ? 1 : 20; }

struct Setup {
  std::vector<sim::FleetJob> jobs;
  sim::FleetRunnerConfig cfg;
};

Setup build(const RunOptions& opt) {
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  const std::vector<std::string> keys = sim::builtin_scenario_keys();
  Setup s;
  for (const sim::SchedulerKind kind : rule_kinds()) {
    std::vector<sim::FleetJob> jobs = sim::make_fleet_jobs(
        registry, keys, keys.size() * hubs_per_cell(opt.size), episode_days(opt.size), kind);
    for (sim::FleetJob& job : jobs) s.jobs.push_back(std::move(job));
  }
  s.cfg.base_seed = mix_seed(opt.seed, kFleetStream);
  s.cfg.threads = opt.threads;
  return s;
}

/// Cuts `results` into kShards plan_shard slices and takes each through
/// serialize_shard -> parse_shard -> AggregateReport::merge in memory.
/// Returns how many hubs failed the round trip (every hub of a shard whose
/// parsed results or report differ, all of them when the merged report
/// differs from `expected`).
std::size_t shard_pass(const std::vector<sim::HubRunResult>& results,
                       const sim::AggregateReport& expected, Tracer* tracer) {
  sim::AggregateReport merged;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    sim::ShardData shard;
    shard.plan = sim::plan_shard(results.size(), i, kShards);
    const auto begin = results.begin() + static_cast<std::ptrdiff_t>(shard.plan.begin);
    const auto end = results.begin() + static_cast<std::ptrdiff_t>(shard.plan.end);
    shard.results.assign(begin, end);
    shard.report = sim::AggregateReport(shard.results);
    // A span around each stage when traced; the untraced sweep passes null.
    const auto span = [&](std::optional<Scope>& s, SpanName name, std::size_t arg) {
      if (tracer) {
        s.emplace(*tracer, name, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(arg));
      }
    };
    std::string bytes;
    {
      std::optional<Scope> s;
      span(s, SpanName::kSerialize, 0);
      bytes = sim::serialize_shard(shard);
    }
    sim::ShardData parsed;
    {
      std::optional<Scope> s;
      span(s, SpanName::kParse, bytes.size());
      parsed = sim::parse_shard(bytes);
    }
    {
      std::optional<Scope> s;
      span(s, SpanName::kMerge, 0);
      merged.merge(parsed.report);
    }
    if (parsed.results != shard.results || !(parsed.report == shard.report) ||
        !(parsed.plan == shard.plan)) {
      failed += shard.plan.size();
    }
  }
  return merged == expected ? failed : results.size();
}

/// Pool accounting of one traced run, from its kJob spans (arg = worker).
struct PoolTotals {
  double wait_frac = 0.0;
  double imbalance = 0.0;
};

PoolTotals pool_totals(const Tracer& tracer, std::size_t workers, double wall_ns) {
  std::vector<double> busy(workers, 0.0);
  for (const std::vector<Span>* spans : tracer.buffers()) {
    for (const Span& s : *spans) {
      if (s.name == SpanName::kJob && s.arg < workers) {
        busy[s.arg] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  double sum = 0.0, mx = 0.0, wait = 0.0;
  for (const double b : busy) {
    sum += b;
    mx = std::max(mx, b);
    wait += std::max(0.0, wall_ns - b);
  }
  PoolTotals t;
  t.wait_frac = wall_ns > 0.0 ? wait / (wall_ns * static_cast<double>(workers)) : 0.0;
  t.imbalance = sum > 0.0 ? mx / (sum / static_cast<double>(workers)) : 0.0;
  return t;
}

/// FleetRunner::run_job re-driven through public calls with a span around
/// each reset_into, decide and step_into (and a sampled observe_into).  Must
/// reproduce run_job bit for bit.
sim::HubRunResult traced_job(const sim::FleetJob& job, std::size_t hub_id,
                             const sim::FleetRunnerConfig& cfg, Tracer& tracer,
                             std::size_t& observe_mismatches) {
  const std::uint64_t hub_seed = mix_seed(cfg.base_seed, hub_id);
  core::HubConfig hub = job.hub;
  hub.seed = hub_seed;
  core::EctHubEnv env(std::move(hub), job.env);
  // The seed argument only feeds RandomPolicy, which this workload excludes.
  const auto pol = sim::make_policy(job.scheduler, 0, env.observation_layout(), job.checkpoint);
  const SpanName decide = decide_span(job.scheduler);

  sim::HubRunResult r;
  r.hub_id = hub_id;
  r.hub_name = job.hub.name;
  r.scenario = job.scenario;
  r.scheduler = job.scheduler;
  r.seed = hub_seed;
  r.episodes = cfg.episodes_per_hub;
  r.slots_per_episode = env.slots_per_episode();
  r.episode_profit.reserve(cfg.episodes_per_hub);

  std::vector<double> state(env.state_dim());
  std::vector<double> scratch(env.state_dim());
  for (std::size_t ep = 0; ep < cfg.episodes_per_hub; ++ep) {
    {
      const Scope s(tracer, SpanName::kReset, 0);
      env.reset_into(state);
    }
    pol->begin_episode();
    const bool record_soc = ep + 1 == cfg.episodes_per_hub;
    sim::SocDigest soc;
    if (record_soc) {
      soc.first = env.soc_frac();
      soc.min = std::numeric_limits<double>::infinity();
      soc.max = -std::numeric_limits<double>::infinity();
    }
    bool done = false;
    std::uint32_t slot = 0;
    while (!done) {
      std::size_t action = 0;
      {
        const Scope s(tracer, decide, slot);
        action = pol->decide(state);
      }
      core::StepOutcome sr;
      {
        const Scope s(tracer, SpanName::kStep, slot);
        sr = env.step_into(action, state);
      }
      done = sr.done;
      if (!done && (slot + hub_id) % kObserveEvery == 0) {
        {
          const Scope s(tracer, SpanName::kObserve, slot);
          env.observe_into(scratch);
        }
        if (scratch != state) ++observe_mismatches;
      }
      if (record_soc) {
        const double s = env.soc_frac();
        soc.last = s;
        soc.min = std::min(soc.min, s);
        soc.max = std::max(soc.max, s);
        soc.checksum += s;
        ++soc.samples;
      }
      ++slot;
    }
    if (record_soc) {
      soc.mean = soc.samples > 0 ? soc.checksum / static_cast<double>(soc.samples) : 0.0;
      r.soc = soc;
    }
    const core::ProfitLedger& ledger = env.ledger();
    r.revenue += ledger.total_revenue();
    r.grid_cost += ledger.total_grid_cost();
    r.bp_cost += ledger.total_bp_cost();
    r.profit += ledger.total_profit();
    r.episode_profit.push_back(ledger.total_profit());
  }
  return r;
}

/// FleetRunner::run's work-stealing pool around traced_job.
std::vector<sim::HubRunResult> traced_run(const std::vector<sim::FleetJob>& jobs,
                                          const sim::FleetRunnerConfig& cfg, Tracer& tracer,
                                          std::size_t& observe_mismatches) {
  std::vector<sim::HubRunResult> results(jobs.size());
  const std::size_t threads = std::min(std::max<std::size_t>(cfg.threads, 1), jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::size_t> bad(threads, 0);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size()) return;
        const Scope s(tracer, SpanName::kJob, static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(w));
        results[i] = traced_job(jobs[i], cfg.hub_id_offset + i, cfg, tracer, bad[w]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::size_t b : bad) observe_mismatches += b;
  return results;
}

/// The serial reference: FleetRunner::run_job per hub, and its report.
struct Reference {
  std::vector<sim::HubRunResult> results;
  sim::AggregateReport report;
  double wall_s = 0.0;
};

Reference reference(const Setup& setup) {
  Reference ref;
  const double t0 = now_s();
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    ref.results.push_back(
        sim::FleetRunner::run_job(setup.jobs[i], setup.cfg.hub_id_offset + i, setup.cfg));
  }
  ref.wall_s = now_s() - t0;
  ref.report = sim::AggregateReport(ref.results);
  return ref;
}

/// Hubs whose result differs from the reference, or whose shard failed the
/// round trip.
std::size_t failures(const std::vector<sim::HubRunResult>& results, const Reference& ref,
                     Tracer* tracer) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) failed += results[i] == ref.results[i] ? 0 : 1;
  return std::max(failed, shard_pass(results, ref.report, tracer));
}

/// One sweep with FleetRunner::run plus the shard round trip; returns the
/// hub-slots it simulated.
double checked_sweep(const sim::FleetRunner& runner, const Setup& setup, const Reference& ref,
                     Outcome& out) {
  const std::size_t hubs = setup.jobs.size();
  out.attempted += hubs;
  try {
    out.failed += failures(runner.run(setup.jobs), ref, nullptr);
  } catch (const std::exception& e) {
    out.failed += hubs;
    log(std::string("sweep threw: ") + e.what());
  }
  return static_cast<double>(hubs * ref.results.front().slots_per_episode);
}

}  // namespace

Outcome run_sweep_rules(const RunOptions& opt) {
  Outcome out;
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  time_setup(setup_s, kFirstSetupCalls, kFirstSetupS, [&] { setup.emplace(build(opt)); });
  log("sweep_rules: " + std::to_string(setup->jobs.size()) + " uncoupled rule-policy hubs, " +
      std::to_string(opt.threads) + " threads");
  const Reference ref = reference(*setup);
  const sim::FleetRunner runner(setup->cfg);
  out.reps = timed_loop(
      opt.seconds, 3, static_cast<double>(opt.threads),
      [&] { return checked_sweep(runner, *setup, ref, out); },
      [&] { time_setup(setup_s, 1, kSetupBlockS, [&] { (void)build(opt); }); });
  out.detail.num("serial_reference_s", ref.wall_s);
  emit_end_to_end(out, static_cast<double>(opt.threads), setup_s);
  return out;
}

void profile_sweep_rules(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                         Layers& layers) {
  const Setup setup = build(opt);
  const std::vector<sim::FleetJob>& jobs = setup.jobs;
  const Reference ref = reference(setup);
  const std::size_t hubs = jobs.size();

  // The workload the traced run is for cycles through untraced, serial-
  // reference and traced repetitions, so the baselines of the overhead and
  // the speedup sample the same host phases.
  const sim::FleetRunner runner(setup.cfg);
  const auto untraced_rep = [&] {
    out.reps.push_back(
        timed_loop(0.0, 1, 0.0, [&] { return checked_sweep(runner, setup, ref, out); }).front());
  };

  Tracer tracer;
  std::vector<double> traced_walls, serial_walls;
  std::vector<NameTotals> totals;
  std::vector<double> wait_frac, imbalance;
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
        traced_run(jobs, setup.cfg, tracer, observe_mismatches);
    const double run_wall = now_s() - t0;
    const PoolTotals pool = pool_totals(tracer, std::min(opt.threads, hubs), run_wall * 1e9);
    wait_frac.push_back(pool.wait_frac);
    imbalance.push_back(pool.imbalance);
    out.failed += failures(results, ref, &tracer);
    traced_walls.push_back(now_s() - t0);
    if (results != ref.results) out.errors.push_back("traced replica differs from run_job");
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

  env_layers(totals, ref.results.front().slots_per_episode, layers);
  const auto total = [&](SpanName n) { return totals[static_cast<std::size_t>(n)]; };
  layers["policy.decide_ns.none"] = total(SpanName::kDecideNone).mean_ns();
  layers["policy.decide_ns.tou"] = total(SpanName::kDecideTou).mean_ns();
  layers["policy.decide_ns.greedy"] = total(SpanName::kDecideGreedy).mean_ns();
  layers["policy.decide_ns.forecast"] = total(SpanName::kDecideForecast).mean_ns();
  // The pool's join is this workload's only barrier: the idle share of the
  // workers while the slowest finishes, and the slowest worker's busy time
  // over the mean.
  layers["sim.barrier_wait_frac"] = median(wait_frac);
  layers["sim.crew_imbalance"] = median(imbalance);
  const auto passes = static_cast<double>(traced_walls.size());
  layers["sim.shard_bytes"] = static_cast<double>(total(SpanName::kParse).arg_sum) / passes;
  layers["sim.shard_serialize_us"] =
      static_cast<double>(total(SpanName::kSerialize).total_ns) / passes * 1e-3;
  layers["sim.shard_parse_us"] =
      static_cast<double>(total(SpanName::kParse).total_ns) / passes * 1e-3;
  layers["sim.merge_us"] = static_cast<double>(total(SpanName::kMerge).total_ns) / passes * 1e-3;
  if (budget.own()) {
    const double untraced_wall = median_wall(out.reps, static_cast<double>(opt.threads));
    own_layers(opt, out.reps, untraced_wall, serial_walls, traced_walls, layers);
  }
  add_span_detail(out, "spans.sweep_rules", totals);
}

}  // namespace perfbench
