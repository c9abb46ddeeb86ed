#include "workloads.hpp"

#include "common/rng.hpp"
#include "common/time_grid.hpp"
#include "ev/behavior.hpp"
#include "ev/station.hpp"
#include "policy/observation.hpp"
#include "power/base_station.hpp"
#include "pricing/rtp.hpp"
#include "pricing/selling.hpp"
#include "renewables/plant.hpp"
#include "traffic/generator.hpp"
#include "weather/weather.hpp"

#include <iostream>

namespace perfbench {

using namespace ecthub;

std::size_t episode_days(Size size) { return size == Size::kSmoke ? 2 : 30; }

std::shared_ptr<const policy::DrlCheckpoint> make_actor(std::uint64_t seed) {
  nn::Rng rng(mix_seed(seed, kActorStream));
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = policy::ObservationLayout{}.dim();
  policy::DrlPolicy actor(cfg, rng);
  return std::make_shared<const policy::DrlCheckpoint>(actor.checkpoint());
}

double actor_macs_per_row(const policy::DrlPolicyConfig& cfg) {
  return static_cast<double>(cfg.state_dim * cfg.trunk_dim + cfg.trunk_dim * cfg.head_dim +
                             cfg.head_dim * cfg.action_count);
}

void time_setup(std::vector<double>& samples, std::size_t min_calls, double min_s,
                const std::function<void()>& once) {
  const double start = now_s();
  for (std::size_t k = 0; k < min_calls || now_s() - start < min_s; ++k) {
    const double t0 = now_s();
    once();
    samples.push_back(now_s() - t0);
  }
}

void emit_end_to_end(Outcome& out, double busy_threads, const std::vector<double>& setup_samples) {
  std::vector<double> throughput;
  double work = 0.0, wall = 0.0;
  for (const Rep& r : usable_reps(out.reps, busy_threads)) {
    throughput.push_back(r.work / r.wall_s / 1000.0);
    work += r.work;
    wall += r.wall_s;
  }
  // Work over time across the whole measured window: the host drifts between
  // faster and slower phases lasting seconds, and the aggregate weighs them
  // by time where a median of repetitions would jump between them.
  out.add("kslots_per_s", "kslot/s", work / wall / 1000.0, throughput);
  out.add("setup_s", "s", median(setup_samples), setup_samples);
  out.add("max_rss_mb", "MB", peak_rss_mb());
}

namespace {

/// Every per-layer metric in BENCHMARK.json order, with its unit and the
/// workload that measures it when the traced workload does not run that
/// layer ("" = always the traced workload's own).
struct LayerSchema {
  const char* name;
  const char* unit;
  const char* home;
};

const std::vector<LayerSchema>& layer_schema() {
  static const std::vector<LayerSchema> schema = {
      {"core.reset_ns_per_slot", "ns/slot", "sweep_rules"},
      {"traffic.gen_ns_per_slot", "ns/slot", "sweep_rules"},
      {"weather.gen_ns_per_slot", "ns/slot", "sweep_rules"},
      {"renewables.gen_ns_per_slot", "ns/slot", "sweep_rules"},
      {"pricing.gen_ns_per_slot", "ns/slot", "sweep_rules"},
      {"ev.sim_ns_per_slot", "ns/slot", "sweep_rules"},
      {"core.step_ns", "ns", "sweep_rules"},
      {"core.observe_ns", "ns", "sweep_rules"},
      {"policy.decide_ns.none", "ns", "sweep_rules"},
      {"policy.decide_ns.tou", "ns", "sweep_rules"},
      {"policy.decide_ns.greedy", "ns", "sweep_rules"},
      {"policy.decide_ns.forecast", "ns", "sweep_rules"},
      {"policy.rows_ns_per_row", "ns/row", "fleet_drl_metro"},
      {"policy.rows_per_call", "row/call", "fleet_drl_metro"},
      {"nn.forward_gmacs", "GMAC/s", "fleet_drl_metro"},
      {"sim.barrier_wait_frac", "fraction", "fleet_drl_metro"},
      {"sim.crew_imbalance", "ratio", "fleet_drl_metro"},
      {"sim.exchange_ns_per_slot", "ns/slot", "fleet_drl_metro"},
      {"sim.routed_kwh", "kWh", "fleet_drl_metro"},
      {"sim.shard_bytes", "bytes", "sweep_rules"},
      {"sim.shard_serialize_us", "us", "sweep_rules"},
      {"sim.shard_parse_us", "us", "sweep_rules"},
      {"sim.merge_us", "us", "sweep_rules"},
      {"serve.mean_batch", "row/call", "serve_drl"},
      {"serve.max_queue_depth", "count", "serve_drl"},
      {"serve.service_p99_us", "us", "serve_drl"},
      {"serve.late_p99_us", "us", "serve_drl"},
      {"rl.collect_ns_per_transition", "ns", "train_ppo"},
      {"rl.update_ns_per_transition", "ns", "train_ppo"},
      {"harness.cpu_wall", "ratio", ""},
      {"harness.cores_online", "count", ""},
      {"harness.speedup_vs_serial", "ratio", ""},
      {"trace.overhead_frac", "fraction", ""},
  };
  return schema;
}

const NameTotals& of(const std::vector<NameTotals>& totals, SpanName name) {
  return totals[static_cast<std::size_t>(name)];
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fleet_drl_metro", &run_fleet_drl_metro, &profile_fleet_drl_metro},
      {"sweep_rules", &run_sweep_rules, &profile_sweep_rules},
      {"serve_drl", nullptr, &profile_serve_drl},
      {"train_ppo", nullptr, &profile_train_ppo},
  };
  return all;
}

Outcome run_traced(const Workload& workload, const RunOptions& opt) {
  Outcome out;
  std::map<std::string, Layers> profiles;
  ProfileBudget own;
  own.untraced_s = opt.seconds / 4.0;
  own.traced_s = opt.seconds / 4.0;
  workload.profile(opt, own, out, profiles[workload.name]);
  ProfileBudget other;
  other.traced_s = opt.seconds / 6.0;
  for (const Workload& w : workloads()) {
    if (w.profile != workload.profile) w.profile(opt, other, out, profiles[w.name]);
  }

  JsonObject sources;
  for (const LayerSchema& m : layer_schema()) {
    std::string source = workload.name;
    const Layers* layers = &profiles[source];
    if (!layers->contains(m.name) && *m.home != '\0') {
      source = m.home;
      layers = &profiles[source];
    }
    const auto it = layers->find(m.name);
    if (it == layers->end()) {
      out.errors.push_back(std::string("no workload measured ") + m.name);
      out.add(m.name, m.unit, 0.0);
      continue;
    }
    out.add(m.name, m.unit, it->second);
    sources.str(m.name, source);
  }
  out.detail.raw("layer_source", sources.dump());
  return out;
}

double median_wall(std::vector<Rep>& reps, double busy_threads) {
  std::vector<double> walls;
  for (const Rep& r : usable_reps(reps, busy_threads)) walls.push_back(r.wall_s);
  return median(walls);
}

void own_layers(const RunOptions& opt, const std::vector<Rep>& untraced, double untraced_wall,
                const std::vector<double>& serial_walls, const std::vector<double>& traced_walls,
                Layers& layers) {
  std::vector<double> cpu_wall;
  for (const Rep& r : untraced) cpu_wall.push_back(r.cpu_wall());
  layers["harness.cpu_wall"] = median(cpu_wall);
  layers["harness.cores_online"] = opt.cores_online;
  layers["harness.speedup_vs_serial"] = median(serial_walls) / untraced_wall;
  layers["trace.overhead_frac"] = median(traced_walls) / untraced_wall - 1.0;
}

void accumulate(std::vector<NameTotals>& sum, const std::vector<NameTotals>& rep) {
  sum.resize(rep.size());
  for (std::size_t k = 0; k < rep.size(); ++k) {
    sum[k].count += rep[k].count;
    sum[k].total_ns += rep[k].total_ns;
    sum[k].self_ns += rep[k].self_ns;
    sum[k].arg_sum += rep[k].arg_sum;
  }
}

void env_layers(const std::vector<NameTotals>& totals, std::size_t slots_per_episode,
                Layers& layers) {
  layers["core.reset_ns_per_slot"] =
      of(totals, SpanName::kReset).mean_ns() / static_cast<double>(slots_per_episode);
  const NameTotals& step = of(totals, SpanName::kStep);
  const NameTotals& coupled = of(totals, SpanName::kStepCoupled);
  layers["core.step_ns"] = static_cast<double>(step.total_ns + coupled.total_ns) /
                           static_cast<double>(step.count + coupled.count);
  if (of(totals, SpanName::kObserve).count > 0) {
    layers["core.observe_ns"] = of(totals, SpanName::kObserve).mean_ns();
  }
}

void rows_layers(const std::vector<NameTotals>& totals, double macs_per_row, Layers& layers) {
  const NameTotals& rows = of(totals, SpanName::kDecideRows);
  const auto n = static_cast<double>(rows.arg_sum);
  const auto ns = static_cast<double>(rows.total_ns);
  layers["policy.rows_ns_per_row"] = ns / n;
  layers["policy.rows_per_call"] = n / static_cast<double>(rows.count);
  layers["nn.forward_gmacs"] = n * macs_per_row / ns;  // MAC per ns == GMAC per s
}

void add_span_detail(Outcome& out, const std::string& key,
                     const std::vector<NameTotals>& totals) {
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const NameTotals& t = totals[i];
    if (t.count == 0) continue;
    JsonObject row;
    row.str("span", span_label(static_cast<SpanName>(i)))
        .integer("count", static_cast<long long>(t.count))
        .num("mean_ns", t.mean_ns())
        .num("mean_arg", static_cast<double>(t.arg_sum) / static_cast<double>(t.count))
        .num("total_ms", static_cast<double>(t.total_ns) * 1e-6)
        .num("self_ms", static_cast<double>(t.self_ns) * 1e-6);
    rows.push_back(row.dump());
  }
  out.detail.raw(key, json_array(rows));
}

std::vector<HubSpec> hub_specs(const std::vector<sim::FleetJob>& jobs,
                               const sim::FleetRunnerConfig& cfg) {
  std::vector<HubSpec> specs;
  specs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    HubSpec s{jobs[i].hub, jobs[i].env};
    s.hub.seed = mix_seed(cfg.base_seed, cfg.hub_id_offset + i);
    specs.push_back(std::move(s));
  }
  return specs;
}

std::size_t replay_stages(const std::vector<HubSpec>& hubs, Layers& layers) {
  Tracer tracer;
  std::size_t mismatches = 0;
  std::size_t slots = 0;
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    const core::HubConfig& hub = hubs[i].hub;
    const core::HubEnvConfig& env_cfg = hubs[i].env;
    const TimeGrid grid(env_cfg.episode_days, env_cfg.slots_per_day);
    const auto slot = static_cast<std::uint32_t>(i);

    // Built once per env (constructor / first reset), so outside the spans.
    std::vector<bool> discounted(grid.size(), false);
    if (!env_cfg.discount_by_hour.empty()) {
      for (std::size_t t = 0; t < grid.size(); ++t) {
        const auto hour = static_cast<std::size_t>(grid.hour_of_day(t));
        discounted[t] = env_cfg.discount_by_hour[hour % 24];
      }
    }
    const pricing::SellingPricePolicy selling(
        hub.selling,
        pricing::DiscountSchedule::from_flags(discounted, env_cfg.discount_fraction));
    const ev::ChargingStation station(
        hub.station,
        ev::StrataProfile(hub.ev_popularity, hub.ev_evening_sensitivity,
                          hub.ev_evening_commuter));

    // The fork order of generate_episode: traffic, weather, RTP, EV.
    Rng rng(hub.seed);
    traffic::TrafficTrace traffic;
    weather::WeatherSeries wx;
    renewables::GenerationSeries gen;
    std::vector<double> rtp;
    std::vector<double> srtp;
    ev::OccupancySeries occ;
    {
      const Scope s(tracer, SpanName::kTraffic, slot);
      traffic::TrafficGenerator traffic_gen(hub.traffic, rng.fork());
      traffic_gen.generate_into(grid, traffic);
    }
    {
      const Scope s(tracer, SpanName::kWeather, slot);
      weather::WeatherGenerator wx_gen(hub.weather, rng.fork());
      wx_gen.generate_into(grid, wx);
    }
    {
      const Scope s(tracer, SpanName::kRenewables, slot);
      const renewables::RenewablePlant plant(hub.plant);
      plant.generate_into(wx, gen);
    }
    {
      const Scope s(tracer, SpanName::kPricing, slot);
      pricing::RtpGenerator rtp_gen(hub.rtp, rng.fork());
      rtp_gen.generate_into(grid, traffic.load_rate, rtp);
      selling.series_into(rtp, srtp);
    }
    {
      const Scope s(tracer, SpanName::kEv, slot);
      Rng ev_rng = rng.fork();
      station.simulate_into(grid, discounted, ev_rng, occ);
    }
    slots += grid.size();

    // Same hub, same seed: the env's first episode must hold these series.
    core::EctHubEnv env(hub, env_cfg);
    std::vector<double> state(env.state_dim());
    env.reset_into(state);
    const power::BaseStation bs(hub.bs);
    const bool fronted = env_cfg.coupling.enabled && env_cfg.coupling.front_seed != 0;
    bool bs_ok = true, rtp_ok = true, srtp_ok = true, renew_ok = true;
    for (std::size_t t = 0; t < grid.size(); ++t) {
      bs_ok = bs_ok && env.bs_power_series()[t] == bs.power_kw(traffic.load_rate[t]);
      rtp_ok = rtp_ok && env.rtp_at(t) == rtp[t];
      srtp_ok = srtp_ok && env.srtp_at(t) == srtp[t];
      if (!fronted) {
        renew_ok = renew_ok &&
                   env.renewable_series()[t] == gen.pv_w[t] / 1000.0 + gen.wt_w[t] / 1000.0;
      }
    }
    const bool ev_ok = env.cs_power_series() == occ.power_kw;
    mismatches += static_cast<std::size_t>(!bs_ok) + static_cast<std::size_t>(!rtp_ok) +
                  static_cast<std::size_t>(!srtp_ok) + static_cast<std::size_t>(!renew_ok) +
                  static_cast<std::size_t>(!ev_ok);
  }

  const std::vector<NameTotals> totals = tracer.totals();
  const auto per_slot = [&](SpanName name) {
    return slots > 0 ? static_cast<double>(totals[static_cast<std::size_t>(name)].total_ns) /
                           static_cast<double>(slots)
                     : 0.0;
  };
  layers["traffic.gen_ns_per_slot"] = per_slot(SpanName::kTraffic);
  layers["weather.gen_ns_per_slot"] = per_slot(SpanName::kWeather);
  layers["renewables.gen_ns_per_slot"] = per_slot(SpanName::kRenewables);
  layers["pricing.gen_ns_per_slot"] = per_slot(SpanName::kPricing);
  layers["ev.sim_ns_per_slot"] = per_slot(SpanName::kEv);
  return mismatches;
}

void log(const std::string& line) { std::cerr << "[perfbench] " << line << std::endl; }

}  // namespace perfbench
