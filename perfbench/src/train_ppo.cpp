// train_ppo: PpoTrainer::train_fleet over urban replica lanes with a
// 4-thread collector and a fixed number of iterations — the only workload
// on the nn write path (backward + Adam in PpoTrainer::update).  Every
// repetition trains from the same fixed-seed initial weights on fresh lane
// envs, so every repetition must end on the same weights.
//
// It is profiled only.  The one-thread update is ~90 % of its wall time, so
// its throughput follows one core's speed, which moved too much between
// runs on a shared VM (NOTES.md); BENCHMARK.json does not list it, and the
// traced run of every listed workload profiles it for the rl.* layers.
#include "workloads.hpp"

#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "policy/observation.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_collector.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using namespace ecthub;

namespace {

constexpr std::size_t kIterations = 2;

std::size_t train_lanes(Size size) { return size == Size::kSmoke ? 2 : 4; }

struct Setup {
  std::vector<HubSpec> lanes;
  rl::PpoConfig ppo;
  rl::ActorCriticConfig ac;
  std::uint64_t trainer_seed = 0;
  std::uint64_t collector_seed = 0;
};

Setup build(const RunOptions& opt) {
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  const sim::Scenario& urban = registry.at("urban");
  Setup s;
  const std::uint64_t base = mix_seed(opt.seed, kTrainStream);
  for (std::size_t l = 0; l < train_lanes(opt.size); ++l) {
    HubSpec spec{urban.make_hub("train-" + std::to_string(l), mix_seed(base, l)), urban.env};
    spec.env.episode_days = episode_days(opt.size);
    spec.hub.seed = mix_seed(base, l);
    s.lanes.push_back(std::move(spec));
  }
  s.ppo.episodes_per_iteration = 1;  // per lane
  s.ac.state_dim = policy::ObservationLayout{}.dim();
  s.trainer_seed = mix_seed(opt.seed, kActorStream);
  s.collector_seed = mix_seed(opt.seed, kCollectStream);
  return s;
}

/// Forwards to an EctHubEnv with a span around every reset_into and
/// step_into the collector makes.
class TracedEnv final : public rl::Env {
 public:
  TracedEnv(core::EctHubEnv& env, Tracer& tracer) : env_(env), tracer_(tracer) {}

  std::vector<double> reset() override { return env_.reset(); }
  rl::StepResult step(std::size_t action) override { return env_.step(action); }
  void reset_into(std::span<double> state) override {
    const Scope s(tracer_, SpanName::kReset, 0);
    env_.reset_into(state);
  }
  rl::StepOutcome step_into(std::size_t action, std::span<double> next_state) override {
    const Scope s(tracer_, SpanName::kStep, 0);
    return env_.step_into(action, next_state);
  }
  [[nodiscard]] std::size_t state_dim() const override { return env_.state_dim(); }
  [[nodiscard]] std::size_t action_count() const override { return env_.action_count(); }

 private:
  core::EctHubEnv& env_;
  Tracer& tracer_;
};

/// Fresh lane envs from the specs.
std::vector<std::unique_ptr<core::EctHubEnv>> lane_envs(const Setup& s) {
  std::vector<std::unique_ptr<core::EctHubEnv>> envs;
  for (const HubSpec& spec : s.lanes) {
    envs.push_back(std::make_unique<core::EctHubEnv>(spec.hub, spec.env));
  }
  return envs;
}

/// The serial reference: train_fleet from the fixed initial weights with a
/// 1-thread collector; returns the trained actor's checkpoint blob.
std::string reference(const Setup& s) {
  const auto envs = lane_envs(s);
  std::vector<rl::Env*> lanes;
  for (const auto& e : envs) lanes.push_back(e.get());
  rl::PpoTrainer trainer(s.ppo, s.ac, nn::Rng(s.trainer_seed));
  rl::VecCollectorConfig collector;
  collector.threads = 1;
  collector.seed = s.collector_seed;
  (void)trainer.train_fleet(lanes, kIterations, collector);
  return core::export_actor_checkpoint(trainer.policy()).blob;
}

/// train_fleet re-driven through VecRolloutCollector::collect and
/// PpoTrainer::update, with a span around each and around every env call.
/// Must end on the same weights as reference(), at any collector size.
std::string traced_train(const Setup& s, std::size_t collector_threads, Tracer& tracer) {
  const auto envs = lane_envs(s);
  std::vector<std::unique_ptr<TracedEnv>> traced;
  std::vector<rl::Env*> lanes;
  for (const auto& e : envs) {
    traced.push_back(std::make_unique<TracedEnv>(*e, tracer));
    lanes.push_back(traced.back().get());
  }
  rl::PpoTrainer trainer(s.ppo, s.ac, nn::Rng(s.trainer_seed));
  rl::VecCollectorConfig cfg;
  cfg.threads = collector_threads;
  cfg.seed = s.collector_seed;
  rl::VecRolloutCollector collector(lanes, cfg);
  for (std::size_t it = 0; it < kIterations; ++it) {
    collector.clear();
    rl::VecRolloutCollector::Stats stats;
    {
      const Scope c(tracer, SpanName::kCollect, static_cast<std::uint32_t>(it));
      stats = collector.collect(trainer.policy(), s.ppo.episodes_per_iteration);
    }
    rl::RolloutBuffer merged;
    merged.reserve(stats.transitions);
    for (const rl::RolloutBuffer& lane : collector.buffers()) merged.append(lane);
    const Scope u(tracer, SpanName::kUpdate, static_cast<std::uint32_t>(it),
                  static_cast<std::uint32_t>(stats.transitions));
    (void)trainer.update(merged);
  }
  return core::export_actor_checkpoint(trainer.policy()).blob;
}

}  // namespace

void profile_train_ppo(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                       Layers& layers) {
  const Setup setup = build(opt);
  const std::string ref = reference(setup);

  Tracer tracer;
  std::vector<NameTotals> totals;
  const double trace_start = now_s();
  for (bool first = true; first || now_s() - trace_start < budget.traced_s; first = false) {
    tracer.clear();
    out.attempted += kIterations;
    if (traced_train(setup, opt.threads, tracer) != ref) {
      out.failed += kIterations;
      out.errors.push_back("traced replica trained different weights than train_fleet");
    }
    accumulate(totals, tracer.totals());
  }
  const std::size_t stage_mismatches = replay_stages(setup.lanes, layers);
  if (stage_mismatches > 0) {
    out.errors.push_back(std::to_string(stage_mismatches) + " replayed stage series differ");
  }

  const core::HubEnvConfig& env = setup.lanes.front().env;
  env_layers(totals, env.episode_days * env.slots_per_day, layers);
  const NameTotals& collect = totals[static_cast<std::size_t>(SpanName::kCollect)];
  const NameTotals& update = totals[static_cast<std::size_t>(SpanName::kUpdate)];
  const auto trained = static_cast<double>(update.arg_sum);
  layers["rl.collect_ns_per_transition"] = static_cast<double>(collect.total_ns) / trained;
  layers["rl.update_ns_per_transition"] = static_cast<double>(update.total_ns) / trained;
  add_span_detail(out, "spans.train_ppo", totals);
}

}  // namespace perfbench
