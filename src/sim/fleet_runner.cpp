#include "sim/fleet_runner.hpp"

#include "common/crew.hpp"
#include "common/parse.hpp"
#include "policy/rule_policies.hpp"
#include "sim/coupling.hpp"
#include "sim/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace ecthub::sim {

namespace {
// The policy stream must be independent of the hub stream: xor with a fixed
// tag so a RandomPolicy never replays the env's own draws.
constexpr std::uint64_t kPolicySeedTag = 0xec7ec7ec7ec7ec7eULL;

void reject_coupled(const char* who, const FleetJob& job) {
  if (!job.coupled()) return;
  throw std::invalid_argument(
      std::string(who) + ": job '" + job.hub.name +
      "' is coupled (env.coupling.enabled or neighbors set); per-hub "
      "execution cannot honor the slot-synchronous exchange — use "
      "run_lockstep");
}

// One hub's episodes: its env, seeded mix_seed(base_seed, hub_id), and the
// HubRunResult they fold into.  Every execution path advances hubs through
// this one state machine — run_job runs one lane to completion,
// run_lockstep one lane per hub slot by slot — so episode turnover, the SoC
// digest, the coupling totals and the ledger fold exist exactly once.
class HubLane {
 public:
  HubLane(const FleetJob& job, std::size_t hub_id, const FleetRunnerConfig& cfg) {
    core::HubConfig hub = job.hub;
    hub.seed = mix_seed(cfg.base_seed, hub_id);
    result_.seed = hub.seed;
    env_ = std::make_unique<core::EctHubEnv>(std::move(hub), job.env);
    result_.hub_id = hub_id;
    result_.hub_name = job.hub.name;
    result_.scenario = job.scenario;
    result_.scheduler = job.scheduler;
    result_.episodes = cfg.episodes_per_hub;
    result_.slots_per_episode = env_->slots_per_episode();
    result_.episode_profit.reserve(cfg.episodes_per_hub);
  }

  [[nodiscard]] core::EctHubEnv& env() noexcept { return *env_; }
  [[nodiscard]] std::uint64_t policy_seed() const noexcept {
    return result_.seed ^ kPolicySeedTag;
  }
  /// True while the hub has episodes left to run.
  [[nodiscard]] bool active() const noexcept {
    return result_.episode_profit.size() < result_.episodes;
  }
  /// True from begin() until the step that ends the episode.
  [[nodiscard]] bool in_episode() const noexcept { return in_episode_; }

  /// Resets the env, writing the first observation into `obs`, and starts
  /// the SoC digest (kept for the last episode only).
  void begin(std::span<double> obs) {
    env_->reset_into(obs);
    in_episode_ = true;
    record_soc_ = result_.episode_profit.size() + 1 == result_.episodes;
    if (record_soc_) {
      soc_ = SocDigest{};
      soc_.first = env_->soc_frac();
      soc_.min = std::numeric_limits<double>::infinity();
      soc_.max = -std::numeric_limits<double>::infinity();
    }
  }

  /// Steps one slot, writing the next observation into `obs`; `coupling`
  /// carries the routed imports in and the slot's exports out (an uncoupled
  /// hub leaves every output zero).  Samples the SoC, adds the coupling
  /// totals and, at episode end, folds the ledger into the result.  Returns
  /// true when the episode ended.  Finite but extreme prices can overflow:
  /// a non-finite slot reward, or a non-finite dollar total once the episode
  /// is folded, throws std::runtime_error naming the hub and the episode
  /// (and the slot).
  bool step(std::size_t action, std::span<double> obs, core::SlotCoupling& coupling) {
    const std::size_t slot = env_->current_slot();
    const core::StepOutcome outcome = env_->step_into(action, obs, coupling);
    if (!std::isfinite(outcome.reward)) {
      throw std::runtime_error(where() + " slot " + std::to_string(slot) +
                               ": non-finite reward");
    }
    in_episode_ = !outcome.done;
    if (record_soc_) {
      const double s = env_->soc_frac();
      soc_.last = s;
      soc_.min = std::min(soc_.min, s);
      soc_.max = std::max(soc_.max, s);
      soc_.checksum += s;
      ++soc_.samples;
    }
    // A slot is one hour, so each kW of the slot adds one kWh to the totals.
    result_.through_kwh += coupling.through_kw;
    result_.spill_exported_kwh += coupling.export_kw;
    result_.spill_served_kwh += coupling.served_import_kw;
    result_.spill_dropped_kwh += coupling.dropped_import_kw;
    if (coupling.outage) ++result_.outage_slots;
    if (in_episode_) return false;
    if (record_soc_) {
      soc_.mean = soc_.checksum / static_cast<double>(soc_.samples);
      result_.soc = soc_;
    }
    const core::ProfitLedger& ledger = env_->ledger();
    result_.revenue += ledger.total_revenue();
    result_.grid_cost += ledger.total_grid_cost();
    result_.bp_cost += ledger.total_bp_cost();
    result_.profit += ledger.total_profit();
    if (!(std::isfinite(result_.revenue) && std::isfinite(result_.grid_cost) &&
          std::isfinite(result_.bp_cost) && std::isfinite(result_.profit))) {
      throw std::runtime_error(where() + ": non-finite profit total");
    }
    result_.episode_profit.push_back(ledger.total_profit());
    return true;
  }

  [[nodiscard]] HubRunResult take_result() { return std::move(result_); }

 private:
  /// "FleetRunner: hub '<name>' (id <id>) episode <e>", e the running one.
  [[nodiscard]] std::string where() const {
    return "FleetRunner: hub '" + result_.hub_name + "' (id " + std::to_string(result_.hub_id) +
           ") episode " + std::to_string(result_.episode_profit.size());
  }

  std::unique_ptr<core::EctHubEnv> env_;
  bool in_episode_ = false;
  bool record_soc_ = false;
  SocDigest soc_;
  HubRunResult result_;
};
}  // namespace

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kNoBattery, SchedulerKind::kTou,    SchedulerKind::kGreedyPrice,
      SchedulerKind::kForecast,  SchedulerKind::kRandom, SchedulerKind::kDrl};
  return kinds;
}

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  return parse_enum_ci(
      name, all_scheduler_kinds(), [](SchedulerKind kind) { return to_string(kind); },
      "scheduler_kind_from_string: unknown scheduler");
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNoBattery: return "none";
    case SchedulerKind::kTou: return "tou";
    case SchedulerKind::kGreedyPrice: return "greedy";
    case SchedulerKind::kForecast: return "forecast";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kDrl: return "drl";
  }
  throw std::invalid_argument("to_string: bad SchedulerKind");
}

std::unique_ptr<policy::Policy> make_policy(
    SchedulerKind kind, std::uint64_t seed, const policy::ObservationLayout& layout,
    const std::shared_ptr<const policy::DrlCheckpoint>& checkpoint) {
  switch (kind) {
    case SchedulerKind::kNoBattery: return std::make_unique<policy::NoBatteryPolicy>();
    case SchedulerKind::kTou: return std::make_unique<policy::TouPolicy>(layout);
    case SchedulerKind::kGreedyPrice:
      return std::make_unique<policy::GreedyPricePolicy>(layout);
    case SchedulerKind::kForecast: return std::make_unique<policy::ForecastPolicy>(layout);
    case SchedulerKind::kRandom: return std::make_unique<policy::RandomPolicy>(seed);
    case SchedulerKind::kDrl: {
      if (!checkpoint) {
        throw std::invalid_argument(
            "make_policy: SchedulerKind::kDrl needs a trained DrlCheckpoint "
            "(attach one to the FleetJob)");
      }
      if (checkpoint->config.state_dim != layout.dim()) {
        throw std::invalid_argument(
            "make_policy: DRL checkpoint was trained for state_dim " +
            std::to_string(checkpoint->config.state_dim) + " but the hub emits " +
            std::to_string(layout.dim()));
      }
      return std::make_unique<policy::DrlPolicy>(*checkpoint);
    }
  }
  throw std::invalid_argument("make_policy: bad SchedulerKind");
}

std::vector<FleetJob> make_fleet_jobs(const ScenarioRegistry& registry,
                                      const std::vector<std::string>& scenario_keys,
                                      std::size_t count, std::size_t episode_days,
                                      SchedulerKind scheduler,
                                      std::shared_ptr<const policy::DrlCheckpoint> checkpoint) {
  if (scenario_keys.empty()) {
    throw std::invalid_argument("make_fleet_jobs: no scenario keys");
  }
  std::vector<FleetJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& key = scenario_keys[i % scenario_keys.size()];
    const Scenario& scenario = registry.at(key);
    FleetJob job;
    job.hub = scenario.make_hub(key + "-" + std::to_string(i), 0);
    job.env = scenario.env;
    job.env.episode_days = episode_days;
    job.scenario = key;
    job.scheduler = scheduler;
    job.checkpoint = checkpoint;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

FleetRunner::FleetRunner(FleetRunnerConfig cfg) : cfg_(cfg) {
  if (cfg_.episodes_per_hub == 0) {
    throw std::invalid_argument("FleetRunnerConfig: episodes_per_hub == 0");
  }
}

HubRunResult FleetRunner::run_job(const FleetJob& job, std::size_t hub_id,
                                  const FleetRunnerConfig& cfg) {
  reject_coupled("FleetRunner::run_job", job);
  HubLane lane(job, hub_id, cfg);
  const auto pol = make_policy(job.scheduler, lane.policy_seed(),
                               lane.env().observation_layout(), job.checkpoint);
  // One persistent observation buffer drives the whole job: reset_into /
  // step_into regenerate and observe in place, so after the first episode's
  // warm-up an episode performs zero heap allocations.
  std::vector<double> state(lane.env().state_dim());
  core::SlotCoupling uncoupled;  // no imports ever arrive; outputs stay zero
  while (lane.active()) {
    lane.begin(state);
    pol->begin_episode();
    while (!lane.step(pol->decide(state), state, uncoupled)) {
    }
  }
  return lane.take_result();
}

std::vector<HubRunResult> FleetRunner::run(const std::vector<FleetJob>& jobs) const {
  for (const FleetJob& job : jobs) reject_coupled("FleetRunner::run", job);
  std::vector<HubRunResult> results(jobs.size());

  // Work-stealing by atomic index: each member owns the result slot of the
  // job it claims, so no two threads ever touch the same element.  A failing
  // job drains the queue, so the other members stop claiming jobs and the
  // crew rethrows the error immediately instead of after the full sweep.
  std::atomic<std::size_t> next{0};
  const std::function<void(std::size_t)> work = [&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = run_job(jobs[i], cfg_.hub_id_offset + i, cfg_);
      } catch (...) {
        next.store(jobs.size(), std::memory_order_relaxed);
        throw;
      }
    }
  };
  BarrierCrew(crew_size(cfg_.threads, jobs.size())).run(work);
  return results;
}

std::vector<HubRunResult> FleetRunner::run_lockstep(const std::vector<FleetJob>& jobs) const {
  constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();

  // One lane per hub: its episode state machine and its observation target.
  // A lane's observation lives either in its fixed row of the group's
  // observation matrix (shared stateless policies) or in its own `state`
  // buffer (per-hub stateful policies); either way it is written in place by
  // reset_into/step_into, so the steady-state slot loop never allocates.
  struct Lane {
    explicit Lane(HubLane h) : hub(std::move(h)) {}
    HubLane hub;
    std::unique_ptr<policy::Policy> own_pol;  ///< stateful policies only
    std::size_t group = kNoGroup;             ///< shared-policy group index
    std::size_t row = 0;                      ///< fixed row in the group matrix
    std::vector<double> state;                ///< stateful lanes only
    std::size_t action = 0;                   ///< stateful lanes only
  };
  // A shared stateless policy and its whole-fleet observation batch.  Rows
  // are assigned once at setup; a finished lane keeps its (stale, finite)
  // row, which is safe because decide_rows computes every row independently
  // — and means the batch needs no per-slot regrouping.
  struct Group {
    std::unique_ptr<policy::Policy> pol;
    std::size_t dim = 0;
    std::size_t rows = 0;
    nn::Matrix obs;
    std::vector<std::size_t> actions;
  };

  // The coupled-fleet exchange bus (absent on a fully uncoupled fleet).
  // Neighbor lists are validated by the bus constructor before any thread
  // spawns.
  std::optional<CouplingBus> bus;
  for (const FleetJob& job : jobs) {
    if (!job.coupled()) continue;
    std::vector<std::vector<std::size_t>> neighbors(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) neighbors[i] = jobs[i].neighbors;
    bus.emplace(std::move(neighbors));
    break;
  }

  std::vector<Lane> lanes;
  lanes.reserve(jobs.size());
  std::vector<Group> groups;
  // Lanes whose policy is a pure function of the observation share one
  // instance per (kind, checkpoint, layout); value -1 marks a stateful kind
  // that must stay one-instance-per-hub.
  using GroupKey = std::tuple<int, const void*, std::size_t>;
  std::map<GroupKey, std::ptrdiff_t> group_of;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const FleetJob& job = jobs[i];
    Lane& lane = lanes.emplace_back(HubLane(job, cfg_.hub_id_offset + i, cfg_));
    const policy::ObservationLayout layout = lane.hub.env().observation_layout();

    const GroupKey key{static_cast<int>(job.scheduler), job.checkpoint.get(),
                       layout.lookback};
    const auto it = group_of.find(key);
    if (it != group_of.end() && it->second >= 0) {
      lane.group = static_cast<std::size_t>(it->second);
    } else if (it != group_of.end()) {
      lane.own_pol = make_policy(job.scheduler, lane.hub.policy_seed(), layout, job.checkpoint);
    } else {
      auto pol = make_policy(job.scheduler, lane.hub.policy_seed(), layout, job.checkpoint);
      if (pol->stateless()) {
        lane.group = groups.size();
        group_of[key] = static_cast<std::ptrdiff_t>(groups.size());
        Group g;
        g.pol = std::move(pol);
        g.dim = layout.dim();
        groups.push_back(std::move(g));
      } else {
        group_of[key] = -1;
        lane.own_pol = std::move(pol);
      }
    }
    if (lane.group != kNoGroup) {
      lane.row = groups[lane.group].rows++;
    } else {
      lane.state.resize(lane.hub.env().state_dim());
    }
  }
  for (Group& g : groups) {
    g.obs = nn::Matrix(g.rows, g.dim);
    g.actions.resize(g.rows);
  }

  // The lane's in-place observation target.
  const auto obs_of = [&](Lane& lane) -> std::span<double> {
    if (lane.group == kNoGroup) return std::span<double>(lane.state);
    Group& g = groups[lane.group];
    return std::span<double>(g.obs.data().data() + lane.row * g.dim, g.dim);
  };

  // Each crew member owns a fixed contiguous lane partition.  Group-matrix
  // rows were assigned in lane order, so the partition also owns one
  // contiguous row block per group, with its own policy workspace: the
  // member's decide_rows calls on a shared instance never share scratch,
  // and read and write only rows its own lanes produce and consume.
  struct GroupBlock {
    std::size_t group = 0;
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
    std::unique_ptr<policy::Policy::Workspace> ws;
    bool live = false;  ///< any active lane this slot (recomputed per slot)
  };
  struct MemberPlan {
    std::size_t lane_begin = 0;
    std::size_t lane_end = 0;
    std::vector<GroupBlock> blocks;           ///< non-empty row blocks only
    std::vector<std::size_t> block_of_group;  ///< group -> block index
  };
  const std::size_t members = crew_size(cfg_.lockstep_threads, lanes.size());
  std::vector<MemberPlan> plans(members);
  std::vector<std::size_t> rows_before(groups.size(), 0);  // rows left of cursor
  for (std::size_t m = 0; m < members; ++m) {
    MemberPlan& plan = plans[m];
    plan.lane_begin = lanes.size() * m / members;
    plan.lane_end = lanes.size() * (m + 1) / members;
    plan.block_of_group.assign(groups.size(), kNoGroup);
    const std::vector<std::size_t> begin_rows = rows_before;
    for (std::size_t i = plan.lane_begin; i < plan.lane_end; ++i) {
      if (lanes[i].group != kNoGroup) ++rows_before[lanes[i].group];
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (rows_before[g] == begin_rows[g]) continue;  // no rows here
      plan.block_of_group[g] = plan.blocks.size();
      GroupBlock block;
      block.group = g;
      block.row_begin = begin_rows[g];
      block.row_end = rows_before[g];
      block.ws = groups[g].pol->make_workspace();
      plan.blocks.push_back(std::move(block));
    }
  }

  std::atomic<std::size_t> active_count{lanes.size()};

  // The slot body, one crew phase per fleet slot.  A member touches only its
  // own lanes and row blocks, so the phase needs no synchronization inside
  // and every lane sees the same operation sequence at any crew size:
  //  1. turn over finished episodes (every lane starts with one pending) and
  //     let per-hub stateful policies decide;
  //  2. run decide_rows on each row block with a live lane — for an ECT-DRL
  //     fleet, one batched actor forward per member;
  //  3. step every live lane, with the imports routed to it at the previous
  //     barrier, depositing its export for the next.
  // Built once here: BarrierCrew::run takes a const std::function&, so a
  // lambda passed per slot would construct (and allocate) one every slot.
  const std::function<void(std::size_t)> run_slot = [&](std::size_t member) {
    MemberPlan& plan = plans[member];
    for (GroupBlock& block : plan.blocks) block.live = false;
    for (std::size_t i = plan.lane_begin; i < plan.lane_end; ++i) {
      Lane& lane = lanes[i];
      if (!lane.hub.active()) continue;
      if (!lane.hub.in_episode()) {
        // A fresh episode starts clean: demand routed across the episode
        // boundary is dropped.  Shared stateless policies have no
        // per-episode state by contract, so only own policies begin.
        if (bus) bus->drop_pending(i);
        lane.hub.begin(obs_of(lane));
        if (lane.own_pol) lane.own_pol->begin_episode();
      }
      if (lane.own_pol) {
        lane.action = lane.own_pol->decide(lane.state);
      } else {
        plan.blocks[plan.block_of_group[lane.group]].live = true;
      }
    }
    for (GroupBlock& block : plan.blocks) {
      if (!block.live) continue;
      Group& g = groups[block.group];
      g.pol->decide_rows(g.obs, block.row_begin, block.row_end,
                         std::span<std::size_t>(g.actions), *block.ws);
    }
    for (std::size_t i = plan.lane_begin; i < plan.lane_end; ++i) {
      Lane& lane = lanes[i];
      if (!lane.hub.active()) continue;
      const std::size_t action =
          lane.own_pol ? lane.action : groups[lane.group].actions[lane.row];
      core::SlotCoupling coupling;
      if (bus) coupling.import_kw = bus->take(i);
      lane.hub.step(action, obs_of(lane), coupling);
      if (bus) bus->deposit(i, coupling.export_kw);
      if (!lane.hub.active()) active_count.fetch_sub(1, std::memory_order_relaxed);
    }
  };

  // The coupled exchange runs on the coordinator alone, in fixed lane order,
  // between crew phases — so routed totals are independent of the crew size.
  BarrierCrew crew(members);
  while (active_count.load(std::memory_order_relaxed) > 0) {
    crew.run(run_slot);
    if (bus) bus->exchange();
  }

  std::vector<HubRunResult> results;
  results.reserve(lanes.size());
  for (Lane& lane : lanes) results.push_back(lane.hub.take_result());
  return results;
}

}  // namespace ecthub::sim
