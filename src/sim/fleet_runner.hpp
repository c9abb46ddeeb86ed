// FleetRunner: N independent hub episodes, per-hub-threaded or
// lockstep-batched.
//
// Each job (hub config + episode shape + scheduler kind) is fully
// self-contained: the worker constructs its own EctHubEnv and Policy, and
// every stochastic stream is seeded as seed = mix_seed(base_seed, hub_id) —
// RNG state is never shared between hubs.  Results are written into a
// per-job slot, so the output is bit-identical regardless of thread count or
// scheduling order: running 32 hubs on 1 thread or 8 threads produces the
// same ledgers to the last bit.
//
// run() executes one hub per crew member end to end.  run_lockstep()
// advances every hub slot-by-slot instead: it keeps the per-hub observations
// in one (hubs x state_dim) matrix per shared policy, makes batched Policy
// calls per fleet slot, and scatters the actions back — so a neural policy
// (ECT-DRL) replaces N matrix-vector products with matrix-matrix forwards.
// run_job, run() and run_lockstep() fold every episode through the same
// per-hub lane state machine (fleet_runner.cpp); run() and run_lockstep()
// both run on a BarrierCrew at every crew size, including 1.
//
// Determinism contract (the foundation every sharding/batching layer builds
// on — tests/test_sim.cpp pins all of it):
//
//  * Seed mixing.  Every stochastic stream of hub i derives from
//    mix_seed(base_seed, i) (common/rng); RNG state is never shared between
//    hubs, so any execution order — per-hub or lockstep, any thread count —
//    replays the identical per-hub streams.
//  * Barrier semantics.  run_lockstep splits the lanes into fixed contiguous
//    partitions, one per crew member (the calling thread itself steps the
//    last partition, so N configured threads are exactly N busy threads),
//    and runs each fleet slot as ONE crew phase.  Lanes are assigned
//    group-matrix rows in lane order, so a member's lane partition owns a
//    contiguous row block of every group's observation matrix.  In its
//    phase a member turns over its finished episodes and lets per-hub
//    stateful policies decide, calls the shared policies' const
//    decide_rows() on exactly its row blocks with its own workspaces, and
//    steps its lanes.  It touches no other member's lanes or rows, so the
//    per-lane operation sequence — and therefore every result bit — is
//    independent of lockstep_threads.
//
//    Each observation row is computed independently (row i of a GEMM never
//    reads row j), which is what lets finished lanes keep a stale row
//    without disturbing the live ones — and what makes the row-block
//    sharding bit-identical to the whole-matrix call.
//  * Worker exceptions are caught at the phase boundary, the crew drains,
//    and the first error is rethrown from run / run_lockstep — never a
//    deadlock.
//
// run(), run_lockstep(1 thread) and run_lockstep(N threads) are all
// bit-identical on the same jobs and config.
#pragma once

#include "common/rng.hpp"
#include "core/hub_config.hpp"
#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "policy/policy.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ecthub::sim {

/// Scheduler families the runner can instantiate per worker: the five
/// rule-based baselines plus the trained ECT-DRL actor.
enum class SchedulerKind { kNoBattery, kTou, kGreedyPrice, kForecast, kRandom, kDrl };

/// All kinds in declaration order — the sweep set of scheduler comparisons.
[[nodiscard]] const std::vector<SchedulerKind>& all_scheduler_kinds();

/// Parses "none" | "tou" | "greedy" | "forecast" | "random" | "drl",
/// case-insensitively.  Throws std::invalid_argument listing every valid
/// name on anything else.
[[nodiscard]] SchedulerKind scheduler_kind_from_string(const std::string& name);
[[nodiscard]] std::string to_string(SchedulerKind kind);

/// Fresh policy instance for `kind`; cheap enough to build once per worker.
/// `seed` only matters for kRandom; `layout` must describe the observations
/// the hub emits (EctHubEnv::observation_layout()).  kDrl requires a
/// checkpoint whose state_dim matches the layout and throws
/// std::invalid_argument without one.
[[nodiscard]] std::unique_ptr<policy::Policy> make_policy(
    SchedulerKind kind, std::uint64_t seed, const policy::ObservationLayout& layout,
    const std::shared_ptr<const policy::DrlCheckpoint>& checkpoint = nullptr);

/// One unit of fleet work: a hub evaluated under one scheduler.  The hub's
/// `seed` field is overridden by the runner with mix_seed(base_seed, hub_id).
struct FleetJob {
  core::HubConfig hub;
  core::HubEnvConfig env;
  std::string scenario = "custom";  ///< label carried into the report
  SchedulerKind scheduler = SchedulerKind::kTou;
  /// Trained actor weights; required when scheduler == kDrl.  Immutable and
  /// shared across jobs — each worker restores its own DrlPolicy from it.
  std::shared_ptr<const policy::DrlCheckpoint> checkpoint;
  /// Road-graph neighbors (job indices) this hub exports overflow to when
  /// env.coupling is enabled.  A job set with coupling anywhere is lockstep-
  /// only: run() rejects it, because per-hub execution cannot honor the
  /// slot-synchronous exchange.
  std::vector<std::size_t> neighbors;

  /// True when this job participates in the metro coupling layer.
  [[nodiscard]] bool coupled() const noexcept {
    return env.coupling.enabled || !neighbors.empty();
  }
};

/// Digest of the SoC trajectory over the job's last episode.
struct SocDigest {
  double first = 0.0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double checksum = 0.0;  ///< plain sum in slot order — drift detector
  std::size_t samples = 0;

  friend bool operator==(const SocDigest&, const SocDigest&) = default;
};

struct HubRunResult {
  std::size_t hub_id = 0;
  std::string hub_name;
  std::string scenario;
  SchedulerKind scheduler = SchedulerKind::kTou;
  std::uint64_t seed = 0;  ///< the mixed per-hub seed actually used
  std::size_t episodes = 0;
  std::size_t slots_per_episode = 0;

  // Ledger totals accumulated across all episodes of the job.
  double revenue = 0.0;
  double grid_cost = 0.0;
  double bp_cost = 0.0;
  double profit = 0.0;

  std::vector<double> episode_profit;  ///< per-episode true profit
  SocDigest soc;                       ///< last episode's SoC trajectory

  // Coupling totals across all episodes (all zero on an uncoupled job).
  double through_kwh = 0.0;         ///< through-traffic demand seen
  double spill_exported_kwh = 0.0;  ///< overflow routed to neighbors
  double spill_served_kwh = 0.0;    ///< neighbor imports absorbed here
  double spill_dropped_kwh = 0.0;   ///< neighbor imports lost (one-hop bound)
  std::size_t outage_slots = 0;     ///< front outage slots endured

  /// Field-exact equality — the bit-identity currency of the determinism
  /// tests and the shard save/load round-trip (sim/shard_io).
  friend bool operator==(const HubRunResult&, const HubRunResult&) = default;
};

class ScenarioRegistry;  // scenario.hpp

/// Builds `count` jobs cycling round-robin through `scenario_keys` (each must
/// exist in `registry`).  Hub i is named "<key>-<i>" and runs the scenario's
/// episode shape with `episode_days` days.  `checkpoint` is attached to every
/// job (needed when scheduler == kDrl).  The shared job-construction path of
/// the sweep driver, the benchmark and the determinism tests.
[[nodiscard]] std::vector<FleetJob> make_fleet_jobs(
    const ScenarioRegistry& registry, const std::vector<std::string>& scenario_keys,
    std::size_t count, std::size_t episode_days, SchedulerKind scheduler,
    std::shared_ptr<const policy::DrlCheckpoint> checkpoint = nullptr);

struct FleetRunnerConfig {
  std::uint64_t base_seed = 7;
  /// Global hub id of jobs[0].  A sharded sweep (sim/shard) runs the job
  /// sub-range [begin, end) of the full list with hub_id_offset = begin, so
  /// every hub keeps the mix_seed(base_seed, global_id) stream — and the
  /// exact per-hub result bits — it would have had in the unsharded run.
  std::size_t hub_id_offset = 0;
  /// Crew size for run(); 0 means one member per CPU the calling thread may
  /// run on (crew_size in common/crew.hpp).
  std::size_t threads = 0;
  /// Crew size for run_lockstep(); 0 means one member per CPU the calling
  /// thread may run on, 1 (the default) keeps lockstep on the calling
  /// thread.  Any value produces bit-identical results — big fleets get
  /// thread parallelism (env stepping and the row-block batched inference)
  /// on top of batch parallelism.
  std::size_t lockstep_threads = 1;
  std::size_t episodes_per_hub = 1;
};

class FleetRunner {
 public:
  explicit FleetRunner(FleetRunnerConfig cfg);

  /// Runs every job, one hub per crew member at a time (work-stealing);
  /// results[i] corresponds to jobs[i] (hub_id == cfg.hub_id_offset + i).
  /// The first exception thrown by any job stops further jobs from starting
  /// and is rethrown once the crew has finished.  Throws
  /// std::invalid_argument on a coupled job set (see FleetJob::coupled) —
  /// only run_lockstep advances the fleet slot-synchronously, which the
  /// exchange requires.
  [[nodiscard]] std::vector<HubRunResult> run(const std::vector<FleetJob>& jobs) const;

  /// Lockstep execution: advances all hubs slot-by-slot and batches policy
  /// inference.  Stateless policies (TOU, no-battery, ECT-DRL) of the same
  /// kind and checkpoint share one instance fed a (hubs x state_dim)
  /// observation matrix per fleet slot; stateful policies keep an instance
  /// per hub.  Env stepping and the batched inference, as per-lane-partition
  /// row blocks, are sharded across a barrier-synchronized crew of
  /// lockstep_threads members (see the file comment for the barrier
  /// semantics).  Bit-identical to run() on the same jobs and config, at
  /// any crew size.
  ///
  /// Coupled fleets (FleetJob::coupled) add an exchange at the slot
  /// barrier: each lane steps with the imports routed to it at the previous
  /// barrier and deposits its exported overflow, then the coordinator —
  /// alone, in fixed lane order — routes every deposit over the road-graph
  /// neighbor lists (CouplingBus).  The exchange never runs concurrently
  /// with a crew phase, so coupled results stay bit-identical at any
  /// lockstep_threads.
  [[nodiscard]] std::vector<HubRunResult> run_lockstep(
      const std::vector<FleetJob>& jobs) const;

  /// Executes one job synchronously with scalar Policy::decide() — the
  /// serial oracle, and the exact function each run() crew member runs.
  [[nodiscard]] static HubRunResult run_job(const FleetJob& job, std::size_t hub_id,
                                            const FleetRunnerConfig& cfg);

  [[nodiscard]] const FleetRunnerConfig& config() const noexcept { return cfg_; }

 private:
  FleetRunnerConfig cfg_;
};

}  // namespace ecthub::sim
