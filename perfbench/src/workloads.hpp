// The four benchmark workloads and the pieces they share: seed streams, the
// fixed-seed actor, the per-layer metric schema (name and unit, in
// BENCHMARK.json order) and the stage-split replay.
//
// Every workload has a traced profile, which gives the per-layer metrics of
// the layers it runs; the two BENCHMARK.json lists (fleet_drl_metro,
// sweep_rules) also have an untraced run, which gives their end-to-end
// metrics.  A traced run of workload W profiles W and, more briefly, the
// other three workloads, so every per-layer metric is measured in every
// traced run: from W when W runs that layer, otherwise from the layer's home
// workload (the per-layer schema in common.cpp names it).
#pragma once

#include "harness.hpp"
#include "trace.hpp"

#include "core/hub_config.hpp"
#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "sim/fleet_runner.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Per-layer metric values by BENCHMARK.json name; a workload's profile
/// holds only the layers that workload runs.
using Layers = std::map<std::string, double>;

/// Time given to one workload's traced profile.  untraced_s > 0 marks the
/// workload the traced run is for: it also times untraced and serial-
/// reference repetitions, the baselines of trace.overhead_frac and the
/// harness metrics.
struct ProfileBudget {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  [[nodiscard]] bool own() const noexcept { return untraced_s > 0.0; }
};

using RunFn = Outcome (*)(const RunOptions&);
using ProfileFn = void (*)(const RunOptions&, const ProfileBudget&, Outcome&, Layers&);

Outcome run_fleet_drl_metro(const RunOptions& opt);
Outcome run_sweep_rules(const RunOptions& opt);
void profile_fleet_drl_metro(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                             Layers& layers);
void profile_sweep_rules(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                         Layers& layers);
void profile_serve_drl(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                       Layers& layers);
void profile_train_ppo(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                       Layers& layers);

struct Workload {
  const char* name;
  RunFn run;  ///< nullptr: profiled only, not a --workload
  ProfileFn profile;
};
/// Every workload the binary profiles.  serve_drl and train_ppo have no
/// untraced run: their end-to-end figures were too unsteady on a shared VM
/// (NOTES.md), so BENCHMARK.json does not list them, and the traced run of
/// every listed workload profiles them for the serve.* and rl.* layers.
[[nodiscard]] const std::vector<Workload>& workloads();

/// The traced run of `workload`: its own profile cycles through untraced,
/// serial-reference and traced repetitions for half of opt.seconds, each
/// other workload gets a sixth traced; emits every per-layer metric.
[[nodiscard]] Outcome run_traced(const Workload& workload, const RunOptions& opt);

// ---- Seed streams: every input derives from --seed through ecthub::mix_seed.
inline constexpr std::uint64_t kActorStream = 0xac7;
inline constexpr std::uint64_t kMetroStream = 0x3e7;
inline constexpr std::uint64_t kFleetStream = 0xf1e;
inline constexpr std::uint64_t kPoolStream = 0x9001;
inline constexpr std::uint64_t kArrivalStream = 0xa221;
inline constexpr std::uint64_t kTrainStream = 0x7a1;
inline constexpr std::uint64_t kCollectStream = 0xc011;

/// Episodes are 30 days of hourly slots (the paper's protocol); the smoke
/// size shortens them.
[[nodiscard]] std::size_t episode_days(Size size);

/// The fixed-seed, randomly initialised 33->64->32->3 actor every DRL
/// workload runs.  No PPO run: the forward's cost does not depend on the
/// weight values.
[[nodiscard]] std::shared_ptr<const ecthub::policy::DrlCheckpoint> make_actor(
    std::uint64_t seed);

/// Multiply-accumulates of one actor forward row, computed from the shape
/// (trunk 33x64 + head 64x32 + 32x3), not counted at run time.
[[nodiscard]] double actor_macs_per_row(const ecthub::policy::DrlPolicyConfig& cfg);

/// Times `once` (one full set-up) at least `min_calls` times and until
/// `min_s` wall seconds have passed, appending each call's duration to
/// `samples`.  setup_s is the median of every set-up an untraced run times:
/// a first block of at least kFirstSetupCalls calls and kFirstSetupS before
/// the serial reference, and a block of at least one call and kSetupBlockS
/// after every timed rep, so the samples span the same host phases as the
/// reps.
void time_setup(std::vector<double>& samples, std::size_t min_calls, double min_s,
                const std::function<void()>& once);
inline constexpr std::size_t kFirstSetupCalls = 5;
inline constexpr double kFirstSetupS = 0.1;
inline constexpr double kSetupBlockS = 0.01;

/// The replicas check every kObserveEvery-th slot of a lane with an extra
/// observe_into against the observation step_into wrote.
inline constexpr std::size_t kObserveEvery = 8;

/// Adds the end-to-end metrics of an untraced run: kslots_per_s is the
/// usable timed reps' (usable_reps) hub-slots over their total wall time, in
/// thousands per second; setup_s is the median of `setup_samples`;
/// max_rss_mb is the process's peak resident set.
void emit_end_to_end(Outcome& out, double busy_threads, const std::vector<double>& setup_samples);

/// Flags `reps` (usable_reps) and returns the median wall time of the
/// usable ones.
double median_wall(std::vector<Rep>& reps, double busy_threads);

/// The harness and trace-overhead layers of the workload a traced run is
/// for: median CPU/wall of its untraced reps, the calibrated cores, the
/// serial reference's median wall over the median untraced rep, and the
/// traced replica's median wall over the same.  The three kinds of rep
/// alternate, so each median samples the same host phases.
void own_layers(const RunOptions& opt, const std::vector<Rep>& untraced, double untraced_wall,
                const std::vector<double>& serial_walls, const std::vector<double>& traced_walls,
                Layers& layers);

/// Folds one traced repetition's span totals into `sum`.
void accumulate(std::vector<NameTotals>& sum, const std::vector<NameTotals>& rep);

/// Env-level layers (reset, step, observe) from span totals;
/// `slots_per_episode` converts reset time into time per slot.
void env_layers(const std::vector<NameTotals>& totals, std::size_t slots_per_episode,
                Layers& layers);

/// decide_rows layers (ns per row, rows per call, GMAC/s).
void rows_layers(const std::vector<NameTotals>& totals, double macs_per_row, Layers& layers);

/// Adds the detail of every span name seen (count, mean, self time) to the
/// report under `key`, so a reader can see where a traced profile's time
/// went.
void add_span_detail(Outcome& out, const std::string& key,
                     const std::vector<NameTotals>& totals);

/// One hub of a workload as the library sees it: its config with the final
/// per-hub seed already applied, and its episode shape.
struct HubSpec {
  ecthub::core::HubConfig hub;
  ecthub::core::HubEnvConfig env;
};

/// Hub specs of a job list exactly as FleetRunner builds them (hub.seed =
/// mix_seed(base_seed, hub_id_offset + i)).
[[nodiscard]] std::vector<HubSpec> hub_specs(const std::vector<ecthub::sim::FleetJob>& jobs,
                                             const ecthub::sim::FleetRunnerConfig& cfg);

/// The stage split of reset: replays, for the first episode of every hub,
/// the generator calls EctHubEnv::generate_episode makes (traffic, weather,
/// renewables, RTP + selling price, EV occupancy) under spans and adds the
/// five *.gen_ns_per_slot layers; then checks each replayed series against
/// a fresh env's reset.  Weather on a metro front is drawn from the per-hub
/// fork instead of the front stream (whose tag is private to the env), so
/// renewables are only compared on uncoupled hubs.  Returns the number of
/// series mismatches.
std::size_t replay_stages(const std::vector<HubSpec>& hubs, Layers& layers);

/// Bench progress goes to stderr; stdout carries only the result lines.
void log(const std::string& line);

}  // namespace perfbench
