// The ECT-Hub environment: one hub simulated as an episodic RL task.
//
// Each episode spans `episode_days` (paper: 30) of hourly slots.  On reset
// the environment draws a fresh stochastic scenario — network traffic,
// weather, renewable generation, real-time prices and EV behaviour — from the
// hub's generators, applies the discount schedule produced by the pricing
// stage, sizes the blackout reserve (Eq. 6), and starts the battery at a
// random SoC (matching the paper's evaluation protocol).
//
// State (Eq. 24): lookback windows of RTP, weather (GHI + wind), traffic and
// SRTP, the battery SoC, plus an hour-of-day phase encoding.  Action: the BP
// schedule {idle, charge, discharge}.  Reward: the slot profit Psi_t (Eq. 12)
// less the profit the slot would have made idle (see step_into).
#pragma once

#include "core/blackout.hpp"
#include "core/hub_config.hpp"
#include "core/profit.hpp"
#include "policy/observation.hpp"
#include "rl/env.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ecthub::core {

/// Metro-coupling knobs of one hub.  When enabled, the hub (a) draws an
/// exogenous through-traffic demand stream (passing EVs beyond the resident
/// population) that can overflow its plugs and be exported to road-graph
/// neighbors, (b) keys its weather draws off the shared metro front stream
/// instead of the i.i.d. per-hub stream, and (c) samples grid-outage windows
/// from the same front, during which the charging station shuts down (the
/// ride_through contract).  All of it is off by default — an uncoupled hub is
/// bit-identical to the pre-coupling environment.
struct HubCouplingConfig {
  bool enabled = false;
  /// Expected passing-EV arrivals per slot at full network load; scaled by
  /// the slot's load rate like every other demand stream.
  double through_rate = 0.0;
  /// Metro front stream (MetroMap::front_seed()).  Non-zero replaces the
  /// per-hub weather fork and activates the outage front, so hubs sharing a
  /// front_seed see correlated weather and simultaneous outages.
  std::uint64_t front_seed = 0;
  /// Outage front intensity; rate 0 disables outages even when coupled.
  OutageModel outage{0.0, 1.0, 8.0};
};

struct HubEnvConfig {
  std::size_t episode_days = 30;
  std::size_t slots_per_day = 24;
  std::size_t lookback = 6;  ///< slots of history per state channel

  /// Discount decisions by hour of day (24 entries) produced by ECT-Price or
  /// a baseline; empty means no discounts.
  std::vector<bool> discount_by_hour;
  double discount_fraction = 0.2;

  /// Metro coupling (off by default; see HubCouplingConfig).
  HubCouplingConfig coupling;
};

/// Reward / termination of one step (EctHubEnv::step_into), spelled in core.
/// EctHubEnv episodes end only at the fixed horizon, so `done` always comes
/// with `truncated` — GAE bootstraps V(s_T) there.
using StepOutcome = rl::StepOutcome;

/// The coupling in/out view of one slot (EctHubEnv::step_into 3-arg
/// overload).  `import_kw` is the caller's input: demand arriving from
/// neighbor hubs this slot.  Everything else is written by the step:
/// `export_kw` is the overflow the CouplingBus routes onward, the served /
/// dropped split accounts for the imports, and `outage` flags a front slot.
/// On an uncoupled hub every output is zero and the input is ignored.
struct SlotCoupling {
  double import_kw = 0.0;          ///< in: demand routed here by neighbors
  double export_kw = 0.0;          ///< out: unserved through demand, exported
  double served_import_kw = 0.0;   ///< out: imports absorbed by free plugs
  double dropped_import_kw = 0.0;  ///< out: imports lost (one-hop bound)
  double through_kw = 0.0;         ///< out: this slot's through demand
  bool outage = false;             ///< out: front outage active this slot
};

class EctHubEnv final : public rl::Env {
 public:
  /// Validates both configurations eagerly (every component of the hub, so a
  /// zero-capacity pack or a NaN field fails here rather than at the first
  /// reset).
  /// Construction is cheap — all episode buffers are allocated lazily on the
  /// first reset_into() and reused across subsequent resets — so fleet
  /// workers can build an env per hub without paying a large up-front cost.
  EctHubEnv(HubConfig hub, HubEnvConfig env_cfg);

  // ---- Stepping -----------------------------------------------------------
  // Every caller steps one persistent state buffer per hub, so after the
  // first episode (warm-up) an episode costs zero heap allocations end to
  // end — generators regenerate in place, the observation is written in
  // place, and the battery/ledger live in place.

  /// Writes the current observation (exactly what reset_into()/step_into()
  /// write) into `out`; out.size() must equal state_dim().
  void observe_into(std::span<double> out) const;

  /// Regenerates the episode and writes the initial observation into `state`.
  void reset_into(std::span<double> state) override;

  /// Applies `action`, writes the next observation into `next_state` and
  /// returns the reward/done pair.  The reward is counterfactual:
  /// profit_t(action) - profit_t(idle).  The idle-profit series does not
  /// depend on past actions (EV revenue and BS load are exogenous), so this
  /// subtracts a constant from every episode return — the optimal policy is
  /// unchanged — while removing the exogenous variance that otherwise buries
  /// the battery arbitrage signal.  The ledger records the true profit.
  /// When the episode ends (always a horizon truncation here, so done comes
  /// with truncated) the buffer holds the *final* observation — the lookback
  /// windows hold their last slot and the hour-of-day encoding wraps — so a
  /// critic can bootstrap V(s_T).
  StepOutcome step_into(std::size_t action, std::span<double> next_state) override;

  /// The coupling-aware step: reads `coupling.import_kw` (demand routed here
  /// by neighbor hubs), serves this slot's through demand and imports with
  /// whatever plug capacity the resident EVs leave free, and reports the
  /// unserved through demand as `coupling.export_kw` for the CouplingBus to
  /// route onward.  During a front outage the station shuts down: nothing is
  /// served, imports are dropped and the through demand is exported whole.
  /// On an uncoupled hub this is exactly the 2-arg step (outputs all zero).
  StepOutcome step_into(std::size_t action, std::span<double> next_state,
                        SlotCoupling& coupling);

  [[nodiscard]] std::size_t state_dim() const override;
  [[nodiscard]] std::size_t action_count() const override { return 3; }

  /// The layout of the observation vectors this environment emits — the
  /// contract every policy (rule-based or DRL) decodes its features through.
  [[nodiscard]] policy::ObservationLayout observation_layout() const noexcept {
    return policy::ObservationLayout{cfg_.lookback};
  }

  // ---- Introspection for rule-based schedulers, accounting and tests ----
  [[nodiscard]] std::size_t current_slot() const noexcept { return t_; }
  [[nodiscard]] std::size_t slots_per_episode() const noexcept {
    return cfg_.episode_days * cfg_.slots_per_day;
  }
  [[nodiscard]] double rtp_at(std::size_t t) const { return rtp_.at(t); }
  [[nodiscard]] double srtp_at(std::size_t t) const { return srtp_.at(t); }
  [[nodiscard]] double soc_frac() const { return pack_->soc_frac(); }
  [[nodiscard]] double hour_of_day(std::size_t t) const;
  [[nodiscard]] const battery::BatteryPack& pack() const { return *pack_; }
  [[nodiscard]] const ProfitLedger& ledger() const { return ledger_; }
  [[nodiscard]] const HubConfig& hub() const noexcept { return hub_; }

  /// Per-slot series of the current episode (valid after reset_into()).
  [[nodiscard]] const std::vector<double>& bs_power_series() const { return bs_kw_; }
  [[nodiscard]] const std::vector<double>& cs_power_series() const { return occ_.power_kw; }
  /// PV plus wind output in kW.  Nothing on the step path reads the sum, so
  /// the first call of each episode fills it: unlike the other const
  /// members, it writes, and must not race with any call on the same env.
  [[nodiscard]] const std::vector<double>& renewable_series() const;

 private:
  [[nodiscard]] static HubEnvConfig validated(HubEnvConfig cfg);
  void generate_episode();
  /// Slot t's values of the five observed channels, each divided by its
  /// ObservationLayout scale, in window order.
  [[nodiscard]] std::array<double, policy::ObservationLayout::kChannels> scaled_slot(
      std::size_t t) const;

  HubConfig hub_;
  HubEnvConfig cfg_;
  double dt_;  ///< slot length in hours
  Rng rng_;

  // Episode series, each written once per reset in the unit the slot reads
  // it in.  step_into reads bs_kw_, occ_.power_kw, gen_'s two channels,
  // rtp_, srtp_ and, coupled, through_kw_ and outage_; the observation
  // reads rtp_, wx_'s GHI and wind, traffic_.load_rate and srtp_ at the
  // slot that enters its windows.  Regenerated *in place*: every buffer
  // keeps its capacity across episodes and every generator writes through
  // its generate_into()/simulate_into(), so after the first reset an episode
  // costs no heap allocation anywhere on the reset or step path
  // (tests/test_alloc.cpp pins this with an operator-new hook).
  std::vector<double> rtp_;
  std::vector<double> srtp_;
  traffic::TrafficTrace traffic_;      ///< load-rate buffer, reused
  std::vector<double> bs_kw_;
  weather::WeatherSeries wx_;          ///< GHI / wind / temperature, reused
  /// Plant output, reused.  The plant writes watts; generate_episode divides
  /// both channels by 1000 in place, so pv_w and wt_w hold kW here.
  renewables::GenerationSeries gen_;
  ev::OccupancySeries occ_;            ///< EV occupancy + CS power, reused
  std::vector<bool> discounted_;  ///< per-slot discount flags; built once
  std::vector<double> through_kw_;    ///< coupled: through-traffic demand
  std::vector<std::uint8_t> outage_;  ///< coupled: front outage flags
  mutable std::vector<double> renewable_kw_;  ///< see renewable_series()
  mutable bool renewable_ready_ = false;

  // The observation's five lookback windows in observation order, already
  // divided by their scales: reset seeds each with `lookback` copies of slot
  // 0, and each step shifts them one slot older and divides only the slot
  // that enters.  observe_into copies them, so each slot's value is divided
  // once, not once per window it sits in; the bits are the same.
  std::vector<double> window_;

  // The observation's hour-of-day phase, sin and cos, by slot of the day;
  // built at construction.
  std::vector<double> hour_sin_;
  std::vector<double> hour_cos_;

  std::optional<ev::ChargingStation> station_;         ///< built at construction
  std::optional<pricing::SellingPricePolicy> selling_; ///< built at first reset
  std::optional<battery::BatteryPack> pack_;  ///< in-place, re-emplaced per reset
  ProfitLedger ledger_;                       ///< cleared per episode, storage reused
  std::size_t t_ = 0;
  std::size_t episode_index_ = 0;  ///< episodes generated; keys the side streams
  bool episode_ready_ = false;
};

}  // namespace ecthub::core
