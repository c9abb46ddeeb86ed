#include "core/hub_env.hpp"

#include "battery/reserve.hpp"
#include "common/elementary.hpp"
#include "power/balance.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ecthub::core {

// Normalization scales live on the shared ObservationLayout so the policies
// decode exactly what this file encodes.
using policy::ObservationLayout;

namespace {
// Coupled-mode side streams are seeded from pure hashes — never from rng_ —
// so turning coupling on cannot perturb the uncoupled fork sequence
// (traffic -> weather -> rtp -> ev -> init SoC) that the golden-checksum
// tests pin.  Each stream mixes its tag with the episode index so every
// episode draws fresh, reproducible values.
constexpr std::uint64_t kWeatherFrontStream = 0x7778'66726f6e74ULL;  // "wxfront"
constexpr std::uint64_t kOutageFrontStream = 0x6f75'74667274ULL;     // "outfrt"
constexpr std::uint64_t kThroughStream = 0x7468'72753030ULL;         // "thru"
}  // namespace

HubEnvConfig EctHubEnv::validated(HubEnvConfig cfg) {
  if (cfg.episode_days == 0) throw std::invalid_argument("HubEnvConfig: episode_days == 0");
  if (cfg.lookback == 0) throw std::invalid_argument("HubEnvConfig: lookback == 0");
  if (!cfg.discount_by_hour.empty() && cfg.discount_by_hour.size() != 24) {
    throw std::invalid_argument("HubEnvConfig: discount_by_hour must have 24 entries");
  }
  // Every range check is written so that NaN fails it.
  if (!(cfg.discount_fraction >= 0.0 && cfg.discount_fraction < 1.0)) {
    throw std::invalid_argument("HubEnvConfig: discount_fraction out of [0, 1)");
  }
  if (cfg.coupling.enabled) {
    if (!(std::isfinite(cfg.coupling.through_rate) && cfg.coupling.through_rate >= 0.0)) {
      throw std::invalid_argument("HubCouplingConfig: through_rate must be finite and >= 0");
    }
    cfg.coupling.outage.validate();
  }
  return cfg;
}

EctHubEnv::EctHubEnv(HubConfig hub, HubEnvConfig env_cfg)
    : hub_(std::move(hub)),
      cfg_(validated(std::move(env_cfg))),
      rng_(hub_.seed) {
  // Fail on a bad hub config (a zero-capacity battery, a NaN price level) at
  // construction, not at the first reset deep inside a worker thread.  Every
  // component check is written so that NaN fails it; the station and its EV
  // profile are checked as they are built below.
  hub_.bs.validate();
  hub_.battery.validate();
  hub_.plant.validate();
  hub_.traffic.validate();
  hub_.weather.validate();
  hub_.rtp.validate();
  hub_.selling.validate();
  if (!(std::isfinite(hub_.recovery_hours) && hub_.recovery_hours >= 0.0)) {
    throw std::invalid_argument("HubConfig: recovery_hours must be finite and >= 0");
  }
  // The station's behaviour profile is a pure function of the hub config, so
  // it is built once here (also validating it eagerly) rather than per reset.
  station_.emplace(hub_.station,
                   ev::StrataProfile(hub_.ev_popularity, hub_.ev_evening_sensitivity,
                                     hub_.ev_evening_commuter));
  for (std::size_t hour = 0; hour < kSlotsPerDay; ++hour) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(hour) / 24.0;
    hour_sin_[hour] = elementary::sin(phase);
    hour_cos_[hour] = elementary::cos(phase);
  }
}

std::size_t EctHubEnv::state_dim() const { return observation_layout().dim(); }

void EctHubEnv::generate_episode() {
  const TimeGrid grid(cfg_.episode_days, kSlotsPerDay);
  const std::size_t episode = episode_index_++;
  const HubCouplingConfig& coupling = cfg_.coupling;
  const bool fronted = coupling.enabled && coupling.front_seed != 0;

  // Traffic drives both BS power (Eq. 1) and the RTP load coupling (Fig. 5).
  // The generators write into the episode buffers in place, so the buffers'
  // capacity is reused across resets and regeneration is allocation-free.
  traffic::TrafficGenerator traffic_gen(hub_.traffic, rng_.fork());
  traffic_gen.generate_into(grid, traffic_);
  const std::vector<double>& load_rate = traffic_.load_rate;
  const power::BaseStation bs(hub_.bs);
  bs_kw_.resize(grid.size());
  for (std::size_t t = 0; t < grid.size(); ++t) bs_kw_[t] = bs.power_kw(load_rate[t]);

  // Weather -> renewables, regenerated into the reused episode buffers.
  // The fork is drawn unconditionally so the uncoupled stream sequence never
  // shifts; a metro front then *replaces* the forked stream with the shared
  // front stream, correlating weather across every hub of the metro.
  Rng wx_rng = rng_.fork();
  if (fronted) {
    wx_rng = Rng(mix_seed(mix_seed(coupling.front_seed, kWeatherFrontStream), episode));
  }
  weather::WeatherGenerator wx_gen(hub_.weather, wx_rng);
  wx_gen.generate_into(grid, wx_);
  const renewables::RenewablePlant plant(hub_.plant);
  plant.generate_into(wx_, gen_);
  // Plant model reports watts; the hub works in kW.
  for (std::size_t t = 0; t < grid.size(); ++t) {
    gen_.pv_w[t] /= 1000.0;
    gen_.wt_w[t] /= 1000.0;
  }
  renewable_ready_ = false;

  // Prices (coupled to system load) and the discounted selling price.
  pricing::RtpGenerator rtp_gen(hub_.rtp, rng_.fork());
  rtp_gen.generate_into(grid, load_rate, rtp_);

  // The discount flags depend only on the grid and the (fixed) hour
  // schedule, so the flags and the selling-price policy are built once at
  // the first reset and reused for every later episode.
  if (!selling_) {
    discounted_.assign(grid.size(), false);
    if (!cfg_.discount_by_hour.empty()) {
      for (std::size_t t = 0; t < grid.size(); ++t) {
        discounted_[t] = cfg_.discount_by_hour[grid.slot_of_day(t)];
      }
    }
    selling_.emplace(hub_.selling, pricing::DiscountSchedule::from_flags(
                                       discounted_, cfg_.discount_fraction));
  }
  selling_->series_into(rtp_, srtp_);

  // EV occupancy under the discount schedule.
  Rng ev_rng = rng_.fork();
  station_->simulate_into(grid, discounted_, ev_rng, occ_);

  // Coupled-mode side streams: through-traffic demand (passing EVs that can
  // overflow the plugs and be exported to neighbors) and the shared outage
  // front.  Both are seeded from pure hashes, so the uncoupled fork sequence
  // above is untouched, and both regenerate into reused buffers.
  if (coupling.enabled) {
    through_kw_.resize(grid.size());
    Rng through_rng(mix_seed(mix_seed(hub_.seed, kThroughStream), episode));
    const double plug_kw = hub_.station.plug_rate_kw;
    for (std::size_t t = 0; t < grid.size(); ++t) {
      through_kw_[t] = plug_kw * static_cast<double>(through_rng.poisson(
                                     coupling.through_rate * traffic_.load_rate[t]));
    }
    outage_.resize(grid.size());
    if (fronted && coupling.outage.rate_per_month > 0.0) {
      Rng outage_rng(
          mix_seed(mix_seed(coupling.front_seed, kOutageFrontStream), episode));
      draw_outages_into(coupling.outage, outage_rng, outage_);
    } else {
      std::fill(outage_.begin(), outage_.end(), std::uint8_t{0});
    }
  }

  // Battery with the Eq. 6 blackout reserve floor, re-emplaced in place (no
  // per-reset heap allocation), starting at a SoC uniform in [0.3, 0.9].
  pack_.emplace(hub_.battery, rng_.uniform(0.3, 0.9));
  // Cut at the horizon in double: a huge finite recovery time must not reach
  // the size_t cast, which is undefined at 2^64 and above.
  const auto recovery_slots = static_cast<std::size_t>(
      std::min(std::ceil(hub_.recovery_hours), static_cast<double>(bs_kw_.size())));
  if (recovery_slots > 0) {
    const double reserve_kwh = battery::reserve_energy_worst_window(bs_kw_, recovery_slots);
    const double floor_frac = battery::reserve_floor_fraction(
        reserve_kwh, hub_.battery.capacity_kwh, hub_.battery.discharge_efficiency);
    const double floor_kwh =
        std::clamp(floor_frac * hub_.battery.capacity_kwh, pack_->soc_min_kwh(),
                   pack_->soc_max_kwh());
    pack_->set_reserve_floor_kwh(floor_kwh);
  }

  // Every observation window starts as `lookback` copies of slot 0.
  const std::size_t lookback = cfg_.lookback;
  window_.resize(ObservationLayout::kChannels * lookback);
  const auto first = scaled_slot(0);
  for (std::size_t c = 0; c < first.size(); ++c) {
    std::fill_n(window_.begin() + static_cast<std::ptrdiff_t>(c * lookback), lookback, first[c]);
  }

  ledger_.reset();
  t_ = 0;
  episode_ready_ = true;
}

const std::vector<double>& EctHubEnv::renewable_series() const {
  if (!renewable_ready_) {
    renewable_kw_.resize(gen_.size());
    for (std::size_t t = 0; t < gen_.size(); ++t) renewable_kw_[t] = gen_.pv_w[t] + gen_.wt_w[t];
    renewable_ready_ = true;
  }
  return renewable_kw_;
}

std::array<double, ObservationLayout::kChannels> EctHubEnv::scaled_slot(std::size_t t) const {
  // Traffic is a load rate in [0, 1] and has no scale.
  return {rtp_[t] / ObservationLayout::kPriceScale, wx_.ghi_wm2[t] / ObservationLayout::kGhiScale,
          wx_.wind_speed_ms[t] / ObservationLayout::kWindScale, traffic_.load_rate[t],
          srtp_[t] / ObservationLayout::kPriceScale};
}

void EctHubEnv::observe_into(std::span<double> out) const {
  // Channel order, window ordering (oldest -> newest) and scales are the
  // ObservationLayout contract; policies decode through the same struct.
  if (!episode_ready_) throw std::logic_error("EctHubEnv::observe_into before reset");
  if (out.size() != state_dim()) {
    throw std::invalid_argument("EctHubEnv::observe_into: buffer size != state_dim()");
  }
  std::copy(window_.begin(), window_.end(), out.begin());
  std::size_t pos = window_.size();
  out[pos++] = pack_->soc_frac();
  // Wrapping by hand keeps the final observation (t_ == size, where
  // TimeGrid::slot_of_day would range-check) on the same 24 h phase;
  // identical to slot_of_day(t_) for every in-episode slot.
  const std::size_t slot_of_day = t_ % kSlotsPerDay;
  out[pos++] = hour_sin_[slot_of_day];
  out[pos] = hour_cos_[slot_of_day];
}

void EctHubEnv::reset_into(std::span<double> state) {
  if (state.size() != state_dim()) {
    throw std::invalid_argument("EctHubEnv::reset_into: buffer size != state_dim()");
  }
  generate_episode();
  observe_into(state);
}

StepOutcome EctHubEnv::step_into(std::size_t action, std::span<double> next_state) {
  SlotCoupling coupling;  // zero import, outputs discarded
  return step_into(action, next_state, coupling);
}

StepOutcome EctHubEnv::step_into(std::size_t action, std::span<double> next_state,
                                 SlotCoupling& coupling) {
  if (!episode_ready_) throw std::logic_error("EctHubEnv::step before reset");
  if (action >= action_count()) throw std::invalid_argument("EctHubEnv::step: bad action");
  if (t_ >= slots_per_episode()) throw std::logic_error("EctHubEnv::step after episode end");
  if (next_state.size() != state_dim()) {
    throw std::invalid_argument("EctHubEnv::step_into: buffer size != state_dim()");
  }

  auto bp_action = battery::BpAction::kIdle;
  if (action == 1) bp_action = battery::BpAction::kCharge;
  if (action == 2) bp_action = battery::BpAction::kDischarge;
  // Coupled demand resolution: resident EVs occupy their plugs first, then
  // the slot's through traffic, then imports routed here by neighbors; the
  // unserved through demand becomes the export the CouplingBus routes onward
  // (unserved imports are dropped — a one-hop bound, so demand cannot
  // ping-pong around the metro forever).  Uncoupled hubs skip all of it and
  // the slot is bit-identical to the pre-coupling step.
  double cs_kw = occ_.power_kw[t_];
  coupling.export_kw = 0.0;
  coupling.served_import_kw = 0.0;
  coupling.dropped_import_kw = 0.0;
  coupling.through_kw = 0.0;
  coupling.outage = false;
  if (cfg_.coupling.enabled) {
    const double through = through_kw_[t_];
    coupling.through_kw = through;
    if (outage_[t_] != 0) {
      // Front outage: the station shuts down (the ride_through contract) —
      // resident demand and imports are lost, through traffic drives on.
      coupling.outage = true;
      coupling.export_kw = through;
      coupling.dropped_import_kw = coupling.import_kw;
      cs_kw = 0.0;
    } else {
      const double cap_kw =
          static_cast<double>(hub_.station.num_plugs) * hub_.station.plug_rate_kw;
      const double free_kw = std::max(0.0, cap_kw - cs_kw);
      const double served_through = std::min(through, free_kw);
      const double served_import =
          std::min(coupling.import_kw, free_kw - served_through);
      cs_kw += served_through + served_import;
      coupling.served_import_kw = served_import;
      coupling.dropped_import_kw = coupling.import_kw - served_import;
      coupling.export_kw = through - served_through;
    }
  }
  // Discharge is throttled to the hub's net load: the DC bus cannot absorb
  // more than BS + CS demand net of renewables, and there is no grid feed-in.
  const double pv_kw = gen_.pv_w[t_];
  const double wt_kw = gen_.wt_w[t_];
  const double net_load_kw = std::max(0.0, bs_kw_[t_] + cs_kw - wt_kw - pv_kw);
  const battery::BpStepResult bp = pack_->step(bp_action, net_load_kw);

  const power::PowerFlow flow{bs_kw_[t_], cs_kw, bp.bus_power_kw, wt_kw, pv_kw};
  const SlotEconomics econ =
      slot_economics(flow.cs_kw, flow.grid_kw(), srtp_[t_], rtp_[t_], bp.op_cost);
  ledger_.record(econ);

  // Counterfactual reward (see step_into in hub_env.hpp): the same slot
  // with the pack idle.
  const power::PowerFlow idle_flow{bs_kw_[t_], cs_kw, 0.0, wt_kw, pv_kw};
  const SlotEconomics idle_econ =
      slot_economics(idle_flow.cs_kw, idle_flow.grid_kw(), srtp_[t_], rtp_[t_], 0.0);

  ++t_;
  StepOutcome outcome;
  outcome.reward = econ.profit() - idle_econ.profit();
  outcome.done = t_ >= slots_per_episode();
  // The horizon is the env's only end condition — a time-limit truncation of
  // the paper's infinite-horizon MDP, not a terminal state — so the final
  // observation is emitted for critic bootstrapping before the episode
  // closes; its windows take the last generated slot once more.
  outcome.truncated = outcome.done;
  // Shift every window one slot older with one move of the whole array: the
  // value that crosses into each channel's newest position is overwritten.
  std::copy(window_.begin() + 1, window_.end(), window_.begin());
  const auto newest = scaled_slot(std::min(t_, slots_per_episode() - 1));
  for (std::size_t c = 0; c < newest.size(); ++c) {
    window_[(c + 1) * cfg_.lookback - 1] = newest[c];
  }
  observe_into(next_state);
  if (outcome.done) episode_ready_ = false;
  return outcome;
}

}  // namespace ecthub::core
