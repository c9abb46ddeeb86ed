// The observation contract between EctHubEnv and the Policy layer.
//
// Every decision interface in the system — rule-based heuristics, the
// ECT-DRL actor, and the lockstep fleet batcher — consumes the same flat
// feature vector the RL environment emits (paper Eq. 24):
//
//   [ RTP window | GHI window | wind window | traffic window | SRTP window |
//     SoC | sin(hour) | cos(hour) ]
//
// Each window holds `lookback` slots ordered oldest -> newest, normalized by
// the channel scale below; the battery SoC is a fraction and the hour of day
// is phase-encoded.  ObservationLayout is the single source of truth for
// that encoding: EctHubEnv::observe() writes through it and the policies
// read through it, so the two sides cannot drift apart silently.
#pragma once

#include <cstddef>
#include <span>

namespace ecthub::policy {

struct ObservationLayout {
  /// Slots of history per feature channel (HubEnvConfig::lookback).
  std::size_t lookback = 6;

  /// Feature channels carrying a lookback window, in vector order.
  static constexpr std::size_t kChannels = 5;  // RTP, GHI, wind, traffic, SRTP

  // Normalization scales: keep every channel roughly in [0, 2].
  static constexpr double kPriceScale = 100.0;  ///< $/MWh (RTP and SRTP)
  static constexpr double kGhiScale = 1000.0;   ///< W/m^2
  static constexpr double kWindScale = 25.0;    ///< m/s

  [[nodiscard]] std::size_t dim() const noexcept { return kChannels * lookback + 3; }

  // ---- channel offsets (each window spans [offset, offset + lookback)) ----
  [[nodiscard]] std::size_t rtp_begin() const noexcept { return 0; }
  [[nodiscard]] std::size_t ghi_begin() const noexcept { return lookback; }
  [[nodiscard]] std::size_t wind_begin() const noexcept { return 2 * lookback; }
  [[nodiscard]] std::size_t traffic_begin() const noexcept { return 3 * lookback; }
  [[nodiscard]] std::size_t srtp_begin() const noexcept { return 4 * lookback; }
  [[nodiscard]] std::size_t soc_index() const noexcept { return kChannels * lookback; }
  [[nodiscard]] std::size_t hour_sin_index() const noexcept { return soc_index() + 1; }
  [[nodiscard]] std::size_t hour_cos_index() const noexcept { return soc_index() + 2; }

  // ---- decoded accessors (validate the observation size) -----------------

  /// Current (newest-slot) real-time price in $/MWh.
  [[nodiscard]] double rtp(std::span<const double> obs) const;
  /// Current selling price in $/MWh.
  [[nodiscard]] double srtp(std::span<const double> obs) const;
  /// Battery state of charge as a fraction in [0, 1].
  [[nodiscard]] double soc(std::span<const double> obs) const;
  /// Hour of day in [0, 24) recovered from the phase encoding; snapped to
  /// 1e-7 h so slot-aligned hours come back exact despite the trig round
  /// trip.
  [[nodiscard]] double hour_of_day(std::span<const double> obs) const;

  /// Throws std::invalid_argument when obs.size() != dim().
  void check(std::span<const double> obs) const;
};

}  // namespace ecthub::policy
