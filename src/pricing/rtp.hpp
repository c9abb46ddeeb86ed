// Real-time electricity price (RTP) generator — the ENGIE-data substitute.
//
// The paper's Fig. 5 shows RTP in $/MWh over four days with (a) a diurnal
// double structure peaking in the evening, (b) positive correlation with the
// network load, and (c) occasional spikes.  We reproduce those features with
// a diurnal base curve, an optional load-coupling term and a jump process.
#pragma once

#include "common/rng.hpp"
#include "common/time_grid.hpp"

#include <vector>

namespace ecthub::pricing {

struct RtpConfig {
  double base_price = 70.0;        ///< $/MWh level around which prices move
  double diurnal_amplitude = 30.0; ///< $/MWh swing of the deterministic curve
  double load_coupling = 25.0;     ///< $/MWh added at full system load
  double noise_sigma = 4.0;        ///< per-slot Gaussian noise, $/MWh
  double noise_persistence = 0.6;  ///< AR(1) persistence of the noise
  double spike_prob = 0.01;        ///< per-slot probability of a price spike
  double spike_scale = 60.0;       ///< mean additional $/MWh during a spike
  double floor_price = 10.0;       ///< prices never drop below this

  /// Throws std::invalid_argument on a non-finite field or a range error.
  void validate() const;
};

class RtpGenerator {
 public:
  RtpGenerator(RtpConfig cfg, Rng rng);

  /// Writes the price series in $/MWh over `grid` into `price_out`, reusing
  /// its capacity, so EctHubEnv regenerates episodes without touching the
  /// heap.  `system_load` (values in [0, 1]) couples prices to demand; pass
  /// an empty vector for a pure diurnal process.  `price_out` must not alias
  /// `system_load`.
  void generate_into(const TimeGrid& grid, const std::vector<double>& system_load,
                     std::vector<double>& price_out);

  /// Deterministic diurnal component at an hour of day (no noise/spikes).
  [[nodiscard]] double diurnal_component(double hour_of_day) const;

  [[nodiscard]] const RtpConfig& config() const noexcept { return cfg_; }

 private:
  RtpConfig cfg_;
  Rng rng_;
};

}  // namespace ecthub::pricing
