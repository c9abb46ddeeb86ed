// Stochastic network-traffic (load-rate) generator.
//
// Produces the load rate alpha_t in [0, 1] that drives the BS power model
// P_BS(t) = Pmin + alpha_t (Pmax - Pmin) (paper Eq. 1).  The paper's Fig. 5
// plots traffic volume in GB; bench_fig05_rtp_traffic scales the load rate
// to that axis.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/time_grid.hpp"
#include "traffic/profile.hpp"

namespace ecthub::traffic {

struct TrafficConfig {
  AreaType area = AreaType::kMixed;
  /// Weekend traffic multiplier (offices quiet down, residential rises a bit).
  double weekend_factor = 0.85;
  /// AR(1) persistence of the multiplicative noise in (0, 1).
  double noise_persistence = 0.7;
  /// Standard deviation of the AR(1) innovation.
  double noise_sigma = 0.08;
  /// Floor on the load rate (control-plane traffic never drops to zero).
  double min_load = 0.05;

  /// Throws std::invalid_argument on a non-finite field or a range error.
  void validate() const;
};

/// One generated trace: the per-slot load rate.
struct TrafficTrace {
  std::vector<double> load_rate;  ///< alpha_t in [0, 1]
};

class TrafficGenerator {
 public:
  TrafficGenerator(TrafficConfig cfg, Rng rng);

  /// Generates a full trace over `grid` into `trace`, reusing its buffers'
  /// capacity, so EctHubEnv regenerates episodes without touching the heap.
  /// Deterministic given the Rng state at construction.
  void generate_into(const TimeGrid& grid, TrafficTrace& trace);

  [[nodiscard]] const TrafficConfig& config() const noexcept { return cfg_; }

 private:
  TrafficConfig cfg_;
  Rng rng_;
};

}  // namespace ecthub::traffic
