// Selling-price policy for EV charging (SRTP in the paper's notation).
//
// The hub sells energy to EVs at a marked-up price relative to the real-time
// grid price; ECT-Price decides at which (station, slot) items to apply a
// discount.  A DiscountSchedule holds that per-slot decision and the policy
// composes SRTP(t) = markup * RTP(t) * (1 - discount(t)).
#pragma once

#include "common/time_grid.hpp"

#include <cstddef>
#include <vector>

namespace ecthub::pricing {

/// Per-slot discount fractions in [0, 1); 0 means full price.
class DiscountSchedule {
 public:
  /// All-zero schedule over `slots` slots.
  explicit DiscountSchedule(std::size_t slots);

  /// Schedule with a single discount fraction applied at selected slots.
  static DiscountSchedule from_flags(const std::vector<bool>& discounted, double fraction);

  void set(std::size_t t, double fraction);
  [[nodiscard]] double at(std::size_t t) const;
  [[nodiscard]] std::size_t size() const noexcept { return fractions_.size(); }

 private:
  std::vector<double> fractions_;
};

struct SellingConfig {
  /// SRTP = markup * RTP before discounting; > 1 so undiscounted charging is
  /// profitable per-unit.  Retail EV-charging prices typically run ~2x the
  /// wholesale energy price.
  double markup = 1.85;
  /// Hard floor on SRTP, $/MWh — the hub never sells below marginal cost.
  double floor = 20.0;

  /// Throws std::invalid_argument unless markup > 0 and both are finite.
  void validate() const;
};

class SellingPricePolicy {
 public:
  SellingPricePolicy(SellingConfig cfg, DiscountSchedule schedule);

  /// Selling price at slot t given the grid RTP at t.
  [[nodiscard]] double srtp(std::size_t t, double rtp) const;

  /// Writes the whole-horizon series into `out` in place, reusing its
  /// capacity.
  void series_into(const std::vector<double>& rtp, std::vector<double>& out) const;

  [[nodiscard]] const DiscountSchedule& schedule() const noexcept { return schedule_; }
  [[nodiscard]] const SellingConfig& config() const noexcept { return cfg_; }

 private:
  SellingConfig cfg_;
  DiscountSchedule schedule_;
};

}  // namespace ecthub::pricing
