// Discount policies and the evaluation harness behind Table II and
// Figs. 11-12.
//
// Both policy families produce a boolean discount decision per test item:
//   - uplift baselines treat items with estimated uplift above a threshold;
//   - ECT-Price discounts an item when the expected gain is positive:
//       (1 - c) * P(Incentive) - c * P(Always) > 0,
//     the probabilistic generalization of "discount only Incentive Charge,
//     never Always Charge" — an Incentive item discounted at fraction c earns
//     1 - c of new revenue, an Always item discounted loses c.
// The evaluator then scores decisions against the simulator's ground-truth
// strata.  Reward convention (documented in EXPERIMENTS.md): a discounted
// item contributes (1 - c) if it is truly Incentive (new revenue at the
// discounted price), -c if truly Always (the EV would have paid full price),
// and 0 if truly None (the coupon is never redeemed).  This preserves the
// paper's qualitative structure — discounting Always items is pure loss, so
// better stratification means higher reward — without relying on the paper's
// unstated revenue normalization.
#pragma once

#include "causal/ect_price.hpp"
#include "causal/uplift.hpp"

#include <array>
#include <string>
#include <vector>

namespace ecthub::causal {

/// Discount decisions for a set of items.
[[nodiscard]] std::vector<bool> decide_by_uplift(const std::vector<double>& uplift,
                                                 double threshold = 0.0);

/// Expected-gain rule at discount fraction `discount` in (0, 1): discount
/// the items whose strata_gain_scores are positive.
[[nodiscard]] std::vector<bool> decide_by_strata(const std::vector<StrataPrediction>& preds,
                                                 double discount);

/// Expected-gain score of each item: (1 - c) * P(Incentive) - c * P(Always).
[[nodiscard]] std::vector<double> strata_gain_scores(
    const std::vector<StrataPrediction>& preds, double discount);

/// Budget-matched selection: discounts the `k` items with the highest score
/// (ties broken by index).  Table II compares all methods at the same budget
/// so that reward differences isolate targeting quality — mirroring the
/// paper's equal per-method selection counts.
[[nodiscard]] std::vector<bool> decide_top_k(const std::vector<double>& scores, std::size_t k);

/// One Table II cell group: counts of true strata among discounted items and
/// the resulting reward at discount fraction c.
struct DiscountOutcome {
  std::string method;
  double discount = 0.0;
  std::size_t none = 0;
  std::size_t incentive = 0;
  std::size_t always = 0;
  double reward = 0.0;
};

[[nodiscard]] DiscountOutcome evaluate_decisions(const std::string& method, double discount,
                                                 const std::vector<Item>& items,
                                                 const std::vector<bool>& discounted);

/// Hour-of-day strata curves for one station (Fig. 11): average predicted
/// probability of each stratum at each hour, over the station's test items.
struct StationStrataCurves {
  std::vector<double> p_none;       ///< size 24
  std::vector<double> p_incentive;  ///< size 24
  std::vector<double> p_always;     ///< size 24
};

[[nodiscard]] StationStrataCurves strata_curves_for_station(
    const std::vector<Item>& items, const std::vector<StrataPrediction>& preds,
    std::size_t station_id);

/// Predicted strata probability mass over four six-hour periods (Fig. 12):
/// the mean predicted (None, Incentive, Always) distribution of the items in
/// each period.  Each period's shares sum to 1, like the paper's pie charts.
struct PeriodDistribution {
  // shares[period][stratum]: period 0 = 00-06h .. 3 = 18-24h;
  // stratum order: None, Incentive, Always.
  std::array<std::array<double, 3>, 4> shares{};
};

[[nodiscard]] PeriodDistribution period_distribution(const std::vector<Item>& items,
                                                     const std::vector<StrataPrediction>& preds);

/// Stratification accuracy against ground truth (argmax vs true stratum).
[[nodiscard]] double strata_accuracy(const std::vector<Item>& items,
                                     const std::vector<StrataPrediction>& preds);

}  // namespace ecthub::causal
