#include "causal/evaluate.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecthub::causal {

std::vector<bool> decide_by_uplift(const std::vector<double>& uplift, double threshold) {
  std::vector<bool> out(uplift.size(), false);
  for (std::size_t i = 0; i < uplift.size(); ++i) out[i] = uplift[i] > threshold;
  return out;
}

std::vector<bool> decide_by_strata(const std::vector<StrataPrediction>& preds,
                                   double discount) {
  return decide_by_uplift(strata_gain_scores(preds, discount));
}

std::vector<double> strata_gain_scores(const std::vector<StrataPrediction>& preds,
                                       double discount) {
  if (discount <= 0.0 || discount >= 1.0) {
    throw std::invalid_argument("strata_gain_scores: discount must be in (0, 1)");
  }
  std::vector<double> scores(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    scores[i] = (1.0 - discount) * preds[i].p_incentive - discount * preds[i].p_always;
  }
  return scores;
}

std::vector<bool> decide_top_k(const std::vector<double>& scores, std::size_t k) {
  std::vector<bool> out(scores.size(), false);
  if (k == 0) return out;
  // No method is forced to discount items its own score marks unprofitable:
  // only positive-score items are eligible for the budget.
  std::vector<std::size_t> order;
  order.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > 0.0) order.push_back(i);
  }
  k = std::min(k, order.size());
  if (k == 0) return out;
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   order.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
  for (std::size_t i = 0; i < k; ++i) out[order[i]] = true;
  return out;
}

DiscountOutcome evaluate_decisions(const std::string& method, double discount,
                                   const std::vector<Item>& items,
                                   const std::vector<bool>& discounted) {
  if (items.size() != discounted.size()) {
    throw std::invalid_argument("evaluate_decisions: size mismatch");
  }
  if (discount <= 0.0 || discount >= 1.0) {
    throw std::invalid_argument("evaluate_decisions: discount must be in (0, 1)");
  }
  DiscountOutcome out;
  out.method = method;
  out.discount = discount;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!discounted[i]) continue;
    switch (items[i].stratum) {
      case ev::Stratum::kNone:
        ++out.none;
        break;
      case ev::Stratum::kIncentive:
        ++out.incentive;
        out.reward += 1.0 - discount;
        break;
      case ev::Stratum::kAlways:
        ++out.always;
        out.reward -= discount;
        break;
    }
  }
  return out;
}

StationStrataCurves strata_curves_for_station(const std::vector<Item>& items,
                                              const std::vector<StrataPrediction>& preds,
                                              std::size_t station_id) {
  if (items.size() != preds.size()) {
    throw std::invalid_argument("strata_curves_for_station: size mismatch");
  }
  StationStrataCurves curves;
  curves.p_none.assign(24, 0.0);
  curves.p_incentive.assign(24, 0.0);
  curves.p_always.assign(24, 0.0);
  std::vector<std::size_t> counts(24, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].station_id != station_id) continue;
    const std::size_t h = items[i].hour;
    if (h >= 24) throw std::out_of_range("strata_curves_for_station: bad hour");
    curves.p_none[h] += preds[i].p_none;
    curves.p_incentive[h] += preds[i].p_incentive;
    curves.p_always[h] += preds[i].p_always;
    ++counts[h];
  }
  for (std::size_t h = 0; h < 24; ++h) {
    if (counts[h] == 0) continue;
    const double n = static_cast<double>(counts[h]);
    curves.p_none[h] /= n;
    curves.p_incentive[h] /= n;
    curves.p_always[h] /= n;
  }
  return curves;
}

PeriodDistribution period_distribution(const std::vector<Item>& items,
                                       const std::vector<StrataPrediction>& preds) {
  if (items.size() != preds.size()) {
    throw std::invalid_argument("period_distribution: size mismatch");
  }
  PeriodDistribution dist;
  std::array<double, 4> totals{};
  std::array<std::array<double, 3>, 4> mass{};
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t period = items[i].hour / 6;
    if (period >= 4) throw std::out_of_range("period_distribution: bad hour");
    mass[period][0] += preds[i].p_none;
    mass[period][1] += preds[i].p_incentive;
    mass[period][2] += preds[i].p_always;
    totals[period] += 1.0;
  }
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t s = 0; s < 3; ++s) {
      dist.shares[p][s] = totals[p] == 0.0 ? 0.0 : mass[p][s] / totals[p];
    }
  }
  return dist;
}

double strata_accuracy(const std::vector<Item>& items,
                       const std::vector<StrataPrediction>& preds) {
  if (items.size() != preds.size()) throw std::invalid_argument("strata_accuracy: size mismatch");
  if (items.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (preds[i].argmax() == items[i].stratum) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(items.size());
}

}  // namespace ecthub::causal
