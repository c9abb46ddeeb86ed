#include "causal/uplift.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ecthub::causal {

namespace {

/// Gathers per-item scalar predictions in evaluation order.
std::vector<double> predict_all(NcfRegressor& model, const std::vector<Item>& items) {
  std::vector<std::size_t> idx(items.size());
  std::iota(idx.begin(), idx.end(), 0);
  const Batch b = make_batch(items, idx);
  const nn::Matrix pred = model.forward(b.station_ids, b.time_ids);
  std::vector<double> out(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) out[i] = pred(i, 0);
  return out;
}

}  // namespace

void train_regressor(NcfRegressor& model, const std::vector<Item>& items,
                     const std::vector<double>& targets, const UpliftConfig& cfg, Rng& rng,
                     nn::Adam& opt) {
  if (items.empty()) throw std::invalid_argument("train_regressor: empty training set");
  if (items.size() != targets.size()) {
    throw std::invalid_argument("train_regressor: target size mismatch");
  }
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += cfg.batch_size) {
      const std::size_t end = std::min(start + cfg.batch_size, order.size());
      const std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                         order.begin() + static_cast<std::ptrdiff_t>(end));
      const Batch b = make_batch(items, idx);
      std::vector<double> batch_targets;
      batch_targets.reserve(idx.size());
      for (std::size_t j : idx) batch_targets.push_back(targets[j]);
      model.train_step(b, batch_targets, opt);
    }
  }
}

// ---------------------------------------------------------------- OR

OutcomeRegression::OutcomeRegression(UpliftConfig cfg, Rng rng)
    : cfg_(cfg),
      rng_(rng),
      mu1_(cfg.ncf, nn::Activation::kSigmoid, rng_, "or.mu1"),
      mu0_(cfg.ncf, nn::Activation::kSigmoid, rng_, "or.mu0") {}

void OutcomeRegression::fit(const std::vector<Item>& train) {
  std::vector<Item> treated, control;
  std::vector<double> y1, y0;
  for (const auto& it : train) {
    if (it.treated) {
      treated.push_back(it);
      y1.push_back(it.charged ? 1.0 : 0.0);
    } else {
      control.push_back(it);
      y0.push_back(it.charged ? 1.0 : 0.0);
    }
  }
  if (treated.empty() || control.empty()) {
    throw std::invalid_argument("OutcomeRegression::fit: need both treated and control items");
  }
  nn::Adam opt1(cfg_.adam), opt0(cfg_.adam);
  train_regressor(mu1_, treated, y1, cfg_, rng_, opt1);
  train_regressor(mu0_, control, y0, cfg_, rng_, opt0);
}

std::vector<double> OutcomeRegression::uplift(const std::vector<Item>& items) {
  const std::vector<double> p1 = predict_all(mu1_, items);
  const std::vector<double> p0 = predict_all(mu0_, items);
  std::vector<double> tau(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) tau[i] = p1[i] - p0[i];
  return tau;
}

// ---------------------------------------------------------------- IPS

InversePropensityScoring::InversePropensityScoring(UpliftConfig cfg, Rng rng)
    : cfg_(cfg),
      rng_(rng),
      prop_(cfg.ncf, nn::Activation::kSigmoid, rng_, "ips.prop"),
      tau_(cfg.ncf, nn::Activation::kIdentity, rng_, "ips.tau") {}

void InversePropensityScoring::fit(const std::vector<Item>& train) {
  // Stage 1: propensity model e(X) <- T.
  std::vector<double> t_targets;
  t_targets.reserve(train.size());
  for (const auto& it : train) t_targets.push_back(it.treated ? 1.0 : 0.0);
  nn::Adam opt_p(cfg_.adam);
  train_regressor(prop_, train, t_targets, cfg_, rng_, opt_p);

  // Stage 2: transformed outcome Z = YT/e - Y(1-T)/(1-e); E[Z | X] = tau(X).
  const std::vector<double> e_hat = predict_all(prop_, train);
  std::vector<double> z(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    const double e = std::clamp(e_hat[i], cfg_.propensity_clip, 1.0 - cfg_.propensity_clip);
    const double y = train[i].charged ? 1.0 : 0.0;
    const double t = train[i].treated ? 1.0 : 0.0;
    z[i] = y * t / e - y * (1.0 - t) / (1.0 - e);
  }
  nn::Adam opt_t(cfg_.adam);
  train_regressor(tau_, train, z, cfg_, rng_, opt_t);
}

std::vector<double> InversePropensityScoring::uplift(const std::vector<Item>& items) {
  return predict_all(tau_, items);
}

double InversePropensityScoring::propensity(std::size_t station_id, std::size_t time_id) {
  return prop_.predict(station_id, time_id);
}

// ---------------------------------------------------------------- DR

DoublyRobust::DoublyRobust(UpliftConfig cfg, Rng rng)
    : cfg_(cfg),
      rng_(rng),
      mu1_(cfg.ncf, nn::Activation::kSigmoid, rng_, "dr.mu1"),
      mu0_(cfg.ncf, nn::Activation::kSigmoid, rng_, "dr.mu0"),
      prop_(cfg.ncf, nn::Activation::kSigmoid, rng_, "dr.prop"),
      tau_(cfg.ncf, nn::Activation::kIdentity, rng_, "dr.tau") {}

void DoublyRobust::fit(const std::vector<Item>& train) {
  // Nuisance models.
  std::vector<Item> treated, control;
  std::vector<double> y1, y0, t_targets;
  t_targets.reserve(train.size());
  for (const auto& it : train) {
    t_targets.push_back(it.treated ? 1.0 : 0.0);
    if (it.treated) {
      treated.push_back(it);
      y1.push_back(it.charged ? 1.0 : 0.0);
    } else {
      control.push_back(it);
      y0.push_back(it.charged ? 1.0 : 0.0);
    }
  }
  if (treated.empty() || control.empty()) {
    throw std::invalid_argument("DoublyRobust::fit: need both treated and control items");
  }
  nn::Adam o1(cfg_.adam), o0(cfg_.adam), op(cfg_.adam);
  train_regressor(mu1_, treated, y1, cfg_, rng_, o1);
  train_regressor(mu0_, control, y0, cfg_, rng_, o0);
  train_regressor(prop_, train, t_targets, cfg_, rng_, op);

  // AIPW pseudo-outcome.
  const std::vector<double> m1 = predict_all(mu1_, train);
  const std::vector<double> m0 = predict_all(mu0_, train);
  const std::vector<double> e_hat = predict_all(prop_, train);
  std::vector<double> gamma(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    const double e = std::clamp(e_hat[i], cfg_.propensity_clip, 1.0 - cfg_.propensity_clip);
    const double y = train[i].charged ? 1.0 : 0.0;
    const double t = train[i].treated ? 1.0 : 0.0;
    gamma[i] = m1[i] - m0[i] + t * (y - m1[i]) / e - (1.0 - t) * (y - m0[i]) / (1.0 - e);
  }
  nn::Adam ot(cfg_.adam);
  train_regressor(tau_, train, gamma, cfg_, rng_, ot);
}

std::vector<double> DoublyRobust::uplift(const std::vector<Item>& items) {
  return predict_all(tau_, items);
}

}  // namespace ecthub::causal
