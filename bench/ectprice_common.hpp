// Shared setup for the ECT-Price experiment benches (Table II, Figs. 11-12):
// generates the charging dataset, splits it, and trains ECT-Price.
#pragma once

#include "causal/ect_price.hpp"
#include "causal/evaluate.hpp"
#include "causal/uplift.hpp"
#include "common/cli.hpp"
#include "ev/dataset.hpp"

#include <iostream>

namespace ecthub::benchx {

struct EctPriceSetup {
  std::vector<causal::Item> train;
  std::vector<causal::Item> test;
  causal::EctPriceConfig price_cfg;
  causal::UpliftConfig uplift_cfg;
  /// The dataset's per-station behaviour profiles; the DRL benches give each
  /// hub the profile its schedule was learned on (pipeline coherence).
  std::vector<ev::StrataProfile> station_profiles;
};

/// Builds the dataset and configs from bench flags:
///   --days (default 200), --epochs (10), --seed (101), --stations (12),
///   --confounder (unmeasured demand sigma; default_confounder if absent).
///
/// Two evaluation regimes share this setup (see EXPERIMENTS.md):
///   - Table II stresses pricing robustness under strong unmeasured
///     confounding (sigma = 0.5, the library default);
///   - the DRL pipeline benches (Table III / Fig. 13) use moderate
///     confounding (sigma = 0.3), where each method's own threshold rule
///     produces its deployable schedule.
inline EctPriceSetup make_setup(const CliFlags& flags,
                                double default_confounder = ev::DatasetConfig{}.demand_sigma) {
  EctPriceSetup s;
  ev::DatasetConfig dcfg;
  dcfg.num_stations = flags.get_size("stations", 12);
  dcfg.num_days = flags.get_size("days", 200);
  dcfg.demand_sigma = flags.get_double("confounder", default_confounder);
  const std::uint64_t seed = flags.get_size("seed", 101);
  const ev::ChargingDataset dataset(dcfg, Rng(seed));
  const auto split = dataset.split(0.8);
  s.train = causal::encode(split.train);
  s.test = causal::encode(split.test);
  s.station_profiles = dataset.profiles();

  causal::NcfConfig ncf;
  ncf.num_stations = dcfg.num_stations;
  ncf.embedding_dim = flags.get_size("embedding", 16);
  const std::size_t epochs = flags.get_size("epochs", 10);
  s.price_cfg.ncf = ncf;
  // The multi-task stratification objective (products of heads under MSE)
  // converges more slowly than the baselines' direct regressions, so
  // ECT-Price trains longer by default (override with --price-epochs).
  s.price_cfg.epochs = flags.get_size("price-epochs", epochs * 3);
  s.uplift_cfg.ncf = ncf;
  s.uplift_cfg.epochs = epochs;

  std::cout << "dataset: " << dcfg.num_stations << " stations x " << dcfg.num_days
            << " days -> train " << s.train.size() << ", test " << s.test.size()
            << " items\n";
  return s;
}

/// Trains a small ensemble of ECT-Price models (different seeds) and averages
/// their predicted strata distributions — variance reduction for the
/// higher-variance multi-task estimator.  Size via --ensemble (default 3).
inline std::vector<causal::StrataPrediction> train_ectprice_ensemble(
    const EctPriceSetup& setup, std::uint64_t seed, std::size_t ensemble_size) {
  std::vector<causal::StrataPrediction> mean;
  for (std::size_t e = 0; e < ensemble_size; ++e) {
    causal::EctPriceModel model(setup.price_cfg, Rng(seed + 10 + 1000 * e));
    model.fit(setup.train);
    const auto preds = model.predict(setup.test);
    if (mean.empty()) {
      mean = preds;
    } else {
      for (std::size_t i = 0; i < preds.size(); ++i) {
        mean[i].p_none += preds[i].p_none;
        mean[i].p_incentive += preds[i].p_incentive;
        mean[i].p_always += preds[i].p_always;
        mean[i].propensity += preds[i].propensity;
      }
    }
  }
  const double n = static_cast<double>(ensemble_size);
  for (auto& p : mean) {
    p.p_none /= n;
    p.p_incentive /= n;
    p.p_always /= n;
    p.propensity /= n;
  }
  return mean;
}

}  // namespace ecthub::benchx
