// Table II — ECT-Price vs OR / IPS / DR at discounts 10%..60%.
//
// For each method: train on the historical (confounded) log, decide which
// test items to discount, then score the decisions against the simulator's
// ground-truth strata.  Columns mirror the paper: counts of true None /
// Incentive / Always items among those given discounts, plus the reward
// (see causal/evaluate.hpp for the reward convention).
#include "ectprice_common.hpp"

#include "common/table.hpp"

#include <algorithm>
#include <iostream>
#include <memory>

int main(int argc, char** argv) {
  using namespace ecthub;
  const CliFlags flags(argc, argv);
  std::cout << "=== Table II: performance evaluation of ECT-Price ===\n";
  benchx::EctPriceSetup setup = benchx::make_setup(flags);
  const std::uint64_t seed = flags.get_size("seed", 101);

  // Train each method once; the discount fraction only affects scoring.
  const std::size_t ensemble = flags.get_size("ensemble", 3);
  const double budget_frac = flags.get_double("budget-frac", 0.10);
  flags.check_unknown();
  std::cout << "training ECT-Price (ensemble of " << ensemble << ")...\n";
  const auto our_preds = benchx::train_ectprice_ensemble(setup, seed, ensemble);
  std::cout << "stratification accuracy vs ground truth: "
            << causal::strata_accuracy(setup.test, our_preds) << "\n";

  std::vector<std::unique_ptr<causal::UpliftModel>> baselines;
  baselines.push_back(
      std::make_unique<causal::OutcomeRegression>(setup.uplift_cfg, Rng(seed + 20)));
  baselines.push_back(
      std::make_unique<causal::InversePropensityScoring>(setup.uplift_cfg, Rng(seed + 30)));
  baselines.push_back(std::make_unique<causal::DoublyRobust>(setup.uplift_cfg, Rng(seed + 40)));

  std::vector<std::vector<double>> baseline_scores;
  for (auto& b : baselines) {
    std::cout << "training " << b->name() << "...\n";
    b->fit(setup.train);
    baseline_scores.push_back(b->uplift(setup.test));
  }

  // Budget-matched comparison (the paper's per-method selection counts are
  // equal): every method discounts the same number of items, each ranked by
  // its own score; reward differences then isolate targeting quality.
  const auto budget =
      static_cast<std::size_t>(static_cast<double>(setup.test.size()) * budget_frac);
  for (const double discount : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
    std::cout << "\n--- " << static_cast<int>(discount * 100) << "% discount (budget "
              << budget << " items) ---\n";
    TextTable table({"Method", "None", "Incentive", "Always", "Reward"});
    auto add_row = [&](const causal::DiscountOutcome& out) {
      table.begin_row()
          .add(out.method)
          .add_int(static_cast<long long>(out.none))
          .add_int(static_cast<long long>(out.incentive))
          .add_int(static_cast<long long>(out.always))
          .add_double(out.reward, 1);
    };
    for (std::size_t i = 0; i < baselines.size(); ++i) {
      add_row(causal::evaluate_decisions(baselines[i]->name(), discount, setup.test,
                                         causal::decide_top_k(baseline_scores[i], budget)));
    }
    add_row(causal::evaluate_decisions(
        "Ours", discount, setup.test,
        causal::decide_top_k(causal::strata_gain_scores(our_preds, discount), budget)));
    table.print(std::cout);
  }
  std::cout << "\nPaper shape: Ours consistently achieves the highest reward and the\n"
               "smallest Always count (it avoids discounting items that would charge\n"
               "anyway), across all discount levels.\n";
  return 0;
}
