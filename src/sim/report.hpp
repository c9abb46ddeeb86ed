// AggregateReport: merges per-hub FleetRunner results into fleet-level
// tables — per-hub detail, per-scenario aggregates, per-scheduler aggregates
// and a grand total.  Pure aggregation: all numbers come straight from the
// per-hub ProfitLedger totals and SoC digests, in deterministic (hub_id /
// key-sorted) order, so the report is as reproducible as the run itself.
//
// Group sums accumulate in ExactSum registers, which are exactly
// associative — absorbing results one by one and merging per-shard partial
// reports in any grouping produce bit-identical state.  That is the
// property sharded sweeps are pinned on: a report merged from 1/2/4/8 shard
// files (sim/shard_io's merge_shard_files) == the single-process report.
#pragma once

#include "common/exact_sum.hpp"
#include "common/table.hpp"
#include "sim/fleet_runner.hpp"

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace ecthub::sim {

/// Totals over one group of hub results (a scenario, a scheduler, or all).
struct GroupStats {
  std::size_t hubs = 0;
  std::size_t episodes = 0;
  ExactSum revenue;
  ExactSum grid_cost;
  ExactSum bp_cost;
  ExactSum profit;
  ExactSum soc_mean_sum;  ///< sum of per-hub mean SoC (for mean_soc())
  // Metro-coupling traffic (zero on uncoupled fleets): through-traffic
  // demand seen, demand exported to road-graph neighbors, neighbor demand
  // absorbed here, and neighbor imports lost to the one-hop drop bound.
  ExactSum through_kwh;
  ExactSum spill_exported_kwh;
  ExactSum spill_served_kwh;
  ExactSum spill_dropped_kwh;
  std::size_t outage_slots = 0;  ///< front outage slots endured

  void absorb(const HubRunResult& r);

  /// Folds another group in — exact, so any merge order/grouping matches
  /// the sequential absorb of the same results bit for bit.
  void merge(const GroupStats& other) noexcept;

  [[nodiscard]] double profit_per_hub() const {
    return hubs > 0 ? profit.value() / static_cast<double>(hubs) : 0.0;
  }
  [[nodiscard]] double mean_soc() const {
    return hubs > 0 ? soc_mean_sum.value() / static_cast<double>(hubs) : 0.0;
  }

  friend bool operator==(const GroupStats&, const GroupStats&) = default;
};

class AggregateReport {
 public:
  AggregateReport() = default;
  explicit AggregateReport(const std::vector<HubRunResult>& results);

  void add(const HubRunResult& r);

  /// Folds another report's groups into this one (for sharded runs).
  /// Exact: any fold order over a partition of the same results reproduces
  /// the unsharded report's state bit for bit.
  void merge(const AggregateReport& other);

  [[nodiscard]] const GroupStats& totals() const noexcept { return totals_; }
  [[nodiscard]] const std::map<std::string, GroupStats>& by_scenario() const noexcept {
    return by_scenario_;
  }
  [[nodiscard]] const std::map<std::string, GroupStats>& by_scheduler() const noexcept {
    return by_scheduler_;
  }

  /// Scenario rows plus a TOTAL row.
  [[nodiscard]] TextTable scenario_table() const;
  /// Scheduler rows plus a TOTAL row.
  [[nodiscard]] TextTable scheduler_table() const;

  friend bool operator==(const AggregateReport&, const AggregateReport&) = default;

 private:
  GroupStats totals_;
  std::map<std::string, GroupStats> by_scenario_;
  std::map<std::string, GroupStats> by_scheduler_;
};

/// Per-hub detail table in hub_id order.
[[nodiscard]] TextTable per_hub_table(const std::vector<HubRunResult>& results);

}  // namespace ecthub::sim
