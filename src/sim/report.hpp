// AggregateReport: merges per-hub FleetRunner results into fleet-level
// tables — per-hub detail, per-scenario aggregates, per-scheduler aggregates
// and a grand total.  Pure aggregation: all numbers come straight from the
// per-hub ProfitLedger totals and SoC digests, in deterministic (hub_id /
// key-sorted) order, so the report is as reproducible as the run itself.
//
// The report keeps one compact row per result, in the order the results
// were added, and every group total is the left fold ((0.0 + r0) + r1) + …
// over its rows in that order.  merge appends the other report's rows, so
// reports merged in shard order hold the single-process rows and fold to
// the same bits: a report merged from 1/2/4/8 shard files (sim/shard_io's
// merge_shard_files, which merges in shard order) == the single-process
// report.
#pragma once

#include "common/table.hpp"
#include "sim/fleet_runner.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ecthub::sim {

/// Totals over one group of hub results (a scenario, a scheduler, or all).
struct GroupStats {
  std::size_t hubs = 0;
  std::size_t episodes = 0;
  double revenue = 0.0;
  double grid_cost = 0.0;
  double bp_cost = 0.0;
  double profit = 0.0;
  double soc_mean_sum = 0.0;  ///< sum of per-hub mean SoC (for mean_soc())
  // Metro-coupling traffic (zero on uncoupled fleets): through-traffic
  // demand seen, demand exported to road-graph neighbors, neighbor demand
  // absorbed here, and neighbor imports lost to the one-hop drop bound.
  double through_kwh = 0.0;
  double spill_exported_kwh = 0.0;
  double spill_served_kwh = 0.0;
  double spill_dropped_kwh = 0.0;
  std::size_t outage_slots = 0;  ///< front outage slots endured

  [[nodiscard]] double profit_per_hub() const {
    return hubs > 0 ? profit / static_cast<double>(hubs) : 0.0;
  }
  [[nodiscard]] double mean_soc() const {
    return hubs > 0 ? soc_mean_sum / static_cast<double>(hubs) : 0.0;
  }
};

class AggregateReport {
 public:
  AggregateReport() = default;
  explicit AggregateReport(const std::vector<HubRunResult>& results);

  /// Appends r's row.  Throws std::invalid_argument, naming the hub, when a
  /// summed field is NaN or infinite: it would poison every total it joins.
  void add(const HubRunResult& r);

  /// Appends another report's rows after this one's (for sharded runs):
  /// merging shard reports in shard order reproduces the unsharded report.
  void merge(const AggregateReport& other);

  [[nodiscard]] GroupStats totals() const;
  [[nodiscard]] std::map<std::string, GroupStats> by_scenario() const;
  [[nodiscard]] std::map<std::string, GroupStats> by_scheduler() const;

  /// Scenario rows plus a TOTAL row.
  [[nodiscard]] TextTable scenario_table() const;
  /// Scheduler rows plus a TOTAL row.
  [[nodiscard]] TextTable scheduler_table() const;

  friend bool operator==(const AggregateReport&, const AggregateReport&) = default;

 private:
  /// One result's share of the tables.  Trivially copyable and 96 bytes:
  /// the scenario is an index into scenarios_, not a string.
  struct Row {
    std::uint32_t scenario = 0;
    SchedulerKind scheduler = SchedulerKind::kTou;
    std::size_t episodes = 0;
    std::size_t outage_slots = 0;
    double revenue = 0.0;
    double grid_cost = 0.0;
    double bp_cost = 0.0;
    double profit = 0.0;
    double soc_mean = 0.0;
    double through_kwh = 0.0;
    double spill_exported_kwh = 0.0;
    double spill_served_kwh = 0.0;
    double spill_dropped_kwh = 0.0;

    friend bool operator==(const Row&, const Row&) = default;
  };

  std::uint32_t scenario_index(const std::string& name);
  static void absorb(GroupStats& g, const Row& row);

  std::vector<std::string> scenarios_;  ///< scenario names, first-seen order
  std::vector<Row> rows_;               ///< one per result, in add order
};

/// Per-hub detail table in hub_id order.
[[nodiscard]] TextTable per_hub_table(const std::vector<HubRunResult>& results);

}  // namespace ecthub::sim
