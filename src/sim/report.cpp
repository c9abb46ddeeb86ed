#include "sim/report.hpp"

namespace ecthub::sim {

void GroupStats::absorb(const HubRunResult& r) {
  ++hubs;
  episodes += r.episodes;
  revenue += r.revenue;
  grid_cost += r.grid_cost;
  bp_cost += r.bp_cost;
  profit += r.profit;
  soc_mean_sum += r.soc.mean;
  through_kwh += r.through_kwh;
  spill_exported_kwh += r.spill_exported_kwh;
  spill_served_kwh += r.spill_served_kwh;
  spill_dropped_kwh += r.spill_dropped_kwh;
  outage_slots += r.outage_slots;
}

void GroupStats::merge(const GroupStats& other) noexcept {
  hubs += other.hubs;
  episodes += other.episodes;
  revenue += other.revenue;
  grid_cost += other.grid_cost;
  bp_cost += other.bp_cost;
  profit += other.profit;
  soc_mean_sum += other.soc_mean_sum;
  through_kwh += other.through_kwh;
  spill_exported_kwh += other.spill_exported_kwh;
  spill_served_kwh += other.spill_served_kwh;
  spill_dropped_kwh += other.spill_dropped_kwh;
  outage_slots += other.outage_slots;
}

AggregateReport::AggregateReport(const std::vector<HubRunResult>& results) {
  for (const HubRunResult& r : results) add(r);
}

void AggregateReport::add(const HubRunResult& r) {
  totals_.absorb(r);
  by_scenario_[r.scenario].absorb(r);
  by_scheduler_[to_string(r.scheduler)].absorb(r);
}

namespace {

void add_group_row(TextTable& table, const std::string& label, const GroupStats& g) {
  table.begin_row()
      .add(label)
      .add_int(static_cast<long long>(g.hubs))
      .add_int(static_cast<long long>(g.episodes))
      .add_double(g.revenue.value(), 2)
      .add_double(g.grid_cost.value(), 2)
      .add_double(g.bp_cost.value(), 2)
      .add_double(g.profit.value(), 2)
      .add_double(g.profit_per_hub(), 2)
      .add_double(g.mean_soc(), 3)
      .add_double(g.through_kwh.value(), 1)
      .add_double(g.spill_exported_kwh.value(), 1)
      .add_double(g.spill_served_kwh.value(), 1)
      .add_double(g.spill_dropped_kwh.value(), 1)
      .add_int(static_cast<long long>(g.outage_slots));
}

TextTable group_table(const std::string& key_header,
                      const std::map<std::string, GroupStats>& groups,
                      const GroupStats& totals) {
  TextTable table({key_header, "hubs", "episodes", "revenue($)", "grid($)", "wear($)",
                   "profit($)", "profit/hub($)", "mean SoC", "through(kWh)",
                   "spill-out(kWh)", "spill-in(kWh)", "spill-drop(kWh)", "outages"});
  for (const auto& [key, stats] : groups) add_group_row(table, key, stats);
  add_group_row(table, "TOTAL", totals);
  return table;
}

}  // namespace

void AggregateReport::merge(const AggregateReport& other) {
  totals_.merge(other.totals_);
  for (const auto& [key, stats] : other.by_scenario_) by_scenario_[key].merge(stats);
  for (const auto& [key, stats] : other.by_scheduler_) by_scheduler_[key].merge(stats);
}

TextTable AggregateReport::scenario_table() const {
  return group_table("scenario", by_scenario_, totals_);
}

TextTable AggregateReport::scheduler_table() const {
  return group_table("scheduler", by_scheduler_, totals_);
}

TextTable per_hub_table(const std::vector<HubRunResult>& results) {
  TextTable table({"hub", "scenario", "scheduler", "seed", "profit($)", "revenue($)",
                   "SoC first", "SoC last", "SoC mean"});
  for (const HubRunResult& r : results) {
    table.begin_row()
        .add(r.hub_name)
        .add(r.scenario)
        .add(to_string(r.scheduler))
        .add(std::to_string(r.seed))
        .add_double(r.profit, 2)
        .add_double(r.revenue, 2)
        .add_double(r.soc.first, 3)
        .add_double(r.soc.last, 3)
        .add_double(r.soc.mean, 3);
  }
  return table;
}

}  // namespace ecthub::sim
