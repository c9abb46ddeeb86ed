#include "sim/report.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ecthub::sim {

AggregateReport::AggregateReport(const std::vector<HubRunResult>& results) {
  rows_.reserve(results.size());
  for (const HubRunResult& r : results) add(r);
}

void AggregateReport::add(const HubRunResult& r) {
  const std::pair<const char*, double> summed[] = {
      {"revenue", r.revenue},
      {"grid_cost", r.grid_cost},
      {"bp_cost", r.bp_cost},
      {"profit", r.profit},
      {"soc.mean", r.soc.mean},
      {"through_kwh", r.through_kwh},
      {"spill_exported_kwh", r.spill_exported_kwh},
      {"spill_served_kwh", r.spill_served_kwh},
      {"spill_dropped_kwh", r.spill_dropped_kwh}};
  for (const auto& [field, v] : summed) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("AggregateReport: hub '" + r.hub_name + "' has a non-finite " +
                                  field);
    }
  }
  rows_.push_back({scenario_index(r.scenario), r.scheduler, r.episodes, r.outage_slots,
                   r.revenue, r.grid_cost, r.bp_cost, r.profit, r.soc.mean, r.through_kwh,
                   r.spill_exported_kwh, r.spill_served_kwh, r.spill_dropped_kwh});
}

void AggregateReport::merge(const AggregateReport& other) {
  std::vector<std::uint32_t> remap;
  remap.reserve(other.scenarios_.size());
  for (const std::string& name : other.scenarios_) remap.push_back(scenario_index(name));
  // By index, copying each row first: `other` may be *this.
  const std::size_t count = other.rows_.size();
  for (std::size_t i = 0; i < count; ++i) {
    Row row = other.rows_[i];
    row.scenario = remap[row.scenario];
    rows_.push_back(row);
  }
}

std::uint32_t AggregateReport::scenario_index(const std::string& name) {
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    if (scenarios_[i] == name) return static_cast<std::uint32_t>(i);
  }
  scenarios_.push_back(name);
  return static_cast<std::uint32_t>(scenarios_.size() - 1);
}

void AggregateReport::absorb(GroupStats& g, const Row& row) {
  ++g.hubs;
  g.episodes += row.episodes;
  g.revenue += row.revenue;
  g.grid_cost += row.grid_cost;
  g.bp_cost += row.bp_cost;
  g.profit += row.profit;
  g.soc_mean_sum += row.soc_mean;
  g.through_kwh += row.through_kwh;
  g.spill_exported_kwh += row.spill_exported_kwh;
  g.spill_served_kwh += row.spill_served_kwh;
  g.spill_dropped_kwh += row.spill_dropped_kwh;
  g.outage_slots += row.outage_slots;
}

GroupStats AggregateReport::totals() const {
  GroupStats g;
  for (const Row& row : rows_) absorb(g, row);
  return g;
}

std::map<std::string, GroupStats> AggregateReport::by_scenario() const {
  std::map<std::string, GroupStats> groups;
  for (const Row& row : rows_) absorb(groups[scenarios_[row.scenario]], row);
  return groups;
}

std::map<std::string, GroupStats> AggregateReport::by_scheduler() const {
  std::map<std::string, GroupStats> groups;
  for (const Row& row : rows_) absorb(groups[to_string(row.scheduler)], row);
  return groups;
}

namespace {

void add_group_row(TextTable& table, const std::string& label, const GroupStats& g) {
  table.begin_row()
      .add(label)
      .add_int(static_cast<long long>(g.hubs))
      .add_int(static_cast<long long>(g.episodes))
      .add_double(g.revenue, 2)
      .add_double(g.grid_cost, 2)
      .add_double(g.bp_cost, 2)
      .add_double(g.profit, 2)
      .add_double(g.profit_per_hub(), 2)
      .add_double(g.mean_soc(), 3)
      .add_double(g.through_kwh, 1)
      .add_double(g.spill_exported_kwh, 1)
      .add_double(g.spill_served_kwh, 1)
      .add_double(g.spill_dropped_kwh, 1)
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

TextTable AggregateReport::scenario_table() const {
  return group_table("scenario", by_scenario(), totals());
}

TextTable AggregateReport::scheduler_table() const {
  return group_table("scheduler", by_scheduler(), totals());
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
