#include "sim/shard_io.hpp"

#include <cstdint>
#include <utility>

namespace ecthub::sim {

namespace {

using binio::put_double;
using binio::put_string;
using binio::put_u64;

constexpr std::uint32_t kSectionIds[] = {1, 2, 3};  // plan, results, report
constexpr binio::Container kShard{"shard", "ECSH", 1, kSectionIds};
/// The smallest HubRunResult record: 24 eight-byte fields, three of them
/// the lengths of empty strings, and no episode profits.
constexpr std::uint64_t kMinResultBytes = 24 * 8;

void put_exact_sum(std::string& out, const ExactSum& sum) {
  for (const std::uint64_t limb : sum.limbs()) put_u64(out, limb);
}

void put_group(std::string& out, const GroupStats& g) {
  put_u64(out, g.hubs);
  put_u64(out, g.episodes);
  put_exact_sum(out, g.revenue);
  put_exact_sum(out, g.grid_cost);
  put_exact_sum(out, g.bp_cost);
  put_exact_sum(out, g.profit);
  put_exact_sum(out, g.soc_mean_sum);
  put_exact_sum(out, g.through_kwh);
  put_exact_sum(out, g.spill_exported_kwh);
  put_exact_sum(out, g.spill_served_kwh);
  put_exact_sum(out, g.spill_dropped_kwh);
  put_u64(out, g.outage_slots);
}

void put_result(std::string& out, const HubRunResult& r) {
  put_u64(out, r.hub_id);
  put_string(out, r.hub_name);
  put_string(out, r.scenario);
  put_string(out, to_string(r.scheduler));
  put_u64(out, r.seed);
  put_u64(out, r.episodes);
  put_u64(out, r.slots_per_episode);
  put_double(out, r.revenue);
  put_double(out, r.grid_cost);
  put_double(out, r.bp_cost);
  put_double(out, r.profit);
  put_u64(out, r.episode_profit.size());
  for (const double p : r.episode_profit) put_double(out, p);
  put_double(out, r.soc.first);
  put_double(out, r.soc.last);
  put_double(out, r.soc.min);
  put_double(out, r.soc.max);
  put_double(out, r.soc.mean);
  put_double(out, r.soc.checksum);
  put_u64(out, r.soc.samples);
  put_double(out, r.through_kwh);
  put_double(out, r.spill_exported_kwh);
  put_double(out, r.spill_served_kwh);
  put_double(out, r.spill_dropped_kwh);
  put_u64(out, r.outage_slots);
}

[[nodiscard]] ExactSum read_exact_sum(binio::Reader& in) {
  ExactSum::Limbs limbs{};
  for (std::uint64_t& limb : limbs) limb = in.u64();
  return ExactSum::from_limbs(limbs);
}

[[nodiscard]] GroupStats read_group(binio::Reader& in) {
  GroupStats g;
  g.hubs = in.u64();
  g.episodes = in.u64();
  g.revenue = read_exact_sum(in);
  g.grid_cost = read_exact_sum(in);
  g.bp_cost = read_exact_sum(in);
  g.profit = read_exact_sum(in);
  g.soc_mean_sum = read_exact_sum(in);
  g.through_kwh = read_exact_sum(in);
  g.spill_exported_kwh = read_exact_sum(in);
  g.spill_served_kwh = read_exact_sum(in);
  g.spill_dropped_kwh = read_exact_sum(in);
  g.outage_slots = in.u64();
  return g;
}

[[nodiscard]] HubRunResult read_result(binio::Reader& in) {
  HubRunResult r;
  r.hub_id = in.u64();
  r.hub_name = in.str();
  r.scenario = in.str();
  const std::string scheduler_name = in.str();
  try {
    r.scheduler = scheduler_kind_from_string(scheduler_name);
  } catch (const std::invalid_argument& e) {
    throw binio::FormatError(std::string("shard results: ") + e.what());
  }
  r.seed = in.u64();
  r.episodes = in.u64();
  r.slots_per_episode = in.u64();
  r.revenue = in.f64();
  r.grid_cost = in.f64();
  r.bp_cost = in.f64();
  r.profit = in.f64();
  const std::uint64_t profits = in.u64();
  if (profits > in.remaining() / 8) {
    throw binio::FormatError("shard results: implausible episode_profit count " +
                             std::to_string(profits));
  }
  r.episode_profit.resize(static_cast<std::size_t>(profits));
  for (double& p : r.episode_profit) p = in.f64();
  r.soc.first = in.f64();
  r.soc.last = in.f64();
  r.soc.min = in.f64();
  r.soc.max = in.f64();
  r.soc.mean = in.f64();
  r.soc.checksum = in.f64();
  r.soc.samples = in.u64();
  r.through_kwh = in.f64();
  r.spill_exported_kwh = in.f64();
  r.spill_served_kwh = in.f64();
  r.spill_dropped_kwh = in.f64();
  r.outage_slots = in.u64();
  return r;
}

[[nodiscard]] std::map<std::string, GroupStats> read_keyed_groups(binio::Reader& in,
                                                                  const char* what) {
  std::map<std::string, GroupStats> groups;
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = in.str();
    if (groups.contains(key)) {
      throw binio::FormatError(std::string("shard report: duplicate ") + what + " key '" +
                               key + "'");
    }
    groups.emplace(std::move(key), read_group(in));
  }
  return groups;
}

}  // namespace

std::string serialize_report(const AggregateReport& report) {
  std::string out;
  put_group(out, report.totals());
  put_u64(out, report.by_scenario().size());
  for (const auto& [key, stats] : report.by_scenario()) {
    put_string(out, key);
    put_group(out, stats);
  }
  put_u64(out, report.by_scheduler().size());
  for (const auto& [key, stats] : report.by_scheduler()) {
    put_string(out, key);
    put_group(out, stats);
  }
  return out;
}

std::string serialize_shard(const ShardData& shard) {
  std::string plan;
  put_u64(plan, shard.plan.shard_index);
  put_u64(plan, shard.plan.shard_count);
  put_u64(plan, shard.plan.job_count);
  put_u64(plan, shard.plan.begin);
  put_u64(plan, shard.plan.end);

  std::string results;
  put_u64(results, shard.results.size());
  for (const HubRunResult& r : shard.results) put_result(results, r);

  const std::string report = serialize_report(shard.report);
  const std::string_view payloads[] = {plan, results, report};
  return binio::seal(kShard, payloads);
}

ShardData parse_shard(std::string_view bytes) {
  const std::vector<std::string_view> sections = binio::open(bytes, kShard);
  ShardData shard;
  {
    binio::Reader in(sections[0], "shard plan");
    shard.plan.shard_index = static_cast<std::size_t>(in.u64());
    shard.plan.shard_count = static_cast<std::size_t>(in.u64());
    shard.plan.job_count = static_cast<std::size_t>(in.u64());
    shard.plan.begin = static_cast<std::size_t>(in.u64());
    shard.plan.end = static_cast<std::size_t>(in.u64());
    in.expect_end();
  }
  try {
    if (shard.plan != plan_shard(shard.plan.job_count, shard.plan.shard_index,
                                 shard.plan.shard_count)) {
      throw binio::FormatError("shard plan is not the canonical partition of its "
                               "(job_count, shard_index, shard_count)");
    }
  } catch (const std::invalid_argument& e) {
    throw binio::FormatError(std::string("shard plan: ") + e.what());
  }
  {
    binio::Reader in(sections[1], "shard results");
    const std::uint64_t count = in.u64();
    // The plan's job_count is unbounded, so its size cannot bound the
    // reservation below; the section's own length can.
    if (count > in.remaining() / kMinResultBytes) {
      throw binio::FormatError("shard results section cannot hold " + std::to_string(count) +
                               " records");
    }
    if (count != shard.plan.size()) {
      throw binio::FormatError("shard carries " + std::to_string(count) +
                               " results but its plan owns " +
                               std::to_string(shard.plan.size()) + " jobs");
    }
    shard.results.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t k = 0; k < count; ++k) {
      HubRunResult r = read_result(in);
      if (r.hub_id != shard.plan.begin + k) {
        throw binio::FormatError("shard result " + std::to_string(k) + " carries hub_id " +
                                 std::to_string(r.hub_id) + "; its plan assigns " +
                                 std::to_string(shard.plan.begin + k));
      }
      shard.results.push_back(std::move(r));
    }
    in.expect_end();
  }
  {
    binio::Reader in(sections[2], "shard report");
    GroupStats totals = read_group(in);
    std::map<std::string, GroupStats> by_scenario = read_keyed_groups(in, "scenario");
    std::map<std::string, GroupStats> by_scheduler = read_keyed_groups(in, "scheduler");
    in.expect_end();
    shard.report = AggregateReport::from_groups(std::move(totals), std::move(by_scenario),
                                                std::move(by_scheduler));
  }
  if (!(AggregateReport(shard.results) == shard.report)) {
    throw binio::FormatError("shard report section does not aggregate the shard's own "
                             "results");
  }
  return shard;
}

void save_shard(const std::filesystem::path& path, const ShardData& shard) {
  binio::write_file(path, serialize_shard(shard));
}

ShardData load_shard(const std::filesystem::path& path) {
  return parse_shard(binio::read_file(path));
}

}  // namespace ecthub::sim
