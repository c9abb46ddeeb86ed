#include "sim/shard_io.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace ecthub::sim {

namespace {

using binio::put_double;
using binio::put_string;
using binio::put_u64;

constexpr std::uint32_t kSectionIds[] = {1, 2};  // plan, results
constexpr binio::Container kShard{"shard", "ECSH", 2, kSectionIds};
/// The smallest HubRunResult record: 24 eight-byte fields, three of them
/// the lengths of empty strings, and no episode profits.
constexpr std::uint64_t kMinResultBytes = 24 * 8;

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

}  // namespace

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

  const std::string_view payloads[] = {plan, results};
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
  shard.report = AggregateReport(shard.results);
  return shard;
}

void save_shard(const std::filesystem::path& path, const ShardData& shard) {
  binio::write_file(path, serialize_shard(shard));
}

ShardData load_shard(const std::filesystem::path& path) {
  return parse_shard(binio::read_file(path));
}

ShardData run_shard(const std::vector<FleetJob>& jobs, std::size_t shard_index,
                    std::size_t shard_count, const FleetRunnerConfig& cfg) {
  ShardData shard;
  shard.plan = plan_shard(jobs.size(), shard_index, shard_count);
  const std::vector<FleetJob> sub = shard_fleet_jobs(jobs, shard_index, shard_count);
  FleetRunnerConfig shard_cfg = cfg;
  shard_cfg.hub_id_offset = shard.plan.begin;  // global ids ⇒ global seeds
  const FleetRunner runner(shard_cfg);
  const bool coupled =
      std::any_of(sub.begin(), sub.end(), [](const FleetJob& j) { return j.coupled(); });
  shard.results = coupled ? runner.run_lockstep(sub) : runner.run(sub);
  shard.report = AggregateReport(shard.results);
  return shard;
}

ShardData merge_shard_files(const std::vector<std::filesystem::path>& paths) {
  if (paths.empty()) {
    throw std::invalid_argument("merge_shard_files: no shard files to merge");
  }
  std::vector<ShardData> shards;
  shards.reserve(paths.size());
  for (const std::filesystem::path& path : paths) shards.push_back(load_shard(path));
  std::sort(shards.begin(), shards.end(), [](const ShardData& a, const ShardData& b) {
    return a.plan.shard_index < b.plan.shard_index;
  });

  const std::size_t shard_count = shards.front().plan.shard_count;
  const std::size_t job_count = shards.front().plan.job_count;
  if (shards.size() != shard_count) {
    throw binio::FormatError("merge_shard_files: " + std::to_string(shards.size()) +
                             " shard files for a " + std::to_string(shard_count) +
                             "-way sweep; the shard set is incomplete or overfull");
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardPlan& plan = shards[i].plan;
    if (plan.shard_count != shard_count || plan.job_count != job_count) {
      throw binio::FormatError("merge_shard_files: shard files from different sweeps "
                               "(shard_count/job_count mismatch)");
    }
    if (plan.shard_index != i) {
      throw binio::FormatError("merge_shard_files: shard index " + std::to_string(i) +
                               " is missing or duplicated in the file set");
    }
  }

  ShardData merged;
  merged.plan = plan_shard(job_count, 0, 1);
  merged.results.reserve(job_count);
  for (ShardData& shard : shards) {
    merged.results.insert(merged.results.end(),
                          std::make_move_iterator(shard.results.begin()),
                          std::make_move_iterator(shard.results.end()));
    merged.report.merge(shard.report);
  }
  return merged;
}

}  // namespace ecthub::sim
