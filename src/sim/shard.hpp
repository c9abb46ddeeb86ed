// ShardPlan / shard_fleet_jobs: deterministic contiguous partitioning of a
// fleet job list for process-sharded sweeps.
//
// plan_shard(count, i, n) is a pure function: shard i of n owns the
// contiguous job range [begin, end), ranges over all i tile [0, count)
// exactly (every job in exactly one shard, sizes differing by at most one,
// larger shards first).  shard_fleet_jobs copies that range out of a
// make_fleet_jobs job list; run_shard (sim/shard_io) executes it with
// FleetRunnerConfig::hub_id_offset = begin, so every hub keeps its global
// mix_seed(base_seed, hub_id) stream — shard membership cannot change any
// hub's trajectory, which is what makes the merged shard files equal to
// the single-process run (tests/test_shard.cpp pins it end to end).
//
// Coupled (metro) jobs are rejected for n > 1: the CouplingBus exchange is
// slot-synchronous across the whole fleet and FleetJob::neighbors index the
// global job list, so a coupled fleet cannot be split across processes
// without changing trajectories.  n == 1 passes any job list through.
#pragma once

#include "sim/fleet_runner.hpp"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace ecthub::sim {

/// One shard's slice of a job list: shard `shard_index` of `shard_count`
/// over `job_count` jobs owns global job (and hub) ids [begin, end).
struct ShardPlan {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t job_count = 0;
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return begin == end; }

  friend bool operator==(const ShardPlan&, const ShardPlan&) = default;
};

/// Contiguous balanced partition of [0, job_count) into shard_count ranges:
/// shard i gets job_count/shard_count jobs, the first job_count%shard_count
/// shards one extra.  Pure function of its arguments.  Throws
/// std::invalid_argument when shard_count == 0 or shard_index >= shard_count.
[[nodiscard]] ShardPlan plan_shard(std::size_t job_count, std::size_t shard_index,
                                   std::size_t shard_count);

/// Parses an "i/n" shard spec (e.g. "0/4") into {shard_index, shard_count}.
/// Strict: exactly one '/', both sides full-token decimal digit runs —
/// "1/4abc", "0x1/4", " 0/4" and "1//4" all throw std::invalid_argument
/// (std::stoull would silently stop at the first non-digit), as do
/// shard_count == 0 and shard_index >= shard_count.
[[nodiscard]] std::pair<std::size_t, std::size_t> parse_shard_spec(
    const std::string& spec);

/// Copies shard `shard_index` of `shard_count`'s job range out of `jobs`
/// (make_fleet_jobs / make_metro_fleet_jobs output).  Throws
/// std::invalid_argument on invalid shard coordinates, and on any coupled
/// job (FleetJob::coupled) when shard_count > 1 — coupled fleets exchange
/// demand fleet-wide at every slot and cannot be process-sharded.
[[nodiscard]] std::vector<FleetJob> shard_fleet_jobs(const std::vector<FleetJob>& jobs,
                                                     std::size_t shard_index,
                                                     std::size_t shard_count);

}  // namespace ecthub::sim
