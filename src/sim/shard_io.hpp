// shard_io: the shard artifact of a sharded sweep — one shard's ShardPlan
// and its per-hub results — as a common/binio container (magic "ECSH",
// version 2; the envelope, byte order and error types are described there),
// plus the two calls that produce and combine such artifacts.  Section
// schema:
//
//   id 1  plan     shard_index/shard_count/job_count/begin/end (u64)
//   id 2  results  u64 count + HubRunResult records (strings as u64 length
//                  + bytes; doubles as u64 bit patterns; SchedulerKind by
//                  name)
//
// The file carries no report: the AggregateReport is a pure function of the
// results, so parse_shard recomputes it on load.  A report holds one row
// per result and merge appends rows, so the shard reports merged in shard
// order equal the single-process report, compared with ==.
//
// parse_shard throws only binio::Error subclasses: the container's checks,
// then binio::FormatError for a payload that contradicts itself (a
// non-canonical plan, a results count its section cannot hold, a record
// whose hub_id or scheduler name is wrong, a NaN or infinite double).
#pragma once

#include "common/binio.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/report.hpp"
#include "sim/shard.hpp"

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub::sim {

/// One shard artifact: which slice of the sweep this is, its per-hub
/// results (hub_id == plan.begin + k for record k), and the report
/// aggregated from exactly those results (not serialized; rebuilt on load).
struct ShardData {
  ShardPlan plan;
  std::vector<HubRunResult> results;
  AggregateReport report;
};

/// Serializes the plan and results to the format above.  Deterministic:
/// equal ShardData values produce byte-identical output.
[[nodiscard]] std::string serialize_shard(const ShardData& shard);

/// Parses serialize_shard output and aggregates the report from the parsed
/// results; throws the binio errors above.
[[nodiscard]] ShardData parse_shard(std::string_view bytes);

/// serialize_shard/parse_shard through a file (binio::write_file/read_file).
void save_shard(const std::filesystem::path& path, const ShardData& shard);
[[nodiscard]] ShardData load_shard(const std::filesystem::path& path);

/// Runs shard `shard_index` of `shard_count` over `jobs` in this process on
/// `cfg`'s crew, with cfg.hub_id_offset set to the shard's first job, so
/// every hub keeps its global id and seed.  Coupled job lists are accepted
/// only at shard_count == 1 (via run_lockstep); see shard_fleet_jobs.
[[nodiscard]] ShardData run_shard(const std::vector<FleetJob>& jobs, std::size_t shard_index,
                                  std::size_t shard_count, const FleetRunnerConfig& cfg);

/// Loads every path (binio errors propagate) and merges one complete shard
/// set — equal shard_count and job_count, every shard_index 0..n-1 exactly
/// once, in any listing order — into the whole sweep as one 0-of-1 shard:
/// plan plan_shard(job_count, 0, 1), results in hub_id order, and the
/// reports folded through AggregateReport::merge in shard order.  Throws
/// std::invalid_argument on an empty list and binio::FormatError on an
/// incomplete, overfull or mixed set.
[[nodiscard]] ShardData merge_shard_files(const std::vector<std::filesystem::path>& paths);

}  // namespace ecthub::sim
