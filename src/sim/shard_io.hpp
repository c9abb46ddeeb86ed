// shard_io: the shard artifact of a process-sharded sweep — one shard's
// ShardPlan, its per-hub results, and its partial AggregateReport — as a
// common/binio container (magic "ECSH", version 1; the envelope, byte
// order and error types are described there).  Section schema:
//
//   id 1  plan     shard_index/shard_count/job_count/begin/end (u64)
//   id 2  results  u64 count + HubRunResult records (strings as u64 length
//                  + bytes; doubles as u64 bit patterns; SchedulerKind by
//                  name)
//   id 3  report   GroupStats totals + keyed GroupStats maps; each ExactSum
//                  as its 34 raw limbs, so merging reports loaded from disk
//                  stays exact
//
// parse_shard throws only binio::Error subclasses: the container's checks,
// then binio::FormatError for a payload that contradicts itself (a
// non-canonical plan, a results count its section cannot hold, a record
// whose hub_id or scheduler name is wrong, a NaN or infinite double, a
// report that does not aggregate the results).
#pragma once

#include "common/binio.hpp"
#include "sim/report.hpp"
#include "sim/shard.hpp"

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub::sim {

/// One shard artifact: which slice of the sweep this is, its per-hub
/// results (hub_id == plan.begin + k for record k), and the partial report
/// aggregated from exactly those results.
struct ShardData {
  ShardPlan plan;
  std::vector<HubRunResult> results;
  AggregateReport report;
};

/// Serializes to the format above.  Deterministic: equal ShardData values
/// produce byte-identical output (the identity tests compare these bytes).
[[nodiscard]] std::string serialize_shard(const ShardData& shard);

/// Serializes just an AggregateReport as a section-3 payload — the byte
/// string the merge-identity guarantee is stated over.
[[nodiscard]] std::string serialize_report(const AggregateReport& report);

/// Parses serialize_shard output; throws the binio errors above.
[[nodiscard]] ShardData parse_shard(std::string_view bytes);

/// serialize_shard/parse_shard through a file (binio::write_file/read_file).
void save_shard(const std::filesystem::path& path, const ShardData& shard);
[[nodiscard]] ShardData load_shard(const std::filesystem::path& path);

}  // namespace ecthub::sim
