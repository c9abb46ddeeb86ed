#include "sim/shard.hpp"

#include "common/parse.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ecthub::sim {

ShardPlan plan_shard(std::size_t job_count, std::size_t shard_index,
                     std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("plan_shard: shard_count must be >= 1");
  }
  if (shard_index >= shard_count) {
    throw std::invalid_argument("plan_shard: shard_index " + std::to_string(shard_index) +
                                " out of range for shard_count " +
                                std::to_string(shard_count));
  }
  const std::size_t quot = job_count / shard_count;
  const std::size_t rem = job_count % shard_count;
  ShardPlan plan;
  plan.shard_index = shard_index;
  plan.shard_count = shard_count;
  plan.job_count = job_count;
  plan.begin = shard_index * quot + std::min(shard_index, rem);
  plan.end = plan.begin + quot + (shard_index < rem ? 1 : 0);
  return plan;
}

std::pair<std::size_t, std::size_t> parse_shard_spec(const std::string& spec) {
  const std::string_view text(spec);
  const std::size_t slash = text.find('/');
  // parse_size takes only digits, so a second '/' fails the count side.
  const std::optional<std::size_t> index =
      slash == std::string_view::npos ? std::nullopt : parse_size(text.substr(0, slash));
  const std::optional<std::size_t> count =
      slash == std::string_view::npos ? std::nullopt : parse_size(text.substr(slash + 1));
  if (!index || !count) {
    throw std::invalid_argument("parse_shard_spec: expected i/n (e.g. 0/4), got '" + spec +
                                "'");
  }
  if (*count == 0 || *index >= *count) {
    throw std::invalid_argument("parse_shard_spec: shard " + spec + " is out of range");
  }
  return {*index, *count};
}

std::vector<FleetJob> shard_fleet_jobs(const std::vector<FleetJob>& jobs,
                                       std::size_t shard_index, std::size_t shard_count) {
  const ShardPlan plan = plan_shard(jobs.size(), shard_index, shard_count);
  if (shard_count > 1) {
    for (const FleetJob& job : jobs) {
      if (job.coupled()) {
        throw std::invalid_argument(
            "shard_fleet_jobs: job '" + job.hub.name +
            "' is coupled (metro fleet); the slot-synchronous CouplingBus "
            "exchange spans the whole fleet, so coupled job lists cannot be "
            "process-sharded (shard_count must be 1)");
      }
    }
  }
  return {jobs.begin() + static_cast<std::ptrdiff_t>(plan.begin),
          jobs.begin() + static_cast<std::ptrdiff_t>(plan.end)};
}

}  // namespace ecthub::sim
