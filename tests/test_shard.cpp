// Tests for the sharded sweep subsystem: the contiguous shard partitioner,
// the versioned shard serialization (round trips, typed corruption
// rejection), run_shard and merge_shard_files, and the headline identity
// guarantee — a 64-hub all-scenario sweep sharded 1/2/4/8 ways through
// shard files merges to the single-process FleetRunner run: equal per-hub
// results, an equal report and byte-identical serialized artifacts.
#include "policy/drl_policy.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "sim/shard_io.hpp"
#include "spatial/metro.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub::sim {
namespace {

namespace fs = std::filesystem;

// Builds `n` small jobs cycling through the built-in scenarios.
std::vector<FleetJob> make_jobs(std::size_t n, std::size_t days = 1,
                                SchedulerKind sched = SchedulerKind::kGreedyPrice) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  return make_fleet_jobs(registry, registry.keys(), n, days, sched);
}

// A small randomly-initialized actor checkpoint matching the default hub
// observation layout — training is irrelevant for identity testing.
std::shared_ptr<const policy::DrlCheckpoint> tiny_checkpoint() {
  nn::Rng rng(123);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = policy::ObservationLayout{}.dim();
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  policy::DrlPolicy actor(cfg, rng);
  return std::make_shared<policy::DrlCheckpoint>(actor.checkpoint());
}

// The headline job mix: all six scenarios round-robin, three scheduler
// families interleaved (greedy / TOU / the batched DRL actor) so the report
// carries multiple scenario AND scheduler groups.
std::vector<FleetJob> make_mixed_jobs(std::size_t n) {
  std::vector<FleetJob> jobs = make_jobs(n);
  const auto checkpoint = tiny_checkpoint();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % 3 == 1) {
      jobs[i].scheduler = SchedulerKind::kTou;
    } else if (i % 3 == 2) {
      jobs[i].scheduler = SchedulerKind::kDrl;
      jobs[i].checkpoint = checkpoint;
    }
  }
  return jobs;
}

// A fully populated synthetic result — every serialized field non-default,
// so round-trip comparisons cover the whole record.
HubRunResult fake_result(std::size_t hub_id, const std::string& scenario = "urban",
                         SchedulerKind sched = SchedulerKind::kGreedyPrice) {
  HubRunResult r;
  r.hub_id = hub_id;
  r.hub_name = scenario + "-" + std::to_string(hub_id);
  r.scenario = scenario;
  r.scheduler = sched;
  r.seed = mix_seed(7, hub_id);
  r.episodes = 3;
  r.slots_per_episode = 48;
  r.revenue = 101.25 + static_cast<double>(hub_id);
  r.grid_cost = 40.5;
  r.bp_cost = 2.125;
  r.profit = r.revenue - r.grid_cost - r.bp_cost;
  r.episode_profit = {19.5, 0.1 * static_cast<double>(hub_id), -3.25};
  r.soc = {0.5, 0.625, 0.25, 0.875, 0.5625, 81.75, 48};
  r.through_kwh = 12.5 + static_cast<double>(hub_id);
  r.spill_exported_kwh = 3.75;
  r.spill_served_kwh = 1.5;
  r.spill_dropped_kwh = 0.625;
  r.outage_slots = 5;
  return r;
}

// A self-consistent single-shard artifact over `count` fake results.
ShardData fake_shard(std::size_t count, std::size_t shard_index = 0,
                     std::size_t shard_count = 1, std::size_t job_count = 0) {
  ShardData shard;
  shard.plan = plan_shard(job_count == 0 ? count * shard_count : job_count, shard_index,
                          shard_count);
  for (std::size_t k = 0; k < shard.plan.size(); ++k) {
    shard.results.push_back(
        fake_result(shard.plan.begin + k, k % 2 == 0 ? "urban" : "rural",
                    k % 2 == 0 ? SchedulerKind::kGreedyPrice : SchedulerKind::kTou));
  }
  shard.report = AggregateReport(shard.results);
  return shard;
}

// FNV-1a over a byte string, kept local so the byte pins below do not lean
// on the codec's own hash.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("ecthub_shard_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------ shard plan

TEST(ShardPlan, PartitionsExhaustivelyAndDisjointly) {
  for (std::size_t count = 0; count <= 21; ++count) {
    for (std::size_t n = 1; n <= 25; ++n) {
      std::size_t cursor = 0;  // ranges must tile [0, count) in order
      std::size_t min_size = count + 1;
      std::size_t max_size = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const ShardPlan plan = plan_shard(count, i, n);
        EXPECT_EQ(plan.shard_index, i);
        EXPECT_EQ(plan.shard_count, n);
        EXPECT_EQ(plan.job_count, count);
        EXPECT_EQ(plan.begin, cursor) << count << " jobs, shard " << i << "/" << n;
        EXPECT_LE(plan.begin, plan.end);
        cursor = plan.end;
        min_size = std::min(min_size, plan.size());
        max_size = std::max(max_size, plan.size());
        EXPECT_EQ(plan, plan_shard(count, i, n));  // pure function
      }
      EXPECT_EQ(cursor, count) << count << " jobs over " << n << " shards";
      EXPECT_LE(max_size - min_size, 1u) << "unbalanced partition";
    }
  }
}

TEST(ShardPlan, SingleShardOwnsEverythingAndOvershardingIsEmpty) {
  const ShardPlan all = plan_shard(13, 0, 1);
  EXPECT_EQ(all.begin, 0u);
  EXPECT_EQ(all.end, 13u);
  EXPECT_EQ(all.size(), 13u);
  // n > jobs: the first `jobs` shards get one job each, the rest are empty.
  for (std::size_t i = 0; i < 9; ++i) {
    const ShardPlan plan = plan_shard(3, i, 9);
    EXPECT_EQ(plan.size(), i < 3 ? 1u : 0u) << "shard " << i;
    EXPECT_EQ(plan.empty(), i >= 3);
  }
}

TEST(ShardPlan, RejectsInvalidCoordinates) {
  EXPECT_THROW((void)plan_shard(4, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)plan_shard(4, 2, 2), std::invalid_argument);
  EXPECT_THROW((void)plan_shard(0, 1, 1), std::invalid_argument);
}

TEST(ShardSpec, ParsesWellFormedSpecs) {
  EXPECT_EQ(parse_shard_spec("0/4"), (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(parse_shard_spec("3/4"), (std::pair<std::size_t, std::size_t>{3, 4}));
  EXPECT_EQ(parse_shard_spec("0/1"), (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(parse_shard_spec("11/12"), (std::pair<std::size_t, std::size_t>{11, 12}));
}

TEST(ShardSpec, RejectsPartialTokenParses) {
  // std::stoull stops at the first non-digit, so these were silently
  // accepted pre-fix: "1/4abc" ran as shard 1/4 and "0x1/4" as shard 0/4.
  EXPECT_THROW((void)parse_shard_spec("1/4abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("0x1/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("1a/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec(" 0/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("0/4 "), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("+0/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("-1/4"), std::invalid_argument);
}

TEST(ShardSpec, RejectsMalformedShapes) {
  EXPECT_THROW((void)parse_shard_spec(""), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("04"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("0/"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("/"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("0//4"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("0/4/8"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("99999999999999999999/4"), std::invalid_argument);
}

TEST(ShardSpec, RejectsOutOfRangeCoordinates) {
  EXPECT_THROW((void)parse_shard_spec("0/0"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("4/4"), std::invalid_argument);
  EXPECT_THROW((void)parse_shard_spec("5/4"), std::invalid_argument);
}

TEST(ShardPlan, ShardFleetJobsCopiesContiguousRanges) {
  const std::vector<FleetJob> jobs = make_jobs(7);
  std::size_t seen = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const ShardPlan plan = plan_shard(jobs.size(), i, 3);
    const std::vector<FleetJob> sub = shard_fleet_jobs(jobs, i, 3);
    ASSERT_EQ(sub.size(), plan.size());
    for (std::size_t k = 0; k < sub.size(); ++k) {
      EXPECT_EQ(sub[k].hub.name, jobs[plan.begin + k].hub.name);
      EXPECT_EQ(sub[k].scenario, jobs[plan.begin + k].scenario);
    }
    seen += sub.size();
  }
  EXPECT_EQ(seen, jobs.size());
}

TEST(ShardPlan, RejectsCoupledJobsWhenSharded) {
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = 6;
  const spatial::MetroMap metro(metro_cfg, 42);
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const std::vector<FleetJob> coupled =
      make_metro_fleet_jobs(metro, reg, reg.keys(), 1, SchedulerKind::kGreedyPrice);
  EXPECT_THROW((void)shard_fleet_jobs(coupled, 0, 2), std::invalid_argument);
  // A single shard is the whole fleet — coupling stays legal there.
  EXPECT_EQ(shard_fleet_jobs(coupled, 0, 1).size(), coupled.size());
}

// ------------------------------------------------------------ shard io

TEST(ShardIo, RoundTripsFieldExact) {
  const ShardData shard = fake_shard(5);
  const std::string bytes = serialize_shard(shard);
  const ShardData back = parse_shard(bytes);
  EXPECT_EQ(back.plan, shard.plan);
  ASSERT_EQ(back.results.size(), shard.results.size());
  for (std::size_t i = 0; i < shard.results.size(); ++i) {
    EXPECT_EQ(back.results[i], shard.results[i]) << "result " << i;  // field-exact
  }
  EXPECT_TRUE(back.report == shard.report);
  // Serialization is deterministic and idempotent through a round trip.
  EXPECT_EQ(serialize_shard(back), bytes);
}

TEST(ShardIo, SerializedBytesArePinned) {
  // The version-2 encoding, pinned: a change to any field's encoding, order
  // or width moves the size or the digest.
  const std::string three = serialize_shard(fake_shard(3));
  EXPECT_EQ(three.size(), 791u);
  EXPECT_EQ(fnv1a(three), 0xead5b040a5288a25ULL);
  const std::string empty = serialize_shard(fake_shard(0, 5, 6, 3));
  EXPECT_EQ(empty.size(), 92u);
  EXPECT_EQ(fnv1a(empty), 0x71b7470dc63763c7ULL);
}

TEST(ShardIo, SaveLoadRoundTripsThroughDisk) {
  const fs::path dir = scratch_dir("save_load");
  const ShardData shard = fake_shard(4, 1, 3, 10);
  const fs::path path = dir / "shard-1-of-3.ecsh";
  save_shard(path, shard);
  const ShardData back = load_shard(path);
  EXPECT_EQ(back.plan, shard.plan);
  EXPECT_EQ(back.results, shard.results);
  EXPECT_TRUE(back.report == shard.report);
  fs::remove_all(dir);
}

TEST(ShardIo, EmptyShardRoundTrips) {
  // n > jobs leaves trailing shards empty; their artifacts must still
  // serialize, load, and merge.
  const ShardData shard = fake_shard(0, 5, 6, 3);
  EXPECT_TRUE(shard.plan.empty());
  const ShardData back = parse_shard(serialize_shard(shard));
  EXPECT_EQ(back.plan, shard.plan);
  EXPECT_TRUE(back.results.empty());
}

TEST(ShardIo, TruncatedInputIsRejected) {
  const std::string bytes = serialize_shard(fake_shard(3));
  // Every strict prefix is a truncation: probe a spread of cut points
  // including inside the magic, the header, a section payload, and the
  // checksum trailer.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{2}, std::size_t{6}, std::size_t{13},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    EXPECT_THROW((void)parse_shard(bytes.substr(0, keep)), binio::TruncatedError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(ShardIo, BadMagicIsRejected) {
  std::string bytes = serialize_shard(fake_shard(3));
  bytes[0] = 'X';
  EXPECT_THROW((void)parse_shard(bytes), binio::MagicError);
  EXPECT_THROW((void)parse_shard("not a shard file at all"), binio::MagicError);
}

TEST(ShardIo, FutureVersionIsRejected) {
  // Version 1 files also carried a serialized report; no reader for them is
  // kept, so they fail like a future version.
  for (const int version : {3, 1}) {
    std::string bytes = serialize_shard(fake_shard(3));
    bytes[4] = static_cast<char>(version);  // version u32 at offset 4, little-endian
    EXPECT_THROW((void)parse_shard(bytes), binio::VersionError) << version;
  }
}

TEST(ShardIo, FlippedPayloadByteIsRejected) {
  const std::string pristine = serialize_shard(fake_shard(3));
  // Flip one byte in each section's payload region: the checksum catches it
  // before any payload byte is interpreted.
  for (const std::size_t at : {std::size_t{40}, pristine.size() / 2, pristine.size() - 20}) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ 0x40u);
    EXPECT_THROW((void)parse_shard(bytes), binio::ChecksumError) << "byte " << at;
  }
}

TEST(ShardIo, TrailingGarbageIsRejected) {
  std::string bytes = serialize_shard(fake_shard(2));
  bytes += "extra";
  EXPECT_THROW((void)parse_shard(bytes), binio::FormatError);
}

TEST(ShardIo, MismatchedHubIdsAreRejected) {
  ShardData shard = fake_shard(3, 1, 2, 6);  // owns hubs [3, 6)
  shard.results[1].hub_id = 0;
  EXPECT_THROW((void)parse_shard(serialize_shard(shard)), binio::FormatError);
}

// The shard container, restated so tests can seal payloads by hand.
constexpr std::uint32_t kShardSections[] = {1, 2};
constexpr binio::Container kShardContainer{"shard", "ECSH", 2, kShardSections};

TEST(ShardIo, InflatedResultCountIsFormatError) {
  // A canonical plan may claim any job_count, and the results count only
  // has to match it; the section's own length must bound it.  Claims of
  // 2^61 and 2^40 jobs used to escape reserve() as length_error or
  // bad_alloc, and 2^24 reserved 2^24 records before failing.
  for (const std::uint64_t jobs :
       {std::uint64_t{1} << 61, std::uint64_t{1} << 40, std::uint64_t{1} << 24}) {
    std::string plan;
    for (const std::uint64_t field : {std::uint64_t{0}, std::uint64_t{1}, jobs,
                                      std::uint64_t{0}, jobs}) {
      binio::put_u64(plan, field);
    }
    std::string results;
    binio::put_u64(results, jobs);
    const std::string_view payloads[] = {plan, results};
    EXPECT_THROW((void)parse_shard(binio::seal(kShardContainer, payloads)),
                 binio::FormatError)
        << jobs << " jobs";
  }
}

TEST(ShardIo, NonFiniteResultDoubleIsFormatError) {
  // A NaN or infinite double in a record used to reach AggregateReport and
  // escape as std::invalid_argument (profit), or load silently (the SoC
  // digest is never summed).
  for (const double poison : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    ShardData shard = fake_shard(3);  // the report aggregates the finite values
    shard.results[1].profit = poison;
    EXPECT_THROW((void)parse_shard(serialize_shard(shard)), binio::FormatError) << poison;
    shard = fake_shard(3);
    shard.results[2].soc.max = poison;
    EXPECT_THROW((void)parse_shard(serialize_shard(shard)), binio::FormatError) << poison;
  }
}

TEST(ShardIo, MissingFileIsIoError) {
  EXPECT_THROW((void)load_shard(fs::path(testing::TempDir()) / "ecthub_no_such.ecsh"),
               binio::Error);
}

// ------------------------------------------------------------ report groups

TEST(AggregateReportShard, GroupStatsPlumbsCouplingColumns) {
  // Regression for the pre-shard asymmetry: through_kwh, spill-drop and
  // outage totals reached HubRunResult but never the group tables, so a
  // merged shard report could not reproduce the per-hub truth.
  const HubRunResult a = fake_result(0);
  const HubRunResult b = fake_result(1);
  const AggregateReport report({a, b});
  const GroupStats g = report.totals();
  EXPECT_EQ(g.through_kwh, a.through_kwh + b.through_kwh);
  EXPECT_EQ(g.spill_dropped_kwh, a.spill_dropped_kwh + b.spill_dropped_kwh);
  EXPECT_EQ(g.outage_slots, a.outage_slots + b.outage_slots);
  const TextTable table = report.scenario_table();
  EXPECT_EQ(table.num_cols(), 14u);
  const std::string text = table.str();
  EXPECT_NE(text.find("through(kWh)"), std::string::npos);
  EXPECT_NE(text.find("spill-drop(kWh)"), std::string::npos);
  EXPECT_NE(text.find("outages"), std::string::npos);
}

TEST(AggregateReportShard, MergeIsBitExactForAnyGrouping) {
  std::vector<HubRunResult> results;
  for (std::size_t i = 0; i < 12; ++i) {
    results.push_back(fake_result(i, i % 3 == 0 ? "urban" : "rural",
                                  i % 2 == 0 ? SchedulerKind::kTou
                                             : SchedulerKind::kForecast));
    results.back().revenue = 1e16 + 0.0625 * static_cast<double>(i);  // fp-hostile
  }
  const AggregateReport whole(results);
  for (const std::size_t parts : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    AggregateReport merged;
    for (std::size_t i = 0; i < parts; ++i) {
      const ShardPlan plan = plan_shard(results.size(), i, parts);
      merged.merge(AggregateReport({results.begin() + static_cast<std::ptrdiff_t>(plan.begin),
                                    results.begin() + static_cast<std::ptrdiff_t>(plan.end)}));
    }
    EXPECT_TRUE(merged == whole) << parts << "-way merge";
  }
}

// Writers for the nine summed fields of a result, so a test can walk them.
using FieldWriter = void (*)(HubRunResult&, double);
const FieldWriter kSummedFields[] = {
    [](HubRunResult& r, double v) { r.revenue = v; },
    [](HubRunResult& r, double v) { r.grid_cost = v; },
    [](HubRunResult& r, double v) { r.bp_cost = v; },
    [](HubRunResult& r, double v) { r.profit = v; },
    [](HubRunResult& r, double v) { r.soc.mean = v; },
    [](HubRunResult& r, double v) { r.through_kwh = v; },
    [](HubRunResult& r, double v) { r.spill_exported_kwh = v; },
    [](HubRunResult& r, double v) { r.spill_served_kwh = v; },
    [](HubRunResult& r, double v) { r.spill_dropped_kwh = v; },
};

// The reference fold: ((0.0 + r0) + r1) + … over the results in order.
void fold_into(GroupStats& g, const HubRunResult& r) {
  ++g.hubs;
  g.episodes += r.episodes;
  g.revenue = g.revenue + r.revenue;
  g.grid_cost = g.grid_cost + r.grid_cost;
  g.bp_cost = g.bp_cost + r.bp_cost;
  g.profit = g.profit + r.profit;
  g.soc_mean_sum = g.soc_mean_sum + r.soc.mean;
  g.through_kwh = g.through_kwh + r.through_kwh;
  g.spill_exported_kwh = g.spill_exported_kwh + r.spill_exported_kwh;
  g.spill_served_kwh = g.spill_served_kwh + r.spill_served_kwh;
  g.spill_dropped_kwh = g.spill_dropped_kwh + r.spill_dropped_kwh;
  g.outage_slots += r.outage_slots;
}

void expect_same_group(const GroupStats& got, const GroupStats& want, const std::string& what) {
  EXPECT_EQ(got.hubs, want.hubs) << what;
  EXPECT_EQ(got.episodes, want.episodes) << what;
  EXPECT_EQ(got.revenue, want.revenue) << what;
  EXPECT_EQ(got.grid_cost, want.grid_cost) << what;
  EXPECT_EQ(got.bp_cost, want.bp_cost) << what;
  EXPECT_EQ(got.profit, want.profit) << what;
  EXPECT_EQ(got.soc_mean_sum, want.soc_mean_sum) << what;
  EXPECT_EQ(got.through_kwh, want.through_kwh) << what;
  EXPECT_EQ(got.spill_exported_kwh, want.spill_exported_kwh) << what;
  EXPECT_EQ(got.spill_served_kwh, want.spill_served_kwh) << what;
  EXPECT_EQ(got.spill_dropped_kwh, want.spill_dropped_kwh) << what;
  EXPECT_EQ(got.outage_slots, want.outage_slots) << what;
}

TEST(AggregateReportShard, GroupTotalsAreTheLeftFoldInResultOrder) {
  // Addends around 1e16, where the spacing of doubles is 2: which small
  // terms survive depends on the order of the adds, so only the fold in
  // result order reproduces these bits.
  const double magnitudes[] = {1e16, 1.0, -3e15, 0.75, 1.0, -1e16, 0.0625};
  std::vector<HubRunResult> results;
  for (std::size_t i = 0; i < 14; ++i) {
    results.push_back(fake_result(i, i % 3 == 0 ? "urban" : "rural",
                                  i % 2 == 0 ? SchedulerKind::kTou
                                             : SchedulerKind::kForecast));
    for (std::size_t f = 0; f < std::size(kSummedFields); ++f) {
      kSummedFields[f](results.back(), magnitudes[(i + 3 * f) % std::size(magnitudes)] +
                                           0.25 * static_cast<double>(f));
    }
  }
  GroupStats total;
  std::map<std::string, GroupStats> scenario;
  std::map<std::string, GroupStats> scheduler;
  for (const HubRunResult& r : results) {
    fold_into(total, r);
    fold_into(scenario[r.scenario], r);
    fold_into(scheduler[to_string(r.scheduler)], r);
  }
  GroupStats reversed;
  for (std::size_t i = results.size(); i-- > 0;) fold_into(reversed, results[i]);
  ASSERT_NE(reversed.revenue, total.revenue) << "the addends do not depend on fold order";

  const AggregateReport report(results);
  expect_same_group(report.totals(), total, "TOTAL");
  ASSERT_EQ(report.by_scenario().size(), scenario.size());
  for (const auto& [key, stats] : report.by_scenario()) {
    expect_same_group(stats, scenario.at(key), key);
  }
  ASSERT_EQ(report.by_scheduler().size(), scheduler.size());
  for (const auto& [key, stats] : report.by_scheduler()) {
    expect_same_group(stats, scheduler.at(key), key);
  }
}

TEST(AggregateReportShard, NonFiniteSummedFieldIsRejectedNamingTheHub) {
  const AggregateReport clean({fake_result(0)});
  for (std::size_t f = 0; f < std::size(kSummedFields); ++f) {
    for (const double poison : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      HubRunResult bad = fake_result(7, "rural");
      kSummedFields[f](bad, poison);
      AggregateReport report({fake_result(0)});
      try {
        report.add(bad);
        ADD_FAILURE() << "field " << f << " accepted " << poison;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("'rural-7'"), std::string::npos) << e.what();
      }
      EXPECT_TRUE(report == clean) << "a rejected add changed the report";
      EXPECT_THROW(AggregateReport({fake_result(0), bad}), std::invalid_argument);
    }
  }
}

// ------------------------------------------------------------ runner offset

TEST(FleetRunnerShard, HubIdOffsetPreservesGlobalSeedsOnSubRanges) {
  const std::vector<FleetJob> jobs = make_jobs(8);
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  const std::vector<HubRunResult> whole = FleetRunner(cfg).run(jobs);

  FleetRunnerConfig sub_cfg = cfg;
  sub_cfg.hub_id_offset = 3;
  const std::vector<FleetJob> sub(jobs.begin() + 3, jobs.begin() + 6);
  const std::vector<HubRunResult> part = FleetRunner(sub_cfg).run(sub);
  ASSERT_EQ(part.size(), 3u);
  for (std::size_t k = 0; k < part.size(); ++k) {
    EXPECT_EQ(part[k], whole[3 + k]) << "hub " << 3 + k;  // bit-identical slice
  }
}

// ------------------------------------------------------------ run and merge

TEST(ShardDriverTest, RunShardMatchesTheSingleProcessSlice) {
  const std::vector<FleetJob> jobs = make_mixed_jobs(10);
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  const std::vector<HubRunResult> whole = FleetRunner(cfg).run(jobs);
  for (std::size_t i = 0; i < 3; ++i) {
    const ShardData shard = run_shard(jobs, i, 3, cfg);
    ASSERT_EQ(shard.results.size(), shard.plan.size());
    for (std::size_t k = 0; k < shard.results.size(); ++k) {
      EXPECT_EQ(shard.results[k], whole[shard.plan.begin + k])
          << "shard " << i << " result " << k;
    }
  }
}

TEST(ShardDriverTest, MergeRejectsIncompleteOrMixedShardSets) {
  const fs::path dir = scratch_dir("merge_validate");
  save_shard(dir / "a.ecsh", fake_shard(2, 0, 2, 4));
  save_shard(dir / "b.ecsh", fake_shard(2, 1, 2, 4));
  save_shard(dir / "other.ecsh", fake_shard(2, 0, 3, 6));  // different sweep

  EXPECT_THROW((void)merge_shard_files({}), std::invalid_argument);
  EXPECT_THROW((void)merge_shard_files({dir / "a.ecsh"}), binio::FormatError);
  EXPECT_THROW((void)merge_shard_files({dir / "a.ecsh", dir / "b.ecsh", dir / "b.ecsh"}),
               binio::FormatError);
  EXPECT_THROW((void)merge_shard_files({dir / "a.ecsh", dir / "a.ecsh"}), binio::FormatError);
  EXPECT_THROW((void)merge_shard_files({dir / "a.ecsh", dir / "other.ecsh"}),
               binio::FormatError);
  EXPECT_THROW((void)merge_shard_files({dir / "a.ecsh", dir / "missing.ecsh"}), binio::Error);

  // The complete set merges, in either listing order, into the 0-of-1 shard.
  const ShardData merged = merge_shard_files({dir / "b.ecsh", dir / "a.ecsh"});
  EXPECT_EQ(merged.plan, plan_shard(4, 0, 1));
  EXPECT_EQ(merged.results.size(), 4u);
  EXPECT_EQ(merged.report.totals().hubs, 4u);
  for (std::size_t i = 0; i < merged.results.size(); ++i) {
    EXPECT_EQ(merged.results[i].hub_id, i);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------ headline

// The acceptance-criteria test: a 64-hub sweep over all six scenarios and
// three scheduler families (including the batched DRL actor), run 1/2/4/8
// ways through run_shard, saved as shard files and merged back, must equal
// the single-process FleetRunner run: identical per-hub results, an equal
// report, and the same serialized artifact as the unsharded 0-of-1 shard.
TEST(ShardIdentity, ShardFilesMergeBitIdenticalToSingleProcess) {
  const std::vector<FleetJob> jobs = make_mixed_jobs(64);
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  const std::vector<HubRunResult> baseline_results = FleetRunner(cfg).run(jobs);
  const AggregateReport baseline(baseline_results);
  const std::string whole_bytes = serialize_shard(run_shard(jobs, 0, 1, cfg));

  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    const fs::path dir = scratch_dir("identity_" + std::to_string(n));
    std::vector<fs::path> paths;
    for (std::size_t i = 0; i < n; ++i) {
      paths.push_back(dir / ("shard-" + std::to_string(i) + ".ecsh"));
      save_shard(paths.back(), run_shard(jobs, i, n, cfg));
    }
    const ShardData merged = merge_shard_files(paths);
    ASSERT_EQ(merged.results.size(), baseline_results.size()) << n << "-way";
    for (std::size_t i = 0; i < merged.results.size(); ++i) {
      ASSERT_EQ(merged.results[i], baseline_results[i])
          << n << "-way sharding changed hub " << i;
    }
    EXPECT_TRUE(merged.report == baseline) << n << "-way";
    EXPECT_EQ(serialize_shard(merged), whole_bytes)
        << n << "-way merged artifact is not byte-identical";
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace ecthub::sim
