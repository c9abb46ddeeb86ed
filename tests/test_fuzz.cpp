// Deterministic mutation fuzzing of every input parser.  Binary: shard files
// (sim::parse_shard), DRL checkpoint files (DrlCheckpoint::parse, then a
// DrlPolicy built from the result) and bare nn parameter blobs
// (nn::load_parameters).  Text: CliFlags::get_size and sim::parse_shard_spec.
//
// A seeded Rng drives a fixed budget of cases per format.  Each binary case
// applies one mutation: truncation at a random length, one flipped bit, or an
// aligned 8-byte field overwritten with 2^32, 2^40 or UINT64_MAX.  For the
// two sealed formats every other case mutates one section's payload and
// re-seals it with binio::seal, so the payload parsers see the damage and
// not only the checksum.  Every case must parse or throw a binio::Error
// (DrlPolicyConfig's std::invalid_argument for a zero width is accepted
// too); a bad_alloc, a length_error or a sanitizer report fails the test.
//
// Each text case inserts, deletes or replaces one to three characters drawn
// from digits, '/', '-', '+', ' ', 'x' and 'e' — what a lenient number
// parser half-accepts.  Every case must return or throw
// std::invalid_argument, and a returned value must be what the text spells:
// a non-empty digit run for get_size, digits/digits with index < count for
// parse_shard_spec.
#include "common/binio.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "policy/drl_policy.hpp"
#include "sim/shard.hpp"
#include "sim/shard_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub {
namespace {

constexpr std::size_t kCasesPerFormat = 2000;

// The two sealed formats, restated from their headers.
constexpr std::uint32_t kShardSections[] = {1, 2, 3};
constexpr binio::Container kShard{"shard", "ECSH", 1, kShardSections};
constexpr std::uint32_t kCheckpointSections[] = {1, 2};
constexpr binio::Container kCheckpoint{"DRL checkpoint", "ECDR", 1, kCheckpointSections};

enum class Mutation { kTruncate, kFlipBit, kOverwrite };

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::kTruncate: return "truncation";
    case Mutation::kFlipBit: return "bit flip";
    case Mutation::kOverwrite: return "field overwrite";
  }
  return "?";
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

// Applies one random mutation to the non-empty `bytes` in place.
Mutation mutate(std::string& bytes, Rng& rng) {
  auto m = static_cast<Mutation>(rng.uniform_int(0, 2));
  if (m == Mutation::kOverwrite && bytes.size() < 8) m = Mutation::kFlipBit;
  switch (m) {
    case Mutation::kTruncate:
      bytes.resize(pick(rng, bytes.size()));
      break;
    case Mutation::kFlipBit:
      bytes[pick(rng, bytes.size())] ^= static_cast<char>(1u << pick(rng, 8));
      break;
    case Mutation::kOverwrite: {
      constexpr std::uint64_t kValues[] = {std::uint64_t{1} << 32, std::uint64_t{1} << 40,
                                           UINT64_MAX};
      std::string field;
      binio::put_u64(field, kValues[pick(rng, 3)]);
      bytes.replace(8 * pick(rng, bytes.size() / 8), 8, field);
      break;
    }
  }
  return m;
}

// Runs kCasesPerFormat mutated copies of `pristine` through `parse`.  With a
// container, odd cases mutate one section's payload and re-seal it; even
// cases mutate the sealed bytes, which the checksum must then reject
// whenever the mutation was a truncation or a bit flip.
void fuzz(const std::string& pristine, const binio::Container* container, std::uint64_t seed,
          const std::function<void(std::string_view)>& parse) {
  Rng rng(seed);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kCasesPerFormat; ++i) {
    const bool reseal = container != nullptr && i % 2 == 1;
    std::string input = pristine;
    Mutation m{};
    if (reseal) {
      const std::vector<std::string_view> views = binio::open(pristine, *container);
      std::vector<std::string> payloads(views.begin(), views.end());
      m = mutate(payloads[pick(rng, payloads.size())], rng);
      const std::vector<std::string_view> sections(payloads.begin(), payloads.end());
      input = binio::seal(*container, sections);
    } else {
      m = mutate(input, rng);
    }
    const auto label = [&] {
      return "case " + std::to_string(i) + " (" + to_string(m) + (reseal ? ", re-sealed" : "") +
             ")";
    };
    try {
      parse(input);
      if (container != nullptr && !reseal && m != Mutation::kOverwrite) {
        ADD_FAILURE() << label() << " loaded without an error";
      }
    } catch (const binio::Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label() << " escaped as " << e.what();
    }
  }
  EXPECT_GT(rejected, kCasesPerFormat / 4);
}

sim::HubRunResult sample_result(std::size_t hub_id, const std::string& scenario,
                                sim::SchedulerKind scheduler) {
  sim::HubRunResult r;
  r.hub_id = hub_id;
  r.hub_name = scenario + "-" + std::to_string(hub_id);
  r.scenario = scenario;
  r.scheduler = scheduler;
  r.seed = 1000 + hub_id;
  r.episodes = 2;
  r.slots_per_episode = 48;
  r.revenue = 90.5 + static_cast<double>(hub_id);
  r.grid_cost = 30.25;
  r.bp_cost = 1.5;
  r.profit = r.revenue - r.grid_cost - r.bp_cost;
  r.episode_profit = {30.0, r.profit - 30.0};
  r.soc = {0.5, 0.75, 0.25, 0.875, 0.5, 24.0, 48};
  r.through_kwh = 4.0;
  r.spill_exported_kwh = 1.25;
  r.spill_served_kwh = 0.5;
  r.spill_dropped_kwh = 0.25;
  r.outage_slots = 2;
  return r;
}

TEST(ParserFuzz, ShardFile) {
  sim::ShardData shard;
  shard.plan = sim::plan_shard(6, 1, 2);
  shard.results = {sample_result(3, "urban", sim::SchedulerKind::kTou),
                   sample_result(4, "rural", sim::SchedulerKind::kGreedyPrice),
                   sample_result(5, "urban", sim::SchedulerKind::kGreedyPrice)};
  shard.report = sim::AggregateReport(shard.results);
  fuzz(sim::serialize_shard(shard), &kShard, 101,
       [](std::string_view bytes) { (void)sim::parse_shard(bytes); });
}

TEST(ParserFuzz, DrlCheckpointFile) {
  nn::Rng rng(7);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = 6;
  cfg.trunk_dim = 8;
  cfg.head_dim = 4;
  const std::string pristine = policy::DrlPolicy(cfg, rng).checkpoint().serialize();
  fuzz(pristine, &kCheckpoint, 202, [](std::string_view bytes) {
    const policy::DrlCheckpoint ckpt = policy::DrlCheckpoint::parse(bytes);
    try {
      const policy::DrlPolicy restored(ckpt);
    } catch (const std::invalid_argument& e) {
      if (std::string_view(e.what()).rfind("DrlPolicyConfig", 0) != 0) throw;
    }
  });
}

TEST(ParserFuzz, ParameterBlob) {
  nn::Rng rng(9);
  nn::Mlp model(nn::MlpConfig{.layer_dims = {4, 8, 2}}, rng, "m");
  const std::string pristine = nn::save_parameters(model.parameters());
  std::vector<nn::Parameter> params = model.parameters();
  fuzz(pristine, nullptr, 303,
       [&params](std::string_view bytes) { nn::load_parameters(bytes, params); });
}

// ------------------------------------------------------------ text parsers

constexpr std::string_view kTextAlphabet = "0123456789/-+ xe";

// Inserts, deletes or replaces one to three characters of `text`.
void mutate_text(std::string& text, Rng& rng) {
  for (std::size_t edits = 1 + pick(rng, 3); edits > 0; --edits) {
    const char c = kTextAlphabet[pick(rng, kTextAlphabet.size())];
    switch (text.empty() ? 0 : pick(rng, 3)) {
      case 0: text.insert(pick(rng, text.size() + 1), 1, c); break;
      case 1: text.erase(pick(rng, text.size()), 1); break;
      default: text[pick(rng, text.size())] = c; break;
    }
  }
}

// The oracle: `text` is a non-empty ASCII digit run whose value is `value`
// (leading zeros allowed).
bool spells(std::string_view text, std::size_t value) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  const std::size_t first = text.find_first_not_of('0');
  const std::string_view digits = first == std::string_view::npos ? "0" : text.substr(first);
  return digits == std::to_string(value);
}

// Runs kCasesPerFormat mutated copies of `seeds` through `parse`, which
// checks what it returns against the oracle.  Both outcomes must be common,
// so the oracle sees accepted values and not only rejections.
void fuzz_text(const std::vector<std::string>& seeds, std::uint64_t seed,
               const std::function<void(const std::string&)>& parse) {
  Rng rng(seed);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kCasesPerFormat; ++i) {
    std::string text = seeds[pick(rng, seeds.size())];
    mutate_text(text, rng);
    try {
      parse(text);
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " '" << text << "' escaped as " << e.what();
    }
  }
  EXPECT_GT(rejected, kCasesPerFormat / 10);
  EXPECT_LT(rejected, kCasesPerFormat - kCasesPerFormat / 10);
}

TEST(ParserFuzz, CliFlags) {
  fuzz_text({"4", "120", "0", "007", "18446744073709551615", "-1"}, 404,
            [](const std::string& text) {
              const std::string arg = "--n=" + text;
              const char* argv[] = {"prog", arg.c_str()};
              const std::size_t value = CliFlags(2, argv).get_size("n", 0);
              if (!spells(text, value)) {
                ADD_FAILURE() << "get_size read '" << text << "' as " << value;
              }
            });
}

TEST(ParserFuzz, ShardSpec) {
  fuzz_text({"0/4", "3/4", "11/12", "0/1", "18446744073709551614/18446744073709551615"}, 505,
            [](const std::string& text) {
              const auto [index, count] = sim::parse_shard_spec(text);
              const std::size_t slash = text.find('/');
              const std::string_view view(text);
              if (slash == std::string::npos || !spells(view.substr(0, slash), index) ||
                  !spells(view.substr(slash + 1), count) || index >= count) {
                ADD_FAILURE() << "parse_shard_spec read '" << text << "' as " << index << "/"
                              << count;
              }
            });
}

}  // namespace
}  // namespace ecthub
