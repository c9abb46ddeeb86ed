// In-memory span recorder for the traced replicas.
//
// Every span records its name, start, end, parent span and fleet slot (plus
// one integer argument, e.g. the rows of a decide_rows call).  Each thread
// appends to its own buffer, so recording takes no lock after a thread's
// first span; the buffers are read only after every recording thread has
// joined or passed a barrier.  Spans are kept until clear() and aggregated
// by the workload that recorded them.  clear() hands the same buffers, with
// their capacity, to the threads that record next, so a profile that starts
// new threads every repetition neither grows its memory nor pays the first
// touch of fresh buffers inside its spans after the first repetition.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint16_t {
  kReset,         ///< EctHubEnv::reset_into
  kStep,          ///< EctHubEnv::step_into (2-argument)
  kStepCoupled,   ///< EctHubEnv::step_into (3-argument, SlotCoupling)
  kObserve,       ///< EctHubEnv::observe_into
  kDecideNone,    ///< Policy::decide, per rule kind
  kDecideTou,
  kDecideGreedy,
  kDecideForecast,
  kDecideRows,    ///< Policy::decide_rows; arg = rows
  kTake,          ///< CouplingBus::take
  kDeposit,       ///< CouplingBus::deposit
  kExchange,      ///< CouplingBus::exchange
  kCrewRun,       ///< BarrierCrew::run on the coordinator; slot = fleet slot
  kMember,        ///< one crew member's share of a slot; arg = member index
  kJob,           ///< one per-hub job; slot = job index, arg = worker index
  kTraffic,       ///< TrafficGenerator::generate_into
  kWeather,       ///< WeatherGenerator::generate_into
  kRenewables,    ///< RenewablePlant::generate_into
  kPricing,       ///< RtpGenerator::generate_into + SellingPricePolicy::series_into
  kEv,            ///< ChargingStation::simulate_into
  kCollect,       ///< VecRolloutCollector::collect; slot = iteration
  kUpdate,        ///< PpoTrainer::update; arg = transitions trained on
  kSerialize,     ///< sim::serialize_shard; slot = shard index
  kParse,         ///< sim::parse_shard; arg = bytes parsed
  kMerge,         ///< AggregateReport::merge
  kCount
};

[[nodiscard]] const char* span_label(SpanName name);

inline constexpr std::uint64_t kNoParent = ~std::uint64_t{0};
inline constexpr std::uint64_t kAutoParent = kNoParent - 1;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t parent = kNoParent;  ///< span id, or kNoParent
  std::uint32_t slot = 0;  ///< fleet slot, or the job / shard / iteration index
  std::uint32_t arg = 0;
  SpanName name = SpanName::kCount;
  std::uint16_t thread = 0;
};

/// Per-name totals over a set of spans.  Self time is the span's duration
/// minus what its same-thread child spans cover.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t arg_sum = 0;

  [[nodiscard]] double mean_ns() const {
    return count > 0 ? static_cast<double>(total_ns) / static_cast<double>(count) : 0.0;
  }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its id.  kAutoParent
  /// makes the innermost open span of this thread the parent.
  std::uint64_t open(SpanName name, std::uint32_t slot, std::uint32_t arg = 0,
                     std::uint64_t parent = kAutoParent);
  void close(std::uint64_t id);

  /// Drops every recorded span and releases every buffer, with its
  /// capacity, to the next threads that record.  No thread may be recording.
  void clear();

  /// All spans, thread buffer by thread buffer.  No thread may be recording.
  [[nodiscard]] std::vector<const std::vector<Span>*> buffers() const;

  /// Totals per SpanName over every recorded span.
  [[nodiscard]] std::vector<NameTotals> totals() const;

 private:
  struct Buffer {
    std::uint16_t thread = 0;  ///< index in buffers_
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;  ///< indices of open spans (a stack)
  };
  Buffer& local();

  /// Names this tracer between two clear()s; a thread whose cached buffer
  /// was claimed under another id claims a buffer again.
  std::atomic<std::uint64_t> id_;
  mutable std::mutex mu_;
  std::deque<Buffer> buffers_;  ///< deque: buffer addresses stay stable
  std::size_t claimed_ = 0;     ///< buffers_[0, claimed_) belong to a thread
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, SpanName name, std::uint32_t slot, std::uint32_t arg = 0,
        std::uint64_t parent = kAutoParent)
      : tracer_(tracer), id_(tracer.open(name, slot, arg, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
