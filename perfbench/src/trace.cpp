#include "trace.hpp"

#include "harness.hpp"

#include <atomic>

namespace perfbench {

namespace {
constexpr unsigned kIndexBits = 40;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

std::atomic<std::uint64_t> next_tracer_id{1};

struct LocalSlot {
  std::uint64_t tracer = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot local_slot;
}  // namespace

const char* span_label(SpanName name) {
  switch (name) {
    case SpanName::kReset: return "EctHubEnv::reset_into";
    case SpanName::kStep: return "EctHubEnv::step_into/2";
    case SpanName::kStepCoupled: return "EctHubEnv::step_into/3";
    case SpanName::kObserve: return "EctHubEnv::observe_into";
    case SpanName::kDecideNone: return "Policy::decide(none)";
    case SpanName::kDecideTou: return "Policy::decide(tou)";
    case SpanName::kDecideGreedy: return "Policy::decide(greedy)";
    case SpanName::kDecideForecast: return "Policy::decide(forecast)";
    case SpanName::kDecideRows: return "Policy::decide_rows";
    case SpanName::kTake: return "CouplingBus::take";
    case SpanName::kDeposit: return "CouplingBus::deposit";
    case SpanName::kExchange: return "CouplingBus::exchange";
    case SpanName::kCrewRun: return "BarrierCrew::run";
    case SpanName::kMember: return "crew member slot";
    case SpanName::kJob: return "per-hub job";
    case SpanName::kTraffic: return "TrafficGenerator::generate_into";
    case SpanName::kWeather: return "WeatherGenerator::generate_into";
    case SpanName::kRenewables: return "RenewablePlant::generate_into";
    case SpanName::kPricing: return "RtpGenerator+SellingPricePolicy";
    case SpanName::kEv: return "ChargingStation::simulate_into";
    case SpanName::kCollect: return "VecRolloutCollector::collect";
    case SpanName::kUpdate: return "PpoTrainer::update";
    case SpanName::kSerialize: return "serialize_shard";
    case SpanName::kParse: return "parse_shard";
    case SpanName::kMerge: return "AggregateReport::merge";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  const std::uint64_t id = id_.load(std::memory_order_relaxed);
  if (local_slot.tracer != id) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (claimed_ == buffers_.size()) {
      Buffer& fresh = buffers_.emplace_back();
      fresh.thread = static_cast<std::uint16_t>(buffers_.size() - 1);
      fresh.spans.reserve(1 << 16);
    }
    local_slot = LocalSlot{id, &buffers_[claimed_++]};
  }
  return *static_cast<Buffer*>(local_slot.buffer);
}

std::uint64_t Tracer::open(SpanName name, std::uint32_t slot, std::uint32_t arg,
                           std::uint64_t parent) {
  Buffer& b = local();
  const auto index = static_cast<std::uint32_t>(b.spans.size());
  const std::uint64_t id = (static_cast<std::uint64_t>(b.thread) << kIndexBits) | index;
  if (parent == kAutoParent) {
    parent = b.open.empty()
                 ? kNoParent
                 : (static_cast<std::uint64_t>(b.thread) << kIndexBits) | b.open.back();
  }
  Span s;
  s.parent = parent;
  s.slot = slot;
  s.arg = arg;
  s.name = name;
  s.thread = b.thread;
  b.spans.push_back(s);
  b.open.push_back(index);
  b.spans.back().start_ns = now_ns();
  return id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  Buffer& b = local();
  b.spans[id & kIndexMask].end_ns = end;
  b.open.pop_back();
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Buffer& b : buffers_) {
    b.spans.clear();
    b.open.clear();
  }
  claimed_ = 0;
  id_.store(next_tracer_id.fetch_add(1), std::memory_order_relaxed);
}

std::vector<const std::vector<Span>*> Tracer::buffers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::vector<Span>*> out;
  for (std::size_t i = 0; i < claimed_; ++i) out.push_back(&buffers_[i].spans);
  return out;
}

std::vector<NameTotals> Tracer::totals() const {
  std::vector<NameTotals> out(static_cast<std::size_t>(SpanName::kCount));
  for (const std::vector<Span>* spans : buffers()) {
    std::vector<std::int64_t> child_ns(spans->size(), 0);
    for (const Span& s : *spans) {
      if (s.parent == kNoParent) continue;
      if ((s.parent >> kIndexBits) != s.thread) continue;  // cross-thread parent
      child_ns[s.parent & kIndexMask] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans->size(); ++i) {
      const Span& s = (*spans)[i];
      NameTotals& t = out[static_cast<std::size_t>(s.name)];
      const std::int64_t dur = s.end_ns - s.start_ns;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      t.arg_sum += s.arg;
    }
  }
  return out;
}

}  // namespace perfbench
