// serve_drl: a DecisionService (max_batch 32, max_wait_us 0) around the
// fixed-seed actor, driven open loop by three sender threads so the service
// worker keeps the fourth core.  Requests arrive as a Poisson process at a
// fixed rate; each request is timed from the moment it was due, so a stall
// also charges the requests queued behind it, and the senders' lateness is
// recorded.  The same forward as fleet_drl_metro, but at 1-3 rows per call
// and bound by latency; the only workload with the queue/flush layer.
//
// It is profiled only.  Its end-to-end figures could not be made steady on
// a shared VM (NOTES.md), so BENCHMARK.json does not list it; the traced run
// of every listed workload profiles it for the serve.* layers.
#include "workloads.hpp"

#include "common/rng.hpp"
#include "policy/observation.hpp"
#include "policy/rule_policies.hpp"
#include "serve/decision_service.hpp"
#include "sim/scenario.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>

namespace perfbench {

using namespace ecthub;

namespace {

constexpr std::size_t kSenders = 3;
/// About half of the highest rate the service sustained under a 500 us p99
/// when the benchmark was defined (NOTES.md).
constexpr double kRateRps = 20000.0;
/// Senders sleep (with a 1 ns timer slack) until kSpinNs before the next
/// arrival and spin the rest, so waiting senders leave the cores to the
/// service worker.
constexpr std::int64_t kSpinNs = 20'000;

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(now_ns() / 1000);
}

/// The request pool: real observations, one per slot of one episode of a
/// TOU-run hub from each scenario.
nn::Matrix observation_pool(const RunOptions& opt) {
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  const std::vector<std::string> keys = sim::builtin_scenario_keys();
  const std::vector<sim::FleetJob> jobs = sim::make_fleet_jobs(
      registry, keys, keys.size(), episode_days(opt.size), sim::SchedulerKind::kTou);
  const policy::ObservationLayout layout;
  const std::size_t slots = jobs.front().env.episode_days * jobs.front().env.slots_per_day;
  nn::Matrix pool(jobs.size() * slots, layout.dim());
  std::size_t row = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    core::HubConfig hub = jobs[i].hub;
    hub.seed = mix_seed(mix_seed(opt.seed, kPoolStream), i);
    core::EctHubEnv env(std::move(hub), jobs[i].env);
    policy::TouPolicy tou(env.observation_layout());
    std::vector<double> state(env.state_dim());
    env.reset_into(state);
    bool done = false;
    while (!done && row < pool.rows()) {
      std::copy(state.begin(), state.end(), pool.data().begin() +
                                                static_cast<std::ptrdiff_t>(row * layout.dim()));
      ++row;
      done = env.step_into(tou.decide(state), state).done;
    }
  }
  return pool;
}

/// Forwards to the actor and records a span around every decide_rows call
/// (the service's flush forward), with the row count as its argument.
class TracedPolicy final : public policy::Policy {
 public:
  TracedPolicy(std::shared_ptr<const policy::Policy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  std::size_t decide(std::span<const double>) override {
    throw std::logic_error("TracedPolicy::decide: the service only calls decide_rows");
  }
  [[nodiscard]] std::unique_ptr<Workspace> make_workspace() const override {
    return inner_->make_workspace();
  }
  void decide_rows(const nn::Matrix& obs, std::size_t row_begin, std::size_t row_end,
                   std::span<std::size_t> actions, Workspace& ws) const override {
    const Scope s(tracer_, SpanName::kDecideRows, 0,
                  static_cast<std::uint32_t>(row_end - row_begin));
    inner_->decide_rows(obs, row_begin, row_end, actions, ws);
  }
  [[nodiscard]] bool stateless() const override { return true; }

 private:
  std::shared_ptr<const policy::Policy> inner_;
  Tracer& tracer_;
};

struct Setup {
  std::shared_ptr<const policy::DrlPolicy> actor;
  nn::Matrix pool;
  std::vector<std::size_t> expected;  ///< the serial reference: decide_batch over the pool
};

Setup make_setup(const RunOptions& opt) {
  Setup s;
  s.actor = std::make_shared<const policy::DrlPolicy>(*make_actor(opt.seed));
  s.pool = observation_pool(opt);
  policy::DrlPolicy oracle(*make_actor(opt.seed));
  s.expected.assign(s.pool.rows(), 0);
  oracle.decide_batch(s.pool, std::span<std::size_t>(s.expected));
  return s;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.max_batch = 32;
  cfg.max_wait_us = 0;
  cfg.latency_window = std::size_t{1} << 17;
  cfg.now_us = &steady_now_us;
  return cfg;
}

/// `seconds` of open-loop load at kRateRps against a fresh service.
struct Load {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  ///< threw, or answered differently from decide_batch
  double p50_us = 0.0;       ///< due time to return
  double p99_us = 0.0;
  double late_p99_us = 0.0;  ///< sender lateness
  serve::ServiceStats stats;
};

Load run_load(const Setup& s, const std::shared_ptr<const policy::Policy>& policy,
              double seconds, std::uint64_t stream) {
  serve::DecisionService service(policy, s.pool.cols(), service_config());
  const std::size_t dim = s.pool.cols();
  const auto row = [&](std::size_t r) {
    return std::span<const double>(s.pool.data().data() + r * dim, dim);
  };
  for (std::size_t r = 0; r < 64; ++r) (void)service.decide(row(r % s.pool.rows()));

  std::vector<std::vector<double>> latency(kSenders), late(kSenders);
  std::vector<std::uint64_t> failed(kSenders, 0);
  const double per_sender = kRateRps / static_cast<double>(kSenders);
  const auto span_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t start_ns = now_ns() + 2'000'000;  // every sender starts together

  std::vector<std::thread> senders;
  for (std::size_t w = 0; w < kSenders; ++w) {
    senders.emplace_back([&, w] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise sleep wakeups
      Rng arrivals(mix_seed(stream, w));
      const auto expected_sends = static_cast<std::size_t>(per_sender * seconds * 1.3) + 16;
      latency[w].reserve(expected_sends);
      late[w].reserve(expected_sends);
      std::int64_t due = start_ns;
      for (std::uint64_t k = 0;; ++k) {
        due += static_cast<std::int64_t>(arrivals.exponential(per_sender) * 1e9);
        if (due - start_ns >= span_ns) break;
        std::int64_t sent = now_ns();
        if (due - sent > kSpinNs) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - sent - kSpinNs));
        }
        while (sent < due) sent = now_ns();
        const std::size_t r = (k * kSenders + w) * 7919 % s.pool.rows();
        std::size_t action = 0;
        bool ok = true;
        try {
          action = service.decide(row(r));
        } catch (const std::exception&) {
          ok = false;
        }
        const std::int64_t done = now_ns();
        ok = ok && action == s.expected[r];
        if (!ok) ++failed[w];
        latency[w].push_back(ok ? static_cast<double>(done - due) * 1e-3
                                : std::numeric_limits<double>::infinity());
        late[w].push_back(static_cast<double>(sent - due) * 1e-3);
      }
    });
  }
  for (std::thread& t : senders) t.join();

  Load load;
  load.stats = service.stats();
  std::vector<double> all_latency, all_late;
  for (std::size_t w = 0; w < kSenders; ++w) {
    load.failed += failed[w];
    all_latency.insert(all_latency.end(), latency[w].begin(), latency[w].end());
    all_late.insert(all_late.end(), late[w].begin(), late[w].end());
  }
  load.sent = all_latency.size();
  load.p50_us = quantile(all_latency, 0.5);
  load.p99_us = quantile(all_latency, 0.99);
  load.late_p99_us = quantile(all_late, 0.99);
  return load;
}

}  // namespace

void profile_serve_drl(const RunOptions& opt, const ProfileBudget& budget, Outcome& out,
                       Layers& layers) {
  const Setup setup = make_setup(opt);
  Tracer tracer;
  const auto traced = std::make_shared<const TracedPolicy>(setup.actor, tracer);
  const Load load =
      run_load(setup, traced, budget.traced_s, mix_seed(opt.seed, kArrivalStream));
  out.attempted += load.sent;
  out.failed += load.failed;
  layers["serve.mean_batch"] = load.stats.mean_batch_size;
  layers["serve.max_queue_depth"] = static_cast<double>(load.stats.max_queue_depth);
  layers["serve.service_p99_us"] = load.stats.latency_p99_us;
  layers["serve.late_p99_us"] = load.late_p99_us;
  JsonObject detail;
  detail.num("rate_rps", kRateRps)
      .integer("sent", static_cast<long long>(load.sent))
      .num("p50_us", load.p50_us)
      .num("p99_us", load.p99_us);
  out.detail.raw("serve_drl", detail.dump());
  add_span_detail(out, "spans.serve_drl", tracer.totals());
}

}  // namespace perfbench
