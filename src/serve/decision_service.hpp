// Decision service mode: request-level micro-batching on the lockstep GEMM
// path — the ROADMAP's "millions of users" north star taken literally.
//
// A DecisionService is a long-running in-process server around one shared
// stateless Policy.  Client threads call decide(obs) with a single
// observation vector and block; a worker thread admits pending requests into
// a reusable observation matrix under a configurable batching window
// (flush when max_batch requests are waiting, or after max_wait_us of
// waiting for peers), runs ONE decide_rows row-block forward per flush —
// the same const, workspace-confined kernel the lockstep fleet runner's
// slot phase uses — and scatters the actions back to the blocked
// callers.  For a DrlPolicy that turns N concurrent matrix-vector requests
// into one N-row GEMM per flush.
//
// Contracts, pinned by tests/test_serve.cpp:
//  * bit-identity — every request's action is bit-identical to calling
//    decide_batch directly on the same observation, at ANY batching window:
//    the row kernels accumulate each output element in the same order
//    regardless of batch composition, so micro-batch grouping cannot change
//    a result.
//  * stateless only — stateful policies must stay one-instance-per-hub
//    (the decide_rows contract); the constructor rejects them.
//  * zero steady-state allocation — request admission, the flush forward
//    (per-worker Policy::Workspace + reused observation matrix) and the
//    action scatter are allocation-free once the ticket pool and workspace
//    have warmed up, in the same counting-operator-new sense as the episode
//    hot path (test_alloc style).
//  * clean shutdown — shutdown() stops admissions, drains every in-flight
//    request (each still receives its correct action), then joins the
//    worker.
//
// Determinism note: actions are pure functions of the observations.  The
// only nondeterministic observables are the latency/batch-size statistics,
// and those are fed by an *injected* clock (ServiceConfig::now_us) — src/
// code reads no clock itself, so the repo-wide determinism invariant
// (ecthub_lint) holds; the benchmark and the examples inject std::chrono,
// tests inject a fake counter.
#pragma once

#include "nn/matrix.hpp"
#include "policy/policy.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace ecthub::serve {

/// Monotonic-microsecond source for latency observability.  Injected so the
/// library itself stays clock-free (determinism invariant); nullptr disables
/// latency tracking (batch/queue statistics still accumulate).
using ClockFn = std::uint64_t (*)();

struct ServiceConfig {
  /// Flush as soon as this many requests are pending (the micro-batch cap
  /// and the row count of the reusable observation matrix).
  std::size_t max_batch = 32;
  /// How long a partial batch waits for peers before flushing anyway, in
  /// microseconds.  0 = never wait (every flush takes whatever is pending).
  std::uint64_t max_wait_us = 200;
  /// Ring capacity of retained per-request latency samples (the percentile
  /// window).  Fixed at construction — the steady state never grows it.
  std::size_t latency_window = 4096;
  /// Latency clock; see ClockFn.
  ClockFn now_us = nullptr;
};

/// One observability snapshot; all counters since construction.
struct ServiceStats {
  std::uint64_t requests = 0;           ///< completed requests
  std::uint64_t flushes = 0;            ///< decide_rows forwards run
  std::uint64_t full_batch_flushes = 0; ///< flushed at exactly max_batch
  std::uint64_t timer_flushes = 0;      ///< flushed below max_batch
  std::size_t queue_depth = 0;          ///< pending requests right now (gauge)
  std::size_t max_queue_depth = 0;      ///< high-water mark of the gauge
  double mean_batch_size = 0.0;         ///< requests / flushes
  /// batch_size_hist[k] = number of flushes that admitted exactly k rows
  /// (index 0 unused; size max_batch + 1).
  std::vector<std::uint64_t> batch_size_hist;
  /// Latency percentiles over the retained sample window (stats::percentile;
  /// all zero when no clock was injected).  Latency = enqueue -> scatter.
  std::uint64_t latency_samples = 0;    ///< total recorded (window may be smaller)
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;
};

class DecisionService {
 public:
  /// Starts the worker.  `policy` must be stateless() (the decide_rows
  /// contract — micro-batching mixes requests from arbitrary callers into
  /// one matrix); throws std::invalid_argument otherwise, and on a null
  /// policy, state_dim == 0, or max_batch == 0.
  DecisionService(std::shared_ptr<const policy::Policy> policy, std::size_t state_dim,
                  ServiceConfig cfg = {});

  /// Drains in-flight requests and joins the worker (shutdown()).
  ~DecisionService();

  DecisionService(const DecisionService&) = delete;
  DecisionService& operator=(const DecisionService&) = delete;

  /// Blocks until the worker has batched and answered this request; returns
  /// the action, bit-identical to decide_batch on the same observation.
  /// Safe to call from many threads concurrently.  Throws
  /// std::invalid_argument when obs.size() != state_dim() or a feature is
  /// NaN or infinite (naming the first such index; the request is never
  /// admitted), and std::runtime_error after shutdown().
  [[nodiscard]] std::size_t decide(std::span<const double> obs);

  /// Stops admitting new requests, flushes every in-flight one (each blocked
  /// caller still receives its action), then joins the worker.  Idempotent;
  /// called by the destructor.
  void shutdown();

  /// Observability snapshot (percentiles computed on the spot — not for the
  /// request hot path).
  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] std::size_t state_dim() const noexcept { return state_dim_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  /// One blocked request: the copied-in observation row, the scatter target,
  /// and the caller's wakeup channel.  Tickets are pooled — acquire/release
  /// reuse them, so the steady state allocates none.
  struct Ticket {
    std::vector<double> obs;
    std::size_t action = 0;
    bool done = false;
    std::uint64_t enqueue_us = 0;
    std::condition_variable cv;
  };

  /// The flush loop's caller-owned scratch, in the decide_rows workspace
  /// idiom: the admission matrix, the action buffer, the admitted-ticket
  /// list and the per-worker policy workspace all live here and are reused
  /// across flushes.
  struct FlushWorkspace {
    nn::Matrix obs;                    ///< admitted rows x state_dim
    std::vector<std::size_t> actions;  ///< one per admitted row
    std::vector<Ticket*> batch;        ///< admitted tickets, queue order
    std::unique_ptr<policy::Policy::Workspace> policy_ws;
  };

  void worker_loop();
  /// Admits up to max_batch pending tickets into ws.obs, runs one
  /// decide_rows forward, scatters actions back and wakes the callers.
  /// Called with mu_ held; allocation-free once ws has warmed up.
  void flush_into(FlushWorkspace& ws);
  [[nodiscard]] Ticket* acquire_ticket();

  std::shared_ptr<const policy::Policy> policy_;
  std::size_t state_dim_ = 0;
  ServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable worker_cv_;
  std::vector<std::unique_ptr<Ticket>> tickets_;  ///< pool ownership
  std::vector<Ticket*> free_;                     ///< idle tickets
  std::vector<Ticket*> pending_;                  ///< submitted, not yet admitted
  bool accepting_ = true;
  bool stop_ = false;

  // Observability counters (all guarded by mu_).
  std::uint64_t completed_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t full_batch_flushes_ = 0;
  std::uint64_t timer_flushes_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::vector<std::uint64_t> batch_hist_;  ///< size max_batch + 1, fixed
  std::vector<double> latency_ring_;       ///< size latency_window, fixed
  std::size_t latency_next_ = 0;
  std::uint64_t latency_total_ = 0;
  double latency_max_us_ = 0.0;

  FlushWorkspace flush_ws_;
  std::thread worker_;  ///< started last in the constructor
};

}  // namespace ecthub::serve
