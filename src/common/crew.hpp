// Worker crew: the one thread pool of the fleet runner (per-hub run() and
// lockstep run_lockstep()) and the vectorized rollout collector.
//
// A crew of N spawns N - 1 worker threads; the coordinator opens a phase
// with run(task), executes the last partition itself (so N configured
// threads cost exactly N busy threads, never N + 1), and the call returns
// once every participant has finished.  Exceptions are caught inside the
// phase (so a throwing participant still counts itself done — no deadlock)
// and the first one recorded is rethrown from run() on the coordinator.
//
// The phase handoff is two counters.  The coordinator writes the task, then
// bumps `phase_` (release); a worker that sees it change (acquire) runs its
// partition and bumps `done_` (release), and the coordinator returns once
// `done_` reaches N - 1 (acquire).  A waiter, worker or coordinator, calls
// std::this_thread::yield() between checks for a bounded number of tries and
// then parks in std::atomic::wait; the opener and the last finisher notify.
// In a lockstep fleet the phases are tens of microseconds apart, so a
// waiter almost always sees its counter change while yielding and does not
// wait for a kernel wake, as an early member does at each of the two
// std::barrier crossings a phase would otherwise take.
//
// It yields rather than spinning on `pause` because members may outnumber
// the CPUs the process gets (a VM can lose cores, a user can pin it with
// taskset): a yield hands the CPU to the member that holds the work, where
// a `pause` loop keeps it for itself.  192 coupled DRL lanes on 4 members
// (perfbench's fleet_drl_metro, 20 s runs on a 4-vCPU Xeon VM), kslot/s,
// with the process confined by taskset to 2 CPUs / 1 CPU:
//   std::barrier                          1243-1307 / 792-880
//   4096 pauses (~70 us), then park         664-665 / 325-351
//   4096 yields, then park                1290-1384 / 843-880
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ecthub {

/// Crew size for `items` work items: `requested` members, where 0 means the
/// CPUs the calling thread may run on, clamped to [1, items].  0 counts the
/// sched_getaffinity mask, not std::thread::hardware_concurrency(): glibc
/// answers the latter from the online CPUs, so a process confined by
/// `taskset -c 0` would still get one member per CPU of the machine.
[[nodiscard]] inline std::size_t crew_size(std::size_t requested, std::size_t items) {
  if (requested == 0) {
    cpu_set_t mask;
    requested = sched_getaffinity(0, sizeof(mask), &mask) == 0
                    ? static_cast<std::size_t>(CPU_COUNT(&mask))
                    : std::thread::hardware_concurrency();
  }
  return std::max<std::size_t>(1, std::min(requested, items));
}

class BarrierCrew {
 public:
  /// A crew of `size` participants (size >= 1): size - 1 worker threads plus
  /// the coordinator, which runs partition index size - 1 inside run().
  explicit BarrierCrew(std::size_t size) : workers_(size - 1) {
    threads_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, w] { work(w); });
    }
  }

  ~BarrierCrew() {
    stop_ = true;
    open();  // release the crew; workers see stop_ and exit
    for (std::thread& t : threads_) t.join();
  }

  BarrierCrew(const BarrierCrew&) = delete;
  BarrierCrew& operator=(const BarrierCrew&) = delete;

  /// Total participants, including the coordinator.
  [[nodiscard]] std::size_t size() const noexcept { return workers_ + 1; }

  /// Runs task(index) once per participant (index in [0, size())) and
  /// returns when all are done; rethrows the first exception any raised.
  void run(const std::function<void(std::size_t)>& task) {
    task_ = &task;
    // Every worker counted itself done in the previous phase before that
    // run() returned, so no increment can race with this reset.
    done_.store(0, std::memory_order_relaxed);
    open();
    invoke(task, workers_);  // the coordinator's own partition
    await(done_, [this](std::uint32_t done) { return done == workers_; });
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

 private:
  /// Yields between checks this many times before parking.  One yield costs
  /// 270-320 ns on a 4-vCPU Xeon VM when no other thread wants the CPU, so
  /// an idle waiter parks after about 1 ms.  The bound barely matters: one
  /// 20 s run of 192-lane lockstep on 4 members per bound read, in kslot/s
  /// on 4 / 1 CPUs, 256 → 2610 / 838, 1024 → 2607 / 832, 4096 → 2372 / 775
  /// and 16384 → 2638 / 896, while ten runs at 4096 on 4 CPUs spread over
  /// 2274-2832 (std::barrier: 2003-2352).
  static constexpr int kYieldTries = 4096;

  /// Returns the first value of `counter` that satisfies `ready`, read with
  /// acquire order: yields between checks, then parks until notified.
  template <class Ready>
  static std::uint32_t await(const std::atomic<std::uint32_t>& counter, Ready ready) {
    std::uint32_t now = counter.load(std::memory_order_acquire);
    for (int tries = 0; !ready(now); ++tries) {
      if (tries < kYieldTries) {
        std::this_thread::yield();
      } else {
        counter.wait(now, std::memory_order_acquire);
      }
      now = counter.load(std::memory_order_acquire);
    }
    return now;
  }

  /// Starts a phase: task_ and stop_ are written before this release.
  void open() {
    phase_.fetch_add(1, std::memory_order_release);
    phase_.notify_all();
  }

  void invoke(const std::function<void(std::size_t)>& task, std::size_t index) {
    try {
      task(index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void work(std::size_t index) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await(phase_, [seen](std::uint32_t phase) { return phase != seen; });
      // The acquire load that saw the new phase orders these reads after the
      // coordinator's writes of stop_ and task_.
      if (stop_) return;
      invoke(*task_, index);
      if (done_.fetch_add(1, std::memory_order_release) + 1 == workers_) done_.notify_one();
    }
  }

  /// Cache-line size: the two counters, each written by a different side,
  /// sit on lines of their own.
  static constexpr std::size_t kLine = 64;

  std::size_t workers_;
  alignas(kLine) std::atomic<std::uint32_t> phase_{0};  ///< bumped by the coordinator
  const std::function<void(std::size_t)>* task_ = nullptr;
  bool stop_ = false;
  alignas(kLine) std::atomic<std::uint32_t> done_{0};  ///< bumped by each worker
  std::exception_ptr error_;
  std::mutex error_mutex_;
  std::vector<std::thread> threads_;  // last: the threads use every member above
};

}  // namespace ecthub
