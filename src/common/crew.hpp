// Barrier-synchronized worker crew: the one thread pool of the fleet runner
// (per-hub run() and lockstep run_lockstep()) and the vectorized rollout
// collector.
//
// A crew of N spawns N - 1 worker threads; the coordinator opens a phase
// with run(task), executes the last partition itself between the two
// barriers (so N configured threads cost exactly N busy threads, never
// N + 1), and the call returns once every participant has finished.
// Exceptions are caught inside the phase (so a throwing participant still
// reaches the completion barrier — no deadlock) and the first one recorded
// is rethrown from run() on the coordinator.
#pragma once

#include <algorithm>
#include <barrier>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ecthub {

/// Crew size for `items` work items: `requested` members, where 0 means
/// std::thread::hardware_concurrency(), clamped to [1, items].
[[nodiscard]] inline std::size_t crew_size(std::size_t requested, std::size_t items) {
  if (requested == 0) requested = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min(requested, items));
}

class BarrierCrew {
 public:
  /// A crew of `size` participants (size >= 1): size - 1 worker threads plus
  /// the coordinator, which runs partition index size - 1 inside run().
  explicit BarrierCrew(std::size_t size)
      : workers_(size - 1), sync_(static_cast<std::ptrdiff_t>(size)) {
    threads_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, w] { work(w); });
    }
  }

  ~BarrierCrew() {
    stop_ = true;
    sync_.arrive_and_wait();  // release the crew; workers see stop_ and exit
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
    sync_.arrive_and_wait();  // open the phase
    invoke(task, workers_);   // the coordinator's own partition
    sync_.arrive_and_wait();  // wait until every worker finished too
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

 private:
  void invoke(const std::function<void(std::size_t)>& task, std::size_t index) {
    try {
      task(index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void work(std::size_t index) {
    for (;;) {
      sync_.arrive_and_wait();
      // stop_ and task_ are written by the coordinator before it arrives at
      // the opening barrier, which sequences them before this read.
      if (stop_) return;
      invoke(*task_, index);
      sync_.arrive_and_wait();
    }
  }

  std::size_t workers_;
  std::barrier<> sync_;
  std::vector<std::thread> threads_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::exception_ptr error_;
  std::mutex error_mutex_;
  bool stop_ = false;
};

}  // namespace ecthub
