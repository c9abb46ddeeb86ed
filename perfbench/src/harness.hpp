// Measurement harness of the ecthub benchmark: clocks, process CPU time and
// peak memory, the core-availability calibration, order statistics, the
// per-workload outcome record and a minimal JSON writer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// User + system CPU seconds of the whole process (getrusage).
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of the process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Spin calibration of the cores actually serving this process: `threads`
/// busy threads spin for `spin_s` wall seconds, and the sum of their thread
/// CPU time over the wall time is how many cores ran them.  A VM that has
/// not brought its cores online reads ~1 here whatever nproc says.
[[nodiscard]] double calibrate_cores_online(std::size_t threads, double spin_s);

/// Linear-interpolation quantile (Python's statistics.quantiles "inclusive"
/// method); q in [0, 1].  Empty input yields 0.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A metric's distribution: the median and the highest of p99.9 / p99 / p95 /
/// p90 / p75 / p50 that has at least ten samples beyond it (percentile 0
/// when even the median has fewer), with the sample count.
struct Summary {
  double median = 0.0;
  double percentile = 0.0;  ///< e.g. 99 for p99; 0 = none qualifies
  double percentile_value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// One timed repetition of a workload.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double work = 0.0;     ///< units completed (hub-slots or transitions)
  bool flagged = false;  ///< CPU/wall fell well below the expected busy threads
  [[nodiscard]] double cpu_wall() const { return wall_s > 0.0 ? cpu_s / wall_s : 0.0; }
};

/// Repeats `body`, timing each call as one repetition (wall + process CPU),
/// until `seconds` of wall time have passed and at least
/// `min_reps` repetitions ran; `body` returns the units of work it did.
/// `between`, when given, runs untimed after every repetition.
///
/// With `busy_threads` > 0 the loop also waits out a host that takes the
/// VM's cores away: it goes on, up to 2 x `seconds` in all, until the
/// repetitions that are not flagged (see usable_reps) cover half of
/// `seconds`.
[[nodiscard]] std::vector<Rep> timed_loop(double seconds, std::size_t min_reps,
                                          double busy_threads,
                                          const std::function<double()>& body,
                                          const std::function<void()>& between = {});

/// Marks reps whose CPU/wall is below half of `busy_threads` (0 disables the
/// check): the process did not get the cores the workload keeps busy.
/// Returns the reps that may enter a metric: the unflagged ones, or all of
/// them when every one is flagged (the report's flags then say so).
std::vector<Rep> usable_reps(std::vector<Rep>& reps, double busy_threads);

/// Workload size presets: the measured size and a tiny self-test size.
enum class Size { kFull, kSmoke };

/// Everything a workload run produces besides its printed metrics.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Summary summary;  ///< distribution the value was taken from (may be empty)
};

/// Minimal JSON object writer: values are rendered on insertion.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, long long v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& raw(const std::string& key, std::string json);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_array(const std::vector<std::string>& items);

/// What a workload run reports back to main.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed checks beyond per-unit failures (traced replica mismatch, shard
  /// merge mismatch, stage replay mismatch); any entry makes correct false.
  std::vector<std::string> errors;
  std::vector<Rep> reps;
  JsonObject detail;  ///< workload-specific extras for the report line

  void add(const std::string& name, const std::string& unit, double value,
           const std::vector<double>& samples = {});
};

/// Per-run options shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::size_t threads = 4;     ///< min(4, nproc)
  double cores_online = 0.0;   ///< spin calibration before the workload
};

}  // namespace perfbench
