#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

namespace perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double calibrate_cores_online(std::size_t threads, double spin_s) {
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const double start = now_s();
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&cpu, t, start, spin_s] {
      volatile std::uint64_t sink = 0;
      while (now_s() - start < spin_s) {
        for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
      }
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      cpu[t] = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    });
  }
  for (std::thread& th : pool) th.join();
  const double wall = now_s() - start;
  double total = 0.0;
  for (const double c : cpu) total += c;
  return wall > 0.0 ? total / wall : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  s.median = median(samples);
  const auto n = static_cast<double>(samples.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      s.percentile = p;
      s.percentile_value = quantile(samples, p / 100.0);
      break;
    }
  }
  return s;
}

namespace {
bool starved(const Rep& r, double busy_threads) {
  return busy_threads > 0.0 && r.cpu_wall() < 0.5 * busy_threads;
}
}  // namespace

std::vector<Rep> timed_loop(double seconds, std::size_t min_reps, double busy_threads,
                            const std::function<double()>& body,
                            const std::function<void()>& between) {
  std::vector<Rep> reps;
  double usable_s = 0.0;
  const double start = now_s();
  for (;;) {
    const double elapsed = now_s() - start;
    const bool enough_usable = usable_s >= 0.5 * seconds || elapsed >= 2.0 * seconds;
    if (reps.size() >= min_reps && elapsed >= seconds && enough_usable) break;
    Rep rep;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    rep.work = body();
    rep.wall_s = now_s() - t0;
    rep.cpu_s = process_cpu_s() - cpu0;
    if (!starved(rep, busy_threads)) usable_s += rep.wall_s;
    reps.push_back(rep);
    if (between) between();
  }
  return reps;
}

std::vector<Rep> usable_reps(std::vector<Rep>& reps, double busy_threads) {
  std::vector<Rep> kept;
  for (Rep& r : reps) {
    r.flagged = starved(r, busy_threads);
    if (!r.flagged) kept.push_back(r);
  }
  return kept.empty() ? reps : kept;
}

void Outcome::add(const std::string& name, const std::string& unit, double value,
                  const std::vector<double>& samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = value;
  m.summary = summarize(samples);
  metrics.push_back(std::move(m));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

JsonObject& JsonObject::num(const std::string& key, double v) {
  return raw(key, json_number(v));
}
JsonObject& JsonObject::integer(const std::string& key, long long v) {
  return raw(key, std::to_string(v));
}
JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  return raw(key, json_string(v));
}
JsonObject& JsonObject::boolean(const std::string& key, bool v) {
  return raw(key, v ? "true" : "false");
}
JsonObject& JsonObject::raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
