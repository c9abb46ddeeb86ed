// ecthub_perfbench: runs one benchmark workload and prints its result.
//
//   ecthub_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--size full|smoke] [--commit <id>] [--source-digest <hex>]
//
// stdout carries two lines: a detailed report object ({"report": ...}: the
// seed, the build and machine fingerprint, every repetition's wall and CPU
// time, each metric's distribution and the traced span table) and, last,
// the result object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end metrics of an untraced run; with
// --trace 1 they are the per-layer metrics of a traced run.  Progress goes
// to stderr.  Exit status 0 means a result was printed; 2 means bad flags.
#include "harness.hpp"
#include "workloads.hpp"

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

namespace {

using namespace perfbench;

struct Flags {
  std::string workload;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  RunOptions opt;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ecthub_perfbench: " << why << "\n"
            << "usage: ecthub_perfbench --workload fleet_drl_metro|sweep_rules"
               " --seed N --seconds S --trace 0|1 [--size full|smoke]"
               " [--commit ID] [--source-digest HEX]\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": " + text);
  }
  if (used != text.size() || !(v >= 0.0)) usage("bad value for " + flag + ": " + text);
  return v;
}

Flags parse(int argc, char** argv) {
  Flags f;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      f.workload = value;
    } else if (flag == "--seed") {
      const double seed = parse_number(flag, value);
      if (seed != static_cast<double>(static_cast<std::uint64_t>(seed))) {
        usage("--seed must be a whole number");
      }
      f.opt.seed = static_cast<std::uint64_t>(seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      f.opt.seconds = parse_number(flag, value);
      if (f.opt.seconds <= 0.0) usage("--seconds must be positive");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      f.opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") usage("--size takes full or smoke");
      f.opt.size = value == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (flag == "--commit") {
      f.commit = value;
    } else if (flag == "--source-digest") {
      f.source_digest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (f.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return f;
}

std::string fingerprint(const Flags& f, std::size_t nproc) {
  JsonObject fp;
  fp.str("compiler", std::string("gcc ") + __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("ecthub_native", PERFBENCH_NATIVE != 0)
      .integer("nproc", static_cast<long long>(nproc))
      .integer("threads", static_cast<long long>(f.opt.threads))
      .num("cores_online", f.opt.cores_online)
      .str("commit", f.commit)
      .str("source_digest", f.source_digest);
  return fp.dump();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (flags.workload == w.name && w.run != nullptr) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + flags.workload);

  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  flags.opt.threads = std::min<std::size_t>(4, nproc);
  flags.opt.cores_online = calibrate_cores_online(nproc, 0.2);
  log("workload " + flags.workload + ", seed " + std::to_string(flags.opt.seed) +
      ", trace " + (flags.opt.trace ? "1" : "0") + ", cores online " +
      std::to_string(flags.opt.cores_online));

  Outcome out;
  try {
    out = flags.opt.trace ? run_traced(*workload, flags.opt) : workload->run(flags.opt);
  } catch (const std::exception& e) {
    std::cerr << "ecthub_perfbench: " << flags.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.errors.push_back(m.name + " is not finite");
  }
  const bool correct = out.failed == 0 && out.errors.empty();

  std::vector<std::string> reps;
  for (const Rep& r : out.reps) {
    JsonObject row;
    row.num("wall_s", r.wall_s).num("cpu_s", r.cpu_s).num("cpu_wall", r.cpu_wall());
    row.num("work", r.work).boolean("flagged", r.flagged);
    reps.push_back(row.dump());
  }
  JsonObject detail_metrics;
  JsonObject result_metrics;
  for (const Metric& m : out.metrics) {
    JsonObject d;
    d.num("value", m.value).str("unit", m.unit);
    if (m.summary.samples > 0) {
      d.num("median", m.summary.median)
          .num("percentile", m.summary.percentile)
          .num("percentile_value", m.summary.percentile_value)
          .integer("samples", static_cast<long long>(m.summary.samples));
    }
    detail_metrics.raw(m.name, d.dump());
    JsonObject r;
    r.num("value", m.value).str("unit", m.unit);
    result_metrics.raw(m.name, r.dump());
  }
  std::vector<std::string> errors;
  for (const std::string& e : out.errors) errors.push_back(json_string(e));

  JsonObject report;
  report.str("workload", flags.workload)
      .integer("seed", static_cast<long long>(flags.opt.seed))
      .boolean("trace", flags.opt.trace)
      .num("seconds", flags.opt.seconds)
      .str("size", flags.opt.size == Size::kSmoke ? "smoke" : "full")
      .raw("fingerprint", fingerprint(flags, nproc))
      .integer("attempted", static_cast<long long>(out.attempted))
      .integer("failed", static_cast<long long>(out.failed))
      .num("failed_frac", out.attempted > 0 ? static_cast<double>(out.failed) /
                                                  static_cast<double>(out.attempted)
                                            : 0.0)
      .raw("errors", json_array(errors))
      .raw("reps", json_array(reps))
      .raw("metrics", detail_metrics.dump())
      .raw("detail", out.detail.dump());
  JsonObject wrapper;
  wrapper.raw("report", report.dump());

  JsonObject result;
  result.boolean("correct", correct)
      .integer("attempted", static_cast<long long>(out.attempted))
      .integer("failed", static_cast<long long>(out.failed))
      .raw("metrics", result_metrics.dump());

  for (const Metric& m : out.metrics) {
    log("  " + m.name + " = " + json_number(m.value) + " " + m.unit);
  }
  for (const std::string& e : out.errors) log("  ERROR: " + e);
  std::cout << wrapper.dump() << "\n" << result.dump() << std::endl;
  return 0;
}
