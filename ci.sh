#!/usr/bin/env sh
# CI entry point: tier-1 verify plus a bench compile-and-smoke job.
# Usage: ./ci.sh [build-dir-prefix]   (default: build-ci)
set -eu

PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> Job 1: configure + build + ctest (-Werror + extra warning wall)"
cmake -B "${PREFIX}" -S . -DECTHUB_WERROR=ON -DECTHUB_EXTRA_WARNINGS=ON \
  -DECTHUB_BUILD_BENCH=OFF
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure --no-tests=error -j "${JOBS}"

# No result may depend on which libm variants glibc dispatches to: rerun the
# whole suite, every golden included, with the AVX2 and FMA variants masked
# (what a CPU without them gets).  The library calls no dispatched libm
# function (ecthub_lint's determinism/libm covers all of src/): the
# environment's and Rng's transcendentals come from common/elementary, the
# NN's from nn/elementary, and sqrt is correctly rounded everywhere.  The
# mask reaches glibc's dispatch only: __builtin_cpu_supports still reports
# AVX2 and AVX-512F, so this run keeps the NN's widest lane width
# (src/nn/lanes.hpp).  NnLanes.* in test_nn pins every width against W = 2.
echo "    masked libm dispatch (glibc.cpu.hwcaps=-AVX2,-FMA)"
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA ctest --test-dir "${PREFIX}" \
  --output-on-failure --no-tests=error -j "${JOBS}"

# Crew members may outnumber the CPUs the process gets (a VM loses cores, a
# user pins the process), and on a multi-core runner a crew handoff that
# needs a CPU per member still passes everything above.  So rerun the crew
# suites with the process confined to one CPU; a handoff that spins instead
# of handing the CPU over stalls here and hits the per-test timeout.
echo "    crew suites on one CPU (taskset -c 0)"
if command -v taskset > /dev/null 2>&1; then
  taskset -c 0 ctest --test-dir "${PREFIX}" -R 'BarrierCrew|Lockstep|VecCollector|FleetRunner' \
    --timeout 30 --output-on-failure --no-tests=error
else
  echo "    taskset not found: skipped the one-CPU crew run"
fi

# Job 2 flips the bench gate on in the same tree, so the module libraries
# from job 1 are reused and only the bench binaries compile fresh (under the
# same -Werror + extra-warnings wall).
# Every figure/table bench then runs once at tiny sizes: its CTest smoke
# (bench.<name>_smoke) fails on a throw, an abort or a non-zero exit.
echo "==> Job 2: bench compile + a smoke of every bench (-Werror + extra warning wall)"
cmake -B "${PREFIX}" -S . -DECTHUB_WERROR=ON -DECTHUB_EXTRA_WARNINGS=ON \
  -DECTHUB_BUILD_BENCH=ON
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" -R '^bench\.' --output-on-failure --no-tests=error -j "${JOBS}"

# Job 3 runs the tier-1 suite under ASan + UBSan (float-cast-overflow
# included) and libstdc++'s own checks (-D_GLIBCXX_ASSERTIONS: bounds of
# operator[] and the like; Rng checks its own parameters with typed errors
# in every build) in a separate tree: the fleet runner executes hubs across
# a thread pool, so every push exercises the threaded code under the
# sanitizers.
echo "==> Job 3: ASan+UBSan+_GLIBCXX_ASSERTIONS tier-1"
cmake -B "${PREFIX}-asan" -S . -DECTHUB_SANITIZE=ON -DECTHUB_BUILD_BENCH=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PREFIX}-asan" -j "${JOBS}"
UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir "${PREFIX}-asan" \
  --output-on-failure --no-tests=error -j "${JOBS}"

# Job 4 rebuilds under ThreadSanitizer and runs the BarrierCrew unit suite
# (the crew every fleet path and the collector run on; thousands of short
# phases check that its phase handoff orders plain writes), the sim-engine
# suite (the per-hub runner's work-stealing crew, the slot-synchronized
# lockstep crew, the four-way run/lockstep×1/×3/×8 identity harness, the crew-size
# sweep against run() and the coupled-metro identity harness —
# LockstepDeterminism.* and CouplingBus.* match the filter below), the
# vectorized rollout collector's
# bit-identity suite (VecCollector*, whose crew shards env stepping and
# row-block act_rows GEMMs across threads), the sharding suite (Shard*,
# whose shards run on the fleet runner's crew and merge from shard files)
# and the decision-service suite (Serve*, whose worker micro-batches concurrent
# decide(obs) callers into one decide_rows forward) and the
# DRL/metro/shard-file/serving smokes, so every push exercises the crew's
# phase handoff, the concurrent row-block decide_rows/act_rows paths, the
# slot-barrier CouplingBus exchange, the shard run/merge path and the
# request-batching queue under TSan as well as ASan (the ASan job above runs
# the full suite including the smokes).
echo "==> Job 4: TSan lockstep (test_sim + collector + DRL/metro smokes)"
cmake -B "${PREFIX}-tsan" -S . -DECTHUB_SANITIZE=thread -DECTHUB_BUILD_BENCH=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
TSAN_OPTIONS=halt_on_error=1 ctest --test-dir "${PREFIX}-tsan" \
  -R 'BarrierCrew|Scenario|MixSeed|PolicyFactory|FleetJobs|FleetRunner|Lockstep|CouplingBus|AggregateReport|VecCollector|DrlZoo|Shard|Serve|city_sweep_drl|city_sweep_metro|city_sweep_shard|decision_server' \
  --output-on-failure --no-tests=error -j "${JOBS}"

# Job 5 is the static-analysis gate:
#  (a) ecthub_lint — the in-repo invariant linter (determinism / hot-path
#      allocation hygiene / header hygiene) over src/, failing on any finding
#      not excused by tools/lint_allowlist.txt, and failing on allowlist
#      entries that no longer match real source lines (stale entries);
#  (b) header self-containment — every src/**/*.hpp compiled standalone
#      (twice, for guard idempotency) via the generated-TU object target;
#  (c) GCC -fanalyzer compile-only over the leaf modules, the episode
#      generators and the modules every slot passes through (common, nn,
#      battery, weather, traffic, pricing, forecast, renewables, ev, core,
#      power, policy).  GCC 12's analyzer does not model std::allocator,
#      so three libstdc++-internal false-positive classes are suppressed with
#      justification (see tools/lint_allowlist.txt header and README "Static
#      analysis"); every other -Wanalyzer-* check is a hard error;
#  (d) the no-fusion contract of the NN kernels and of the owned elementary
#      functions (they round every multiply and every add, see
#      src/nn/matrix.hpp, src/nn/elementary.hpp and src/common/elementary.hpp):
#      src/nn/matrix.cpp, src/nn/elementary.cpp and src/common/elementary.cpp
#      are compiled again with job 1's own commands from
#      compile_commands.json plus -mfma, which lets the compiler fuse
#      wherever the build's flags allow it, and no object may contain a fused
#      multiply-add (vfmadd).  The NN's wide entry points must also be wide:
#      every W = 4 one (lanes::*_w<4>) must use ymm registers and every
#      W = 8 one zmm, so a vector type that silently compiles narrower fails
#      here instead of only losing speed;
#  (e) no test-only modules: every src/**/*.hpp must be #included by some
#      file under src, bench, examples, perfbench/src or tools other than
#      its own .cpp.  It guards whole modules only; a dead function inside
#      a live header is a review matter.
echo "==> Job 5: invariant lint + header self-containment + GCC analyzer + NN kernel codegen + orphan headers"
cmake --build "${PREFIX}" -j "${JOBS}" --target ecthub_lint ecthub_header_check
"${PREFIX}/tools/ecthub_lint" --allowlist tools/lint_allowlist.txt \
  --check-allowlist src

for f in src/common/*.cpp src/nn/*.cpp src/battery/*.cpp src/weather/*.cpp \
    src/traffic/*.cpp src/pricing/*.cpp src/forecast/*.cpp src/renewables/*.cpp src/ev/*.cpp \
    src/core/*.cpp src/power/*.cpp src/policy/*.cpp; do
  g++ -std=c++20 -Isrc -O1 -c "$f" -o /dev/null \
    -fanalyzer -Werror \
    -Wno-analyzer-use-of-uninitialized-value \
    -Wno-analyzer-null-dereference \
    -Wno-analyzer-possible-null-dereference
done
echo "    analyzer pass clean over common/nn/battery/weather/traffic/pricing/forecast/renewables/ev/core/power/policy"

for src in src/nn/matrix.cpp src/nn/elementary.cpp src/common/elementary.cpp; do
  FMA_O="${PREFIX}/$(basename "${src}" .cpp)-mfma-check.o"
  python3 - "${PREFIX}/compile_commands.json" "${src}" "${FMA_O}" <<'EOF'
import json, os, shlex, subprocess, sys
entries = json.load(open(sys.argv[1]))
entry = next(e for e in entries if e["file"].endswith(sys.argv[2]))
args = shlex.split(entry["command"])
args[args.index("-o") + 1] = os.path.abspath(sys.argv[3])
subprocess.run(args + ["-mfma"], cwd=entry["directory"], check=True)
EOF
  if objdump -d "${FMA_O}" | grep -q vfmadd; then
    echo "FAIL: ${src} built with -mfma contains a fused multiply-add (vfmadd)" >&2
    exit 1
  fi
  echo "    ${src} built with -mfma: no vfmadd"
  case "${src}" in
    src/nn/*) ;;
    *) continue ;;
  esac
  for width_reg in 4:ymm 8:zmm; do
    width="${width_reg%%:*}"
    reg="${width_reg#*:}"
    syms="$(nm "${FMA_O}" | awk -v tag="_wILm${width}E" '$2 == "T" && index($3, tag) { print $3 }')"
    if [ -z "${syms}" ]; then
      echo "FAIL: ${src} defines no W = ${width} entry point" >&2
      exit 1
    fi
    for sym in ${syms}; do
      if ! objdump -d --disassemble="${sym}" "${FMA_O}" | grep -q "%${reg}"; then
        echo "FAIL: ${src}: ${sym} (W = ${width}) uses no ${reg} register" >&2
        exit 1
      fi
    done
  done
  echo "    ${src}: its W = 4 entry points use ymm, its W = 8 ones zmm"
done

ORPHANS=0
for hdr in $(find src -name '*.hpp' | sort); do
  rel="${hdr#src/}"
  if ! grep -rlF --include='*.hpp' --include='*.cpp' "#include \"${rel}\"" \
      src bench examples perfbench/src tools | grep -vxF "${hdr%.hpp}.cpp" | grep -q .; then
    echo "FAIL: ${hdr} is included by no program (only by tests or its own .cpp)" >&2
    ORPHANS=$((ORPHANS + 1))
  fi
done
if [ "${ORPHANS}" -ne 0 ]; then
  exit 1
fi
echo "    every src/ header is included by a program"

# Job 6 runs the benchmark smoke: every workload tiny, untraced and traced.
# The traced runs replay run_lockstep and run_job through perfbench's own
# lane bookkeeping and check the library's results against it bit for bit,
# and the build fails when a src/ change stops perfbench/ from compiling.
echo "==> Job 6: benchmark smoke (perfbench/run.py --smoke)"
python3 perfbench/run.py --smoke > /dev/null

echo "==> CI green"
