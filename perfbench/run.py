#!/usr/bin/env python3
"""Build and run the ecthub benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the library from src/ with the repository's own
build flags) into .bench_build/perfbench; later calls rebuild only what
changed.  Build output and progress go to stderr.  stdout gets the
benchmark's report line and, last, the JSON result object; the report line
is also appended to .bench_build/perfbench/results.jsonl.

--smoke runs every workload at a tiny size, untraced and traced, and checks
that each reports every metric BENCHMARK.json lists, with its unit, and
that no unit of work failed.  Every traced run also profiles serve_drl and
train_ppo, which are not --workload choices of their own (NOTES.md).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ecthub_perfbench"
WORKLOADS = ["fleet_drl_metro", "sweep_rules"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
                fail("cmake configure failed", 1)
        jobs = str(os.cpu_count() or 1)
        compile_cmd = ["cmake", "--build", str(BUILD), "--target", "ecthub_perfbench",
                       "-j", jobs]
        if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed", 1)


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """sha256 over the library and benchmark sources: names the code a result
    came from when the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_binary(args):
    cmd = [str(BINARY)] + args + ["--commit", commit(), "--source-digest", source_digest()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def measure(args):
    code, out = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)])
    lines = out.strip().splitlines()
    if code == 0 and lines:
        with open(BUILD / "results.jsonl", "a") as log:
            log.write(lines[0] + "\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    listed = [w["name"] for w in spec["workloads"]]
    problems = []
    if listed != WORKLOADS:
        problems.append(f"BENCHMARK.json lists workloads {listed}, the binary runs {WORKLOADS}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_binary(["--workload", workload, "--seed", "1", "--seconds", "2",
                                    "--trace", str(trace), "--size", "smoke"])
            where = f"{workload} --trace {trace}"
            if code != 0 or not out.strip():
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} != "
                                f"{sorted(expected[trace].items())}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            print(f"smoke {where}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    print("smoke " + ("FAIL" if problems else "PASS"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-size self-test of every workload")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    sys.exit(smoke() if args.smoke else measure(args))


if __name__ == "__main__":
    main()
