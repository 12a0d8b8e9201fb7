#!/usr/bin/env python3
"""The repository benchmark: build the driver, run one workload, report.

    python3 perfbench/run.py --workload replay-pressured --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The driver package (perfbench/) is
configured and built from source into $CARGO_TARGET_DIR (default
.bench_build); the run's inputs are generated from --seed into a scratch
directory under .bench_data that is removed afterwards.  The last line
of standard output is the result object {correct, attempted, failed,
metrics}; with --trace 0 it holds every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = (
    "replay-pressured",
    "replay-sharded-roomy",
    "live-paced",
    "tune-warm-fork",
)
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Leaves room under the per-run limit for the build check and prepare.
MEASURE_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(targets):
    """Configure (once) and build the driver package from source."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources missing under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr, timeout=900)
    return out


def run_once(driver, workload, seed, seconds, trace, extra=()):
    """prepare + measure one run; returns (human lines, result object)."""
    data = ROOT / ".bench_data" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", str(data), *extra]
        subprocess.run([str(driver), "prepare", *common], check=True, timeout=120)
        launch_ns = time.monotonic_ns()
        done = subprocess.run(
            [str(driver), "measure", *common, "--seconds", str(seconds),
             "--trace", str(trace), "--launch-ns", str(launch_ns)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result")
    return lines[:-1], json.loads(lines[-1])


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_result(result, declared):
    """Problems with one result object against its declared metric set."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("outputs were not correct")
    metrics = result.get("metrics", {})
    for name, entry in metrics.items():
        if not METRIC_NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if name not in declared:
            problems.append(f"metric {name} not declared in BENCHMARK.json")
        elif entry.get("unit") != declared[name]:
            problems.append(f"metric {name} unit {entry.get('unit')} != {declared[name]}")
    for name in declared:
        if name not in metrics:
            problems.append(f"declared metric {name} not emitted")
    return problems


def self_test():
    """The benchmark's own tests: decorators, then every emitted name."""
    out = build(["perfbench_driver", "perfbench_selftest"])
    subprocess.run([str(out / "perfbench_selftest")], check=True, timeout=600)
    end_to_end, per_layer = declared_metrics()
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_once(out / "perfbench_driver", workload, 1, 0, trace,
                                 ("--scale", "0.05", "--subtraces", "2"))
            problems = check_result(result, per_layer if trace else end_to_end)
            for problem in problems:
                log(f"{workload} trace {trace}: {problem}")
            failures += len(problems)
            log(f"{workload} trace {trace}: {'ok' if not problems else 'FAILED'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests instead")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        out = build(["perfbench_driver"])
        lines, result = run_once(out / "perfbench_driver", args.workload,
                                 args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        log(f"failed: {exc}")
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
