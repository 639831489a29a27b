#!/usr/bin/env python3
"""Serving benchmark of the asti library.

Builds the runner (perfbench/CMakeLists.txt, into .bench_build), serves one
workload through SeedMinEngine, checks its outputs, and prints every metric
by name and unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0, or its
per-layer metrics with --trace 1 (the traced run, which also writes the
spans file). Run from the repository root:

    python3 perfbench/run.py --workload asti-ic --seed 1 --seconds 30 --trace 0

Generated inputs, spans and a full record of each run go to .bench_work/.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
RUNNER = BUILD_DIR / "perfbench_runner"
TIME_LIMIT_S = 175.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(deadline):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no asti sources (src/, CMakeLists.txt); nothing to build")
    WORK_DIR.mkdir(exist_ok=True)
    log = WORK_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log, max(1.0, deadline - time.monotonic())) != 0:
            tail = log.read_text(errors="replace").splitlines()[-20:]
            fail("build failed; last lines of .bench_work/build.log:\n" + "\n".join(tail))


def read_first_line(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_header():
    cache = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = read_first_line(index / "level")
        kind = read_first_line(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            cache[f"l{level}"] = read_first_line(index / "size")
    compiler, build_type = "unknown", "unknown"
    cache_file = BUILD_DIR / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text(errors="replace").splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "l2": cache.get("l2", "unknown"),
        "l3": cache.get("l3", "unknown"),
        "machine": platform.machine(),
        "compiler": version,
        "build_type": build_type,
        "commit": commit,
    }


def main():
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build(deadline)
    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = run_dir / "result.json"
    run_dir.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(run_dir), "--out", str(result_path)]
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
                              stdout=sys.stderr).returncode
    except subprocess.TimeoutExpired:
        fail("runner exceeded the time limit")
    if code != 0:
        fail(f"runner exited with code {code}")
    result = json.loads(result_path.read_text())

    record = {"header": {**machine_header(), "workload": args.workload, "seed": args.seed,
                         "seconds": args.seconds, "trace": args.trace},
              **result}
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    header = record["header"]
    print("perfbench " + " ".join(f"{k}={v}" for k, v in header.items()))
    for name, m in sorted(result["metrics"].items()):
        count = f"  (n={m['samples']})" if m["samples"] else ""
        print(f"  {name:<36} {m['value']!s:>24} {m['unit']}{count}")
    print(f"  result_digest = {result['result_digest']}")
    print(f"  checks: attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed_frac']}")
    for problem in result["check_failures"]:
        print(f"  check failed: {problem}")
    if result["spans_path"]:
        print(f"  spans: {result['spans_path']}")

    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None or got["value"] is None:
            fail(f"runner did not measure {entry['name']}")
        if got["unit"] != entry["unit"]:
            fail(f"{entry['name']}: runner unit {got['unit']} != BENCHMARK.json {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
