#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --smoke

The first form runs one workload and prints, as its last stdout line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1. `--workload all` runs every workload untraced and prints one
summary row each. `--smoke` runs every workload at a tiny size, traced and
untraced, and fails unless each run reports every metric BENCHMARK.json
names, with its unit, and no failed check.

The driver (perfbench/src) is a CMake package of its own that links the
repository's libraries; it is built under $CARGO_TARGET_DIR (default
.bench_build) at the repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir() / "perfbench"
    log_path = build_dir() / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (log: {log_path})", 1)
    return out / "perfbench_driver"


def provenance_args():
    """Git SHA when the tree is a git checkout, plus a digest of the sources
    the driver is built from (stable across checkouts of one commit)."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            sha = res.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH_DIR):
        files += [p for p in tree.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return ["--git-sha", sha, "--source-digest", digest.hexdigest()[:16]]


def run_driver(driver, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload; returns its result object, or None when the
    driver failed (its output has then already been forwarded)."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(build_dir() / "perfbench-work")]
    cmd += provenance_args()
    if smoke:
        cmd.append("--smoke")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {DRIVER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if echo:
        sys.stdout.write(res.stdout)
        sys.stdout.flush()
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        print(f"perfbench: {workload} failed (exit {res.returncode})",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summary_row(workload, result):
    m = result["metrics"]
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    cells = [f"{workload:<20}"]
    for name in ("events_per_s", "setup_s", "peak_rss_mb"):
        cells.append(f"{name} {m[name]['value']:.6g} {m[name]['unit']}")
    cells.append(f"failed_frac {frac:.3g} fraction")
    return "  ".join(cells)


def smoke(driver, spec):
    problems = []
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_driver(driver, workload, 1, 1, trace, smoke=True,
                                echo=False)
            if result is None:
                problems.append(f"{workload} trace={trace}: driver failed")
                continue
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{workload}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{result['failed']} failed checks")
            if trace == 0:
                rows.append(summary_row(workload, result))
    print("\n".join(rows))
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no dynP sources next to {BENCH_DIR.name}/ (expected "
             "CMakeLists.txt and src/ at the repository root)")
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    driver = build_driver()
    if args.smoke:
        return smoke(driver, spec)
    if args.workload == "all":
        rows = []
        for workload in names:
            result = run_driver(driver, workload, args.seed, seconds, 0,
                                echo=False)
            if result is None:
                return 1
            rows.append(summary_row(workload, result))
        print("\n".join(rows))
        return 0
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)} or all")
    result = run_driver(driver, args.workload, args.seed, seconds, args.trace)
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
