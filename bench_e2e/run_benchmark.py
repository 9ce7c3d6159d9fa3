#!/usr/bin/env python3
"""Builds bench_e2e from this source tree and runs the serving benchmark.

One workload (the last stdout line is the result object):

    python3 bench_e2e/run_benchmark.py --workload cold_scan --seed 1 \
        --seconds 10 --trace 0

Every workload, untraced and traced, printed as two tables (end-to-end
metrics, then per-layer metrics); exits non-zero if any run fails a check:

    python3 bench_e2e/run_benchmark.py

The build goes to .bench_build/ at the repository root; traces,
BENCH_e2e_*.json lines and scratch snapshots land under it too.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ["cold_scan", "store_sharded", "shared_subtrees", "hot_cache"]
RUN_TIMEOUT_S = 175
BASELINE_REPS = 5  # untraced runs per seed set in a baseline


def build(out):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        steps.append(["cmake", "-S", str(ROOT / "bench_e2e"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("bench_e2e: build failed")
    return out / "bench_e2e"


def run_one(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    (out / "results").mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(work)]
    if trace:
        (out / "traces").mkdir(exist_ok=True)
        cmd += ["--trace", str(out / "traces" / f"{workload}-{seed}.json")]
    env = dict(os.environ, HALK_BENCH_OUTPUT_DIR=str(out / "results"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench_e2e: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def provenance(out):
    """Machine, toolchain and source revision the numbers came from."""
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()

    def field(name):
        return next((l.split(":", 1)[1].strip() for l in cpuinfo
                     if l.startswith(name)), "unknown")

    flags = field("flags").split()
    cache = {}
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        cache[key.split(":")[0]] = value
    compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                              stdout=subprocess.PIPE, text=True).stdout
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout.strip()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "cpu_model": field("model name"),
        "nproc": os.cpu_count(),
        "isa": [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f",
                            "avx512bw", "avx512vl", "avx512_vnni")
                if f in flags],
        "compiler": compiler.splitlines()[0] if compiler else "unknown",
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])),
        "git_sha": sha or "unknown",
    }


def summarize(runs):
    stats = {"median": {}, "spread": {}}
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        stats["median"][name] = median
        stats["spread"][name] = (q3 - q1) / median if median else 0.0
    return stats


def record_baselines(binary, out, directory, seconds):
    """Two seed sets of BASELINE_REPS untraced runs plus one traced run per
    workload, written as <directory>/seed_<workload>.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    origin = provenance(out)
    for workload in WORKLOADS:
        record = {"workload": workload, "provenance": origin,
                  "run_seconds": seconds, "sets": []}
        for first_seed in (1, 101):
            seeds = list(range(first_seed, first_seed + BASELINE_REPS))
            runs = []
            for seed in seeds:
                code, lines = run_one(binary, out, workload, seed, seconds, 0)
                result = json.loads(lines[-1])
                if code != 0 or not result["correct"]:
                    sys.exit(f"bench_e2e: {workload} seed {seed} failed")
                runs.append({k: v["value"]
                             for k, v in result["metrics"].items()})
            record["sets"].append(dict(seeds=seeds, runs=runs,
                                       **summarize(runs)))
        code, lines = run_one(binary, out, workload, 1, seconds, 1)
        result = json.loads(lines[-1])
        if code != 0 or not result["correct"]:
            sys.exit(f"bench_e2e: {workload} traced run failed")
        record["traced"] = {"seed": 1, "metrics": {
            k: v["value"] for k, v in result["metrics"].items()}}
        path = directory / f"seed_{workload}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)


def table(title, results, trace):
    names = []
    for workload in WORKLOADS:
        for name in results[(workload, trace)]["metrics"]:
            if name not in names:
                names.append(name)
    print(f"\n{title}")
    print(f"{'metric':40s}{'unit':>7s}" + "".join(f"{w:>17s}" for w in WORKLOADS))
    for name in names:
        unit = ""
        cells = ""
        for workload in WORKLOADS:
            metric = results[(workload, trace)]["metrics"].get(name)
            unit = metric["unit"] if metric else unit
            cells += f"{metric['value']:17.6g}" if metric else f"{'-':>17s}"
        print(f"{name:40s}{unit:>7s}{cells}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-baselines", metavar="DIR",
                        help="write seed_<workload>.json baselines to DIR")
    args = parser.parse_args()

    out = BUILD_DIR
    binary = build(out)
    if args.record_baselines:
        record_baselines(binary, out, args.record_baselines, args.seconds)
        return 0
    if args.workload:
        code, lines = run_one(binary, out, args.workload, args.seed,
                              args.seconds, args.trace)
        for line in lines:
            print(line)
        return code

    results = {}
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_one(binary, out, workload, args.seed,
                                  args.seconds, trace)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if code != 0 or not result or not result["correct"]:
                failed.append(f"{workload} (trace {trace})")
            results[(workload, trace)] = result or {"metrics": {}}
    table("End-to-end metrics (trace 0)", results, 0)
    table("Per-layer metrics (trace 1)", results, 1)
    if failed:
        print("\nFAILED: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
