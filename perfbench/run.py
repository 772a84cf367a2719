#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload knn-closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload, gates included

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics
(a traced run also writes its spans under .bench_build/spans/). Any failed
correctness gate prints the reason on standard error and exits with code 1
without a result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "perfbench"

# A run must end within 180 s; the binary gets what the build leaves of it.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0

# Per-layer metrics whose layer does no work in a workload: reported as 0.
NOT_RUN = {
    "knn-closed": {
        "shard.partition_s", "shard.build_crit_s", "shard.build_sum_s",
        "shard.route_us", "shard.sub_search_us", "shard.merge_us",
        "shard.coord_us", "shard.fanout_tail_ratio", "shard.probes_per_query",
        "shard.failovers", "serve.queue_wait_us", "serve.shed_frac",
        "serve.expired_frac", "serve.degraded_frac", "serve.queue_high_water",
        "serve.open_p50_us", "serve.open_p99_us", "serve.max_rate_at_slo",
        "serve.apply_us", "serve.update_interference", "serve.update_p50_us",
        "serve.update_p99_us", "serve.storm_updates_per_s",
        "serve.storm_query_p99_us", "io.direct_update_p99_us",
        "io.wal_append_us", "io.wal_bytes_per_update", "io.checkpoint_s",
        "io.replay_records", "gen.lateness_us", "gen.offered_rate",
    },
    "shard-poisson": {
        "serve.apply_us", "serve.update_interference", "serve.update_p50_us",
        "serve.update_p99_us", "serve.storm_updates_per_s",
        "serve.storm_query_p99_us", "io.direct_update_p99_us",
        "io.wal_append_us", "io.wal_bytes_per_update", "io.checkpoint_s",
        "io.replay_records",
    },
    "live-rw": {
        "shard.partition_s", "shard.build_crit_s", "shard.build_sum_s",
        "shard.route_us", "shard.sub_search_us", "shard.merge_us",
        "shard.coord_us", "shard.fanout_tail_ratio", "shard.probes_per_query",
        "shard.failovers", "serve.shed_frac", "serve.expired_frac",
        "serve.degraded_frac", "serve.queue_high_water", "serve.open_p50_us",
        "serve.open_p99_us", "serve.max_rate_at_slo", "gen.lateness_us",
        "gen.offered_rate",
        # LiveHnsw::Build does not expose its BuildStats.
        "methods.build_dists",
    },
}

# Exact counters compared between the scalar and the default SIMD level.
SIMD_COUNTERS = (
    "methods.build_dists", "core.dists_per_query", "core.hops_per_query",
    "core.prefetches_per_query", "core.beam_dists_per_query",
    "graph_digest_low32", "results_digest_low32",
)


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench binary incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        run_tool(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release"])
    run_tool(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def run_tool(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"build timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise BenchError(f"build failed: {' '.join(cmd)}")


def run_binary(args, deadline, env=None):
    """Runs perfbench with `args`; returns its parsed JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the run")
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, env=env, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench timed out: {' '.join(args)}") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    if proc.returncode != 0 or not report.get("correct"):
        failures = "; ".join(report.get("gate_failures", [])) or "unknown"
        raise BenchError(f"correctness gate failed: {failures}")
    return report


def simd_check(seed, work, deadline):
    """Exact counters must not depend on the SIMD level."""
    args = ["--workload", "simd-check", "--seed", str(seed), "--seconds", "1",
            "--trace", "0", "--work-dir", str(work)]
    default = run_binary(args, deadline)["counters"]
    env = dict(os.environ, GASS_SIMD_LEVEL="scalar")
    scalar = run_binary(args, deadline, env=env)["counters"]
    for name in SIMD_COUNTERS:
        if default.get(name) != scalar.get(name):
            raise BenchError(f"{name} differs across SIMD levels: "
                             f"{default.get(name)} vs {scalar.get(name)}")


def run_workload(spec, workload, seed, seconds, trace, deadline):
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--work-dir", str(work)]
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        spans = SPANS_DIR / f"{workload}-seed{seed}.jsonl"
        args += ["--spans", str(spans)]
    try:
        report = run_binary(args, deadline)
        if workload == "knn-closed":
            simd_check(seed, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = report["metrics"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            value = measured[name]["value"]
            if measured[name]["unit"] != unit:
                raise BenchError(f"{name}: unit {measured[name]['unit']} "
                                 f"!= {unit}")
        elif trace and name in NOT_RUN.get(workload, ()):
            value = 0
        else:
            raise BenchError(f"{workload} did not report {name}")
        if value is None or (not trace and value <= 0):
            raise BenchError(f"{name} is {value}: end-to-end metrics are "
                             "never 0")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": True, "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def print_table(workload, result):
    print(f"== {workload}: {result['attempted']} operations, "
          f"{result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; "
                             f"choose from {names} or all")
        build()
        if args.workload == "all":
            for name in names:
                deadline = time.monotonic() + RUN_DEADLINE_S
                print_table(name, run_workload(spec, name, args.seed,
                                               seconds, args.trace, deadline))
            return 0
        deadline = start + RUN_DEADLINE_S
        if time.monotonic() > start + 30:  # This run compiled the program.
            deadline = time.monotonic() + RUN_DEADLINE_S
        result = run_workload(spec, args.workload, args.seed, seconds,
                              args.trace, deadline)
        print_table(args.workload, result)
        print(json.dumps(result), flush=True)
        return 0
    except BenchError as e:
        log(f"error: {e}")
        return 1
    except (OSError, ValueError, KeyError) as e:
        log(f"error: {e!r}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
