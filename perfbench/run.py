#!/usr/bin/env python3
"""Host-time benchmark of unxpec-sim: one run of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload victim-keyrec --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (an optimised build of src/ plus the benchmark
program) into .bench_build/perfbench, then either times whole sweeps
(--trace 0, end-to-end metrics) or runs the traced replica (--trace 1,
per-layer metrics). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A detailed record with
host context goes to .bench_build/perfbench/results/. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fresh processes timed for setup_s; their median is reported.
SETUP_PROBES = 9
# After the build, every child must finish well inside the 180 s a run
# may take.
DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure (once) and build both binaries."""
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log, "a") as out:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B",
                   str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                fail(f"configure failed, see {log}")
        cmd = ["cmake", "--build", str(build_dir), "-j",
               str(os.cpu_count() or 1), "--target", "perfbench",
               "perfbench_traced"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode:
            fail(f"build failed, see {log}")


def run_child(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(cmd))
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode:
        sys.stderr.write(done.stderr)
        fail(f"exit {done.returncode}: " + " ".join(cmd))
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_digest(root):
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def end_to_end(binary, args, deadline, record):
    probes = [run_child([str(binary), "setup", args.workload,
                         str(args.seed)], deadline)
              for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    run = run_child([str(binary), "run", args.workload, str(args.seed),
                     str(args.seconds)], deadline)

    trials = run["trial_cpu_ms"]
    cpu_s = statistics.median(run["sweep_cpu_s"])
    p90 = statistics.quantiles(trials, n=10, method="inclusive")[8]
    beyond_p90 = sum(1 for t in trials if t > p90)
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_s": cpu_s,
        "sim_cycles_per_cpu_s": run["sim_cycles"] / cpu_s,
        "trial_ms_p50": statistics.median(trials),
        "trial_ms_p90": p90,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    record.update(
        setup_probes_s=setups,
        setup_probes_raw_s=[p["raw_setup_s"] for p in probes],
        setup_probes_ref_ms=[p["ref_ms"] for p in probes],
        sweeps=len(run["sweep_cpu_s"]),
        sweep_cpu_s=run["sweep_cpu_s"],
        sweep_cpu_iqr_s=quartile_spread(run["sweep_cpu_s"]),
        sweep_raw_cpu_s=run["sweep_raw_cpu_s"],
        sweep_wall_s=run["sweep_wall_s"],
        trial_samples=len(trials),
        trial_cpu_ms=trials,
        p90_samples_beyond=beyond_p90,
        sim_cycles=run["sim_cycles"],
        committed_insts=run["committed_insts"],
        sim_digest=run["sim_digest"],
        equivalent=run["equivalent"],
        replica_identical=run["replica_identical"],
        failures=run["failures"],
        build=run["build"],
    )
    record["host"]["ref_ms"] = run["ref_ms"]
    correct = (run["failed"] == 0 and run["equivalent"]
               and run["replica_identical"] and beyond_p90 >= 10)
    return correct, run["attempted"], run["failed"], metrics


def per_layer(binary, args, deadline, record, results, names):
    spans = results / f"{args.workload}-s{args.seed}.spans.json"
    run = run_child([str(binary), "trace", args.workload, str(args.seed),
                     str(args.seconds), str(spans)], deadline)
    layer = run["per_layer"]
    plain, traced = run["untraced_sweep_ms"], run["traced_sweep_ms"]
    layer["trace.overhead_ms"] = (statistics.median(traced)
                                  - statistics.median(plain))
    layer["trace.untraced_iqr_ms"] = quartile_spread(plain)
    missing = sorted(set(names) - set(layer))
    if missing:
        fail("traced run lacks " + ", ".join(missing))
    unattributed_share = layer["trace.unattributed_ms"] / layer["trace.cpu_ms"]
    record.update(
        sweeps=run["sweeps"],
        untraced_sweep_ms=plain,
        traced_sweep_ms=traced,
        sim_digest=run["sim_digest"],
        replica_identical=run["replica_identical"],
        unattributed_share=unattributed_share,
        failures=run["failures"],
        build=run["build"],
        spans=str(spans.relative_to(Path.cwd())),
    )
    correct = (run["failed"] == 0 and run["replica_identical"]
               and unattributed_share < 0.01)
    metrics = {name: layer[name] for name in names}
    return correct, run["attempted"], run["failed"], metrics


def main():
    root = Path.cwd()
    try:
        with open(root / "BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    workloads = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {root / 'src'}; run from the "
             "root of a unxpec-sim checkout")
    build_dir = root / ".bench_build" / "perfbench"
    build(root, build_dir)
    deadline = time.monotonic() + DEADLINE_S
    results = build_dir / "results"
    results.mkdir(exist_ok=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
            "git_commit": git_commit(root),
            "source_digest": source_digest(root),
        },
    }
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        correct, attempted, failed, metrics = per_layer(
            build_dir / "perfbench_traced", args, deadline, record, results,
            list(units))
    else:
        correct, attempted, failed, metrics = end_to_end(
            build_dir / "perfbench", args, deadline, record)
    if sorted(metrics) != sorted(units):
        fail("metrics do not match BENCHMARK.json: " + ", ".join(
            sorted(set(metrics) ^ set(units))))

    flags = record["build"]["cxx_flags"]
    if "-O2" not in flags and "-O3" not in flags:
        fail(f"refusing to report an unoptimised build ({flags!r})")
    record["host"]["loadavg_end"] = os.getloadavg()
    record.update(correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics)
    with open(results / f"{args.workload}-s{args.seed}-t{args.trace}.json",
              "w") as out:
        json.dump(record, out, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
