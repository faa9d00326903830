"""Run one benchmark workload against the library in ../src and print its
metrics; the last line of standard output is one JSON object.

    python3 benchmarks/run.py --workload fuzz-default --seed 1 \\
        --seconds 20 --trace 0

--trace 0 times the workload with tracing off and reports the end-to-end
metrics. --trace 1 runs a fixed set of ops twice in this process, first
untraced and then traced, reports the per-layer metrics and the tracing
overhead, and repeats the whole traced run in a fresh process to check
that every count repeats exactly. Workloads are listed in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import spans
from speed import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

IMPORT_REPEATS = 7
BUILD_REPEATS = 3
# a percentile is reported only when at least ten samples lie beyond it
P95_MIN_SAMPLES = 200
REPLICA_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MiB"))

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import stoptime; "
                "print(time.perf_counter() - t)")


def import_library():
    """Put ../src first on the path and import the workloads, refusing any
    stoptime that is not the one in this checkout."""
    if not (SRC / "stoptime" / "__init__.py").is_file():
        raise RuntimeError(f"no stoptime package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import stoptime
    if not Path(stoptime.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"stoptime imported from {stoptime.__file__}")
    import workloads
    return workloads


def import_seconds() -> float:
    """Import time of stoptime, measured inside a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=60, cwd=ROOT)
    return float(done.stdout)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT, timeout=30)
    return done.stdout.strip() or "unknown"


def metadata(workload, args, sizes) -> dict:
    import numpy
    return {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(),
            "bounds": workload.bounds(sizes)}


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, seed, sizes, seconds, work_dir):
    speed = Speed(interval=0)
    imports = []
    for _ in range(IMPORT_REPEATS):
        before = speed.factor()
        took = import_seconds()
        imports.append(took * (before + speed.factor()) / 2)
    builds = []
    for _ in range(BUILD_REPEATS):
        inputs = None  # free the previous build first
        inputs, elapsed = speed.timed(workload.build, seed, sizes, work_dir)
        builds.append(elapsed)
    m = workload.measure(inputs, seconds)
    lat = m.latencies
    values = {
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "ops_per_s": m.work / m.wall if m.wall > 0 else 0.0,
        "op_p50_ms": 1e3 * percentile(lat, 50),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return m, metrics


def trace_run(workload, seed, sizes, work_dir, tag):
    """One traced run: the fixed ops untraced, then traced. Returns the
    traced measurement and the per-layer metrics."""
    inputs = workload.build(seed, sizes, work_dir)
    speed = Speed(interval=0)
    plain, untraced = speed.timed(workload.trace_pass, inputs, None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        m, traced = speed.timed(workload.trace_pass, inputs, tracer)
    finally:
        tracer.uninstall()
    doc = tracer.document()
    with open(WORK / f"spans-{workload.name}-{seed}-{tag}.json", "w") as f:
        json.dump(doc, f)
    metrics = spans.reduce(doc)
    metrics[spans.OVERHEAD[0]] = (traced / untraced - 1, spans.OVERHEAD[1])
    m.attempted += plain.attempted
    m.failed += plain.failed
    return m, metrics


def replicate(args) -> dict:
    """Repeat the traced run in a fresh process; its metrics."""
    out = WORK / f"replica-{args.workload}-{args.seed}.json"
    subprocess.run([sys.executable, __file__, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", "1", "--replica", str(out)],
                   check=True, timeout=REPLICA_TIMEOUT_S, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        return {k: tuple(v) for k, v in json.load(f).items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replica", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_library()
    except (RuntimeError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = replace(workloads.SIZES, seconds=args.seconds)
    WORK.mkdir(exist_ok=True)
    tag = "replica" if args.replica else "run"
    work_dir = WORK / f"{workload.name}-{args.seed}-{tag}-{os.getpid()}"
    meta = metadata(workload, args, sizes)
    try:
        if args.trace:
            m, metrics = trace_run(workload, args.seed, sizes, work_dir, tag)
        else:
            m, metrics = timed_run(workload, args.seed, sizes, args.seconds,
                                   work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.replica:
        with open(args.replica, "w") as f:
            json.dump(metrics, f)
        return 0

    correct = m.failed == 0
    print("# meta " + json.dumps(meta))
    if args.trace:
        mismatched = spans.count_mismatches(metrics, replicate(args))
        correct = correct and not mismatched
        print(spans.format_table(metrics))
        print(f"tracing overhead: {metrics[spans.OVERHEAD[0]][0]:.3f} "
              "(traced / untraced time - 1, both in reference seconds)")
        print("counts repeat exactly in a fresh process" if not mismatched
              else f"counts differ in a fresh process: {mismatched}")
    else:
        print(spans.format_table(metrics))
        print(f"op_samples  {len(m.latencies)}")
        if len(m.latencies) >= P95_MIN_SAMPLES:
            print(f"op_p95_ms   {1e3 * percentile(m.latencies, 95):.6f} ms")
        factors = m.speed.factors
        print(f"speed factor (reference {REFERENCE_S} s / "
              f"calibration loop): median {statistics.median(factors):.3f}, "
              f"range {min(factors):.3f}-{max(factors):.3f}, "
              f"{len(factors)} readings")
    rate = m.failed / m.attempted if m.attempted else 0.0
    print(f"error_rate  {rate:.6f} ratio ({m.failed} of {m.attempted} ops)")
    result = {"correct": correct, "attempted": m.attempted,
              "failed": m.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(WORK / f"result-{workload.name}-{args.seed}-trace{args.trace}"
                     ".json", "w") as f:
        json.dump({"meta": meta, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
