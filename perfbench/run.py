#!/usr/bin/env python3
"""lurwit's benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload {haar,sweep,shots,oneshot} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it measures the package in that checkout's
`src/`. With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass and the tracing slowdown against an
untraced pass of equal length. Human-readable lines come first; the last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The full record, with the environment, goes to
.perfbench-out/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import source

# one BLAS/OpenMP thread, so the numbers measure lurwit and not thread
# scheduling; `main` sets them before numpy loads, and setup probes inherit them
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("haar", "sweep", "shots", "oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of importing lurwit and setting up the
    workload, at the reference speed and raw."""
    import speed

    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, kernel = (float(v) for v in proc.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * speed.REFERENCE_S / kernel)
    return statistics.median(scaled), statistics.median(raw)


def commit_of(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(source.PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(source.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit_of(source.ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": THREAD_PINS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(args, workloads):
    setup_s, setup_raw = setup_seconds(args.workload, args.seed)
    with source.scratch_dir() as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        run = workloads.measure(workload, args.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput": (run.throughput, "items/s"),
        "call_ms_p50": (run.latency_ms(50), "ms"),
        "call_ms_p90": (run.latency_ms(90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "item": workload.item,
        "timed_calls": len(run.durations),
        "raw_setup_s": setup_raw,
        "raw_throughput": run.items / sum(run.durations),
        "raw_call_ms_p50": run.latency_ms(50, raw=True),
        "raw_call_ms_p90": run.latency_ms(90, raw=True),
        "speed_median": statistics.median(run.speeds),
        "speed_range": [min(run.speeds), max(run.speeds)],
        **workload.extra(),
    }
    return [run], metrics, notes


def per_layer(args, workloads):
    import tracing

    half = args.seconds / 2
    with source.scratch_dir() as tmp:
        plain = workloads.measure(workloads.WORKLOADS[args.workload](args.seed, tmp), half)
    tracer = tracing.Tracer()
    counters = tracing.LayerCounters()
    uninstall = tracing.instrument(tracer, counters)
    try:
        with source.scratch_dir() as tmp:
            workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
            traced = workloads.measure(workload, half, tracer)
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer, counters, traced)
    metrics["fp_rate"] = (workload.extra().get("fp_rate", 0.0), "share")
    metrics["tracing.slowdown"] = (plain.throughput / traced.throughput if traced.items else 0.0, "x")
    source.OUT_DIR.mkdir(exist_ok=True)
    spans = source.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans)
    notes = {
        "item": workload.item,
        "traced_calls": len(traced.durations),
        "untraced_throughput": plain.throughput,
        "traced_throughput": traced.throughput,
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(source.ROOT)),
    }
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    if not 0 < args.seconds <= 120:
        print("error: --seconds must be in (0, 120]", file=sys.stderr)
        return 2
    try:
        source.add_source_path()
        import lurwit

        source.check_imported(lurwit)
    except source.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    runs, metrics, notes = (per_layer if args.trace else end_to_end)(args, workloads)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    env = environment(args)

    print(f"workload {args.workload} (one item = one {notes['item']}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name:<58} {value}")
    print(f"  {'failed_frac':<58} {failed / attempted:>14.6g} ({failed} of {attempted} calls)")
    for problem in problems[:10]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {"env": env, "attempted": attempted, "failed": failed, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "problems": problems[:100]}
    source.OUT_DIR.mkdir(exist_ok=True)
    out = source.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
