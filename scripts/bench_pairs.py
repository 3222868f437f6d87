#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of two checkouts of lurwit.

    python3 scripts/bench_pairs.py BASE CHANGE --workload shots --seed 101 --pairs 10

Runs `perfbench/run.py --workload W --seed N --seconds S --trace 0` in the
BASE and CHANGE checkouts (for example a `git worktree` of the parent commit
and the working tree), one pair after another, alternating which side runs
first. S is the `run_seconds` of CHANGE's `BENCHMARK.json`, so every run is
as long as the benchmark's own. Every run compiles its tree's modules from
source, as a run in a fresh checkout does: the `__pycache__` directories
under the tree's `src/` and `perfbench/` are removed before it, and it runs
under PYTHONDONTWRITEBYTECODE=1, so it writes none. numpy and the standard
library keep their installed bytecode (an empty PYTHONPYCACHEPREFIX would
hide theirs too, and the setup probes would then time numpy's compilation).
Each run's result is read from the last line of its stdout, a JSON object;
no source file under `perfbench/` is changed.

Prints every pair, then for each end-to-end metric of CHANGE's
`BENCHMARK.json`, and for `raw_setup_s` (the run's setup time before
calibration, read from the record `perfbench/run.py` writes to
`.perfbench-out/`), the median and quartiles of both sides, the median
change, the base's interquartile range and the pairs the change won. `--record PATH`
also writes all of it as JSON: each side's commit (`git describe --dirty`)
and `src/lurwit` hash, the Python and numpy versions, the usable CPU count,
the workload, seed and run length, every pair, and the per-metric summary.
If a `src/lurwit` file of either tree changes during the runs, it exits
with an error instead of a summary: the runs then measured neither tree.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", type=Path, help="also write the runs and summary here as JSON")
    return parser.parse_args(argv)


def source_environment(root: Path) -> dict:
    """The environment of a run in `root` that compiles the tree's modules from source: their
    `__pycache__` directories removed, no bytecode written, no PYTHONPYCACHEPREFIX."""
    for top in ("src", "perfbench"):
        for cache in sorted((root / top).rglob("__pycache__")):
            shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in `root`, compiled from source: the JSON object on the last line of its
    stdout, with each metric's {"value", "unit"} replaced by its value. The metric `raw_setup_s` is
    added from the `notes` of the record the run writes to `.perfbench-out/`: its setup time before
    calibration."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=source_environment(root), capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    record = root / ".perfbench-out" / f"result-{workload}-seed{seed}-trace0.json"
    result["metrics"]["raw_setup_s"] = json.loads(record.read_text(encoding="utf-8"))["notes"]["raw_setup_s"]
    return result


def benchmark_spec(root: Path) -> tuple:
    """The run length of `root`'s BENCHMARK.json, and {metric: True if higher is better} for its
    end-to-end metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def source_hash(root: Path) -> str:
    """sha256 over the relative path and bytes of every `.py` file under `root`/src/lurwit."""
    digest = hashlib.sha256()
    package = root / "src" / "lurwit"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def commit(root: Path) -> str | None:
    """`git describe --always --dirty --abbrev=40` in `root`, or None unless `root` is the top of a
    git checkout (a copy inside another checkout is not that checkout's commit)."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    return git("describe", "--always", "--dirty", "--abbrev=40") if top and Path(top).resolve() == root else None


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(pairs: list, directions: dict) -> dict:
    """Per metric: both sides' median and quartiles, the median change, the base's IQR and the
    pairs the change won."""
    out = {}
    for name, higher in directions.items():
        base, change = ([p[side]["metrics"][name] for p in pairs] for side in ("base", "change"))
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        out[name] = {
            "better": "higher" if higher else "lower",
            "base": {"median": b2, "q1": b1, "q3": b3},
            "change": {"median": c2, "q1": c1, "q3": c3},
            "median_change": (c2 - b2) / b2 if b2 else None,
            "base_iqr": b3 - b1,
            "change_wins": sum((c > b) if higher else (c < b) for b, c in zip(base, change)),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    seconds, directions = benchmark_spec(sides["change"])
    directions["raw_setup_s"] = False  # a cross-check on setup_s, whose calibration moves between runs
    hashes = {side: source_hash(root) for side, root in sides.items()}
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, args.seed, seconds)
        pairs.append(pair)
        cells = "  ".join(
            f"{name} {pair['base']['metrics'][name]:.6g} -> {pair['change']['metrics'][name]:.6g}"
            for name in directions
        )
        failed = "  ".join(f"{side} failed {pair[side]['failed']}/{pair[side]['attempted']}" for side in sides)
        print(f"pair {i + 1} ({order[0]} first): {cells}  {failed}", flush=True)

    if hashes != {side: source_hash(root) for side, root in sides.items()}:
        # the runs compile the sources they find, so these runs measured neither tree
        sys.exit("error: a src/lurwit file changed during the runs; no summary or record is written")
    metrics = summary(pairs, directions)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s")
    for name, m in metrics.items():
        base, change = ("{median:.6g} [{q1:.6g}, {q3:.6g}]".format(**m[side]) for side in sides)
        gain = float("nan") if m["median_change"] is None else m["median_change"]
        print(f"  {name:<12} base {base}  change {change}  median {gain:+.1%}  "
              f"base IQR {m['base_iqr']:.3g}  change wins {m['change_wins']}/{args.pairs} "
              f"({m['better']} is better)")
    if args.record is not None:
        record = {
            "sides": {side: {"commit": commit(root), "src_lurwit_sha256": hashes[side]}
                      for side, root in sides.items()},
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "run_seconds": seconds,
            "pairs": pairs,
            "metrics": metrics,
        }
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
