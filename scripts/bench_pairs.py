#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of two checkouts of lurwit.

    python3 scripts/bench_pairs.py BASE CHANGE --workload shots --seed 101 --pairs 10

Runs `perfbench/run.py --workload W --seed N --seconds S --trace 0` in the
BASE and CHANGE checkouts (for example a `git worktree` of the parent commit
and the working tree), one pair after another, alternating which side runs
first. S is the `run_seconds` of CHANGE's `BENCHMARK.json`, so every run is
as long as the benchmark's own. Both trees' bytecode is compiled first, so
that neither side recompiles its modules on import. Each run's result is read from the last
line of its stdout, a JSON object; nothing under `perfbench/` is changed.

Prints every pair, then for each end-to-end metric of CHANGE's
`BENCHMARK.json` the median and quartiles of both sides, the median change,
the base's interquartile range and the pairs the change won.
"""

from __future__ import annotations

import argparse
import json
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
    return parser.parse_args(argv)


def compile_tree(root: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=root, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in `root`: the JSON object on the last line of its stdout, with each
    metric's {"value", "unit"} replaced by its value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def benchmark_spec(root: Path) -> tuple:
    """The run length of `root`'s BENCHMARK.json, and {metric: True if higher is better} for its
    end-to-end metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    seconds, directions = benchmark_spec(sides["change"])
    for root in sides.values():
        compile_tree(root)
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, seconds))
        cells = "  ".join(
            f"{name} {runs['base'][-1]['metrics'][name]:.6g} -> {runs['change'][-1]['metrics'][name]:.6g}"
            for name in directions
        )
        failed = "  ".join(f"{side} failed {runs[side][-1]['failed']}/{runs[side][-1]['attempted']}"
                           for side in ("base", "change"))
        print(f"pair {i + 1} ({order[0]} first): {cells}  {failed}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s")
    for name, higher in directions.items():
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        gain = (c2 - b2) / b2 if b2 else float("nan")
        print(f"  {name:<12} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"median {gain:+.1%}  base IQR {b3 - b1:.3g}  change wins {wins}/{len(base)} "
              f"({'higher' if higher else 'lower'} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
