#!/usr/bin/env python3
"""Sweep both noise families over p and write CSVs for plotting.

Werner noise: the plain three-basis witness crosses its bound 4 exactly
where the partial transpose goes negative (p = 1/3). Polarized noise: both
cross at p = 0, so every p > 0 is detected.
"""

import argparse
from pathlib import Path

from lurwit.cli import main as lurwit_main


def run(outdir: Path, steps: int) -> int:
    """Write one CSV per family; the `lurwit` exit code of the first that fails, else 0."""
    outdir.mkdir(parents=True, exist_ok=True)
    for family in ("werner", "polarized"):
        out = outdir / f"{family}_sweep.csv"
        code = lurwit_main(
            [
                "sweep", "--noise", family,
                "--p-start", "0", "--p-stop", "1", "--p-steps", str(steps),
                "--out", str(out),
            ]
        )
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--steps", type=int, default=101)
    args = parser.parse_args()
    raise SystemExit(run(args.outdir, args.steps))
