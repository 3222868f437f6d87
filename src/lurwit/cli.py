"""Command-line front end.

Subcommands: `evaluate` one state, `sweep` a noise family over a p grid,
`haar-study` detection rates under random local rotations, `simulate` a
finite-shot counting experiment, and `bound` for the minimized single-party
variance bound. Output is CSV (default) or JSON, to stdout or --out; runs
are bit-identical for identical arguments and seed.

`main(argv)` may be called many times in one process: the argument parser
is built on the first call and shared by every later one.

Exit codes: 0 success, 2 usage or input error, 3 internal numerical error,
141 (128 + SIGPIPE) when the reader of the output closes it early, as
`| head` does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import measurement, rng, states, witness
from .linalg import NumericsError

SWEEP_COLUMNS = ("p", "l2", "ml2", "l3", "ml3", "ppt_min_eig")
EVALUATE_COLUMNS = (
    "state",
    "l2",
    "ml2",
    "l3",
    "ml3",
    "ppt_min_eig",
    "verdict_l2",
    "verdict_ml2",
    "verdict_l3",
    "verdict_ml3",
)
SIMULATE_COLUMNS = (
    "state",
    "shots",
    "l2",
    "l2_se",
    "ml2",
    "ml2_se",
    "l3",
    "l3_se",
    "ml3",
    "ml3_se",
)
STUDY_COLUMNS = (
    "samples",
    "seed",
    "l3_mean",
    "ml3_mean",
    "l3_detect_fraction",
    "ml3_detect_fraction",
    "ml3_only_count",
)
SAMPLE_COLUMNS = ("sample", "l3", "ml3", "ppt_min_eig")
BOUND_COLUMNS = ("observables", "bound")

_OBSERVABLE_TOKENS = {"sx": states.SX, "sy": states.SY, "sz": states.SZ}

STACK_CHUNK = 4096  # states per stacked kernel pass in `run_sweep` and `run_haar_study`


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _column_rows(columns: dict):
    """Row dicts, made one at a time, from equal-length column arrays."""
    n = len(next(iter(columns.values())))
    for start in range(0, n, STACK_CHUNK):
        block = (v[start:start + STACK_CHUNK].tolist() for v in columns.values())
        yield from (dict(zip(columns, r)) for r in zip(*block))


def _csv_lines(rows, columns):
    yield ",".join(columns) + "\n"
    for r in rows:
        yield ",".join(_format_value(r[c]) for c in columns) + "\n"


def _json_lines(rows, columns):
    # the text of json.dumps(list_of_rows, indent=2), one row at a time: each
    # row's own indented text, shifted one level in
    encoder = json.JSONEncoder(indent=2)
    sep = "[\n  "
    for r in rows:
        yield sep + encoder.encode({c: r[c] for c in columns}).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _write_rows(rows, columns, fmt: str, path: str | None) -> None:
    """Write rows as CSV or JSON text, streamed: no whole document is held in memory."""
    lines = (_json_lines if fmt == "json" else _csv_lines)(rows, columns)
    if path is None:
        sys.stdout.writelines(lines)
        sys.stdout.flush()  # a closed pipe shows here, inside `main`'s error handling
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)


def _full_report(rho: states.DensityMatrix) -> dict:
    sets = witness.standard_sets()
    r2 = witness.evaluate(rho, sets["L2"])
    r3 = witness.evaluate(rho, sets["L3"])
    return {
        "l2": r2.l_value,
        "ml2": r2.ml_value,
        "l3": r3.l_value,
        "ml3": r3.ml_value,
        "ppt_min_eig": witness.ppt_min_eigenvalue(rho),
        "verdict_l2": r2.verdict_l.value,
        "verdict_ml2": r2.verdict_ml.value,
        "verdict_l3": r3.verdict_l.value,
        "verdict_ml3": r3.verdict_ml.value,
    }


def run_evaluate(args: argparse.Namespace):
    rho = states.parse_state_spec(args.state)
    row = {"state": args.state, **_full_report(rho)}
    return [row], EVALUATE_COLUMNS


def run_sweep(args: argparse.Namespace):
    """Witness values and the PPT minimum over a noise-mixture grid.

    The grid is evaluated in stacked chunks of STACK_CHUNK points; each row
    depends only on its p, so the rows do not depend on the chunk size.
    Every chunk is finished before this returns; the rows come back as an
    iterator of dicts, made one at a time from the result columns.
    """
    try:
        kind = states.NoiseKind(args.noise)
    except ValueError:
        raise ValueError(f"unknown noise family {args.noise!r}; expected werner or polarized")
    if args.p_steps < 2:
        raise ValueError("need at least 2 grid points")
    grid = np.linspace(args.p_start, args.p_stop, args.p_steps)
    sets = witness.standard_sets()
    chunks = []
    for start in range(0, len(grid), STACK_CHUNK):
        stack = states.noise_mixtures(grid[start:start + STACK_CHUNK], kind, base=args.base)
        l2, ml2 = witness.evaluate_many(stack, sets["L2"])
        l3, ml3 = witness.evaluate_many(stack, sets["L3"])
        chunks.append((l2, ml2, l3, ml3, witness.ppt_min_eigenvalues(stack)))
    values = (grid, *(np.concatenate(c) for c in zip(*chunks)))
    return _column_rows(dict(zip(SWEEP_COLUMNS, values))), SWEEP_COLUMNS


def run_haar_study(kind: str, samples: int, seed: int):
    """Detection-rate study: random local rotations of a Bell state.

    Returns the summary row and the per-sample columns, arrays keyed by
    SAMPLE_COLUMNS. Sample i uses the stream keyed (seed, i), so any subset
    of samples can be recomputed independently and concurrently. Samples
    are evaluated in stacked chunks of STACK_CHUNK (one kernel pass each);
    each row depends only on (seed, i), so the rows do not depend on the
    chunk size.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    l3_set = witness.standard_sets()["L3"]
    bound = l3_set.separable_bound
    chunks = []
    l3_detect = ml3_detect = ml3_only = 0
    for start in range(0, samples, STACK_CHUNK):
        indices = range(start, min(start + STACK_CHUNK, samples))
        stack = states.haar_rotated_bell_states(kind, seed, indices)
        l3, ml3 = witness.evaluate_many(stack, l3_set)
        chunks.append((l3, ml3, witness.ppt_min_eigenvalues(stack)))
        l_hit = witness.detected(l3, bound)
        ml_hit = witness.detected(ml3, bound)
        l3_detect += int(np.count_nonzero(l_hit))
        ml3_detect += int(np.count_nonzero(ml_hit))
        ml3_only += int(np.count_nonzero(ml_hit & ~l_hit))
    values = (np.arange(samples), *(np.concatenate(c) for c in zip(*chunks)))
    columns = dict(zip(SAMPLE_COLUMNS, values))
    summary = {
        "samples": samples,
        "seed": seed,
        # sums in sample order (cumsum, not pairwise np.sum), as a running total adds them
        "l3_mean": float(np.cumsum(columns["l3"])[-1]) / samples,
        "ml3_mean": float(np.cumsum(columns["ml3"])[-1]) / samples,
        "l3_detect_fraction": l3_detect / samples,
        "ml3_detect_fraction": ml3_detect / samples,
        "ml3_only_count": ml3_only,
    }
    return summary, columns


def run_study_command(args: argparse.Namespace):
    kind = "psi-" if args.state == "singlet" else args.state
    if kind not in states.BELL_KINDS:
        raise ValueError(f"haar-study expects a Bell state, got {args.state!r}")
    summary, columns = run_haar_study(kind, args.samples, args.seed)
    if args.per_sample is not None:
        _write_rows(_column_rows(columns), SAMPLE_COLUMNS, args.fmt, args.per_sample)
    return [summary], STUDY_COLUMNS


def simulate_counts(rho: states.DensityMatrix, shots: int, seed: int):
    """One count table per basis, in `Basis` order; basis i draws from stream (seed, i)."""
    measurement.check_shots(shots)
    probs = measurement.outcome_probabilities(rho)
    return [
        measurement.CountTable(basis, rng.stream(seed, i).multinomial(shots, p))
        for i, (basis, p) in enumerate(zip(states.Basis, probs))
    ]


def run_simulate(args: argparse.Namespace):
    if args.shots < 2:
        raise ValueError("need at least 2 shots per basis to estimate a variance")
    rho = states.parse_state_spec(args.state)
    tables = simulate_counts(rho, args.shots, args.seed)
    by_basis = {t.basis: t for t in tables}
    two = measurement.estimate_witnesses(
        [by_basis[states.Basis.LIN_0_90], by_basis[states.Basis.LIN_45_135]]
    )
    three = measurement.estimate_witnesses(tables)
    row = {
        "state": args.state,
        "shots": args.shots,
        "l2": two.l_value,
        "l2_se": two.l_se,
        "ml2": two.ml_value,
        "ml2_se": two.ml_se,
        "l3": three.l_value,
        "l3_se": three.l_se,
        "ml3": three.ml_value,
        "ml3_se": three.ml_se,
    }
    return [row], SIMULATE_COLUMNS


def run_bound(args: argparse.Namespace):
    tokens = [t.strip() for t in args.observables.split(",") if t.strip()]
    if not tokens:
        raise ValueError("need at least one observable (from sx, sy, sz)")
    try:
        obs = [_OBSERVABLE_TOKENS[t] for t in tokens]
    except KeyError as exc:
        raise ValueError(f"unknown observable {exc.args[0]!r}; expected sx, sy or sz") from exc
    value = witness.local_bound(obs)
    return [{"observables": "+".join(tokens), "bound": value}], BOUND_COLUMNS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lurwit` argument parser, built on the first call and shared after it.

    Every call returns the same parser, so callers must not change it.
    Sharing it is safe: `parse_args` leaves the parser as it was and makes
    a fresh namespace each time, and usage, error and help text are
    formatted when they are printed. `build_parser.__wrapped__()` builds a
    fresh parser.
    """
    parser = argparse.ArgumentParser(
        prog="lurwit",
        description="Uncertainty-sum entanglement witnesses for two-qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        p.set_defaults(run=run)

    p = sub.add_parser("evaluate", help="exact witness values for one state")
    p.add_argument("--state", required=True, help='state spec, e.g. "singlet" or "werner:p=0.5"')
    add_common(p, run_evaluate)

    p = sub.add_parser("sweep", help="witness values over a noise-mixture grid")
    p.add_argument("--noise", required=True, help="noise family: werner or polarized")
    p.add_argument("--base", default="psi-", help="Bell state mixed with the noise")
    p.add_argument("--p-start", type=float, default=0.0)
    p.add_argument("--p-stop", type=float, default=1.0)
    p.add_argument("--p-steps", type=int, default=101)
    add_common(p, run_sweep)

    p = sub.add_parser("haar-study", help="detection rates under Haar-random local rotations")
    p.add_argument("--state", default="psi-", help="Bell state to rotate")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-sample", default=None, help="also write one row per sample here")
    add_common(p, run_study_command)

    p = sub.add_parser("simulate", help="finite-shot coincidence-count estimate")
    p.add_argument("--state", required=True)
    p.add_argument("--shots", type=int, required=True, help="shots per basis")
    p.add_argument("--seed", type=int, default=0)
    add_common(p, run_simulate)

    p = sub.add_parser("bound", help="minimized single-party variance bound")
    p.add_argument("--observables", required=True, help="comma-separated from sx, sy, sz")
    add_common(p, run_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, columns = args.run(args)
        _write_rows(rows, columns, args.fmt, args.out)
    except BrokenPipeError:
        _detach_closed_stdout()
        return 141
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


def _detach_closed_stdout() -> None:
    """Point a stdout whose reader has gone at os.devnull.

    Output still buffered for a closed pipe would otherwise raise again in
    the flush at interpreter exit. Only a stream with a real file descriptor
    can be the closed pipe, so an in-memory stdout is left alone.
    """
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def console_main() -> None:
    raise SystemExit(main())
