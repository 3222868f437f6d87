"""The four benchmark workloads and the closed loop that runs them.

A workload turns its seed into cycles of calls. Every cycle holds the same
mix of call sizes, in a seed-dependent order and with seed-dependent
arguments, and a run measures whole cycles only, so each run times exactly
the same mix and its percentiles land inside one size class. Each call is
timed on its own, with the processor speed calibrated between calls (see
`speed`); its output is then collected and checked against the closed forms
in `reference`, outside the timed region.

See README.md in this directory for why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
import speed
from lurwit import cli, measurement, states

TOL = 1e-9  # agreement required between lurwit's output and the closed forms
BOUND_TOL = 1e-5  # `local_bound` is a grid search converged to ~1e-6
EDGE = 1e-6  # verdicts closer than this to their bound are not checked
DETECTED = "ENTANGLEMENT_DETECTED"
INCONCLUSIVE = "INCONCLUSIVE"

# output columns the checks read; outputs may carry more
SAMPLE_COLUMNS = ("sample", "l3", "ml3", "ppt_min_eig")
STUDY_COLUMNS = ("samples", "seed", "l3_mean", "ml3_mean", "l3_detect_fraction",
                 "ml3_detect_fraction", "ml3_only_count")
SWEEP_COLUMNS = ("p", "l2", "ml2", "l3", "ml3", "ppt_min_eig")
EVALUATE_COLUMNS = ("state", "l2", "ml2", "l3", "ml3", "ppt_min_eig",
                    "verdict_l2", "verdict_ml2", "verdict_l3", "verdict_ml3")
BOUND_COLUMNS = ("observables", "bound")
ESTIMATE_COLUMNS = ("l2", "l2_se", "ml2", "ml2_se", "l3", "l3_se", "ml3", "ml3_se")


class CheckFailed(AssertionError):
    """A call's output disagrees with its reference value."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(actual, expected, tol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.broadcast_to(np.asarray(expected, dtype=float), actual.shape)
    error = np.abs(actual - expected)
    if not np.all(error <= tol):  # also catches NaN
        worst = int(np.nanargmax(np.where(np.isnan(error), np.inf, error)))
        raise CheckFailed(
            f"{what}: got {actual.flat[worst]!r}, expected {expected.flat[worst]!r} (tol {tol})"
        )


def expect_count_between(reported: float, values: np.ndarray, total: int, what: str) -> None:
    """`reported` * total is the number of `values` below 4, up to values within EDGE of 4."""
    count = round(reported * total)
    low = int(np.sum(values < 4.0 - EDGE))
    high = int(np.sum(values < 4.0 + EDGE))
    expect(low <= count <= high, f"{what}: {count} of {total}, expected {low}..{high}")


@dataclass
class Call:
    """One timed call into lurwit, then the untimed collection and check of its output."""

    items: int  # work items the call completes
    run: Callable[[], Any]
    check: Callable[[Any], None]
    collect: Callable[[Any], Any] = lambda raw: raw


@dataclass
class CliOutput:
    code: int
    stdout: str
    files: dict[str, str]

    @property
    def out_bytes(self) -> int:
        return len(self.stdout.encode()) + sum(len(t.encode()) for t in self.files.values())


def cli_call(argv: list[str], items: int, outputs: dict[str, Path], check) -> Call:
    """`cli.main(argv)` with stdout captured; the files in `outputs` are read and removed."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def collect(raw) -> CliOutput:
        code, stdout = raw
        files = {}
        for name, path in outputs.items():
            files[name] = path.read_text(encoding="utf-8")
            path.unlink()
        return CliOutput(code, stdout, files)

    return Call(items, run, check, collect)


def parse_rows(text: str, fmt: str = "csv", columns=()) -> list[dict]:
    rows = json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
    expect(rows, "no rows in output")
    missing = [c for c in columns if c not in rows[0]]
    expect(not missing, f"output lacks columns {missing}")
    return rows


def column(rows, name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def expect_ok(out: CliOutput) -> None:
    expect(out.code == 0, f"exit code {out.code}")


class Workload:
    name: str
    item: str  # what one work item is, for throughput

    def cycle(self, index: int) -> list[Call]:
        raise NotImplementedError

    def extra(self) -> dict[str, float]:
        return {}


class Haar(Workload):
    """`haar-study` on rotated Bell states; one item is one sample."""

    name = "haar"
    item = "sample"
    KINDS = ("psi-", "psi+", "phi+", "phi-")

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.summary = tmp / "haar-summary.csv"
        self.samples = tmp / "haar-samples.csv"

    def cycle(self, index: int) -> list[Call]:
        # 16 small, 8 medium and 1 large study: p50 falls inside the small
        # class and p90 inside the medium one
        cases = [(8, k) for k in self.KINDS * 4] + [(64, k) for k in self.KINDS * 2]
        cases.append((512, self.KINDS[index % 4]))
        rng = random.Random(f"haar:{self.seed}:{index}")
        rng.shuffle(cases)
        calls = []
        for n, kind in cases:
            seed = rng.randrange(2**32)
            argv = ["haar-study", "--state", kind, "--samples", str(n), "--seed", str(seed),
                    "--out", str(self.summary), "--per-sample", str(self.samples)]
            outputs = {"summary": self.summary, "samples": self.samples}
            calls.append(cli_call(argv, n, outputs, partial(check_haar, kind, n, seed)))
        return calls


def check_haar(kind: str, n: int, seed: int, out: CliOutput) -> None:
    expect_ok(out)
    rows = parse_rows(out.files["samples"], columns=SAMPLE_COLUMNS)
    expect(len(rows) == n, f"{len(rows)} sample rows, expected {n}")
    expect([int(r["sample"]) for r in rows] == list(range(n)), "sample indices out of order")
    rho = ref.haar_rotated_bell(kind, seed, n)
    l3, ml3 = ref.witness_values(rho, ref.L3_AXES)
    expect_close(column(rows, "l3"), l3, TOL, "per-sample l3")
    expect_close(column(rows, "ml3"), ml3, TOL, "per-sample ml3")
    # every local rotation of a Bell state stays maximally entangled
    expect_close(column(rows, "ppt_min_eig"), -0.5, TOL, "per-sample ppt_min_eig")

    (summary,) = parse_rows(out.files["summary"], columns=STUDY_COLUMNS)
    expect(int(summary["samples"]) == n and int(summary["seed"]) == seed, "summary echoes wrong args")
    expect_close(float(summary["l3_mean"]), l3.mean(), TOL, "l3_mean")
    expect_close(float(summary["ml3_mean"]), ml3.mean(), TOL, "ml3_mean")
    expect_count_between(float(summary["l3_detect_fraction"]), l3, n, "l3 detections")
    expect_count_between(float(summary["ml3_detect_fraction"]), ml3, n, "ml3 detections")
    only = int(summary["ml3_only_count"])
    low = int(np.sum((ml3 < 4.0 - EDGE) & (l3 >= 4.0 + EDGE)))
    high = int(np.sum((ml3 < 4.0 + EDGE) & (l3 >= 4.0 - EDGE)))
    expect(low <= only <= high, f"ml3_only_count {only}, expected {low}..{high}")


class Sweep(Workload):
    """`sweep` over both noise families and all four Bell bases; one item is one grid point."""

    name = "sweep"
    item = "grid point"
    COMBOS = [(noise, base) for noise in ("werner", "polarized") for base in ("psi-", "psi+", "phi+", "phi-")]

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def cycle(self, index: int) -> list[Call]:
        # every (noise, base) pair twice at 11 points (once per format), once
        # at 101 points, and one pair in turn at 401 points: p50 falls inside
        # the small class and p90 inside the medium one
        cases = [(11, c, fmt) for c in self.COMBOS for fmt in ("csv", "json")]
        cases += [(101, c, ("csv", "json")[k % 2]) for k, c in enumerate(self.COMBOS)]
        cases.append((401, self.COMBOS[index % len(self.COMBOS)], "csv"))
        rng = random.Random(f"sweep:{self.seed}:{index}")
        rng.shuffle(cases)
        calls = []
        for n, (noise, base), fmt in cases:
            # half the grids include the edges p = 0 and p = 1
            p0 = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.4)
            p1 = 1.0 if rng.random() < 0.5 else rng.uniform(0.6, 1.0)
            path = self.tmp / f"sweep.{fmt}"
            argv = ["sweep", "--noise", noise, "--base", base, "--p-start", repr(p0),
                    "--p-stop", repr(p1), "--p-steps", str(n), "--format", fmt, "--out", str(path)]
            check = partial(check_sweep, noise, base, np.linspace(p0, p1, n), fmt)
            calls.append(cli_call(argv, n, {"out": path}, check))
        return calls


def check_sweep(noise: str, base: str, p: np.ndarray, fmt: str, out: CliOutput) -> None:
    expect_ok(out)
    rows = parse_rows(out.files["out"], fmt, SWEEP_COLUMNS)
    expect(len(rows) == len(p), f"{len(rows)} rows, expected {len(p)}")
    expect_close(column(rows, "p"), p, TOL, "grid p")
    rho = ref.werner(p, base) if noise == "werner" else ref.polarized(p, base)
    l2, ml2 = ref.witness_values(rho, ref.L2_AXES)
    l3, ml3 = ref.witness_values(rho, ref.L3_AXES)
    for name, values in (("l2", l2), ("ml2", ml2), ("l3", l3), ("ml3", ml3)):
        expect_close(column(rows, name), values, TOL, f"{noise} {base} {name}")
    if noise == "werner":
        expect_close(column(rows, "ppt_min_eig"), (1.0 - 3.0 * p) / 4.0, TOL, "werner ppt_min_eig")
    else:
        expect_close(column(rows, "ppt_min_eig"), ref.ppt_min_eigenvalue(rho), TOL, "polarized ppt_min_eig")
    if base == "psi-":
        expected = 6.0 - 6.0 * p if noise == "werner" else 4.0 - 4.0 * p
        expect_close(column(rows, "l3"), expected, TOL, f"{noise} psi- l3 closed form")


class Shots(Workload):
    """Finite-shot replicates at library level; one item is one replicate.

    Each replicate draws one count table per basis with `cli.simulate_counts`
    and estimates both witness families from them. |HH> and |H+> sit exactly
    on both separable bounds, so any detection on them is a false positive.
    """

    name = "shots"
    item = "replicate"
    SHOTS = (100, 1_000, 10_000, 100_000, 1_000_000)
    STATES = ("HH", "H+", "singlet", "werner:p=0.9", "u2-singlet")
    BOUNDARY = ("HH", "H+")
    MUST_DETECT = ("singlet", "werner:p=0.9")
    RECHECK_EVERY = 8  # replicates re-drawn to confirm identical tables

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        exact = {
            "HH": ref.projector(np.kron(ref.H, ref.H)),
            "H+": ref.projector(np.kron(ref.H, ref.PLUS)),
        }
        exact.update({s: ref.state_for_spec(s) for s in self.STATES[2:]})
        self.rho = {s: states.DensityMatrix(m) if s in self.BOUNDARY else states.parse_state_spec(s)
                    for s, m in exact.items()}
        axes = (ref.Z, ref.X, ref.Y)  # order of states.Basis
        self.probabilities = {s: [ref.outcome_probabilities(m, a) for a in axes] for s, m in exact.items()}
        self.boundary_detections = 0
        self.boundary_verdicts = 0

    def cycle(self, index: int) -> list[Call]:
        rng = random.Random(f"shots:{self.seed}:{index}")
        cases = [(s, n) for s in self.STATES for n in self.SHOTS]
        rng.shuffle(cases)
        calls = []
        for j, (state, shots) in enumerate(cases):
            replicate = index * len(cases) + j
            seed = (self.seed * 1_000_003 + replicate) % 2**63
            run = partial(replicate_once, self.rho[state], shots, seed)
            check = partial(self.check, state, shots, seed, replicate % self.RECHECK_EVERY == 0)
            calls.append(Call(1, run, check))
        return calls

    def check(self, state: str, shots: int, seed: int, recheck: bool, result) -> None:
        tables, two, three = result
        expect([t.basis for t in tables] == list(states.Basis), "tables not in basis order")
        for table, probs in zip(tables, self.probabilities[state]):
            counts = table.counts
            expect(counts.sum() == shots and np.all(counts >= 0), f"bad counts {counts}")
            # 8 binomial standard deviations per cell: a wrong distribution
            # fails, sampling noise practically never does
            sigma = np.sqrt(shots * np.clip(probs * (1.0 - probs), 0.0, None))
            expect(np.all(np.abs(counts - shots * probs) <= 8.0 * sigma + 2.0),
                   f"{state} {table.basis.value}: counts {counts} vs probabilities {probs}")
        expect(two.separable_bound == 2.0 and three.separable_bound == 4.0, "wrong separable bounds")
        for report in (two, three):
            values = (report.l_value, report.l_se, report.ml_value, report.ml_se)
            expect(all(math.isfinite(v) for v in values), f"non-finite estimate {values}")
        if state in self.MUST_DETECT:
            expect(three.verdict_l.value == DETECTED and three.verdict_ml.value == DETECTED,
                   f"{state} not detected by L3 and ML3 at {shots} shots")
        if state in self.BOUNDARY:
            verdicts = (two.verdict_l, two.verdict_ml, three.verdict_l, three.verdict_ml)
            self.boundary_detections += sum(v.value == DETECTED for v in verdicts)
            self.boundary_verdicts += len(verdicts)
        if recheck:
            again = cli.simulate_counts(self.rho[state], shots, seed)
            expect(all(np.array_equal(a.counts, b.counts) for a, b in zip(tables, again)),
                   "same seed gave different count tables")

    def extra(self) -> dict[str, float]:
        return {"fp_rate": self.boundary_detections / max(self.boundary_verdicts, 1)}


def replicate_once(rho, shots: int, seed: int):
    tables = cli.simulate_counts(rho, shots, seed)
    by_basis = {t.basis: t for t in tables}
    two = measurement.estimate_witnesses(
        [by_basis[states.Basis.LIN_0_90], by_basis[states.Basis.LIN_45_135]]
    )
    three = measurement.estimate_witnesses(tables)
    return tables, two, three


class Oneshot(Workload):
    """Single CLI commands as typed by a user; one item is one command."""

    name = "oneshot"
    item = "command"
    OBSERVABLES = ("sx", "sy", "sz")

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.file_rho = ref.random_mixed_state(np.random.default_rng(seed))
        path = tmp / "state.json"
        path.write_text(json.dumps({"dim": 4, "re": self.file_rho.real.tolist(),
                                    "im": self.file_rho.imag.tolist()}), encoding="utf-8")
        self.file_spec = f"file:{path}"

    def reference_state(self, spec: str) -> np.ndarray:
        return self.file_rho if spec == self.file_spec else ref.state_for_spec(spec)

    def cycle(self, index: int) -> list[Call]:
        # 11 evaluate + 7 bound + 7 simulate commands: 25 per cycle puts p50
        # and p90 in the middle of one command's latency block
        rng = random.Random(f"oneshot:{self.seed}:{index}")
        evaluate = ["singlet", "psi+", "psi-", "phi+", "phi-",
                    f"werner:p={rng.uniform(0, 1):.6f}", f"polarized:p={rng.uniform(0, 1):.6f}",
                    "u1-singlet", "u2-singlet", "u3-singlet", self.file_spec]
        simulate = ["singlet", "werner:p=0.9", "phi+", "u2-singlet", "psi+",
                    f"polarized:p={rng.uniform(0, 1):.6f}", self.file_spec]
        calls = [cli_call(["evaluate", "--state", s], 1, {}, partial(self.check_evaluate, s))
                 for s in evaluate]
        for mask in range(1, 8):
            tokens = [o for k, o in enumerate(self.OBSERVABLES) if mask >> k & 1]
            rng.shuffle(tokens)
            calls.append(cli_call(["bound", "--observables", ",".join(tokens)], 1, {},
                                  partial(check_bound, tokens)))
        for s in simulate:
            shots = rng.choice((100, 300, 1000))
            argv = ["simulate", "--state", s, "--shots", str(shots), "--seed", str(rng.randrange(2**31))]
            calls.append(cli_call(argv, 1, {}, partial(check_simulate, s, shots)))
        rng.shuffle(calls)
        return calls

    def check_evaluate(self, spec: str, out: CliOutput) -> None:
        expect_ok(out)
        (row,) = parse_rows(out.stdout, columns=EVALUATE_COLUMNS)
        expect(row["state"] == spec, f"state echoed as {row['state']!r}")
        rho = self.reference_state(spec)
        expect_close(float(row["ppt_min_eig"]), ref.ppt_min_eigenvalue(rho), TOL, f"{spec} ppt_min_eig")
        for family, axes in (("2", ref.L2_AXES), ("3", ref.L3_AXES)):
            bound = ref.BOUNDS["L" + family]
            for prefix, value in zip(("l", "ml"), ref.witness_values(rho, axes)):
                name = prefix + family
                expect_close(float(row[name]), value, TOL, f"{spec} {name}")
                if abs(value - bound) > EDGE:
                    verdict = DETECTED if value < bound else INCONCLUSIVE
                    expect(row["verdict_" + name] == verdict, f"{spec} verdict_{name} {row['verdict_' + name]}")


def check_bound(tokens: list[str], out: CliOutput) -> None:
    expect_ok(out)
    (row,) = parse_rows(out.stdout, columns=BOUND_COLUMNS)
    expect(row["observables"] == "+".join(tokens), f"observables echoed as {row['observables']!r}")
    # sum of k Pauli variances is k - |r|^2 restricted to their axes, at least k - 1
    expect_close(float(row["bound"]), len(tokens) - 1, BOUND_TOL, f"bound {'+'.join(tokens)}")


def check_simulate(spec: str, shots: int, out: CliOutput) -> None:
    expect_ok(out)
    (row,) = parse_rows(out.stdout, columns=("state", "shots") + ESTIMATE_COLUMNS)
    expect(row["state"] == spec and int(row["shots"]) == shots, "simulate echoes wrong args")
    values = {c: float(row[c]) for c in ESTIMATE_COLUMNS}
    expect(all(math.isfinite(v) for v in values.values()), f"non-finite estimate {values}")
    expect(all(values[c] >= 0.0 for c in values if c.endswith("_se")), "negative standard error")
    expect(-TOL <= values["l2"] <= 8 + TOL and -TOL <= values["l3"] <= 12 + TOL, "L out of range")
    expect(values["ml2"] >= -TOL and values["ml3"] >= -TOL, "ML below 0")
    if spec in Shots.MUST_DETECT:
        expect(values["l3"] < 4.0 and values["ml3"] < 4.0, f"{spec} not detected at {shots} shots")


WORKLOADS = {w.name: w for w in (Haar, Sweep, Shots, Oneshot)}


@dataclass
class RunResult:
    durations: list = field(default_factory=list)  # raw seconds per timed call
    scaled: list = field(default_factory=list)  # the same at the reference speed, see speed.py
    speeds: list = field(default_factory=list)  # REFERENCE_S / kernel time, per calibration
    items: int = 0  # work items completed by timed calls that passed their check
    out_bytes: int = 0  # CLI output of timed calls
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Work items per second of timed calls, at the reference speed."""
        return self.items / sum(self.scaled)

    def latency_ms(self, q: int, raw: bool = False) -> float:
        """q-th percentile of call latency, at the reference speed unless `raw`."""
        return statistics.quantiles(self.durations if raw else self.scaled, n=100)[q - 1] * 1e3


def measure(workload: Workload, seconds: float, tracer=None, perturb=None) -> RunResult:
    """Run cycle 0 as warm-up, then whole cycles until `seconds` have passed.

    One caller, one call at a time (closed loop). Every call is checked,
    warm-up included; only calls after warm-up are timed, and the processor
    speed is calibrated between them. With a tracer, spans are recorded
    during the timed calls only. `perturb`, given a collected output,
    returns a changed one; the checker's self-test uses it.
    """
    result = RunResult()
    for call in workload.cycle(0):
        run_call(call, result, None, perturb, f"{workload.name} cycle 0")
    calibrator = speed.Calibrator()
    marks = []
    start = time.perf_counter()
    index = 1
    while index == 1 or time.perf_counter() - start < seconds:
        for call in workload.cycle(index):
            marks.append(calibrator.mark())
            elapsed, output = run_call(call, result, tracer, perturb, f"{workload.name} cycle {index}")
            result.durations.append(elapsed)
            if output is not None:
                result.items += call.items
                result.out_bytes += getattr(output, "out_bytes", 0)
        index += 1
    calibrator.calibrate()  # closes the interval of the last calls
    result.scaled = [d * calibrator.scale(m) for d, m in zip(result.durations, marks)]
    result.speeds = [speed.REFERENCE_S / k for k in calibrator.samples]
    return result


def run_call(call: Call, result: RunResult, tracer, perturb, where: str):
    """Time one call, then check it; returns (seconds, checked output, or None if it failed)."""
    result.attempted += 1
    run = call.run if tracer is None else tracer.wrap("item", call.run)
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        raw = run()
    except (Exception, SystemExit) as exc:  # argparse exits on arguments it rejects
        raw = exc
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    try:
        if isinstance(raw, BaseException):
            raise CheckFailed(f"call raised {raw!r}")
        output = call.collect(raw)
        if perturb is not None:
            output = perturb(output)
        call.check(output)
    except Exception as exc:  # any failure of the call or its check is a failed call
        result.failed += 1
        result.problems.append(f"{where}: {exc}")
        return elapsed, None
    return elapsed, output
