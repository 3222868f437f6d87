import argparse
import contextlib
import csv
import errno
import importlib.util
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lurwit import cli, measurement, rng, states
from lurwit.cli import SAMPLE_COLUMNS, STACK_CHUNK, SWEEP_COLUMNS, main, run_haar_study
from oracles import (
    haar_study_reference,
    outcome_probabilities_brute,
    sweep_reference,
    write_rows_reference,
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


def test_evaluate_singlet(capsys):
    code, out, _ = _run(capsys, ["evaluate", "--state", "singlet"])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["l3"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["ml3"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["ppt_min_eig"]) == pytest.approx(-0.5, abs=1e-9)
    assert row["verdict_l3"] == "ENTANGLEMENT_DETECTED"


def test_evaluate_u1_and_u2_fixtures(capsys):
    code, out, _ = _run(capsys, ["evaluate", "--state", "u1-singlet"])
    row = _parse_csv(out)[0]
    assert code == 0
    assert float(row["l3"]) == pytest.approx(6.0, abs=1e-9)
    assert float(row["ml3"]) == pytest.approx(6.0, abs=1e-9)

    code, out, _ = _run(capsys, ["evaluate", "--state", "u2-singlet"])
    row = _parse_csv(out)[0]
    assert code == 0
    assert float(row["l2"]) == pytest.approx(3.0, abs=1e-9)
    assert float(row["ml2"]) == pytest.approx(1.0, abs=1e-9)


def test_evaluate_unknown_state_exits_2(capsys):
    code, out, err = _run(capsys, ["evaluate", "--state", "glorp"])
    assert code == 2
    assert out == ""
    assert "glorp" in err


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = _run(capsys, ["evaluate", "--state", "singlet", "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:")
    assert not out.exists()


def test_unwritable_out_path_removes_the_per_sample_file(tmp_path, capsys):
    # the per-sample file is written first, and removed when --out then fails
    per_sample, out = tmp_path / "s.csv", tmp_path / "missing" / "x.csv"
    argv = ["haar-study", "--samples", "10", "--per-sample", str(per_sample), "--out", str(out)]
    code, stdout, err = _run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not per_sample.exists() and not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_input_too_large_for_memory_exits_2(tmp_path):
    # an address-space limit makes the grid's allocation fail at once, whatever
    # the machine's memory; one BLAS thread keeps the start-up inside the limit
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "lurwit", "sweep", "--noise", "werner",
         "--p-steps", "100000000000", "--out", "x.csv"],
        cwd=tmp_path,
        env={**_subprocess_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["sweep", "--noise", "werner", "--p-steps", "5000", "--out", "big.csv"], ["big.csv"]),
        (["haar-study", "--samples", "2000", "--format", "json",
          "--per-sample", "samples.json", "--out", "study.json"], ["samples.json", "study.json"]),
    ],
)
def test_failed_write_leaves_no_partial_file(argv, outputs, tmp_path):
    # past the size limit the write fails with EFBIG (CPython ignores SIGXFSZ)
    proc = subprocess.run(
        [sys.executable, "-m", "lurwit", *argv],
        cwd=tmp_path,
        env=_subprocess_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024, 64 * 1024)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and os.strerror(errno.EFBIG) in proc.stderr
    assert not any((tmp_path / name).exists() for name in outputs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--state", "singlet"],  # a one-row block
        ["sweep", "--noise", "werner", "--p-steps", "3000"],  # a 3,000-row block
    ],
)
def test_failed_write_to_a_device_leaves_the_device(argv, capsys):
    code, out, err = _run(capsys, [*argv, "--out", "/dev/full"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and os.strerror(errno.ENOSPC) in err
    assert stat.S_ISCHR(os.lstat("/dev/full").st_mode)


@pytest.mark.parametrize("name", ["a,b.json", 'q"x.json'])
def test_csv_quotes_string_cells(name, tmp_path, capsys):
    path = tmp_path / name
    rho = np.eye(4) / 4.0
    path.write_text(json.dumps({"dim": 4, "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
    spec = f"file:{path}"
    for argv, names in (
        (["evaluate", "--state", spec], cli.EVALUATE_COLUMNS),
        (["simulate", "--state", spec, "--shots", "100"], cli.SIMULATE_COLUMNS),
    ):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        # RFC 4180: the cell is quoted and its quotes doubled
        assert out.splitlines()[1].startswith('"' + spec.replace('"', '""') + '",')
        [row] = _parse_csv(out)
        assert list(row) == list(names)  # a cell split in two would add a column
        assert row["state"] == spec
        assert float(row["l2"]) >= 0.0
    assert row["shots"] == "100"


def test_evaluate_density_file(tmp_path, capsys):
    rho = np.eye(4) / 4.0
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"dim": 4, "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
    code, out, _ = _run(capsys, ["evaluate", "--state", f"file:{path}"])
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["l3"]) == pytest.approx(6.0, abs=1e-9)


def test_evaluate_invalid_density_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 4, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}))
    code, _, err = _run(capsys, ["evaluate", "--state", f"file:{path}"])
    assert code == 2
    assert "trace" in err

    code, _, _ = _run(capsys, ["evaluate", "--state", "file:/no/such/file.json"])
    assert code == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    bad_im = tmp_path / "bad_im.json"
    bad_im.write_text(json.dumps({"dim": 4, "re": (np.eye(4) / 4.0).tolist(), "im": "x"}))
    deep = tmp_path / "deep.json"  # nested past the recursion limit of the JSON decoder
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for path in (garbled, "/dev/null", bad_im, deep):
        code, out, err = _run(capsys, ["evaluate", "--state", f"file:{path}"])
        assert code == 2
        assert out == ""
        assert str(path) in err

    # an infinite entry is refused before re and im are combined, so no numpy
    # warning reaches stderr ahead of the error line
    overflow = tmp_path / "overflow.json"
    text = json.dumps({"dim": 4, "re": (np.eye(4) / 4.0).tolist(), "im": np.zeros((4, 4)).tolist()})
    overflow.write_text(text.replace('"im": [[0.0', '"im": [[1e400'))
    proc = subprocess.run(
        [sys.executable, "-m", "lurwit", "evaluate", "--state", f"file:{overflow}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "must be finite" in proc.stderr


@pytest.mark.parametrize(
    "entry, message",
    [("0.25", "not strings or booleans"), (True, "not strings or booleans"), (10**400, "must be finite")],
    ids=["string", "boolean", "integer past the float range"],
)
def test_evaluate_rejects_a_density_file_entry_that_is_no_float(entry, message, tmp_path, capsys):
    re_part = (np.eye(4) / 4.0).tolist()
    re_part[0][0] = entry
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"dim": 4, "re": re_part, "im": np.zeros((4, 4)).tolist()}))
    code, out, err = _run(capsys, ["evaluate", "--state", f"file:{path}"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: density file {str(path)!r}: ") and message in err and err.count("\n") == 1


# a matrix past each `DensityMatrix` invariant, the invariant's text and its tolerance
INVALID_DENSITIES = [
    (np.eye(4) / 4.0 + 0.1 * np.eye(4, k=1), "is not Hermitian", "1e-10"),
    (np.diag([0.7, 0.5, 0.0, 0.0]), "trace is not 1", "1e-10"),
    (np.diag([0.5, 0.5, 0.5, -0.5]), "has a negative eigenvalue", "1e-09"),
]


@pytest.mark.parametrize("matrix, what, tol", INVALID_DENSITIES, ids=["hermitian", "trace", "psd"])
def test_evaluate_names_the_failed_invariant_of_a_density_file(matrix, what, tol, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 4, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}))
    code, out, err = _run(capsys, ["evaluate", "--state", f"file:{path}"])
    assert code == 2
    assert out == ""
    prefix = re.escape(f"error: density file {str(path)!r}: density matrix {what} for ")
    assert re.fullmatch(rf"{prefix}.*: deviation \S+ > {tol}\n", err)


_COMMANDS = {
    "evaluate": ["evaluate", "--state", "werner:p=0.5"],
    "sweep": ["sweep", "--noise", "polarized", "--p-steps", "7"],
    "haar-study": ["haar-study", "--samples", "5", "--seed", str(2**64 - 1)],
    "haar-study per-sample": ["haar-study", "--samples", "5", "--per-sample", "samples.csv"],
    "simulate": ["simulate", "--state", "singlet", "--shots", "10", "--seed", str(2**63 + 5)],
    "bound": ["bound", "--observables", "sx,sz"],
}


@pytest.mark.parametrize("argv", _COMMANDS.values(), ids=_COMMANDS.keys())
def test_every_output_column_is_a_typed_array(argv):
    args = cli._parse_args(argv)
    for columns, names, _ in args.run(args):
        assert list(columns) == list(names)
        assert {type(c) for c in columns.values()} == {np.ndarray}
        assert {c.dtype.kind for c in columns.values()} <= set("fiuU")
        assert len({len(c) for c in columns.values()}) == 1
        if "seed" in columns:  # a uint64 column from 2**63 on
            assert columns["seed"].tolist() == [args.seed]


def test_sweep_werner_grid(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys,
        [
            "sweep", "--noise", "werner",
            "--p-start", "0", "--p-stop", "1", "--p-steps", "7",
            "--out", str(out_path),
        ],
    )
    assert code == 0
    rows = _parse_csv(out_path.read_text())
    assert len(rows) == 7
    ps = [float(r["p"]) for r in rows]
    assert ps == sorted(ps)
    third = rows[2]  # p = 1/3 on this grid
    assert float(third["p"]) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(third["l3"]) == pytest.approx(4.0, abs=1e-9)
    assert float(third["ppt_min_eig"]) == pytest.approx(0.0, abs=1e-9)
    last = rows[-1]
    assert float(last["l3"]) == pytest.approx(0.0, abs=1e-9)


def test_sweep_polarized_grid(capsys):
    code, out, _ = _run(
        capsys,
        ["sweep", "--noise", "polarized", "--p-start", "0.01", "--p-stop", "1", "--p-steps", "34"],
    )
    assert code == 0
    for row in _parse_csv(out):
        assert float(row["l3"]) < 4.0
        assert float(row["ppt_min_eig"]) < 0.0


def test_sweep_unknown_family_exits_2(capsys):
    code, _, err = _run(capsys, ["sweep", "--noise", "gaussian"])
    assert code == 2
    assert "gaussian" in err


def test_sweep_with_base_bell_state(capsys):
    code, out, _ = _run(
        capsys,
        ["sweep", "--noise", "werner", "--base", "phi+", "--p-steps", "3"],
    )
    assert code == 0
    rows = _parse_csv(out)
    # modified witness detects the phi+ mixture just like the singlet one
    assert float(rows[-1]["ml3"]) == pytest.approx(0.0, abs=1e-9)


def _sweep_args(noise, base, p_start, p_stop, p_steps):
    return cli.build_parser().parse_args(
        ["sweep", "--noise", noise, "--base", base, "--p-start", str(p_start),
         "--p-stop", str(p_stop), "--p-steps", str(p_steps)]
    )


def _row_bytes(rows, columns):
    return np.array([[r[c] for c in columns] for r in rows]).tobytes()  # bits, so -0.0 != 0.0


def _column_bytes(columns, names):
    """`_row_bytes` of the same table held as columns."""
    return np.column_stack([columns[c] for c in names]).tobytes()


def _chunk_sizes(chunk):
    return (2, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)


@pytest.mark.parametrize("noise", ["werner", "polarized"])
@pytest.mark.parametrize("base", ["psi+", "psi-", "phi+", "phi-"])
def test_sweep_matches_per_point_loop(noise, base, monkeypatch):
    # a small chunk puts every chunk boundary case on a short grid
    monkeypatch.setattr(cli, "STACK_CHUNK", 5)
    for p_steps in _chunk_sizes(cli.STACK_CHUNK):
        [(columns, names, _)] = cli.run_sweep(_sweep_args(noise, base, 0.0, 1.0, p_steps))
        assert names == SWEEP_COLUMNS
        want = sweep_reference(noise, base, 0.0, 1.0, p_steps)
        assert _column_bytes(columns, names) == _row_bytes(want, names)


def test_sweep_matches_per_point_loop_at_full_chunks():
    # STACK_CHUNK-sized stacks: two full chunks and a short one
    p_steps = _chunk_sizes(STACK_CHUNK)[-1]
    [(columns, names, _)] = cli.run_sweep(_sweep_args("polarized", "phi-", 0.0, 1.0, p_steps))
    want = sweep_reference("polarized", "phi-", 0.0, 1.0, p_steps)
    assert _column_bytes(columns, names) == _row_bytes(want, names)


def _value_cells(text, fmt):
    """The `l2` ... `ppt_min_eig` cells of each row of a CSV or JSON document, as printed."""
    if fmt == "json":  # each number is printed as its repr, which json reads back exactly
        return [[repr(row[name]) for name in SWEEP_COLUMNS[1:]] for row in json.loads(text)]
    # in both commands' CSV the value cells follow the first cell (p or state)
    return [line.split(",")[1:len(SWEEP_COLUMNS)] for line in text.splitlines()[1:]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("noise", ["werner", "polarized"])
@pytest.mark.parametrize("span", [(0.0, 1.0), (0.01, 0.99)], ids=["endpoints", "interior"])
def test_evaluate_prints_the_sweep_row_of_its_p(span, noise, fmt, capsys):
    # one point of a sweep and `evaluate` of that state print the same value cells
    for p_steps in (7, 11, 101, 257):
        code, out, _ = _run(capsys, ["sweep", "--noise", noise, "--p-start", repr(span[0]),
                                     "--p-stop", repr(span[1]), "--p-steps", str(p_steps), "--format", fmt])
        assert code == 0
        rows = _value_cells(out, fmt)
        for p, row in zip(np.linspace(*span, p_steps).tolist(), rows, strict=True):
            code, out, _ = _run(capsys, ["evaluate", "--state", f"{noise}:p={p!r}", "--format", fmt])
            assert code == 0
            assert _value_cells(out, fmt) == [row], (noise, p_steps, p)


def test_noise_sweep_script_output_does_not_depend_on_chunking(tmp_path, monkeypatch):
    # the study script end to end on a grid of three STACK_CHUNK-sized chunks,
    # against the same files written in chunks of 7
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_noise_sweeps.py"
    spec = importlib.util.spec_from_file_location("run_noise_sweeps", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    steps = 2 * STACK_CHUNK + 3
    script.run(tmp_path / "full", steps)
    monkeypatch.setattr(cli, "STACK_CHUNK", 7)
    script.run(tmp_path / "small", steps)
    for family in ("werner", "polarized"):
        full = (tmp_path / "full" / f"{family}_sweep.csv").read_bytes()
        assert full.count(b"\n") == steps + 1
        assert full == (tmp_path / "small" / f"{family}_sweep.csv").read_bytes()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_noise_sweep_script_exits_with_the_failing_code(flags, tmp_path):
    # `python -O` strips asserts, so the script must not rest on one to see a failure
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_noise_sweeps.py"
    proc = subprocess.run(
        [sys.executable, *flags, str(script), "--steps", "1", "--outdir", str(tmp_path)],
        env=_subprocess_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "wrote" not in proc.stdout
    assert proc.stderr == "error: need at least 2 grid points\n"
    assert list(tmp_path.iterdir()) == []


# 2**63 - 2 to 2**63 + 1 once made np.linspace raise IndexError, a traceback with exit 1
@pytest.mark.parametrize("steps", [2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1])
def test_grid_past_the_array_size_limit_exits_2(steps, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, err = _run(capsys, ["sweep", "--noise", "werner", "--p-steps", str(steps), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err == f"error: a grid of {steps} points is too large for memory\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p-stop", "1.5"], "mixing weight p=1.005 outside [0, 1]"),
        (["--p-start", "nan"], "mixing weight p=nan outside [0, 1]"),
        (["--p-start", "-0.1"], "mixing weight p=-0.1 outside [0, 1]"),
        (["--base", "xx"], "unknown Bell state 'xx'"),
        (["--p-steps", "1"], "need at least 2 grid points"),
        # both bad: the per-point loop fails on the first point, so its fault is named
        (["--base", "xx", "--p-stop", "1.5"], "unknown Bell state 'xx'"),
        (["--base", "xx", "--p-start", "-0.1"], "mixing weight p=-0.1 outside [0, 1]"),
        # no grid between non-finite endpoints or over a span past the float range:
        # the bad endpoint is named, after the first p and the base as for any grid
        (["--p-stop=inf"], "mixing weight p=inf outside [0, 1]"),
        (["--p-start=-inf"], "mixing weight p=-inf outside [0, 1]"),
        (["--p-start=1e308", "--p-stop=-1e308"], "mixing weight p=1e+308 outside [0, 1]"),
        (["--p-stop=nan"], "mixing weight p=nan outside [0, 1]"),
        (["--base", "xx", "--p-stop=inf"], "unknown Bell state 'xx'"),
    ],
)
def test_sweep_input_errors_exit_2(flags, message, tmp_path, capsys):
    # a numpy RuntimeWarning would fail the test (see filterwarnings in pyproject.toml)
    out = tmp_path / "sweep.csv"
    code, stdout, err = _run(capsys, ["sweep", "--noise", "werner", "--out", str(out), *flags])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_sweep_failed_density_check_exits_3(tmp_path, capsys, monkeypatch):
    # noise with trace 1.001: every weight but p = 1 breaks the trace check
    monkeypatch.setitem(states._NOISE_STATES, states.NoiseKind.WERNER, np.eye(4) / 4.0 * 1.001)
    out = tmp_path / "sweep.csv"
    code, stdout, err = _run(
        capsys, ["sweep", "--noise", "werner", "--p-steps", "5", "--out", str(out)]
    )
    assert code == 3
    assert stdout == ""
    assert "internal error: density matrix trace is not 1 for p=0.0:" in err
    assert not out.exists()


def _rows(columns, names):
    """Row dicts of equal-length array columns, each cell a Python value."""
    return [dict(zip(names, r)) for r in zip(*(columns[name].tolist() for name in names))]


def _assert_writes_reference(columns, names, fmt, path, capsys):
    """`_write_outputs` gives the row writer's text, to a file and to stdout."""
    want = write_rows_reference(_rows(columns, names), names, fmt)
    cli._write_outputs([(columns, names, str(path))], fmt)
    assert path.read_bytes() == want.encode()
    cli._write_outputs([(columns, names, None)], fmt)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_rows_equal_whole_document_text(fmt, tmp_path, capsys):
    [(sweep_columns, _, _)] = cli.run_sweep(_sweep_args("werner", "phi+", -0.0, 1.0, 9))
    _, per_sample = run_haar_study("psi+", 7, 2)
    cases = [
        (sweep_columns, SWEEP_COLUMNS),
        (per_sample, SAMPLE_COLUMNS),
        ({c: np.empty(0) for c in SWEEP_COLUMNS}, SWEEP_COLUMNS),
    ]
    for columns, names in cases:
        _assert_writes_reference(columns, names, fmt, tmp_path / f"rows.{fmt}", capsys)


_ADVERSARIAL = {
    "float": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1 / 3]),
    "int": np.array([0, -3, 2**62, -(2**63)]),
    "uint": np.array([0, 2**64 - 1], dtype=np.uint64),
    "text": np.array(["back\\slash", "ünïcødé ∑", "ctl \x00\x01\x1f\t\x7f end", ""]),
    "50% ä": np.array([1.5, -2.25]),  # a key with a `%` and a non-ASCII letter
    # finite in the first block of 5 rows, infinite in the second
    "inf in block 2": np.array([0.5, -0.0, 1e16, 5e-324, 1 / 3, np.inf]),
}


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_matches_row_reference(fmt, chunk, tmp_path, capsys, monkeypatch):
    # non-finite, signed-zero, subnormal and round-trip floats, the int64 and
    # uint64 extremes, and strings with backslashes, non-ASCII and control
    # characters, at row counts on each side of a block boundary
    if chunk is not None:
        monkeypatch.setattr(cli, "STACK_CHUNK", chunk)
    size = cli.STACK_CHUNK
    names = tuple(_ADVERSARIAL)
    for n in (0, 1, size - 1, size, size + 1):
        columns = {name: np.resize(v, n) for name, v in _ADVERSARIAL.items()}
        _assert_writes_reference(columns, names, fmt, tmp_path / f"cells.{fmt}", capsys)
        for name in names:  # each column alone, so no other cell hides a difference
            _assert_writes_reference(columns, (name,), fmt, tmp_path / f"cell.{fmt}", capsys)


def test_haar_study_summary_and_per_sample(tmp_path, capsys):
    per_sample = tmp_path / "samples.csv"
    code, out, _ = _run(
        capsys,
        [
            "haar-study", "--state", "psi-", "--samples", "300", "--seed", "1",
            "--per-sample", str(per_sample),
        ],
    )
    assert code == 0
    summary = _parse_csv(out)[0]
    assert int(summary["samples"]) == 300
    l3_frac = float(summary["l3_detect_fraction"])
    ml3_frac = float(summary["ml3_detect_fraction"])
    assert ml3_frac >= l3_frac
    assert int(summary["ml3_only_count"]) >= 0

    rows = _parse_csv(per_sample.read_text())
    assert len(rows) == 300
    for row in rows:
        assert float(row["ml3"]) <= float(row["l3"]) + 1e-12
        assert float(row["ppt_min_eig"]) == pytest.approx(-0.5, abs=1e-9)


def test_haar_study_is_deterministic(tmp_path, capsys):
    args = ["haar-study", "--samples", "50", "--seed", "7"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_haar_study_library_entry_matches_cli(tmp_path, capsys):
    summary, per_sample = run_haar_study("psi-", 50, 7)
    assert summary["samples"] == 50
    assert list(per_sample) == list(SAMPLE_COLUMNS)
    assert all(per_sample[c].shape == (50,) for c in SAMPLE_COLUMNS)


@pytest.mark.parametrize("samples", [0, -3])
def test_haar_study_rejects_non_positive_sample_counts(samples, capsys):
    with pytest.raises(ValueError, match="at least one sample"):
        run_haar_study("psi-", samples, 1)
    code, out, err = _run(capsys, ["haar-study", "--samples", str(samples)])
    assert code == 2
    assert out == ""
    assert "at least one sample" in err


@pytest.mark.parametrize("kind", ["psi+", "psi-", "phi+", "phi-"])
@pytest.mark.parametrize("seed", [1, 7])
def test_haar_study_matches_per_sample_loop(kind, seed):
    summary, per_sample = run_haar_study(kind, 300, seed)
    rows, (l3_detect, ml3_detect, ml3_only) = haar_study_reference(kind, 300, seed)
    assert per_sample["sample"].tolist() == list(range(300))
    for name in ("l3", "ml3", "ppt_min_eig"):
        assert len(per_sample[name]) == len(rows)
        for got, want in zip(per_sample[name].tolist(), rows):
            assert abs(got - want[name]) <= 1e-12
    assert summary["l3_detect_fraction"] == l3_detect / 300
    assert summary["ml3_detect_fraction"] == ml3_detect / 300
    assert summary["ml3_only_count"] == ml3_only


def test_haar_study_rows_do_not_depend_on_chunking():
    _, longer = run_haar_study("phi+", STACK_CHUNK + 5, 3)
    for n in (STACK_CHUNK - 1, STACK_CHUNK, STACK_CHUNK + 1):
        _, rows = run_haar_study("phi+", n, 3)
        assert list(rows) == list(longer)
        for name in SAMPLE_COLUMNS:
            assert rows[name].tobytes() == longer[name][:n].tobytes()


def test_summary_only_haar_study_memory_does_not_grow_with_samples(tmp_path, monkeypatch):
    # the per-sample columns, if kept, add about 5% from 2 to 8 chunks; running totals add < 0.5%
    monkeypatch.setattr(cli, "STACK_CHUNK", 256)
    out = tmp_path / "summary.csv"
    peaks = []
    for chunks in (2, 8):
        argv = ["haar-study", "--samples", str(chunks * 256), "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0]


def test_haar_study_non_unitary_rotation_exits_3(tmp_path, capsys, monkeypatch):
    real = states._su2_from_quaternion
    monkeypatch.setattr(states, "_su2_from_quaternion", lambda q: 1.001 * real(q))
    out, per_sample = tmp_path / "summary.csv", tmp_path / "samples.csv"
    code, stdout, err = _run(
        capsys,
        ["haar-study", "--samples", "20", "--out", str(out), "--per-sample", str(per_sample)],
    )
    assert code == 3
    assert stdout == ""
    assert "not unitary" in err
    assert not out.exists() and not per_sample.exists()


@pytest.mark.parametrize("seed", [2**64 + 5, 2**64, -1])
@pytest.mark.parametrize("command", ["haar-study", "simulate"])
def test_seed_outside_64_bits_exits_2(command, seed, tmp_path, capsys):
    # streams are keyed mod 2**64: seed 2**64 + 5 would draw seed 5's samples
    out = tmp_path / "out.csv"
    argv = [command, "--seed", str(seed), "--out", str(out)]
    argv += ["--samples", "3"] if command == "haar-study" else ["--state", "singlet", "--shots", "10"]
    code, stdout, err = _run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert f"seed {seed} is outside [0, 2**64)" in err
    assert not out.exists()


def test_largest_seed_is_accepted(capsys):
    for argv in (["haar-study", "--samples", "3"], ["simulate", "--state", "singlet", "--shots", "10"]):
        code, stdout, _ = _run(capsys, argv + ["--seed", str(2**64 - 1)])
        assert code == 0 and stdout


def _per_sample_and_out_names(tmp_path):
    """(--per-sample, --out) pairs that name one regular file, and a file that exists."""
    existing = tmp_path / "kept.csv"
    existing.write_text("kept\n")
    (tmp_path / "link.csv").symlink_to(existing)
    os.link(existing, tmp_path / "hard.csv")
    (tmp_path / "dir-link").symlink_to(tmp_path)
    (tmp_path / "dangling.csv").symlink_to(tmp_path / "target.csv")
    new = tmp_path / "new.csv"
    return existing, [
        (str(new), str(new)),
        (str(new), str(tmp_path / "." / "new.csv")),
        (str(tmp_path / "dir-link" / "new.csv"), str(new)),
        (str(tmp_path / "dangling.csv"), str(tmp_path / "target.csv")),
        (str(existing), str(existing)),
        (str(tmp_path / "link.csv"), str(existing)),
        (str(existing), str(tmp_path / "hard.csv")),
    ]


def test_haar_study_per_sample_and_out_on_one_file_exits_2(tmp_path, capsys, monkeypatch):
    # the summary would overwrite the per-sample rows; nothing is computed or written
    existing, names = _per_sample_and_out_names(tmp_path)

    def no_samples(*args):
        raise AssertionError("samples were computed")

    monkeypatch.setattr(states, "haar_rotated_bell_states", no_samples)
    for per_sample, out in names:
        code, stdout, err = _run(
            capsys, ["haar-study", "--samples", "3", "--per-sample", per_sample, "--out", out]
        )
        assert code == 2, (per_sample, out)
        assert stdout == ""
        assert err == f"error: --per-sample and --out name the same file {out!r}\n"
    assert not (tmp_path / "new.csv").exists() and not (tmp_path / "target.csv").exists()
    assert existing.read_text() == "kept\n"


def test_haar_study_per_sample_and_out_on_one_device_are_written():
    for path in ("/dev/stdout", "/dev/null"):
        argv = ["haar-study", "--samples", "3", "--per-sample", path, "--out", path]
        proc = subprocess.run(
            [sys.executable, "-m", "lurwit", *argv], env=_subprocess_env(), capture_output=True
        )
        assert proc.returncode == 0 and proc.stderr == b""
        lines = proc.stdout.decode().splitlines()
        if path == "/dev/stdout":  # the per-sample rows, then the summary
            assert lines[0] == ",".join(SAMPLE_COLUMNS) and len(lines) == 6
            assert lines[4].startswith("samples,")
        else:
            assert lines == []


def test_import_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use; importing the package must not use it
    code = "import sys, lurwit, lurwit.cli; print(sorted(m for m in sys.modules if 'numpy.random' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_haar_study_rejects_non_bell_state(capsys):
    code, _, _ = _run(capsys, ["haar-study", "--state", "werner:p=0.5", "--samples", "5"])
    assert code == 2


def test_simulate_singlet(capsys):
    code, out, _ = _run(
        capsys, ["simulate", "--state", "singlet", "--shots", "10000", "--seed", "5"]
    )
    assert code == 0
    row = _parse_csv(out)[0]
    # deterministic summed outcome: estimate and error are exactly zero
    assert float(row["l3"]) == 0.0
    assert float(row["l3_se"]) == 0.0


def test_simulate_werner(capsys):
    code, out, _ = _run(
        capsys, ["simulate", "--state", "werner:p=0.5", "--shots", "100000", "--seed", "5"]
    )
    assert code == 0
    row = _parse_csv(out)[0]
    assert abs(float(row["l3"]) - 3.0) <= 5.0 * float(row["l3_se"])
    assert float(row["ml3"]) <= float(row["l3"]) + 1e-12


def test_simulate_phi_plus_modified_witness(capsys):
    code, out, _ = _run(
        capsys, ["simulate", "--state", "phi+", "--shots", "1000000", "--seed", "3"]
    )
    assert code == 0
    row = _parse_csv(out)[0]
    # perfectly correlated outcomes in every basis: the modified witness
    # estimate collapses to 0 at any shot count
    assert abs(float(row["ml3"])) <= 5.0 * float(row["ml3_se"]) + 1e-12
    assert float(row["ml3"]) == pytest.approx(0.0, abs=1e-12)


def test_simulate_checks_modified_witness_forms_exits_3(tmp_path, capsys, monkeypatch):
    real = measurement._table_moments

    def skewed(counts):
        var_a, var_b, var_sum, cov, se = real(counts)
        return var_a, var_b, var_sum, cov + 1e-6, se

    monkeypatch.setattr(measurement, "_table_moments", skewed)
    out = tmp_path / "simulate.csv"
    code, stdout, err = _run(
        capsys, ["simulate", "--state", "werner:p=0.5", "--shots", "1000", "--out", str(out)]
    )
    assert code == 3
    assert stdout == ""
    assert "modified-witness forms disagree" in err
    assert not out.exists()


SIMULATE_SPECS = ("singlet", "phi+", "psi+", "u2-singlet", "werner:p=0.9", "werner:p=0.2", "polarized:p=0.37")


def test_simulate_estimates_the_drawn_count_stack(capsys):
    checked = 0
    for spec in SIMULATE_SPECS:
        rho = states.parse_state_spec(spec)
        probs = measurement.outcome_probabilities(rho)
        for shots in (2, 1000, 10**6):
            for seed in (0, 20261018):
                counts = measurement.draw_counts(rho, shots, seed)
                assert counts.shape == (3, 4) and counts.dtype == np.int64 and not counts.flags.writeable
                for i, row in enumerate(counts):  # basis i draws from stream (seed, i)
                    assert np.array_equal(row, rng.stream(seed, i).multinomial(shots, probs[i]))
                assert [t.counts.tolist() for t in measurement.simulate_counts(rho, shots, seed)] == counts.tolist()
                argv = ["simulate", "--state", spec, "--shots", str(shots), "--seed", str(seed), "--format", "json"]
                code, stdout, _ = _run(capsys, argv)
                assert code == 0
                (row,) = json.loads(stdout)
                want = [spec, shots, *(float(v[0]) for v in measurement.estimate_standard(counts[None]))]
                assert list(row) == list(cli.SIMULATE_COLUMNS)
                assert list(map(repr, row.values())) == list(map(repr, want))  # floats bit for bit
                checked += 1
    assert checked == 42


def test_simulate_counts_matches_per_basis_sampling():
    assert cli.simulate_counts is measurement.simulate_counts  # where the benchmark's `shots` workload calls it
    for spec, shots, seed in (("werner:p=0.3", 2, 0), ("u2-singlet", 1000, 5), ("phi+", 10**6, 9)):
        rho = states.parse_state_spec(spec)
        tables = measurement.simulate_counts(rho, shots, seed)
        for i, (basis, table) in enumerate(zip(states.Basis, tables)):
            # the oracle's probabilities are the package's, bit for bit
            probs = outcome_probabilities_brute(rho.matrix, basis.pauli)
            want = rng.stream(seed, i).multinomial(shots, probs)
            assert table.basis is basis
            assert table.counts.dtype == np.int64 and np.array_equal(table.counts, want)
    singlet = states.parse_state_spec("singlet")
    for shots, message in ((0, "need at least one shot"), (2**63, "exceeds"), (2.5, "integer")):
        with pytest.raises(ValueError, match=message):
            measurement.simulate_counts(singlet, shots, 0)


def test_simulate_rejects_single_shot(capsys):
    code, _, _ = _run(capsys, ["simulate", "--state", "singlet", "--shots", "1"])
    assert code == 2


def test_simulate_rejects_oversized_shot_count(capsys):
    shots = "100000000000000000000"  # 10^20 > 2^63 - 1
    code, out, err = _run(capsys, ["simulate", "--state", "singlet", "--shots", shots])
    assert code == 2
    assert out == ""
    assert shots in err


def test_bound_command(capsys):
    code, out, _ = _run(capsys, ["bound", "--observables", "sx,sz"])
    assert code == 0
    assert float(_parse_csv(out)[0]["bound"]) == pytest.approx(1.0, abs=1e-12)

    code, out, _ = _run(capsys, ["bound", "--observables", "sx,sy,sz"])
    assert float(_parse_csv(out)[0]["bound"]) == pytest.approx(2.0, abs=1e-12)

    code, out, _ = _run(capsys, ["bound", "--observables", "sx"])
    assert code == 0
    assert _parse_csv(out)[0]["bound"] == "0"


def test_bound_rejects_unknown_observable(capsys):
    code, _, err = _run(capsys, ["bound", "--observables", "sx,sw"])
    assert code == 2
    assert "sw" in err


def test_csv_header_and_significant_digits(capsys):
    code, out, _ = _run(capsys, ["sweep", "--noise", "werner", "--p-steps", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,l2,ml2,l3,ml3,ppt_min_eig"
    # 12 significant digits: 1/3 renders with 12 digits
    assert lines[2].startswith("0.333333333333,")


def test_json_output(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = _run(
        capsys,
        ["evaluate", "--state", "singlet", "--format", "json", "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["verdict_ml3"] == "ENTANGLEMENT_DETECTED"
    assert payload[0]["l3"] == pytest.approx(0.0, abs=1e-12)


def test_outputs_are_bit_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["simulate", "--state", "werner:p=0.3", "--shots", "5000", "--seed", "21"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_holds_the_stdout_bytes(fmt, tmp_path, capsys):
    # a path with a comma, a quote and a non-ASCII letter: a quoted CSV cell of multi-byte text
    path = tmp_path / 'mixed, "ä".json'
    rho = np.eye(4) / 4.0
    path.write_text(json.dumps({"dim": 4, "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
    spec = f"file:{path}"
    out = tmp_path / "out"
    for argv in (
        ["evaluate", "--state", spec],
        ["sweep", "--noise", "werner", "--base", "phi-", "--p-steps", "9"],
        ["haar-study", "--state", "psi+", "--samples", "40", "--seed", "3"],
        ["simulate", "--state", spec, "--shots", "50", "--seed", "3"],
        ["bound", "--observables", "sx,sy,sz"],
    ):
        code, stdout, err = _run(capsys, [*argv, "--format", fmt])
        assert (code, err) == (0, ""), argv
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == stdout.encode(), argv
        if fmt == "csv" and spec in argv:
            assert stdout.splitlines()[1].startswith('"' + spec.replace('"', '""') + '",')


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_per_sample_file_holds_the_stdout_bytes(fmt, tmp_path):
    # 4,100 samples: the per-sample rows span two blocks
    argv = [sys.executable, "-m", "lurwit", "haar-study", "--samples", "4100", "--seed", "9", "--format", fmt]
    to_stdout = subprocess.run([*argv, "--per-sample", "/dev/stdout"], env=_subprocess_env(), capture_output=True)
    to_files = subprocess.run([*argv, "--per-sample", "s", "--out", "o"], cwd=tmp_path, env=_subprocess_env())
    assert to_stdout.returncode == to_files.returncode == 0 and to_stdout.stderr == b""
    assert to_stdout.stdout == (tmp_path / "s").read_bytes() + (tmp_path / "o").read_bytes()


def test_short_writes_are_continued(tmp_path, capsys, monkeypatch):
    # a write may take fewer bytes than it is given; the writer goes on from there
    argv = ["sweep", "--noise", "polarized", "--p-steps", "5000", "--format", "json"]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    real_write, counts = os.write, []

    def short_write(fd, data):
        counts.append(real_write(fd, data[:4093]))
        return counts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_write)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_bytes() == stdout.encode()
    assert len(counts) > len(stdout) // 4093 > 1  # every write was cut short


def test_undecodable_state_path_goes_to_stdout_but_not_to_a_file(tmp_path):
    # in UTF-8 mode argv and stdout carry an undecodable byte as a lone surrogate
    # (surrogateescape); a file is written as strict UTF-8, so its write fails
    name = os.fsencode(tmp_path / "st") + b"\xff.json"
    rho = np.eye(4) / 4.0
    with open(name, "w") as fh:
        json.dump({"dim": 4, "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}, fh)
    argv = [sys.executable, "-m", "lurwit", "evaluate", "--state", b"file:" + name]
    env = {**_subprocess_env(), "PYTHONUTF8": "1"}
    proc = subprocess.run(argv, env=env, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[1].startswith(b"file:" + name + b",")
    proc = subprocess.run([*argv, "--out", "x.csv"], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 2 and proc.stdout == b""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(b"error: ")
    assert os.listdir(os.fsencode(tmp_path)) == [os.path.basename(name)]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep"])  # missing required --noise
    assert excinfo.value.code == 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "lurwit", "evaluate", "--state", "singlet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert _parse_csv(proc.stdout)[0]["verdict_l3"] == "ENTANGLEMENT_DETECTED"


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser.__wrapped__() is not cli.build_parser()


def test_shared_parser_namespaces_do_not_leak():
    parser = cli.build_parser()
    parser.parse_args(["sweep", "--noise", "werner", "--base", "phi+", "--p-steps", "3"])
    args = parser.parse_args(["sweep", "--noise", "werner"])
    assert args.base == "psi-" and args.p_steps == 101

    parser.parse_args(["haar-study", "--per-sample", "x.csv"])
    args = parser.parse_args(["evaluate", "--state", "singlet"])
    assert not hasattr(args, "per_sample") and not hasattr(args, "samples")


def _exit(capsys, argv):
    """(exit code, stdout, stderr) of a `main(argv)` that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out = capsys.readouterr()
    return excinfo.value.code, out.out, out.err


@contextlib.contextmanager
def _fresh_parser(monkeypatch):
    """`main` builds a new parser for each call inside this block."""
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        yield


def test_rejected_argv_leaves_shared_parser_intact(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = shared = _exit(capsys, ["sweep"])
    assert code == 2 and out == ""
    assert err.endswith("error: the following arguments are required: --noise\n")
    argv = ["sweep", "--noise", "werner", "--p-steps", "4"]
    after = _run(capsys, argv)
    with _fresh_parser(monkeypatch):
        assert _exit(capsys, ["sweep"]) == shared
        assert _run(capsys, argv) == after


@pytest.mark.parametrize("columns", ["60", "120"])
def test_help_text_matches_fresh_parser(columns, capsys, monkeypatch):
    # the help is laid out for the terminal width at the time it is printed
    monkeypatch.setenv("COLUMNS", columns)
    assert cli.build_parser().format_help() == cli.build_parser.__wrapped__().format_help()
    for command in ("evaluate", "sweep", "haar-study", "simulate", "bound"):
        code, out, err = shared = _exit(capsys, [command, "--help"])
        assert code == 0 and out.startswith(f"usage: lurwit {command}") and err == ""
        assert all(len(line) <= int(columns) for line in out.splitlines())
        with _fresh_parser(monkeypatch):
            assert _exit(capsys, [command, "--help"]) == shared


_COMMANDS = ("evaluate", "sweep", "haar-study", "simulate", "bound")
# `COMMAND (--flag value)*`: exact flags, no dash-leading value, every required flag
_PLAIN_ARGV = [
    ["evaluate", "--state", "singlet"],
    ["sweep", "--noise", "werner", "--p-steps", "3"],
    ["haar-study", "--samples", "4", "--seed", "2"],
    ["simulate", "--state", "psi+", "--shots", "10", "--seed", "1"],
    ["bound", "--observables", "sx,sz"],
]
_DISPATCH_ARGV = [
    *_PLAIN_ARGV,
    ["sweep", "--noise", "polarized", "--p-steps", "3", "--format=json"],
    ["sweep", "--noise", "werner", "--p-st", "0.2", "--p-steps", "3"],  # an abbreviated option
    ["sweep", "--noise", "werner", "--p-start", "-0.5", "--p-steps", "3"],
    ["simulate", "--state", "psi+"],  # a required option missing
    ["sweep", "--noise", "werner", "--p-steps", "3.5"],
    ["sweep", "--noise", "werner", "--p-stop", "one"],
    ["bound", "--observables", "sx", "--format", "xml"],
    ["evaluate", "--state", "singlet", "--verbose"],
    ["evaluate", "--state", "singlet", "extra"],
    *([command, "--help"] for command in _COMMANDS),
    [],
    ["-h"],
    ["plot", "--state", "singlet"],
    ["--", "evaluate", "--state", "singlet"],
    ["evaluate", "--", "--state", "singlet"],
]


def _main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of `main(argv)`, also when argparse ends it with SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def _argparse_blocked():
    """Any argparse parse inside this block fails the test."""
    def reached(*args, **kwargs):
        raise AssertionError("argparse was reached")

    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", reached):
        yield


@pytest.mark.parametrize("argv", _DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_matches_the_full_parser(argv, capsys, monkeypatch):
    # the outcome is the full parser's, and a plain argv never reaches argparse
    monkeypatch.setenv("COLUMNS", "80")
    got = _main_outcome(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert _main_outcome(capsys, argv) == got
    if argv in _PLAIN_ARGV:
        want = cli.build_parser().parse_args(argv)
        with _argparse_blocked():
            args = cli._parse_args(argv)
        assert isinstance(args, types.SimpleNamespace) and vars(args) == vars(want)


# each command's flags, and the ones it requires
_FLAGS = {
    "evaluate": ("--state",),
    "sweep": ("--noise", "--base", "--p-start", "--p-stop", "--p-steps"),
    "haar-study": ("--state", "--samples", "--seed", "--per-sample"),
    "simulate": ("--state", "--shots", "--seed"),
    "bound": ("--observables",),
}
_REQUIRED = {"evaluate": ("--state",), "sweep": ("--noise",), "haar-study": (),
             "simulate": ("--state", "--shots"), "bound": ("--observables",)}
_ALL_FLAGS = sorted({flag for flags in _FLAGS.values() for flag in flags} | {"--out", "--format"})
_INT_FLAGS = {"--p-steps", "--samples", "--seed", "--shots"}
_FLOAT_FLAGS = {"--p-start", "--p-stop"}

_floats = st.floats(min_value=0).map(repr) | st.sampled_from(["nan", "inf", "1_0.5", " 2 ", "\u0663.5"])
_ints = st.integers(0, 2**70).map(str) | st.sampled_from(["\u0663", "\uff17", " 7", "1_000", "+4"])


def _plain_value(flag):
    """A value `flag` accepts that does not start with a dash."""
    if flag in _INT_FLAGS:
        return _ints
    if flag in _FLOAT_FLAGS:
        return _floats
    if flag == "--format":
        return st.sampled_from(["csv", "json"])
    return st.text(max_size=6).filter(lambda v: not v.startswith("-"))


@st.composite
def _plain_argvs(draw):
    command = draw(st.sampled_from(_COMMANDS))
    flags = draw(st.lists(st.sampled_from((*_FLAGS[command], "--out", "--format")), max_size=8))
    flags = draw(st.permutations([*_REQUIRED[command], *flags]))
    return [command, *(token for flag in flags for token in (flag, draw(_plain_value(flag))))]


_values = st.one_of(
    _ints,
    _floats,
    st.sampled_from(["csv", "json", "xml", "singlet", "werner", "sx,sz", "", "3.5", "one", "1e999",
                     "-1", "-0.5", "-x", "-", "--", "--state", "-h"]),
    st.text(max_size=4),
)
_flag_tokens = st.one_of(
    st.sampled_from(_ALL_FLAGS),
    # abbreviations, unique or ambiguous (--p-st, --s)
    st.sampled_from(_ALL_FLAGS).flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda n: f[:n])),
    st.sampled_from(["-h", "--help", "--", "--verbose", "-x", "extra"]),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from((*_COMMANDS, "plot", "evaluat", "-h", "--", "")))
    own = (*_FLAGS.get(command, ()), "--out", "--format")
    flags = st.sampled_from(own) | _flag_tokens
    items = st.one_of(
        st.tuples(flags, _values),  # a flag and its value
        st.tuples(flags),  # a flag with its value missing, or a stray token
        st.tuples(st.sampled_from(own), _values).map(lambda t: (f"{t[0]}={t[1]}",)),
        st.tuples(_values),
    )
    return [command, *(token for item in draw(st.lists(items, max_size=6)) for token in item)]


@st.composite
def _near_plain_argvs(draw):
    """A plain argv with one flag or value replaced."""
    argv = draw(_plain_argvs())
    if len(argv) > 1:
        i = draw(st.integers(1, len(argv) - 1))
        argv[i] = draw(_flag_tokens if i % 2 else _values)
    return argv


def _fields(args):
    """Each field of a namespace as its type and repr, so that NaN equals NaN and -0.0 differs from 0.0."""
    return {name: (type(value), repr(value)) for name, value in vars(args).items()}


def _parse_outcome(parse, argv):
    """`_fields(parse(argv))`, or the code, stdout and stderr of the SystemExit it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return _fields(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=1000)
@given(argv=st.one_of(_argvs(), _near_plain_argvs(), _plain_argvs()))
@example(argv=["evaluate", "--state"])
@example(argv=["evaluate", "--state", "-x"])
@example(argv=["evaluate", "--state", "singlet", "--out"])
def test_parse_args_matches_the_full_parser(argv):
    # same namespace, or the same exit code, usage, help and error text
    want = _parse_outcome(cli.build_parser.__wrapped__().parse_args, argv)
    assert _parse_outcome(cli._parse_args, argv) == want


@settings(max_examples=300)
@given(argv=_plain_argvs())
def test_plain_argv_never_reaches_argparse(argv):
    want = _fields(cli.build_parser.__wrapped__().parse_args(argv))
    with _argparse_blocked():
        assert _fields(cli._parse_args(argv)) == want


# (argv, files it writes); paths are relative to the working directory
_COMMAND_SEQUENCE = [
    (["evaluate", "--state", "singlet"], []),
    (["evaluate", "--state", "werner:p=0.5", "--format", "json", "--out", "eval.json"],
     ["eval.json"]),
    (["bound", "--observables", "sx,sz", "--format", "json"], []),
    (["sweep", "--noise", "werner", "--p-steps", "5", "--out", "sweep.csv"], ["sweep.csv"]),
    (["sweep", "--noise", "gaussian"], []),  # input error, exit 2
    (["sweep", "--noise", "polarized", "--base", "phi+", "--p-steps", "4", "--format", "json"], []),
    (["simulate", "--state", "werner:p=0.3", "--shots", "500", "--seed", "4"], []),
    (["simulate", "--state", "phi+", "--shots", "100", "--format", "json", "--out", "sim.json"],
     ["sim.json"]),
    (["haar-study", "--samples", "20", "--seed", "3", "--per-sample", "haar.csv"], ["haar.csv"]),
    (["haar-study", "--state", "phi-", "--samples", "9", "--seed", "1", "--format", "json",
      "--per-sample", "haar.json", "--out", "study.json"], ["haar.json", "study.json"]),
    (["bound", "--observables", "sx,sy,sz"], []),
]


def _subprocess_env():
    """The environment, with this `lurwit` importable from any working directory."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_command_sequence_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # one process runs every command in turn on the shared parser; each must
    # give the output bytes, stderr and exit code of the same command run alone
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    shared.mkdir()
    alone.mkdir()
    monkeypatch.chdir(shared)
    results = [_run(capsys, argv) for argv, _ in _COMMAND_SEQUENCE]
    assert [code for code, _, _ in results] == [0] * 4 + [2] + [0] * 6
    env = _subprocess_env()
    for (argv, files), (code, out, err) in zip(_COMMAND_SEQUENCE, results):
        proc = subprocess.run(
            [sys.executable, "-m", "lurwit", *argv], cwd=alone, env=env, capture_output=True
        )
        got = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        assert got == (code, out, err), argv
        for name in files:
            assert (shared / name).read_bytes() == (alone / name).read_bytes(), name
    assert sorted(p.name for p in shared.iterdir()) == sorted(p.name for p in alone.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--noise", "werner", "--p-steps", "200000"],
        ["haar-study", "--samples", "20000", "--per-sample", "/dev/stdout"],
    ],
)
def test_closed_output_pipe_exits_141_quietly(argv):
    with subprocess.Popen(
        [sys.executable, "-m", "lurwit", *argv],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:  # closes the stderr pipe too
        assert proc.stdout.readline().startswith(b"p," if argv[0] == "sweep" else b"sample,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
