"""Self-test of the benchmark's output checks and metric names.

    python3 -m pytest -q perfbench

Each workload first runs clean, with no failed call; then every output is
perturbed slightly before its check, and every call must be recorded as
failed. The last tests run the entry point briefly and compare the metric
names it prints with BENCHMARK.json.
"""

import contextlib
import csv
import io
import json

import pytest

import source

source.add_source_path()

import run  # noqa: E402
import workloads  # noqa: E402
from lurwit import measurement  # noqa: E402


def edit_first_row(text: str, fmt: str, name: str, change) -> str:
    """`text` with column `name` of its first row replaced by `change(value)`."""
    rows = json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
    rows[0][name] = change(rows[0][name])
    if fmt == "json":
        return json.dumps(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def shift(delta):
    return lambda value: float(value) + delta


def perturb_haar(out):
    out.files["samples"] = edit_first_row(out.files["samples"], "csv", "l3", shift(1e-6))
    return out


def perturb_sweep(out):
    fmt = "json" if out.files["out"].startswith("[") else "csv"
    out.files["out"] = edit_first_row(out.files["out"], fmt, "ppt_min_eig", shift(1e-6))
    return out


def perturb_oneshot(out):
    columns = out.stdout.splitlines()[0].split(",")
    if "shots" in columns:  # simulate: estimates have no exact value, the echo does
        out.stdout = edit_first_row(out.stdout, "csv", "state", lambda spec: spec + "x")
    else:
        out.stdout = edit_first_row(out.stdout, "csv", "bound" if "bound" in columns else "l3", shift(1e-3))
    return out


def perturb_shots(result):
    tables, two, three = result
    first = tables[0]
    moved = measurement.CountTable(first.basis, [0, 0, 0, first.shots])  # all counts on (-,-)
    return [moved, *tables[1:]], two, three


PERTURBATIONS = {
    "haar": perturb_haar,
    "sweep": perturb_sweep,
    "oneshot": perturb_oneshot,
    "shots": perturb_shots,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_clean_run_records_no_failure(name):
    with source.scratch_dir() as tmp:
        result = workloads.measure(workloads.WORKLOADS[name](7, tmp), 0.01)
    assert result.problems == []
    assert result.attempted == 2 * len(result.durations) > 0
    assert result.items > 0 and result.throughput > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_output_is_recorded_as_failed(name):
    with source.scratch_dir() as tmp:
        result = workloads.measure(workloads.WORKLOADS[name](7, tmp), 0.01, perturb=PERTURBATIONS[name])
    assert result.failed == result.attempted > 0
    assert result.items == 0


def test_raising_and_exiting_calls_are_failed():
    result = workloads.RunResult()

    def boom():
        raise ZeroDivisionError

    workloads.run_call(workloads.Call(1, boom, lambda out: None), result, None, None, "raise")
    rejected = workloads.cli_call(["evaluate"], 1, {}, workloads.expect_ok)  # argparse exits
    with contextlib.redirect_stderr(io.StringIO()):
        workloads.run_call(rejected, result, None, None, "exit")
    assert result.failed == result.attempted == 2
    assert "ZeroDivisionError" in result.problems[0] and "SystemExit" in result.problems[1]


def benchmark_names(section):
    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["unit"] for name, m in result["metrics"].items()}, result["metrics"]


def test_end_to_end_metrics_match_benchmark_json():
    units, _ = run_main(["--workload", "oneshot", "--seed", "3", "--seconds", "0.1", "--trace", "0"])
    assert units == benchmark_names("end_to_end")


@pytest.mark.parametrize("name", ["shots", "sweep"])
def test_traced_run_reports_every_layer(name):
    units, metrics = run_main(["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "1"])
    assert units == benchmark_names("per_layer")
    calls = {k: metrics[k + ".calls"]["value"] for k in ("witness.evaluate", "witness.ppt_min_eigenvalue", "rng.stream")}
    if name == "shots":
        assert calls["witness.evaluate"] == calls["witness.ppt_min_eigenvalue"] == 0
        assert calls["rng.stream"] == 3
    else:
        assert calls["rng.stream"] == 0
        assert calls["witness.evaluate"] == 2 and calls["witness.ppt_min_eigenvalue"] == 1
