"""The package names the benchmark under `perfbench/` calls, kept working.

perfbench's workloads reach lurwit through `cli.main`, `cli.simulate_counts`,
`CountTable`, `estimate_witnesses` and `EstimatedReport`, and its tracer wraps
some of them by name. One checked cycle of every workload, as a benchmark run
makes them (`call.check(call.collect(call.run()))`), fails here as soon as a
change breaks any of those names, whatever the state of perfbench's own
self-test. perfbench is imported from its directory and left unchanged.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """A loader of perfbench's modules by name, with its directory on the import path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_one_checked_cycle_of_every_workload(perfbench, tmp_path):
    workloads = perfbench("workloads")
    assert sorted(workloads.WORKLOADS) == ["haar", "oneshot", "shots", "sweep"]
    for name, make in workloads.WORKLOADS.items():
        calls = make(7, tmp_path).cycle(0)
        assert calls, name
        for call in calls:
            call.check(call.collect(call.run()))


def test_the_traced_finite_shot_layers_resolve(perfbench):
    layers = perfbench("tracing").LAYER_FUNCTIONS
    for span in ("cli.simulate_counts", "measurement.estimate_witnesses"):
        for owner, attribute in layers[span]:
            assert callable(getattr(owner, attribute)), span
