"""A fresh `lurwit` process imports and builds only what its command uses.

The checks read `sys.modules` and the first-use builders' caches in a new
interpreter, not timings.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lurwit

# run in a fresh interpreter; prints one dict literal
_CHILD = r'''
import sys

before = set(sys.modules)


def loaded():
    """Which of argparse and json lurwit has imported so far."""
    return sorted(m for m in ("argparse", "json") if m in sys.modules and m not in before)


import lurwit.cli
from lurwit import cli, measurement, states, witness

builders = {
    "witness._standard_sets": witness._standard_sets,
    "measurement._projectors": measurement._projectors,
    "measurement._bounds": measurement._bounds,
    "states._bell_density": states._bell_density,
    "states._rotated_singlet": states._rotated_singlet,
}
report = {"import": (loaded(), {name: f.cache_info().currsize for name, f in builders.items()})}
plain = [
    ["evaluate", "--state", "werner:p=0.5", "--out", "evaluate.csv"],
    ["sweep", "--noise", "werner", "--p-steps", "5", "--format", "csv", "--out", "sweep.csv"],
    ["haar-study", "--samples", "4", "--seed", "2", "--per-sample", "samples.csv", "--out", "study.csv"],
    ["simulate", "--state", "singlet", "--shots", "10", "--seed", "1", "--out", "simulate.csv"],
    ["bound", "--observables", "sx,sz", "--out", "bound.csv"],
]
report["plain"] = ([cli.main(argv) for argv in plain], loaded())
report["full"] = (cli.main(["evaluate", "--state=singlet", "--out", "full.csv"]), loaded())
print(repr(report))
'''


def _child_report(cwd: Path) -> dict:
    path = [str(Path(lurwit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _CHILD], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return ast.literal_eval(proc.stdout)


def test_startup_imports_and_builds_only_what_a_command_uses(tmp_path):
    report = _child_report(tmp_path)
    # importing the CLI loads neither argparse nor json, and builds no first-use table
    modules, built = report["import"]
    assert modules == [] and set(built.values()) == {0}, report["import"]
    # a plain argv of every command, CSV out, never reaches argparse
    codes, modules = report["plain"]
    assert codes == [0] * 5 and modules == [], report["plain"]
    # an argv the table does not read goes to the argparse parser
    assert report["full"] == (0, ["argparse"])
    written = ["bound.csv", "evaluate.csv", "full.csv", "samples.csv", "simulate.csv", "study.csv", "sweep.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == written
