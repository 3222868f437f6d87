import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", _ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_raw_setup_time_is_read_from_each_run_record(tmp_path, monkeypatch, capsys):
    # each faked perfbench run writes its record, as `perfbench/run.py` does, and its last stdout line
    raw = {"base": iter([0.050, 0.052, 0.051]), "change": iter([0.048, 0.049, 0.053])}
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    for side in raw:
        (tmp_path / side).mkdir()
        shutil.copy(_ROOT / "BENCHMARK.json", tmp_path / side)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    caches = []  # per run: the bytecode directories of its tree when it starts

    def run(cmd, cwd, **kwargs):
        if "perfbench/run.py" not in cmd:  # git
            return subprocess.CompletedProcess(cmd, 1, stdout="")
        # each run compiles its tree from source and writes no bytecode
        env = kwargs["env"]
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in env
        caches.append(sorted(Path(cwd).glob("*/**/__pycache__")))
        for top in ("src/lurwit", "perfbench"):  # what a run without that variable would leave
            (Path(cwd) / top / "__pycache__").mkdir(parents=True, exist_ok=True)
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
        out = Path(cwd) / ".perfbench-out"
        out.mkdir(exist_ok=True)
        record = {"notes": {"raw_setup_s": next(raw[Path(cwd).name])}, "metrics": metrics}
        (out / "result-oneshot-seed7-trace0.json").write_text(json.dumps(record))
        last = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(cmd, 0, stdout="workload oneshot\n" + json.dumps(last) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    argv = [str(tmp_path / "base"), str(tmp_path / "change"), "--workload", "oneshot", "--seed", "7",
            "--pairs", "3", "--record", str(tmp_path / "record.json")]
    assert bench_pairs.main(argv) == 0
    assert caches == [[]] * 6
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.lstrip().startswith("raw_setup_s")]
    assert "base 0.051 [0.0505, 0.0515]  change 0.049 [0.0485, 0.051]" in line and "change wins 2/3" in line
    record = json.loads((tmp_path / "record.json").read_text())
    assert [p["change"]["metrics"]["raw_setup_s"] for p in record["pairs"]] == [0.048, 0.049, 0.053]
    assert record["metrics"]["raw_setup_s"]["base"]["median"] == 0.051
