"""Pinned digests of seeded CLI output.

Every command here is deterministic for fixed arguments and seed, so the
sha256 of its output must not move when the code under it is reworked. A
digest covers the concatenated stdout of every listed (shots, seed) or
argument set, so one change anywhere in it shows.
"""

import hashlib
import json

import pytest

from lurwit.cli import main

SIMULATE_SPECS = (
    "singlet", "phi+", "u2-singlet", "werner:p=0.9", "werner:p=0.2", "polarized:p=0.37", "file:rho.json",
)
SIMULATE_SHOTS = (2, 1000, 10**6)
SIMULATE_SEEDS = (0, 20261018)

# a mixed state with nonzero Bloch vectors and off-diagonal correlations
RHO_JSON = {
    "dim": 4,
    "re": [
        [0.4, 0.05, 0.02, 0.1],
        [0.05, 0.2, 0.07, 0.01],
        [0.02, 0.07, 0.15, 0.03],
        [0.1, 0.01, 0.03, 0.25],
    ],
    "im": [
        [0.0, 0.02, -0.01, 0.05],
        [-0.02, 0.0, 0.03, 0.0],
        [0.01, -0.03, 0.0, -0.02],
        [-0.05, 0.0, 0.02, 0.0],
    ],
}

SIMULATE_DIGESTS = {
    ("singlet", "csv"): "d3d44dbf6e12b8c80eec9f700be8a544e7ef30c39ef037f993559feb80ab9164",
    ("singlet", "json"): "af1ce769da9828fc9c2150fa99e546d52b62236e2c2e09ce54a560227d1048f4",
    ("phi+", "csv"): "80b12a579cf396595f08f38b3779d223e0bee4d0b3d58b56e75b7afe929eee42",
    ("phi+", "json"): "8da3df2336291e95f4956fc0eca2f4ff301ff3a8ac3a6ae7dc3bf4cd288fab5a",
    ("u2-singlet", "csv"): "e29d291e17b32cb69b15d78eb07a5b1f0c0ccbccc3771f21c15c6f629e871b9d",
    ("u2-singlet", "json"): "6927cf4c9db869a48b9d9581d00b7f5edd66c92d4d17cb3026a700f2f07aaa59",
    ("werner:p=0.9", "csv"): "5ad4535a93f2017c73b708688851219dd01c373a77873a8e8b308bea11c0156f",
    ("werner:p=0.9", "json"): "041427d018b21c3beac206c8b4ba70fb4fba1f48c6c14272cdad20c497bca6d9",
    ("werner:p=0.2", "csv"): "b7e5499b760bcc1d4c65608014ad4bf4d246bfbbf8039d25b2c4e4cce1b731bc",
    ("werner:p=0.2", "json"): "2d9ba7fac7b3b94288f94040a0a77f9bba334b43d06da67808f6271e2d9bdbd5",
    ("polarized:p=0.37", "csv"): "42036205de16e6225e381b83fd301ccf2f51580a0f390639a9697d55fd7e5680",
    ("polarized:p=0.37", "json"): "51a772a744fefd41549d8b3a0cbd90589ca4ee5296f3568ee183d19f17edd6e0",
    ("file:rho.json", "csv"): "4aa602ffa60b216dca2e8a1f0246d58341bc50eb7d663ff5db6742d15d1447d2",
    ("file:rho.json", "json"): "4ea952030395e581a7510bc1195947cb54dc493428763609a2a6bab7bdfd0a8d",
}

OTHER_RUNS = {
    "evaluate": [["evaluate", "--state", s] for s in SIMULATE_SPECS],
    "sweep": [
        ["sweep", "--noise", "werner", "--p-steps", "257"],
        ["sweep", "--noise", "polarized", "--base", "phi-",
         "--p-start", "0.1", "--p-stop", "0.9", "--p-steps", "33"],
    ],
    "haar-study": [
        ["haar-study", "--samples", "5000", "--seed", "3"],
        ["haar-study", "--state", "phi+", "--samples", "9000", "--seed", "11"],
    ],
    "haar-study summary": [
        ["haar-study", "--samples", "5000", "--seed", "3"],
        ["haar-study", "--state", "phi-", "--samples", "12000", "--seed", "5"],
    ],
}

OTHER_DIGESTS = {
    ("evaluate", "csv"): "143089a30b7fae1179e7c0a376665ea3ab4f67a751db3810293835f3462b0998",
    ("evaluate", "json"): "017e6546d559dcad8d45a309dfdfdb06cfefd3617bba642a11a47324f6088f3e",
    ("sweep", "csv"): "df46b730dacfb2e4f938f1f0c28147adfc5dffa2e9306b9f362e0fff3cf754ad",
    ("sweep", "json"): "07a83e615cd49fe165e900eb54c15f713cca0fedc2841db6c83e2af1fdfdaeca",
    ("haar-study", "csv"): "259b2c3bc619a2aa22f7d18a477d3a7b2585feb822abf96d4d25a59fe82fe1ad",
    ("haar-study", "json"): "9a697c2ec9fdcc1d1c59c4127876b50cf7a3beb5d77dbb1aefc03f17892b6cb8",
    ("haar-study summary", "csv"): "07ff465e0e4d53a99eb1b573de8df94fd4446cbb523d63bc877d631edf05de98",
    ("haar-study summary", "json"): "9aaa81145c0d6285dc91d70dc12a7a2cda4dc6f6491f5f75c9530012423c244e",
}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run in a fresh directory holding rho.json, so `file:rho.json` reads the same bytes."""
    (tmp_path / "rho.json").write_text(json.dumps(RHO_JSON), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _digest(runs, fmt, capsys, per_sample=None) -> str:
    """sha256 of every run's stdout, each followed by its per-sample file if one is named."""
    h = hashlib.sha256()
    for argv in runs:
        extra = [] if per_sample is None else ["--per-sample", str(per_sample)]
        assert main([*argv, *extra, "--format", fmt]) == 0
        h.update(capsys.readouterr().out.encode())
        if per_sample is not None:
            h.update(per_sample.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("spec", SIMULATE_SPECS)
def test_simulate_output_is_pinned(spec, fmt, in_tmp, capsys):
    runs = [
        ["simulate", "--state", spec, "--shots", str(shots), "--seed", str(seed)]
        for shots in SIMULATE_SHOTS
        for seed in SIMULATE_SEEDS
    ]
    assert _digest(runs, fmt, capsys) == SIMULATE_DIGESTS[spec, fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(OTHER_RUNS))
def test_exact_and_study_output_is_pinned(command, fmt, in_tmp, capsys):
    # "haar-study" also writes its per-sample file; "haar-study summary" writes none
    per_sample = in_tmp / "samples.out" if command == "haar-study" else None
    assert _digest(OTHER_RUNS[command], fmt, capsys, per_sample) == OTHER_DIGESTS[command, fmt]
