"""Pinned digests of seeded CLI output and seeded finite-shot reports.

Every command here is deterministic for fixed arguments and seed, so the
sha256 of its output must not move when the code under it is reworked. A
digest covers the concatenated stdout of every listed (shots, seed) or
argument set, so one change anywhere in it shows. The same holds for the
`estimate_witnesses` reports of drawn count tables, pinned field by field
with `float.hex`, and for the matrices of the rotated singlets.

The digests also rest on floating-point behaviour that numpy does not
promise and that can change with the BLAS or LAPACK kernels a CPU selects:
the BLAS dot of the estimator, the summation order of the contractions,
and LAPACK's `eigvalsh`. The first tests check the BLAS dot, the witness
kernel's contraction order, and `eigvalsh` on the pinned partial
transposes and in `local_bound`, so they run, and fail, ahead of the
digests. Each digest's
message names every assumption its bytes rest on, and the test that checks
it, if one does.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from lurwit.cli import STACK_CHUNK, build_parser, draw_counts, main, simulate_counts
from lurwit.measurement import _SIGNS, CountTable, drawn_tables, estimate_witnesses, estimate_witnesses_many
from lurwit.linalg import transpose_second_qubit
from lurwit.rng import stream
from lurwit import witness
from lurwit.states import SX, SY, SZ, Basis, DensityMatrix, NoiseKind, noise_mixtures, parse_state_spec
from lurwit.witness import (
    GEMM_MIN_STATES,
    ObservableSet,
    _expectations,
    _pair_moments,
    evaluate,
    evaluate_many,
    evaluate_standard,
    local_bound,
    standard_sets,
)
from oracles import expectations_in_index_order, mixed_ensemble, random_hermitian
from strategies import signed_zero_stack

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

# L2 then L3 reports of every drawn replicate of SIMULATE_SPECS x SIMULATE_SHOTS x SIMULATE_SEEDS
ESTIMATE_DIGEST = "0fc25faed196c668fd063aa3b66e8177203de2de5692a4844707262ac6e0dd90"

# every basis order that picks L2 or L3, as indices into `Basis`
BASIS_ORDERS = [*itertools.permutations(range(2)), *itertools.permutations(range(3))]
# `estimate_witnesses_many` on one stack of every drawn replicate above, in every basis order
MANY_DIGEST = "544f4f9039a5c67052f05953f44fc30d427d66c30ecb2e02c2ebd4ee10201a89"
# `estimate_witnesses` reports of those replicates' tables in every basis order, drawn and hand-built
ORDERED_DIGEST = "01ecbdd4ecb7948152fdd0c9b9cf7485d18d0a6f7d44f41d0bccd56828480d51"
# `evaluate_many` values and `evaluate` reports of seeded custom sets of 1-4 pairs
CUSTOM_DIGEST = "c487069ca6ed9cacd543c148db5f8bcea396638f7c4e7734207472c695e6ec99"

# every ordered list of distinct Pauli tokens, and one repeated token
BOUND_TOKENS = [",".join(p) for k in (1, 2, 3) for p in itertools.permutations(("sx", "sy", "sz"), k)]
BOUND_TOKENS.append("sx,sx")

OTHER_RUNS = {
    "bound": [["bound", "--observables", tokens] for tokens in BOUND_TOKENS],
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
    ("bound", "csv"): "65bd53d2ae93b37d58ff2926fdb89b64193dc694045a623fd7c7e85e3744ece0",
    ("bound", "json"): "df65a4e15caa7b05ff98a955f67efcbb8a250bbed5b14b826775061d978e0965",
    ("evaluate", "csv"): "143089a30b7fae1179e7c0a376665ea3ab4f67a751db3810293835f3462b0998",
    ("evaluate", "json"): "017e6546d559dcad8d45a309dfdfdb06cfefd3617bba642a11a47324f6088f3e",
    ("sweep", "csv"): "df46b730dacfb2e4f938f1f0c28147adfc5dffa2e9306b9f362e0fff3cf754ad",
    ("sweep", "json"): "07a83e615cd49fe165e900eb54c15f713cca0fedc2841db6c83e2af1fdfdaeca",
    ("haar-study", "csv"): "259b2c3bc619a2aa22f7d18a477d3a7b2585feb822abf96d4d25a59fe82fe1ad",
    ("haar-study", "json"): "4646da1452b651774784875b1a486b876a7b6e5578b3e1ef62c86014125073bf",
    ("haar-study summary", "csv"): "07ff465e0e4d53a99eb1b573de8df94fd4446cbb523d63bc877d631edf05de98",
    ("haar-study summary", "json"): "9aaa81145c0d6285dc91d70dc12a7a2cda4dc6f6491f5f75c9530012423c244e",
}

# the smallest eigenvalue of each partial transpose behind the `evaluate` and `sweep`
# runs' ppt_min_eig cells, from LAPACK's `eigvalsh`
PPT_EIGVALSH_DIGEST = "e48b71c2c280ff4c38e100baeca4f34fa4c0490bf5405bc3d063ae49367210e4"

# `float.hex` of (bound_a, bound_b) of each `_custom_sets` set behind CUSTOM_DIGEST, in order
CUSTOM_BOUNDS = [
    ("0x0.0p+0", "0x1.0000000000000p-54"),
    ("0x0.0p+0", "0x0.0p+0"),
    ("0x1.6495e396a8bd4p-2", "0x1.eab79b5b07c08p-3"),
    ("0x1.d5465b2da2ce4p-1", "0x1.2d6da06813ba0p-6"),
    ("0x1.291ae7fd58cacp+1", "0x1.e59346e2c77d0p+0"),
    ("0x1.55850be8a4884p+1", "0x1.a071defa3e89ep+1"),
    ("0x1.8003525acfad0p+0", "0x1.27e6c29660220p-1"),
    ("0x1.3a584d2ca2d4cp+1", "0x1.f1f0be4f6c761p+1"),
]
# `float.hex` of `local_bound` of each Pauli subset of the `bound` runs, and of the repeated token
PAULI_BOUNDS = {
    "sx": "0x0.0p+0", "sy": "0x0.0p+0", "sz": "0x0.0p+0",
    "sx,sy": "0x1.0000000000000p+0", "sx,sz": "0x1.0000000000000p+0", "sy,sz": "0x1.0000000000000p+0",
    "sx,sy,sz": "0x1.0000000000000p+1", "sx,sx": "0x0.0p+0",
}

# the matrices of "u1-singlet", "u2-singlet" and "u3-singlet", in that order
ROTATED_SINGLETS_DIGEST = "482924373cf7fcdc3c2b11c1904ba4093898ef0a3c0f68b039241e3634361705"

# what a digest's bytes rest on beyond the code under it, and the test that checks each
FMA_CHAIN = (
    "np.vecdot of 4-vectors being a fused multiply-add chain "
    "(test_vecdot_of_four_vectors_is_a_fused_multiply_add_chain)"
)
KERNEL_ORDER = (
    "the witness kernel's einsum and gemm adding each expectation's products in index order "
    "(test_gemm_and_einsum_add_exact_products_in_index_order, on exact sets)"
)
MATMUL_ORDER = "the summation order of np.matmul on 4x4 operators (no test)"
PPT_EIGVALSH = (
    "LAPACK eigvalsh's bits on the partial transposes (test_eigvalsh_bits_on_the_pinned_partial_transposes)"
)
BOUND_EIGVALSH = "LAPACK eigvalsh's bits on local_bound's 3x3 matrices (test_local_bound_bits_are_pinned)"
# the assumptions of each command's digests in `OTHER_DIGESTS`
OTHER_ASSUMPTIONS = {
    "bound": (BOUND_EIGVALSH,),
    "evaluate": (KERNEL_ORDER, PPT_EIGVALSH, MATMUL_ORDER),
    "sweep": (KERNEL_ORDER, PPT_EIGVALSH),
    "haar-study": (KERNEL_ORDER, MATMUL_ORDER),
    "haar-study summary": (KERNEL_ORDER, MATMUL_ORDER),
}


def _rests_on(what: str, *assumptions: str) -> str:
    """The message of a moved digest: what it pins, and what its bytes rest on."""
    return f"the {what} digest moved; its bytes rest on " + "; and on ".join(assumptions)


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

def _fma_chain(x, y) -> float:
    """x . y as a chain of fused multiply-adds, each rounded once to the nearest float, in index order."""
    total = 0.0
    for a, b in zip(x, y):
        total = float(Fraction(a) * Fraction(b) + Fraction(total))
    return total


def test_vecdot_of_four_vectors_is_a_fused_multiply_add_chain():
    # the estimator's frequency dot products (`measurement._table_moments`) are
    # `np.vecdot` of 4-vectors: a constant (3, 1, 1, 4) sign stack broadcast
    # over (R, B, 4) frequencies, and the frequencies against a (4, R, B, 4)
    # gradient stack. The pinned `simulate` and estimate digests hold only
    # where each is the FMA chain (as OpenBLAS's ddot computes it)
    g = np.random.default_rng(20261019)
    x = g.standard_normal((2000, 1, 4))
    y = g.standard_normal((2000, 3, 4))
    x[:1000] = g.integers(0, 10**6, (1000, 1, 4)) / 999_983.0  # frequency-like rows
    y[:1000] = g.choice([-2.0, -1.0, 1.0, 2.0], (1000, 3, 4)) * g.random((1000, 3, 4))
    counts = g.integers(0, 10**6, (400, 3, 4))
    freqs = counts / counts.sum(axis=-1, keepdims=True)
    grads = g.choice([-2.0, -1.0, 1.0, 2.0], (4, 400, 3, 4)) * g.random((4, 400, 3, 4))
    for form, (x, y) in {
        "rows against vectors": (x, y),
        "sign stack against frequencies": (_SIGNS.reshape(3, 1, 1, 4), freqs),
        "frequencies against gradient stack": (freqs, grads),
    }.items():
        got = np.vecdot(x, y)
        x, y = np.broadcast_arrays(x, y)
        want = [_fma_chain(a, b) for a, b in zip(x.reshape(-1, 4).tolist(), y.reshape(-1, 4).tolist())]
        differ = sum(map(float.__ne__, got.ravel().tolist(), want))
        assert differ == 0, (
            f"np.vecdot of float64 4-vectors ({form}) is not the fused multiply-add chain on {differ} "
            f"of {len(want)} pairs; the simulate and estimate digests below assume it is"
        )


# every lifted operator all real or all imaginary, with parts 0 or +-2^k, k >= 0
EXACT_SETS = {
    **{f"standard {name}": oset for name, oset in standard_sets().items()},
    "Pauli x-z, z-(-x), 2y-2y": ObservableSet(((SX, SZ, "x-z"), (SZ, -SX, "z-x"), (2 * SY, 2 * SY, "2y-2y"))),
}
# an operator mixing real and imaginary entries (s of x-y), an entry 10 in s^2,
# an entry 1/2, and a random set
INEXACT_SETS = {
    "Pauli x-y": ObservableSet(((SX, SY, "x-y"),)),
    "Pauli x-3z": ObservableSet(((SX, 3 * SZ, "x-3z"),)),
    "Pauli x/2-z/2": ObservableSet(((SX / 2, SZ / 2, "x/2-z/2"),)),
    "random": ObservableSet(tuple(
        (random_hermitian(stream(2626), 2), random_hermitian(stream(2627), 2), f"pair{i}") for i in range(3)
    )),
}


def _words(values: np.ndarray) -> np.ndarray:
    """The 64-bit words of a complex array, in C order."""
    return np.ascontiguousarray(values).view(np.uint64)


def _wide_hermitian_stack(g, n: int) -> np.ndarray:
    """n Hermitian 4x4 matrices, entry moduli log-uniform over 1e-8..1e8, phases uniform."""
    m = 10.0 ** g.uniform(-8.0, 8.0, (n, 4, 4)) * np.exp(2j * np.pi * g.random((n, 4, 4)))
    return (m + m.conj().swapaxes(1, 2)) / 2.0


@pytest.mark.parametrize("n", [1, 2, GEMM_MIN_STATES - 1, GEMM_MIN_STATES, 101, 4096])
def test_gemm_and_einsum_add_exact_products_in_index_order(n):
    # `witness._pair_moments` contracts a stack of at least GEMM_MIN_STATES
    # states with an exact set's lifted operators by one BLAS gemm, and
    # smaller stacks by einsum. The sweep and haar-study digests hold only
    # where both add each expectation's 16 exact products in index order;
    # on these stacks a pairwise order changes about a fifth of the words.
    # One state never takes gemm: its one-row product goes to gemv, which
    # adds in another order, so only einsum is checked there
    g = np.random.default_rng(20261026 + n)
    stack = _wide_hermitian_stack(g, n)
    pairwise = 0
    for name, oset in EXACT_SETS.items():
        assert oset._exact, name
        want = _words(expectations_in_index_order(stack, oset._ops).transpose(2, 1, 0))  # (7, P, N) rows
        for path in ("einsum",) if n == 1 else ("einsum", "gemm"):
            differ = np.count_nonzero(_words(_expectations(stack, oset._ops, gemm=path == "gemm")) != want)
            assert differ == 0, (
                f"the {path} contraction of {n} states with the lifted operators of {name} is not the "
                f"index-order sum of its exact products in {differ} of {want.size} words; the sweep "
                "and haar-study digests below assume it is"
            )
        products = stack.reshape(n, 1, 1, 16) * oset._ops.reshape(1, *oset._ops.shape[:2], 16)
        pairwise += np.count_nonzero(_words(products.sum(axis=-1).transpose(2, 1, 0)) != want)
    assert pairwise > 0  # the stack tells the summation orders apart


def test_kernel_rows_equal_one_state_rows_on_both_sides_of_the_cutoff():
    # a state's per-pair moments are the same bits whichever contraction its stack takes
    stacks = [mixed_ensemble(stream(2828), 101, 4)]
    stacks += [noise_mixtures(np.linspace(0.0, 1.0, 101), kind, base)
               for kind in NoiseKind for base in ("psi-", "phi+")]
    for name, oset in {**EXACT_SETS, **INEXACT_SETS}.items():
        for stack in stacks:
            ones = [_pair_moments(stack[k:k + 1], oset) for k in range(len(stack))]
            for n in (GEMM_MIN_STATES - 1, GEMM_MIN_STATES, 101):
                moments = _pair_moments(stack[:n], oset)
                for k in range(n):
                    assert moments[..., k].tobytes() == ones[k][..., 0].tobytes(), (name, n, k)


@pytest.mark.parametrize("n", [GEMM_MIN_STATES, GEMM_MIN_STATES + 1, 33, 101])
def test_witness_values_equal_one_state_values_on_stacks_with_signed_zeros(n):
    # under gemm an exactly zero expectation can take another sign than the
    # same state's alone (einsum), so the moments may differ in the sign of
    # a zero; every witness sum starts from +0.0, so each value, signbit
    # included, must still be the lone state's bytes
    g = np.random.default_rng(20261029 + n)
    custom = EXACT_SETS["Pauli x-z, z-(-x), 2y-2y"]
    for _ in range(100):
        stack = signed_zero_stack(g, n)
        values = np.array([*evaluate_standard(stack), *evaluate_many(stack, custom)])
        for k in range(n):
            one = np.array([*evaluate_standard(stack[k:k + 1]), *evaluate_many(stack[k:k + 1], custom)])
            assert values[:, k].tobytes() == one[:, 0].tobytes(), (n, k, values[:, k], one[:, 0])


def test_only_exact_sets_take_gemm(monkeypatch):
    paths = []
    real = witness._expectations

    def recorded(matrices, ops, gemm):
        paths.append(gemm)
        return real(matrices, ops, gemm)

    monkeypatch.setattr(witness, "_expectations", recorded)
    stack = mixed_ensemble(stream(2929), 4096, 4)
    for name, oset in INEXACT_SETS.items():
        assert not oset._exact, name
        for n in (1, GEMM_MIN_STATES, 4096):
            evaluate_many(stack[:n], oset)
    assert paths == [False] * 3 * len(INEXACT_SETS), "a set with inexact products took gemm"
    paths.clear()
    for oset in EXACT_SETS.values():
        for n in (1, GEMM_MIN_STATES - 1, GEMM_MIN_STATES, 4096):
            evaluate_many(stack[:n], oset)
    assert paths == [False, False, True, True] * len(EXACT_SETS)


def _ppt_stacks():
    """The partial transposes behind the pinned `evaluate` and `sweep` ppt_min_eig cells,
    one stack per run, as `witness.ppt_min_eigenvalues` forms them."""
    for argv in OTHER_RUNS["evaluate"] + OTHER_RUNS["sweep"]:
        args = build_parser().parse_args(argv)
        if args.command == "evaluate":
            stack = parse_state_spec(args.state).matrix[None]
        else:
            assert args.p_steps <= STACK_CHUNK  # the grid is one chunk
            grid = np.linspace(args.p_start, args.p_stop, args.p_steps)
            stack = noise_mixtures(grid, NoiseKind(args.noise), args.base)
        yield transpose_second_qubit(stack)


def test_eigvalsh_bits_on_the_pinned_partial_transposes(in_tmp):
    # the JSON output of `evaluate` and `sweep` prints every bit of each
    # ppt_min_eig cell, the smallest eigenvalue LAPACK's eigvalsh returns;
    # OpenBLAS's LAPACK gives other bits under other kernels (Haswell's among them)
    h = hashlib.sha256()
    for stack in _ppt_stacks():
        h.update(np.linalg.eigvalsh(stack)[:, 0].tobytes())
    assert h.hexdigest() == PPT_EIGVALSH_DIGEST, (
        "LAPACK eigvalsh does not give the pinned bits on the partial transposes of the evaluate "
        "and sweep runs; the evaluate and sweep JSON digests below assume it does"
    )


def test_local_bound_bits_are_pinned():
    # `local_bound`, and so every set's bound_a and bound_b, is sum|v|^2 - eigvalsh(v^T v)[-1]:
    # its last bits are those of LAPACK's largest eigenvalue of v^T v, which OpenBLAS's
    # Haswell kernels move on some of these sets (the first set's bound_b to 2^-51)
    _, sets = _custom_inputs()
    paulis = {"sx": SX, "sy": SY, "sz": SZ}
    got = {tokens: local_bound([paulis[t] for t in tokens.split(",")]).hex() for tokens in PAULI_BOUNDS}
    bounds = [(oset.bound_a.hex(), oset.bound_b.hex()) for oset in sets]
    moved = [k for k, (value, want) in enumerate(zip(bounds, CUSTOM_BOUNDS)) if value != want]
    moved += [tokens for tokens, value in got.items() if value != PAULI_BOUNDS[tokens]]
    assert not moved, (
        f"LAPACK eigvalsh of v^T v does not give local_bound's pinned bits for {moved} (custom sets by "
        "index, Pauli subsets by tokens); the bound and custom-set digests below assume it does"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("spec", SIMULATE_SPECS)
def test_simulate_output_is_pinned(spec, fmt, in_tmp, capsys):
    runs = [
        ["simulate", "--state", spec, "--shots", str(shots), "--seed", str(seed)]
        for shots in SIMULATE_SHOTS
        for seed in SIMULATE_SEEDS
    ]
    assert _digest(runs, fmt, capsys) == SIMULATE_DIGESTS[spec, fmt], _rests_on(
        f"simulate {spec} {fmt}", FMA_CHAIN, MATMUL_ORDER)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(OTHER_RUNS))
def test_exact_and_study_output_is_pinned(command, fmt, in_tmp, capsys):
    # "haar-study" also writes its per-sample file; "haar-study summary" writes none
    per_sample = in_tmp / "samples.out" if command == "haar-study" else None
    moved = _rests_on(f"{command} {fmt}", *OTHER_ASSUMPTIONS[command])
    assert _digest(OTHER_RUNS[command], fmt, capsys, per_sample) == OTHER_DIGESTS[command, fmt], moved


def _report_fields(report) -> str:
    """Every field of an `EstimatedReport`: floats as `float.hex`, bases and verdicts by value."""
    floats = (report.l_value, report.l_se, report.ml_value, report.ml_se, report.separable_bound)
    labels = (*(b.value for b in report.bases), report.verdict_l.value, report.verdict_ml.value)
    return " ".join((*map(float.hex, floats), *labels)) + "\n"


def test_estimated_reports_are_pinned(in_tmp):
    h = hashlib.sha256()
    for spec in SIMULATE_SPECS:
        rho = parse_state_spec(spec)
        for shots in SIMULATE_SHOTS:
            for seed in SIMULATE_SEEDS:
                tables = simulate_counts(rho, shots, seed)
                for report in (estimate_witnesses(tables[:2]), estimate_witnesses(tables)):
                    h.update(_report_fields(report).encode())
    assert h.hexdigest() == ESTIMATE_DIGEST, _rests_on("estimated reports", FMA_CHAIN, MATMUL_ORDER)


def _drawn_stack() -> np.ndarray:
    """Every drawn replicate of SIMULATE_SPECS x SIMULATE_SHOTS x SIMULATE_SEEDS, as one (42, 3, 4) stack."""
    return np.array([
        draw_counts(parse_state_spec(spec), shots, seed)
        for spec in SIMULATE_SPECS for shots in SIMULATE_SHOTS for seed in SIMULATE_SEEDS
    ])


def test_stacked_estimates_in_every_basis_order_are_pinned(in_tmp):
    counts = _drawn_stack()
    h = hashlib.sha256()
    for order in BASIS_ORDERS:
        bases = [tuple(Basis)[i] for i in order]
        for column in estimate_witnesses_many(counts[:, order], bases):
            h.update(" ".join(map(float.hex, column.tolist())).encode() + b"\n")
    assert h.hexdigest() == MANY_DIGEST, _rests_on("stacked estimates", FMA_CHAIN, MATMUL_ORDER)


def test_table_estimates_in_every_basis_order_are_pinned(in_tmp):
    h = hashlib.sha256()
    for replicate in _drawn_stack():
        drawn = drawn_tables(replicate)
        built = [CountTable(t.basis, t.counts) for t in drawn]
        for order in BASIS_ORDERS:
            for tables in (drawn, built):
                h.update(_report_fields(estimate_witnesses([tables[i] for i in order])).encode())
    assert h.hexdigest() == ORDERED_DIGEST, _rests_on("table estimates", FMA_CHAIN, MATMUL_ORDER)


def _custom_sets(g) -> list:
    """Two sets of each size 1-4 of random Hermitian pairs; each derives the bounds of its two sides."""
    sets = []
    for size in (1, 2, 3, 4):
        for _ in range(2):
            pairs = [(random_hermitian(g, 2), random_hermitian(g, 2), f"pair{i}") for i in range(size)]
            sets.append(ObservableSet(tuple(pairs)))
    return sets


def _custom_inputs() -> tuple:
    """The seeded stack of 30 mixed states and the `_custom_sets` drawn after it."""
    g = stream(20261019)
    stack = mixed_ensemble(g, 30, 4)
    return stack, _custom_sets(g)


def test_custom_set_witnesses_are_pinned():
    stack, sets = _custom_inputs()
    h = hashlib.sha256()
    for oset in sets:
        for column in evaluate_many(stack, oset):
            h.update(" ".join(map(float.hex, column.tolist())).encode() + b"\n")
        for matrix in stack:
            report = evaluate(DensityMatrix(matrix), oset)
            stats = [(p.label, *map(float.hex, (p.var_a, p.var_b, p.var_sum, p.covariance)))
                     for p in report.pairs]
            floats = map(float.hex, (report.l_value, report.ml_value, report.separable_bound))
            h.update(repr((stats, *floats, report.verdict_l.value, report.verdict_ml.value)).encode())
    assert h.hexdigest() == CUSTOM_DIGEST, _rests_on("custom-set", KERNEL_ORDER, MATMUL_ORDER, BOUND_EIGVALSH)


def test_rotated_singlets_are_pinned():
    data = b"".join(parse_state_spec(f"u{k}-singlet").matrix.tobytes() for k in (1, 2, 3))
    digest = hashlib.sha256(data).hexdigest()
    assert digest == ROTATED_SINGLETS_DIGEST, _rests_on("rotated-singlet", MATMUL_ORDER)
