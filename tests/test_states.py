import itertools
import json
import re
import warnings

import numpy as np
import pytest

from lurwit import states
from lurwit.linalg import NumericsError, partial_transpose_second, transpose_second_qubit
from lurwit.rng import keyed_draws, stream
from lurwit.states import (
    BELL_KINDS,
    DensityMatrix,
    LocalUnitaryPair,
    NoiseKind,
    apply_local_unitary,
    bell_state,
    density_from_json,
    density_from_pure,
    noise_mixture,
    noise_mixtures,
    parse_state_spec,
    special_unitary,
)
from oracles import (
    SZ,
    I2,
    apply_to_pure,
    bloch_angles,
    bloch_vectors,
    eig_oracle,
    haar_random_local_unitary,
    mixed_ensemble,
    random_bloch_state,
    random_mixed_matrix,
    random_pure_state,
    random_pure_states,
    random_separable_state,
    random_separable_states,
    su2_pauli_sum,
)

SQ2 = 1.0 / np.sqrt(2)


def test_bell_amplitudes():
    assert np.allclose(bell_state("psi-"), [0, SQ2, -SQ2, 0], atol=1e-15)
    assert np.allclose(bell_state("psi+"), [0, SQ2, SQ2, 0], atol=1e-15)
    assert np.allclose(bell_state("phi+"), [SQ2, 0, 0, SQ2], atol=1e-15)
    assert np.allclose(bell_state("phi-"), [SQ2, 0, 0, -SQ2], atol=1e-15)


def test_bell_states_are_normalized():
    for kind in BELL_KINDS:
        assert abs(np.linalg.norm(bell_state(kind)) - 1.0) <= 1e-15


def test_singlet_alias_and_unknown_kind():
    assert np.array_equal(bell_state("singlet"), bell_state("psi-"))
    with pytest.raises(ValueError):
        bell_state("psi?")


def test_density_from_pure_is_rank_one_projector():
    rho = density_from_pure(bell_state("psi-"))
    assert np.allclose(eig_oracle(rho.matrix), [0, 0, 0, 1], atol=1e-12)
    assert rho.matrix[1, 1].real == pytest.approx(0.5, abs=1e-15)
    # projector property rho^2 = rho
    assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) <= 1e-14


def test_density_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        density_from_pure(np.array([1.0, 1.0, 0.0, 0.0]))


def test_density_matrix_invariants_enforced():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.1
    cases = [
        (np.diag([0.5, 0.5, 0.5, -0.5]), "has a negative eigenvalue", 0.5, "1e-09"),
        (np.diag([0.7, 0.5, 0.0, 0.0]), "trace is not 1", 0.2, "1e-10"),
        (bad, "is not Hermitian", 0.1, "1e-10"),
    ]
    for matrix, what, deviation, tol in cases:
        with pytest.raises(ValueError) as failure:
            DensityMatrix(matrix)
        found = re.fullmatch(rf"density matrix {what} for .*: deviation (\S+) > {tol}", str(failure.value))
        assert found and float(found[1]) == pytest.approx(deviation, abs=1e-15)


def test_noise_mixture_degenerate_cases():
    proj = density_from_pure(bell_state("psi-")).matrix
    assert np.allclose(noise_mixture(1.0, NoiseKind.WERNER).matrix, proj, atol=1e-15)
    assert np.allclose(noise_mixture(1.0, NoiseKind.POLARIZED).matrix, proj, atol=1e-15)
    assert np.allclose(noise_mixture(0.0, NoiseKind.WERNER).matrix, np.eye(4) / 4, atol=1e-15)


def test_noise_mixture_rejects_bad_weight():
    with pytest.raises(ValueError):
        noise_mixture(-0.1, NoiseKind.WERNER)
    with pytest.raises(ValueError):
        noise_mixture(1.1, NoiseKind.POLARIZED)


def test_noise_mixtures_rows_equal_scalar_states():
    ps = np.append(np.linspace(0.0, 1.0, 31), 1.0 / 3.0)  # 0, 1/3 and 1 included
    for kind in NoiseKind:
        for base in BELL_KINDS:
            stack = noise_mixtures(ps, kind, base)
            assert stack.shape == (len(ps), 4, 4)
            want = np.array([noise_mixture(float(p), kind, base).matrix for p in ps])
            assert stack.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [-0.1, 1.0 + 1e-9, float("nan")])
def test_noise_mixtures_name_the_first_bad_weight(bad):
    with pytest.raises(ValueError) as scalar:
        noise_mixture(bad, NoiseKind.WERNER)
    message = re.escape(str(scalar.value))
    assert f"p={bad} " in str(scalar.value)
    with pytest.raises(ValueError, match=message):
        noise_mixtures([0.0, 0.5, bad, 1.5, -2.0], NoiseKind.WERNER)
    # as a loop of `noise_mixture` calls: the first p, then the base, then the rest
    with pytest.raises(ValueError, match=message):
        noise_mixtures([bad, 0.5], NoiseKind.POLARIZED, base="xx")
    with pytest.raises(ValueError, match="unknown Bell state 'xx'"):
        noise_mixtures([0.5, bad], NoiseKind.POLARIZED, base="xx")


@pytest.mark.parametrize(
    "noise, what",
    [
        (np.eye(4) / 4.0 + 1e-6j * np.eye(4, k=1), "not Hermitian"),
        (np.eye(4) / 4.0 * 1.001, "trace is not 1"),
        (np.diag([-0.01, 0.51, 0.25, 0.25]), "negative eigenvalue"),
    ],
)
def test_noise_mixtures_failed_density_check_is_internal_error(noise, what, monkeypatch):
    monkeypatch.setitem(states._NOISE_STATES, NoiseKind.WERNER, noise.astype(complex))
    with pytest.raises(NumericsError, match=f"{what} for p=0.25: deviation"):
        noise_mixtures([1.0, 0.25, 0.0], NoiseKind.WERNER)


def _with_eigenvalues(values, seed: int) -> np.ndarray:
    """A Hermitian 4x4 matrix with the given spectrum, in a seeded random eigenbasis."""
    g = stream(seed).standard_normal((4, 4, 2))
    v, _ = np.linalg.qr(g[..., 0] + 1j * g[..., 1])
    m = (v * np.asarray(values)) @ v.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("lam, fails", [(-2e-9, True), (-0.5e-9, False)])
def test_stacked_psd_check_names_the_row_past_its_tolerance(lam, fails):
    # spectrum (0.6 - lam, 0.4, 0, lam): unit trace, lambda_min = lam; PSD_TOL is 1e-9
    rows = [np.eye(4) / 4.0, _with_eigenvalues([0.6, 0.4, 0.0, 0.0], 1)]
    rows += [_with_eigenvalues([0.6 - lam, 0.4, 0.0, lam], 2)] * 2
    checks = states._density_checks(np.array(rows, dtype=complex))
    if not fails:
        states._check_stack(checks, lambda k: f"row {k}")
        DensityMatrix(rows[2])  # one state passes the same check
        return
    with pytest.raises(ValueError, match=r"negative eigenvalue for .*: deviation \S+ > 1e-09$"):
        DensityMatrix(rows[2])
    with pytest.raises(NumericsError) as failure:
        states._check_stack(checks, lambda k: f"row {k}")
    found = re.fullmatch(
        r"density matrix has a negative eigenvalue for row 2: deviation (\S+) > 1e-09", str(failure.value)
    )
    assert found and float(found[1]) == pytest.approx(-lam, abs=1e-15)


def test_su2_entries_equal_the_pauli_sum():
    # seeded Haar quaternions: bit for bit
    g = stream(41).standard_normal((4096, 4))
    q = g / np.linalg.norm(g, axis=-1, keepdims=True)
    got = states._su2_from_quaternion(q)
    assert got.tobytes() == su2_pauli_sum(q).tobytes()
    # every pattern of exact zero (either sign) and nonzero components: equal
    # as numbers (== reads -0.0 and 0.0 as one value), so bit for bit in every
    # real and imaginary part that is not zero
    q = np.array(list(itertools.product([0.0, -0.0, 0.5, -0.5], repeat=4)))
    got, want = states._su2_from_quaternion(q).view(float), su2_pauli_sum(q).view(float)
    assert got.shape == want.shape == (256, 2, 4)
    assert np.array_equal(got, want)
    nonzero = want != 0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


@pytest.mark.parametrize("kind", BELL_KINDS)
def test_haar_stack_rows_equal_states_from_fresh_streams(kind):
    # 2**64 + 7 keys the stream of 7, and -1 that of 2**64 - 1
    indices = [0, 7, 2**64 + 7, -1]
    stack = states.haar_rotated_bell_states(kind, 5, indices)
    assert stack.shape == (4, 4, 4)
    for row, i in zip(stack, indices):
        pair = haar_random_local_unitary(stream(5, i))
        want = density_from_pure(apply_to_pure(pair, bell_state(kind))).matrix
        assert row.tobytes() == want.tobytes()
    assert stack[1].tobytes() == stack[2].tobytes()
    assert stack[0].tobytes() != stack[3].tobytes()


def test_werner_boundary_is_ppt_critical():
    rho = noise_mixture(1.0 / 3.0, NoiseKind.WERNER)
    assert abs(eig_oracle(partial_transpose_second(rho.matrix))[0]) <= 1e-10


def test_noise_mixtures_stay_positive_on_grid():
    for kind in NoiseKind:
        for p in np.linspace(0.0, 1.0, 101):
            rho = noise_mixture(float(p), kind)
            assert eig_oracle(rho.matrix)[0] >= -1e-12


def test_special_unitaries_are_unitary_with_trivial_second_factor():
    for which in ("u1", "u2", "u3"):
        pair = special_unitary(which)
        assert np.max(np.abs(pair.u_a.conj().T @ pair.u_a - I2)) <= 1e-12
        assert np.array_equal(pair.u_b, I2)
    with pytest.raises(ValueError):
        special_unitary("u4")


def test_u3_maps_singlet_to_psi_plus():
    out = special_unitary("u3").joint() @ bell_state("psi-")
    fidelity = abs(np.vdot(bell_state("psi+"), out)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_u1_singlet_expansion():
    out = special_unitary("u1").joint() @ bell_state("psi-")
    target = (
        1j * bell_state("psi+")
        + bell_state("psi-")
        + bell_state("phi+")
        - 1j * bell_state("phi-")
    ) / 2.0
    assert np.max(np.abs(out - target)) <= 1e-12


def test_u2_singlet_expansion():
    out = special_unitary("u2").joint() @ bell_state("psi-")
    target = (-1j * np.sqrt(3) * bell_state("psi+") + bell_state("psi-")) / 2.0
    assert np.max(np.abs(out - target)) <= 1e-12


def test_identity_pair_leaves_state_unchanged():
    rho = noise_mixture(0.4, NoiseKind.WERNER)
    out = apply_local_unitary(LocalUnitaryPair(I2, I2), rho)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_u3_transports_singlet_projector():
    rho = density_from_pure(bell_state("psi-"))
    out = apply_local_unitary(special_unitary("u3"), rho)
    assert np.allclose(out.matrix, density_from_pure(bell_state("psi+")).matrix, atol=1e-14)


def test_local_unitary_pair_rejects_non_unitary():
    with pytest.raises(ValueError):
        LocalUnitaryPair(np.array([[1, 1], [0, 1]], dtype=complex), I2)


def test_ppt_spectrum_invariant_under_local_unitaries():
    g = stream(123)
    for _ in range(50):
        rho = random_separable_state(g, 3) if g.uniform() < 0.5 else density_from_pure(
            random_pure_state(g)
        )
        pair = haar_random_local_unitary(g)
        before = eig_oracle(partial_transpose_second(rho.matrix))[0]
        after = eig_oracle(partial_transpose_second(apply_local_unitary(pair, rho).matrix))[0]
        assert abs(before - after) <= 1e-10


def test_haar_unitaries_are_special_unitary():
    # 500 draws of shape (2, 4) from one stream are one (500, 2, 4) draw
    u = states._haar_su2(stream(7).standard_normal((500, 2, 4)))  # (n, party, 2, 2)
    assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - I2)) <= 1e-10
    assert np.max(np.abs(np.abs(np.linalg.det(u)) - 1.0)) <= 1e-10


def test_haar_mean_polarization_vanishes():
    # <sz> averaged over rotations of |H> converges to 0. On one stream, n
    # draws of shape (2, 4) are one (n, 2, 4) draw, so the rotations are
    # built as one stack; the prefix check pins them to the scalar draws.
    n = 100_000
    u = states._haar_su2(stream(99).standard_normal((n, 2, 4)))  # (n, party, 2, 2)
    g = stream(99)
    for k in range(2000):
        pair = haar_random_local_unitary(g)
        assert np.array_equal(u[k, 0], pair.u_a) and np.array_equal(u[k, 1], pair.u_b)
    u_a = u[:, 0]
    sz = (u_a.conj().swapaxes(-1, -2) @ SZ @ u_a)[:, 0, 0].real
    assert abs(sz.mean()) <= 0.02


def test_random_bloch_state_is_normalized():
    g = stream(5)
    for _ in range(100):
        v = random_bloch_state(g)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_random_separable_state_basics():
    g = stream(17)
    for k in range(1, 7):
        rho = random_separable_state(g, k)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
        assert eig_oracle(partial_transpose_second(rho.matrix))[0] >= -1e-10
    with pytest.raises(ValueError):
        random_separable_state(g, 0)


def test_random_separable_state_is_deterministic():
    a = random_separable_state(stream(31, 4), 5).matrix
    b = random_separable_state(stream(31, 4), 5).matrix
    assert np.array_equal(a, b)


def test_separable_ensemble_satisfies_peres_criterion():
    # module-level soundness sweep: product mixtures never go NPT
    n = 10_000
    rho = random_separable_states(2001, range(n), [(i % 6) + 1 for i in range(n)])
    worst = min(0.0, eig_oracle(transpose_second_qubit(rho))[:, 0].min())
    assert worst >= -1e-9


def test_random_pure_state_normalized():
    g = stream(8)
    for _ in range(100):
        assert abs(np.linalg.norm(random_pure_state(g)) - 1.0) <= 1e-12


# The stacked test ensembles against their one-state constructors, on the
# first 200 keys of the ensembles the suite draws.


def test_bloch_vectors_equal_random_bloch_state_bitwise():
    stacked = bloch_vectors(np.array(keyed_draws(5, range(200), bloch_angles)))
    scalar = np.array([random_bloch_state(stream(5, i)) for i in range(200)])
    assert stacked.tobytes() == scalar.tobytes()


def test_random_separable_states_equal_random_separable_state_bitwise():
    ks = [(i % 6) + 1 for i in range(200)]
    stacked = random_separable_states(600, range(200), ks)
    scalar = np.array([random_separable_state(stream(600, i), k).matrix for i, k in enumerate(ks)])
    assert stacked.tobytes() == scalar.tobytes()
    with pytest.raises(ValueError):
        random_separable_states(600, range(2), [1, 0])


def test_random_pure_states_equal_random_pure_state_bitwise():
    stacked = random_pure_states(700, range(200))
    scalar = np.array([random_pure_state(stream(700, i)) for i in range(200)])
    assert stacked.tobytes() == scalar.tobytes()


def test_mixed_ensemble_equals_the_one_state_loop_bitwise():
    g, matrices = stream(2024), []
    for i in range(200):
        if i % 3 == 0:
            matrices.append(density_from_pure(random_pure_state(g)).matrix)
        elif i % 3 == 1:
            matrices.append(DensityMatrix(random_mixed_matrix(g)).matrix)
        else:
            matrices.append(random_separable_state(g, int(g.integers(1, 7))).matrix)
    assert mixed_ensemble(stream(2024), 200, 7).tobytes() == np.array(matrices).tobytes()


def test_stack_constructors_and_checks_take_empty_stacks():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacks = [noise_mixtures([], kind) for kind in NoiseKind]
        stacks += [states.haar_rotated_bell_states(kind, 1, range(0)) for kind in BELL_KINDS]
        stacks.append(random_separable_states(600, range(0), []))
        for rho in stacks:
            assert rho.shape == (0, 4, 4)
            states._check_stack(states._density_checks(rho), str)


def test_parse_state_spec_named_states():
    singlet = parse_state_spec("singlet")
    assert np.allclose(singlet.matrix, density_from_pure(bell_state("psi-")).matrix)
    for kind in BELL_KINDS:
        parse_state_spec(kind)
    u2 = parse_state_spec("u2-singlet")
    expected = apply_local_unitary(special_unitary("u2"), density_from_pure(bell_state("psi-")))
    assert np.allclose(u2.matrix, expected.matrix, atol=1e-14)


NAMED_SPECS = ["singlet", *BELL_KINDS, "u1-singlet", "u2-singlet", "u3-singlet"]


@pytest.mark.parametrize("spec", NAMED_SPECS)
def test_named_states_are_built_once_with_the_fresh_bits(spec):
    # one validated, read-only state per spec serves every later call
    rho = parse_state_spec(spec)
    assert parse_state_spec(f" {spec} ") is rho
    assert not rho.matrix.flags.writeable
    if spec.startswith("u"):
        fresh = apply_local_unitary(special_unitary(spec[:2]), density_from_pure(bell_state("psi-")))
    else:
        fresh = density_from_pure(bell_state(spec))
    assert rho.matrix.tobytes() == fresh.matrix.tobytes()


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_noise_mixtures_on_the_kept_projector_equal_fresh_ones(kind):
    ps = np.linspace(0.0, 1.0, 7)
    for base in ("singlet", *BELL_KINDS):
        proj = density_from_pure(bell_state(base)).matrix
        fresh = np.array([p * proj + (1.0 - p) * states._NOISE_STATES[kind] for p in ps])
        assert noise_mixtures(ps, kind, base=base).tobytes() == fresh.tobytes()
        assert noise_mixture(ps[2], kind, base=base).matrix.tobytes() == fresh[2].tobytes()


def test_parse_state_spec_noise_families():
    rho = parse_state_spec("werner:p=0.25")
    assert np.allclose(rho.matrix, noise_mixture(0.25, NoiseKind.WERNER).matrix)
    rho = parse_state_spec("polarized:p=0.5")
    assert np.allclose(rho.matrix, noise_mixture(0.5, NoiseKind.POLARIZED).matrix)


def test_parse_state_spec_rejects_garbage():
    for bad in ("nope", "werner:p=", "werner:p=2", "werner:q=0.5", "polarized:p=abc"):
        with pytest.raises(ValueError):
            parse_state_spec(bad)


def test_density_file_roundtrip(tmp_path):
    rho = noise_mixture(0.3, NoiseKind.WERNER)
    payload = {
        "dim": 4,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    loaded = parse_state_spec(f"file:{path}")
    assert np.allclose(loaded.matrix, rho.matrix, atol=1e-15)


def test_density_json_validation():
    with pytest.raises(ValueError):
        density_from_json({"dim": 4, "re": [[1.0] * 4] * 4})  # missing im
    with pytest.raises(ValueError):
        density_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})
    good_re = (np.eye(4) / 4).tolist()
    bad_im = np.zeros((4, 4))
    bad_im[0, 1] = 0.5  # breaks Hermiticity
    with pytest.raises(ValueError):
        density_from_json({"dim": 4, "re": good_re, "im": bad_im.tolist()})


def test_bad_unitary_output_raises_internal_error():
    # corrupt a pair after validation to show the output check trips
    pair = LocalUnitaryPair(I2.copy(), I2.copy())
    object.__setattr__(pair, "u_a", 1.2 * I2)
    with pytest.raises(NumericsError):
        apply_local_unitary(pair, noise_mixture(0.5, NoiseKind.WERNER))
