import numpy as np
import pytest
from hypothesis import given

from lurwit.linalg import as_operator, transpose_second_qubit
from lurwit.rng import stream
from lurwit.witness import ppt_min_eigenvalue, ppt_min_eigenvalues
from oracles import (
    SX,
    SZ,
    I2,
    eig_oracle,
    kron,
    mixed_ensemble,
    partial_transpose_brute,
    partial_transpose_det,
)
from strategies import density_matrices, hermitian_4x4, pure_states


def test_oracle_kron_equals_np_kron_bitwise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
    y = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
    want = np.array([np.kron(a, b) for a, b in zip(x, y)])
    assert kron(x, y).tobytes() == want.tobytes()
    assert all(kron(a, b).tobytes() == np.kron(a, b).tobytes() for a, b in zip(x[:50], y[:50]))
    for a, b in ((x[0], I2), (I2, y[0]), (SX, SZ)):
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()


# the package's basis order |HH>, |HV>, |VH>, |VV> is np.kron's: block (i, j) of
# np.kron(a, b) is a[i, j] * b


def test_tensor_identity():
    assert np.array_equal(np.kron(I2, I2), np.eye(4))


def test_tensor_sz_sz():
    # hand-expanded Kronecker product
    assert np.array_equal(np.kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_tensor_sx_identity_swaps_first_qubit():
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(np.kron(SX, I2), expected)


def test_operators_reject_nan():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        as_operator(bad)
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0], [0, 1]], dtype=complex))


@given(hermitian_4x4(), hermitian_4x4())
def test_trace_is_cyclic(a, b):
    assert abs(np.trace(a @ b) - np.trace(b @ a)) <= 1e-12


def test_trace_is_cyclic_for_general_matrices():
    rng = np.random.default_rng(10)
    for dim in (2, 4):
        for _ in range(100):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert abs(np.trace(a @ b) - np.trace(b @ a)) <= 1e-12


def test_mixed_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)
        )
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_transpose_of_identity():
    assert np.array_equal(transpose_second_qubit(np.eye(4)), np.eye(4))


def test_partial_transpose_matches_entrywise_definition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(transpose_second_qubit(m), partial_transpose_brute(m))


def test_partial_transpose_is_exact_involution():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(transpose_second_qubit(transpose_second_qubit(m)), m)


def test_partial_transpose_fixes_real_symmetric_second_factor():
    rng = np.random.default_rng(7)
    rho_a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sym = rng.standard_normal((2, 2))
    rho_b = (sym + sym.T) / 2.0
    joint = np.kron(rho_a, rho_b)
    assert np.array_equal(transpose_second_qubit(joint), joint)


def test_singlet_partial_transpose_spectrum():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    eigs = np.linalg.eigvalsh(transpose_second_qubit(rho))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert np.allclose(eig_oracle(partial_transpose_brute(rho)), eigs, atol=1e-12)


@given(density_matrices())
def test_eigenvalues_match_external_solver(rho):
    expected = eig_oracle(partial_transpose_brute(rho.matrix))[0]
    assert abs(ppt_min_eigenvalue(rho) - expected) <= 1e-12


@given(density_matrices(), pure_states())
def test_min_eigenvalue_lower_bounds_quadratic_form(rho, v):
    lam = ppt_min_eigenvalue(rho)
    quad = np.real(np.conj(v) @ partial_transpose_brute(rho.matrix) @ v)
    assert quad >= lam - 1e-12


def test_ppt_sign_matches_determinant_oracle():
    # Two-qubit rho is entangled iff det(rho^T_B) < 0; the determinant comes
    # from an LU factorisation, so this checks the sign without an eigensolver.
    rho = mixed_ensemble(stream(2024), 25_000, 7)
    lam = ppt_min_eigenvalues(rho)
    # on the PPT boundary the sign of either quantity is roundoff
    off_boundary = ~(np.abs(lam) < 1e-9)
    negative = lam < 0
    (wrong,) = np.nonzero(off_boundary & (negative != (partial_transpose_det(rho) < 0)))
    assert wrong.size == 0, (wrong[0], lam[wrong[0]])
    checked = {sign: int(np.count_nonzero(off_boundary & (negative == sign))) for sign in (True, False)}
    assert sum(checked.values()) >= 20_000
    assert min(checked.values()) >= 2_000
