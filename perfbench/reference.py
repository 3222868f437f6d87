"""Closed-form reference values the benchmark checks lurwit's outputs against.

Every quantity here is computed from the Fano form of a two-qubit state,
R[i, j] = Tr(rho sigma_i (x) sigma_j) with sigma_0 = I: the Bloch vectors are
a = R[1:, 0] and b = R[0, 1:], the correlation matrix is T = R[1:, 1:]. For a
Pauli pair measured in the basis of sigma_k,

    var_a = 1 - a_k^2,  var_b = 1 - b_k^2,  cov = T_kk - a_k b_k,

and the joint outcome probabilities are (1 + s a_k + t b_k + s t T_kk) / 4.
None of this goes through lurwit's own operator traces or its Jacobi
eigensolver, so a check against these values is independent of the code
under test. States are built here from their textbook definitions.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([I2, SX, SY, SZ])
# PAULI_PAIRS[i, j] = sigma_i (x) sigma_j
PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", PAULIS, PAULIS).reshape(4, 4, 4, 4)

X, Y, Z = 1, 2, 3
# witness sets in lurwit's basis order: 0/90 -> Z, 45/135 -> X, R/L -> Y
L2_AXES = (Z, X)
L3_AXES = (Z, X, Y)
BOUNDS = {"L2": 2.0, "L3": 4.0}

_R2 = np.sqrt(0.5)
BELL = {
    "psi+": np.array([0, _R2, _R2, 0], dtype=complex),
    "psi-": np.array([0, _R2, -_R2, 0], dtype=complex),
    "phi+": np.array([_R2, 0, 0, _R2], dtype=complex),
    "phi-": np.array([_R2, 0, 0, -_R2], dtype=complex),
}
BELL["singlet"] = BELL["psi-"]

H = np.array([1, 0], dtype=complex)
V = np.array([0, 1], dtype=complex)
PLUS = np.array([_R2, _R2], dtype=complex)

# single-party reference rotations, second party untouched
SPECIAL_UNITARIES = {
    "u1": 0.5 * np.array([[1 + 1j, -1 + 1j], [1 + 1j, 1 - 1j]]),
    "u2": 0.5 * np.array([[1 - 1j * np.sqrt(3), 0], [0, 1 + 1j * np.sqrt(3)]]),
    "u3": np.array([[1, 0], [0, -1]], dtype=complex),
}


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for one state (4,) or a stack (n, 4)."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def werner(p, base: str = "psi-") -> np.ndarray:
    p = np.asarray(p, dtype=float)[..., None, None]
    return p * projector(BELL[base]) + (1.0 - p) * np.eye(4) / 4.0


def polarized(p, base: str = "psi-") -> np.ndarray:
    p = np.asarray(p, dtype=float)[..., None, None]
    return p * projector(BELL[base]) + (1.0 - p) * projector(np.kron(H, V))


def state_for_spec(spec: str) -> np.ndarray:
    """Density matrix for a CLI state spec other than file:."""
    if spec in BELL:
        return projector(BELL[spec])
    family, _, arg = spec.partition(":")
    if family in ("werner", "polarized"):
        p = float(arg.removeprefix("p="))
        return werner(p) if family == "werner" else polarized(p)
    if spec.endswith("-singlet"):
        u = np.kron(SPECIAL_UNITARIES[spec.split("-")[0]], I2)
        return u @ projector(BELL["psi-"]) @ u.conj().T
    raise ValueError(f"no reference state for {spec!r}")


def fano(rho: np.ndarray) -> np.ndarray:
    """R[..., i, j] = Tr(rho sigma_i (x) sigma_j) for one state or a stack."""
    return np.einsum("...ab,ijba->...ij", rho, PAULI_PAIRS).real


def witness_values(rho: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
    """(L, ML) for the Pauli pairs on `axes`: sum of var(A+B), and of var_a + var_b - 2|cov|."""
    r = fano(rho)
    ax = list(axes)
    a = r[..., ax, 0]
    b = r[..., 0, ax]
    t = r[..., ax, ax]
    var_a = 1.0 - a**2
    var_b = 1.0 - b**2
    cov = t - a * b
    return (var_a + var_b + 2.0 * cov).sum(-1), (var_a + var_b - 2.0 * np.abs(cov)).sum(-1)


def ppt_min_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose on the second qubit (LAPACK)."""
    m = np.asarray(rho).reshape(-1, 2, 2, 2, 2).swapaxes(2, 4).reshape(-1, 4, 4)
    return np.linalg.eigvalsh(m)[:, 0].reshape(np.shape(rho)[:-2])


def outcome_probabilities(rho: np.ndarray, axis: int) -> np.ndarray:
    """Joint (+,+), (+,-), (-,+), (-,-) probabilities when both parties measure sigma_axis."""
    r = fano(rho)
    a, b, t = r[axis, 0], r[0, axis], r[axis, axis]
    return np.array([(1 + s * a + u * b + s * u * t) / 4 for s in (1, -1) for u in (1, -1)])


def _su2(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.moveaxis(q, -1, 0)
    return (
        w[..., None, None] * I2
        + 1j * (x[..., None, None] * SX + y[..., None, None] * SY + z[..., None, None] * SZ)
    )


def haar_rotated_bell(kind: str, seed: int, samples: int) -> np.ndarray:
    """The (samples, 4, 4) states `haar-study` draws: sample i rotates the Bell
    state by a pair of SU(2) elements, Gaussian quaternions normalized, drawn
    from the Philox stream keyed (seed, i)."""
    word = 2**64
    qs = np.empty((samples, 2, 4))
    for i in range(samples):
        key = np.array([seed % word, i % word], dtype=np.uint64)
        qs[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal((2, 4))
    qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
    u = _su2(qs)
    psi = np.einsum("nab,ncd,bd->nac", u[:, 0], u[:, 1], BELL[kind].reshape(2, 2))
    return projector(psi.reshape(samples, 4))


def random_mixed_state(rng: np.random.Generator) -> np.ndarray:
    """A full-rank mixed state G G^dagger / Tr(G G^dagger) from a complex Gaussian G."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
