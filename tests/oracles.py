"""Brute-force reference computations for tests.

Deliberately independent of the package's code paths: expectations are
explicit double sums, the partial transpose is re-derived entrywise from its
index definition, and the entanglement test is the sign of a determinant
(an LU factorisation), not an eigenvalue. `haar_study_reference`,
`sweep_reference` and `estimate_reference` are the exceptions: they keep the
per-state and per-table loops that the stacked Haar study, sweep and
estimator replaced. The one-sample Haar rotation they need
(`haar_random_local_unitary`, `apply_to_pure`) lives here too, since the
package draws rotations only as a stack. `write_rows_reference` keeps the
one-dict-per-row text writer that the CLI's columnar writer replaced.
"""

import json
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def expect_brute(rho: np.ndarray, obs: np.ndarray) -> float:
    total = 0.0 + 0.0j
    n = rho.shape[0]
    for i in range(n):
        for j in range(n):
            total += rho[i, j] * obs[j, i]
    return total.real


def variance_brute(rho: np.ndarray, obs: np.ndarray) -> float:
    return expect_brute(rho, obs @ obs) - expect_brute(rho, obs) ** 2


def covariance_brute(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return expect_brute(rho, np.kron(a, b)) - expect_brute(rho, np.kron(a, I2)) * expect_brute(
        rho, np.kron(I2, b)
    )


def var_sum_brute(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return variance_brute(rho, np.kron(a, I2) + np.kron(I2, b))


def outcome_probabilities_brute(rho: np.ndarray, pauli: np.ndarray) -> np.ndarray:
    """Joint +/- probabilities Tr[rho (P_a x P_b)] of measuring `pauli` on both qubits,
    clipped to [0, 1] and normalised, in the order (+,+), (+,-), (-,+), (-,-)."""
    plus, minus = (I2 + pauli) / 2.0, (I2 - pauli) / 2.0
    projectors = [np.kron(pa, pb) for pa in (plus, minus) for pb in (plus, minus)]
    probs = np.clip(np.array([np.trace(rho @ p).real for p in projectors]), 0.0, 1.0)
    return probs / probs.sum()


def partial_transpose_brute(m: np.ndarray) -> np.ndarray:
    out = np.zeros_like(m)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for ell in range(2):
                    out[2 * i + j, 2 * k + ell] = m[2 * i + ell, 2 * k + j]
    return out


def eig_oracle(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(h)


def partial_transpose_det(rho: np.ndarray) -> float:
    """det(rho^T_B): negative iff a two-qubit rho is entangled (Augusiak,
    Demianowicz & Horodecki, PRA 77, 030301(R) (2008))."""
    return float(np.linalg.det(partial_transpose_brute(rho)).real)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors; every point of the sphere is within about 2.5/sqrt(n) rad."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def local_bound_brute(observables, n: int) -> float:
    """Minimum of sum_i var(o_i) over n pure qubit states spread over the Bloch sphere."""
    x, y, z = fibonacci_sphere(n).T
    theta = np.arccos(z)
    psi = np.stack([np.cos(theta / 2.0), np.exp(1j * np.arctan2(y, x)) * np.sin(theta / 2.0)], 1)
    total = np.zeros(n)
    for o in observables:
        mean = np.einsum("ni,ij,nj->n", psi.conj(), o, psi).real
        mean_sq = np.einsum("ni,ij,nj->n", psi.conj(), o @ o, psi).real
        total += mean_sq - mean**2
    return float(total.min())


def random_mixed_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def haar_random_local_unitary(rng: np.random.Generator):
    """Independent Haar-uniform SU(2) rotation for each party, from one (2, 4) normal draw."""
    from lurwit import states

    u_a, u_b = states._haar_su2(rng.standard_normal((2, 4)))
    return states.LocalUnitaryPair(u_a, u_b)


def apply_to_pure(pair, psi) -> np.ndarray:
    return pair.joint() @ np.asarray(psi, dtype=complex).reshape(4)


def haar_study_reference(kind: str, samples: int, seed: int):
    """The per-sample Haar study loop: (per-sample rows, detection counts).

    Unlike the rest of this module it runs the package's own code, one state
    at a time (this module's rotation, then `density_from_pure`, `evaluate`,
    `ppt_min_eigenvalue`), as the reference for the stacked study.
    """
    from lurwit import rng, states, witness

    l3_set = witness.standard_sets()["L3"]
    rows = []
    l3_detect = ml3_detect = ml3_only = 0
    for i in range(samples):
        pair = haar_random_local_unitary(rng.stream(seed, i))
        rho = states.density_from_pure(apply_to_pure(pair, states.bell_state(kind)))
        report = witness.evaluate(rho, l3_set)
        l_hit = report.verdict_l is witness.Verdict.ENTANGLEMENT_DETECTED
        ml_hit = report.verdict_ml is witness.Verdict.ENTANGLEMENT_DETECTED
        l3_detect += l_hit
        ml3_detect += ml_hit
        ml3_only += ml_hit and not l_hit
        rows.append(
            {
                "sample": i,
                "l3": report.l_value,
                "ml3": report.ml_value,
                "ppt_min_eig": witness.ppt_min_eigenvalue(rho),
            }
        )
    return rows, (l3_detect, ml3_detect, ml3_only)


def sweep_reference(noise: str, base: str, p_start: float, p_stop: float, p_steps: int):
    """The per-point sweep loop: one row dict per grid point.

    Like `haar_study_reference` it runs the package's own scalar path, one
    state at a time (`noise_mixture`, `evaluate` with L2 and L3,
    `ppt_min_eigenvalue`), as the reference for the stacked sweep.
    """
    from lurwit import states, witness

    kind = states.NoiseKind(noise)
    sets = witness.standard_sets()
    rows = []
    for p in np.linspace(p_start, p_stop, p_steps):
        rho = states.noise_mixture(float(p), kind, base=base)
        r2 = witness.evaluate(rho, sets["L2"])
        r3 = witness.evaluate(rho, sets["L3"])
        rows.append(
            {
                "p": float(p),
                "l2": r2.l_value,
                "ml2": r2.ml_value,
                "l3": r3.l_value,
                "ml3": r3.ml_value,
                "ppt_min_eig": witness.ppt_min_eigenvalue(rho),
            }
        )
    return rows


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_rows_reference(rows, columns, fmt: str) -> str:
    """The CLI's output text for row dicts, as the row writer built it.

    JSON is the json module's encoding of the list of rows; CSV is a header
    line and one `_format_value` join per row, with no quoting of any cell.
    """
    if fmt == "json":
        return json.dumps([{c: r[c] for c in columns} for r in rows], indent=2) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(_format_value(r[c]) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


# joint outcomes in the order (+,+), (+,-), (-,+), (-,-)
SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])
SIGN_AB = SIGN_A * SIGN_B


def _delta_se(grad: np.ndarray, freqs: np.ndarray, shots: int) -> float:
    # first-order propagation through the multinomial covariance of freqs
    mean = float(freqs @ grad)
    second = float(freqs @ (grad * grad))
    return math.sqrt(max(0.0, second - mean * mean) / shots)


def basis_estimate_reference(counts: np.ndarray) -> tuple:
    """One table's plug-in moments and delta-method SEs, in Python scalars.

    Returns (var_a, var_b, var_sum, cov, var_sum_se, ml_se), where ml_se is
    the SE of var_a + var_b - 2|cov|.
    """
    shots = int(counts.sum())
    f = counts / shots
    m_a = float(f @ SIGN_A)
    m_b = float(f @ SIGN_B)
    m_ab = float(f @ SIGN_AB)

    var_a = 1.0 - m_a**2
    var_b = 1.0 - m_b**2
    cov = m_ab - m_a * m_b
    var_sum = var_a + var_b + 2.0 * cov

    grad_cov = SIGN_AB - m_b * SIGN_A - m_a * SIGN_B
    grad_var_sum = 2.0 * SIGN_AB - 2.0 * (m_a + m_b) * (SIGN_A + SIGN_B)
    # |cov| gradient uses sign(cov); at cov == 0 the subgradient 0 is used
    grad_ml = -2.0 * m_a * SIGN_A - 2.0 * m_b * SIGN_B - 2.0 * np.sign(cov) * grad_cov
    var_sum_se, ml_se = _delta_se(grad_var_sum, f, shots), _delta_se(grad_ml, f, shots)
    return var_a, var_b, var_sum, cov, var_sum_se, ml_se


def estimate_reference(tables) -> tuple:
    """The per-table estimator loop: (per-table tuples, l, l_se, ml, ml_se).

    Like `haar_study_reference` it uses the package's own witness sums
    (`witness._witness_values`, with its check that the two ML forms agree);
    the witness SEs add in quadrature, one table after another.
    """
    from lurwit import witness

    per_table = [basis_estimate_reference(t.counts) for t in tables]
    l_var = ml_var = 0.0
    for est in per_table:
        l_var += est[4] ** 2
        ml_var += est[5] ** 2
    moments = np.array([[e[:4] for e in per_table]])
    l_values, ml_values = witness._witness_values(*moments.transpose(2, 0, 1))
    return (
        per_table,
        float(l_values[0]),
        math.sqrt(l_var),
        float(ml_values[0]),
        math.sqrt(ml_var),
    )
