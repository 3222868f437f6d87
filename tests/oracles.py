"""Brute-force reference computations and seeded test ensembles for tests.

Deliberately independent of the package's code paths: expectations are
explicit double sums, the partial transpose is re-derived entrywise from its
index definition, and the entanglement test is the sign of a determinant
(an LU factorisation), not an eigenvalue. `haar_study_reference`,
`sweep_reference` and `local_bound_reference` are the exceptions: they
keep the per-state and per-observable loops that the stacked Haar study,
sweep and local bound replaced. `estimate_reference` keeps the per-table
estimator loop, and `witness_values_reference` and
`estimate_values_reference` the per-family row sums that the one witness
summation kernel and the one estimate function replaced, and
`expectations_in_index_order` the order in which both contractions of the
witness kernel, `einsum` and gemm, must add their exact products.
`pair_moments_reference` and `witness_sums_reference` keep the
statistic-major kernel, checks and messages included, that the kernel's
pair-major rows and one-block checks replaced. The
one-sample local rotations they need (`haar_random_local_unitary`,
`joint_rotation`, `apply_to_pure`, `rotate_density`) live here too, since
the package's only local-rotation code is its Haar stack. They build SU(2)
elements as the Pauli sum (`su2_pauli_sum`), which the package writes entry
by entry, and the joint rotation by `np.kron`, checked unitary.
`write_rows_reference` keeps the one-dict-per-row text writer that the
CLI's columnar writer replaced.

The random test states live here as well, since the package has no use for
them: the one-state constructors `random_bloch_state`,
`random_separable_state` and `random_pure_state`, and their stacked forms.
A stacked form takes the same draws, builds the whole ensemble with
broadcast products in place of `np.kron` and `np.outer`, and validates it
once with the package's stack checks (`checked_states`), which are the
`DensityMatrix` checks as maxima with the same tolerances. Every stacked
state is bit for bit the state its one-state constructor builds from the
same draws.
"""

import json
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`np.kron` of 2x2 matrices, bit for bit, for one pair or for each pair of two
    broadcast (..., 2, 2) stacks; without `np.kron`'s per-call axis bookkeeping."""
    p = x[..., :, None, :, None] * y[..., None, :, None, :]
    return p.reshape(p.shape[:-4] + (4, 4))


def expect_brute(rho: np.ndarray, obs: np.ndarray) -> float:
    # the entries as Python numbers: the same products and sums as numpy scalars
    # would give, without numpy's per-scalar overhead
    rho, obs = np.asarray(rho).tolist(), np.asarray(obs).tolist()
    total = 0.0 + 0.0j
    n = len(rho)
    for i in range(n):
        for j in range(n):
            total += rho[i][j] * obs[j][i]
    return total.real


def variance_brute(rho: np.ndarray, obs: np.ndarray) -> float:
    return expect_brute(rho, obs @ obs) - expect_brute(rho, obs) ** 2


def covariance_brute(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return expect_brute(rho, kron(a, b)) - expect_brute(rho, kron(a, I2)) * expect_brute(
        rho, kron(I2, b)
    )


def var_sum_brute(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return variance_brute(rho, kron(a, I2) + kron(I2, b))


def outcome_probabilities_brute(rho: np.ndarray, pauli: np.ndarray) -> np.ndarray:
    """Joint +/- probabilities Tr[rho (P_a x P_b)] of measuring `pauli` on both qubits,
    clipped to [0, 1] and normalised, in the order (+,+), (+,-), (-,+), (-,-)."""
    plus, minus = (I2 + pauli) / 2.0, (I2 - pauli) / 2.0
    projectors = [kron(pa, pb) for pa in (plus, minus) for pb in (plus, minus)]
    probs = np.clip(np.array([np.trace(rho @ p).real for p in projectors]), 0.0, 1.0)
    return probs / probs.sum()


def partial_transpose_brute(m: np.ndarray) -> np.ndarray:
    """The partial transpose of one 4x4 matrix, or of each matrix of a (..., 4, 4) stack."""
    out = np.zeros_like(m)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for ell in range(2):
                    out[..., 2 * i + j, 2 * k + ell] = m[..., 2 * i + ell, 2 * k + j]
    return out


def eig_oracle(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(h)


def partial_transpose_det(rho: np.ndarray) -> np.ndarray:
    """det(rho^T_B) of one state or of each state of a stack: negative iff a two-qubit
    rho is entangled (Augusiak, Demianowicz & Horodecki, PRA 77, 030301(R) (2008))."""
    return np.linalg.det(partial_transpose_brute(rho)).real


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


def local_bound_reference(observables) -> float:
    """`witness.local_bound` as one validation and one Tr(o sigma) per observable and Pauli."""
    from lurwit.linalg import HERMITIAN_TOL, as_operator

    obs = [as_operator(o, dim=2) for o in observables]
    if not obs:
        raise ValueError("need at least one observable")
    for o in obs:  # Hermitian to within HERMITIAN_TOL at the scale of o's largest entry
        if np.abs(o - o.conj().T).max() > HERMITIAN_TOL * max(1.0, np.abs(o).max()):
            raise ValueError("observables must be Hermitian")
    v = np.array([[0.5 * np.trace(o @ s).real for s in (SX, SY, SZ)] for o in obs])
    return float(np.sum(v * v) - np.linalg.eigvalsh(v.T @ v)[-1])


def random_mixed_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_bloch_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure qubit: uniform azimuth, uniform cos(polar)."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    cos_theta = rng.uniform(-1.0, 1.0)
    half = np.arccos(cos_theta) / 2.0
    return np.array([np.cos(half), np.exp(1j * phi) * np.sin(half)])


def random_separable_state(rng: np.random.Generator, k: int):
    """Mixture of k pure product states with simplex-uniform weights."""
    from lurwit.states import DensityMatrix

    if k < 1:
        raise ValueError("need at least one product term")
    weights = rng.exponential(size=k)
    weights /= weights.sum()
    total = np.zeros((4, 4), dtype=complex)
    for w in weights:
        v = np.kron(random_bloch_state(rng), random_bloch_state(rng))
        total += w * np.outer(v, v.conj())
    return DensityMatrix(total)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure two-qubit state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


# the ranges of `random_bloch_state`'s two uniform draws, (phi, cos theta)
_BLOCH_LOW = np.array([0.0, -1.0])
_BLOCH_HIGH = np.array([2.0 * np.pi, 1.0])


def bloch_angles(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """The draws of `random_bloch_state`, one (phi, cos theta) pair per entry of `shape`."""
    return rng.uniform(_BLOCH_LOW, _BLOCH_HIGH, size=(*shape, 2))


def checked_states(rho: np.ndarray, name=lambda k: f"state {k}") -> np.ndarray:
    """`rho`, an (n, 4, 4) stack, after the package's `DensityMatrix` checks on all of it."""
    from lurwit import states

    states._check_stack(states._density_checks(rho), name)
    return rho


def bloch_vectors(angles: np.ndarray) -> np.ndarray:
    """`random_bloch_state`'s vector for each (phi, cos theta) pair of `angles` (..., 2)."""
    half = np.arccos(angles[..., 1]) / 2.0
    return np.stack([np.cos(half), np.exp(1j * angles[..., 0]) * np.sin(half)], axis=-1)


def separable_draw(rng: np.random.Generator, k: int) -> tuple:
    """The draws of `random_separable_state(rng, k)`, in its order: the k normalized
    weights and a (k, 2, 2) array of angles (term, party, (phi, cos theta))."""
    if k < 1:
        raise ValueError("need at least one product term")
    weights = rng.exponential(size=k)
    weights /= weights.sum()
    return weights, bloch_angles(rng, (k, 2))


def separable_matrices(draws) -> np.ndarray:
    """Unchecked (n, 4, 4) stack of `random_separable_state` matrices, one per `separable_draw`.

    Every state is padded to the most terms with weight-0 terms, whose
    zero products leave the running sum exactly as it was.
    """
    terms = max((len(w) for w, _ in draws), default=1)
    weights = np.zeros((len(draws), terms))
    angles = np.zeros((len(draws), terms, 2, 2))
    for row, (w, a) in enumerate(draws):
        weights[row, : len(w)] = w
        angles[row, : len(w)] = a
    a, b = np.moveaxis(bloch_vectors(angles), -2, 0)  # (n, terms, 2) per party
    v = (a[..., :, None] * b[..., None, :]).reshape(len(draws), terms, 4)  # np.kron(a, b)
    products = weights[..., None, None] * (v[..., :, None] * v.conj()[..., None, :])
    total = np.zeros((len(draws), 4, 4), dtype=complex)
    for j in range(terms):
        total += products[:, j]
    return total


def random_separable_states(seed: int, indices, ks) -> np.ndarray:
    """Checked (n, 4, 4) stack; row r is `random_separable_state(stream(seed, indices[r]), ks[r])`."""
    from lurwit import rng

    k_iter = iter(ks)
    draws = rng.keyed_draws(seed, indices, lambda g: separable_draw(g, next(k_iter)))
    return checked_states(separable_matrices(draws), lambda r: f"state {indices[r]} (seed {seed})")


def pure_states(normals: np.ndarray) -> np.ndarray:
    """`random_pure_state` of each (2, 4) draw of an (n, 2, 4) stack of normals, as (n, 4).

    The norm is a dot product per row, as `np.linalg.norm` forms it for one
    vector; a norm over an axis sums in another order.
    """
    v = normals[:, 0] + 1j * normals[:, 1]
    norm = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return v / norm[:, None]


def random_pure_states(seed: int, indices) -> np.ndarray:
    """(n, 4) stack; row r is `random_pure_state(stream(seed, indices[r]))`."""
    from lurwit import rng

    normals = np.empty((len(indices), 2, 4))
    rows = iter(normals)
    rng.keyed_draws(seed, indices, lambda g: g.standard_normal(out=next(rows)))
    return pure_states(normals)


def mixed_ensemble(rng: np.random.Generator, n: int, high: int) -> np.ndarray:
    """Checked (n, 4, 4) stack drawn in turn from one stream: row i is
    `density_from_pure(random_pure_state(rng))` (i % 3 == 0), a
    `random_mixed_matrix` (i % 3 == 1) or a `random_separable_state` of
    `rng.integers(1, high)` terms; each row bit for bit the one-state matrix."""
    from lurwit import states

    normals, mixed, separable = [], [], []
    for i in range(n):
        if i % 3 == 0:
            normals.append(rng.standard_normal((2, 4)))  # `random_pure_state`'s draws
        elif i % 3 == 1:
            mixed.append(random_mixed_matrix(rng))
        else:
            separable.append(separable_draw(rng, int(rng.integers(1, high))))
    psi = pure_states(np.array(normals).reshape(-1, 2, 4))
    norm = np.abs(np.sum(np.abs(psi) ** 2, axis=1) - 1.0)  # `density_from_pure`'s check
    states._check_stack([("state is not normalized", norm, states.NORM_TOL)],
                        lambda k: f"state {3 * k}")
    rho = np.empty((n, 4, 4), dtype=complex)
    rho[0::3] = psi[:, :, None] * psi.conj()[:, None, :]
    rho[1::3] = mixed
    rho[2::3] = separable_matrices(separable)
    return checked_states(rho)


def su2_pauli_sum(q: np.ndarray) -> np.ndarray:
    """w*I + i*(x*SX + y*SY + z*SZ) for quaternions (..., 4) = (w, x, y, z), as (..., 2, 2)."""
    w, x, y, z = (c[..., None, None] for c in np.moveaxis(q, -1, 0))
    return w * I2 + 1j * (x * SX + y * SY + z * SZ)


def haar_random_local_unitary(rng: np.random.Generator) -> tuple:
    """Independent Haar-uniform SU(2) rotations (u_a, u_b), one per party, from one (2, 4) normal draw."""
    g = rng.standard_normal((2, 4))
    u_a, u_b = su2_pauli_sum(g / np.linalg.norm(g, axis=-1, keepdims=True))
    return u_a, u_b


def joint_rotation(pair) -> np.ndarray:
    """u_a (x) u_b of a pair of single-party rotations, by `np.kron`, checked unitary."""
    u = np.kron(*pair)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10, "joint rotation is not unitary"
    return u


def apply_to_pure(pair, psi) -> np.ndarray:
    """The amplitudes `psi` under the joint rotation of `pair`."""
    return joint_rotation(pair) @ np.asarray(psi, dtype=complex).reshape(4)


def rotate_density(pair, rho) -> np.ndarray:
    """The 4x4 matrix `rho` under the joint rotation u of `pair`: u rho u^dagger, in that order."""
    u = joint_rotation(pair)
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


def haar_study_reference(kind: str, samples: int, seed: int):
    """The per-sample Haar study loop: (per-sample rows, detection counts).

    Unlike the rest of this module it runs the package's own code, one state
    at a time (this module's rotation, checked unitary, then
    `density_from_pure`, `evaluate`, `ppt_min_eigenvalue`), as the reference
    for the stacked study.
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


def expectations_in_index_order(matrices, ops) -> np.ndarray:
    """Tr(rho op) of each (N, 4, 4) state and each (P, 7, 4, 4) operator, stored transposed, as (N, P, 7).

    The sum `witness._expectations` must return by either path: each
    expectation's 16 products rho_ij (op^T)_ij, each formed as one complex
    product and added in row-major index order, starting from +0.
    """
    rho = np.asarray(matrices).reshape(len(matrices), 1, 1, 16)
    op = np.asarray(ops).reshape(1, *np.shape(ops)[:2], 16)
    total = np.zeros((len(matrices), *np.shape(ops)[:2]), dtype=complex)
    for k in range(16):
        total = total + rho[..., k] * op[..., k]
    return total


def lifted_operators_reference(pairs) -> np.ndarray:
    """The (P, 7, 4, 4) lifted operators of (a_i, b_i, label) pairs, each transposed, in the
    statistic-major kernel's order a, a^2, b, b^2, a_i x b_i, s, s^2 (a = a_i x I, b = I x b_i,
    s = a + b): `ObservableSet._ops` before its rows were reordered."""
    a, b = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    a4, b4 = np.kron(a, I2), np.kron(I2, b)
    ab = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(a4.shape)
    s = a4 + b4
    return np.stack((a4, a4 @ a4, b4, b4 @ b4, ab, s, s @ s), axis=1).swapaxes(-1, -2).copy()


def pair_moments_reference(matrices, oset, ops=None) -> tuple:
    """var_a, var_b, var_sum and cov of every pair on every state, as (N, P) arrays.

    The statistic-major kernel that `witness._pair_moments` replaced, with
    its checks and messages: one contraction of the stack with
    `lifted_operators_reference` (or `ops`, in that order), by gemm on a set
    with exact products and at least `GEMM_MIN_STATES` states, by `einsum`
    otherwise, read as (7, N, P) rows.
    """
    from lurwit.linalg import NumericsError, first_failure
    from lurwit.witness import DECOMPOSITION_TOL, EXPECTATION_IMAG_TOL, GEMM_MIN_STATES

    ops = lifted_operators_reference(oset.pairs) if ops is None else ops
    n, p = len(matrices), len(ops)
    if oset._exact and n >= GEMM_MIN_STATES:
        values = (matrices.reshape(n, 16) @ ops.reshape(7 * p, 16).T).reshape(n, p, 7)
        values = np.ascontiguousarray(values.transpose(2, 0, 1))
    else:
        values = np.einsum("nij,pkij->npk", matrices, ops).transpose(2, 0, 1)
    imag = np.abs(values.imag).max(axis=0)
    failed = first_failure(imag < EXPECTATION_IMAG_TOL * oset._scale)
    if failed is not None:
        n, p = failed
        raise NumericsError(
            f"expectation of a Hermitian operator came out complex at stack index {n}, "
            f"pair {oset.pairs[p][2]!r}: imaginary part {imag[n, p]}"
        )
    m = values.real
    var_a = m[1] - m[0]**2
    var_b = m[3] - m[2]**2
    cov = m[4] - m[0] * m[2]
    var_sum = m[6] - m[5]**2
    residual = np.abs(var_sum - (var_a + var_b + 2.0 * cov))
    failed = first_failure(residual <= DECOMPOSITION_TOL * oset._scale)
    if failed is not None:
        n, p = failed
        raise NumericsError(
            f"variance decomposition failed at stack index {n}, pair {oset.pairs[p][2]!r}: "
            f"{var_sum[n, p]} vs {var_a[n, p] + var_b[n, p] + 2.0 * cov[n, p]}"
        )
    return var_a, var_b, var_sum, cov


def witness_sums_reference(var_a, var_b, var_sum, cov, ends, scale=1.0) -> tuple:
    """(l, ml) over the first k pairs of (N, P) moments, for each k in `ends`, with the ML check.

    The pair-by-pair loop that `witness._witness_values` replaced: the terms
    stacked as (3, N, P) and added from +0.0, one pair at a time, the two
    modified forms checked at each k in turn.
    """
    from lurwit.linalg import NumericsError, first_failure
    from lurwit.witness import DECOMPOSITION_TOL

    terms = np.array((var_sum, var_a + var_b - 2.0 * np.abs(cov), var_sum - 4.0 * np.maximum(0.0, cov)))
    total, values = 0.0, []
    for p in range(ends[-1]):
        total = total + terms[..., p]
        if p + 1 in ends:
            failed = first_failure(np.abs(total[1] - total[2]) <= DECOMPOSITION_TOL * scale)
            if failed is not None:
                (n,) = failed
                raise NumericsError(
                    f"modified-witness forms disagree at stack index {n}: {total[1, n]} vs {total[2, n]}"
                )
            values += (total[0], total[1])
    return tuple(values)


def witness_values_reference(var_a, var_b, var_sum, cov) -> tuple:
    """Plain and modified witness values of (N, P) per-pair moments, as row sums.

    The per-family kernel that `witness._witness_values` replaced: each
    pair's plain term and two modified forms, each summed over its row, and
    a check that the two modified forms agree to `DECOMPOSITION_TOL`.
    """
    from lurwit.witness import DECOMPOSITION_TOL

    terms = (var_sum, var_a + var_b - 2.0 * np.abs(cov), var_sum - 4.0 * np.maximum(0.0, cov))
    l_values, ml_values, ml_alternative = (t.sum(axis=1) for t in terms)
    assert (np.abs(ml_values - ml_alternative) <= DECOMPOSITION_TOL).all(), "modified-witness forms disagree"
    return l_values, ml_values


def estimate_values_reference(var_a, var_b, var_sum, cov, se) -> tuple:
    """One family's (l, l_se, ml, ml_se), four length-R arrays, from the moments of R (B, 4) replicates.

    The per-family estimate that `measurement._estimate` replaced: the row
    sums of `witness_values_reference`, and the squared SEs added up one
    basis after another.
    """
    l_values, ml_values = witness_values_reference(var_a, var_b, var_sum, cov)
    l_var, ml_var = np.add.accumulate(np.float_power(se, 2.0), axis=-2)[..., -1, :].T
    return l_values, np.sqrt(l_var), ml_values, np.sqrt(ml_var)


def estimate_reference(tables) -> tuple:
    """The per-table estimator loop: (per-table tuples, l, l_se, ml, ml_se).

    The witness values are the row sums of `witness_values_reference`; the
    witness SEs add in quadrature, one table after another.
    """
    per_table = [basis_estimate_reference(t.counts) for t in tables]
    l_var = ml_var = 0.0
    for est in per_table:
        l_var += est[4] ** 2
        ml_var += est[5] ** 2
    moments = np.array([[e[:4] for e in per_table]])
    l_values, ml_values = witness_values_reference(*moments.transpose(2, 0, 1))
    return (
        per_table,
        float(l_values[0]),
        math.sqrt(l_var),
        float(ml_values[0]),
        math.sqrt(ml_var),
    )
