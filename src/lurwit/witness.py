"""Uncertainty-sum entanglement witnesses for two-qubit states.

A witness is a list of paired local observables {(a_i, b_i)}. Separable
states obey two families of bounds:

  * plain witness:     sum_i var(a_i + b_i)                 >= U_A + U_B
  * modified witness:  sum_i var(a_i) + var(b_i) - 2|cov_i| >= U_A + U_B

where U_A (U_B) is the greatest lower bound of sum_i var(a_i) over
single-party states, which every `ObservableSet` derives exactly from its
own observables with `local_bound`. A value below the bound certifies
entanglement; the modified form is sensitive only to the covariance
magnitude, so it also catches states whose covariances have unhelpful
signs. The Peres
partial-transpose test gives the exact ground truth for two qubits and is
exposed as `ppt_min_eigenvalue` (one state) and `ppt_min_eigenvalues` (a
stack), one LAPACK eigensolve per state. A stack of pure states given by
its amplitudes, such as the Haar stack of `haar-study`, needs none:
`pure_ppt_min_eigenvalues` gives the same eigenvalue as the Schmidt
determinant -|psi_00 psi_11 - psi_01 psi_10|.

Every witness quantity is linear in the state, so one kernel serves every
caller and there is no scalar path beside it: a single contraction of an
(N, 4, 4) stack of density matrices with the (P, 7, 4, 4) lifted operators
of an `ObservableSet` gives all 7 * P expectations of all N states at once.
One summation kernel, `_witness_values`, turns the per-pair moments into
witness values: it adds each pair's terms in pair order and returns the
sums after the first k pairs for each k asked for. `evaluate_many` asks for
all P pairs of a stack; `evaluate` is the same on a stack of one, plus the
per-pair report (the variances and the covariance of each pair).
`evaluate_standard` gives L2 and L3 from one pass over L3's operators:
L2's pairs are L3's first two, so the two families read the same
per-basis statistics, as they would in the lab, and are the sums after two
and three pairs. The finite-shot estimator (`lurwit.measurement`) sums its
per-table moments with the same kernel. The runtime invariant checks (real
expectations, the variance decomposition, the agreement of the two
modified-witness forms at every sum returned) run on every call, as maxima
over the stack, with tolerances (and the verdict margin) scaled by the set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import HERMITIAN_TOL, NumericsError, as_operator, first_failure, transpose_second_qubit
from .states import I2, SX, SY, SZ, Basis, DensityMatrix

EXPECTATION_IMAG_TOL = 1e-10
DECOMPOSITION_TOL = 1e-10
VERDICT_MARGIN = 1e-9


class Verdict(enum.Enum):
    ENTANGLEMENT_DETECTED = "ENTANGLEMENT_DETECTED"
    INCONCLUSIVE = "INCONCLUSIVE"


def _read_only(m: np.ndarray) -> np.ndarray:
    copy = m.copy()
    copy.flags.writeable = False
    return copy


_PAULIS = _read_only(np.array([SX, SY, SZ]))  # one (3, 2, 2) stack, for `local_bound`


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """Paired local observables and the single-party bounds they derive.

    `pairs` holds (a_i, b_i, label) triples of Hermitian 2x2 operators,
    checked as one stack; `bound_a = max(0.0, local_bound(a_1..a_P))` and
    `bound_b` likewise, and `bound_a + bound_b` is the separable bound for
    both witness families. Roundoff grows with the observables, so the
    kernel's tolerances and the verdict margin are multiplied by `_scale` =
    max(1, max_i ((|a_i| + |b_i|) / 2)^2), |o| o's largest entry modulus,
    which is 1.0 for every set of Paulis. The lifted two-qubit operators
    are precomputed once per set, stacked as one (P, 7, 4, 4) array `_ops`:
    for pair i, with a = a_i x I, b = I x b_i and s = a + b, the 7 operators
    are a, a^2, b, b^2, a_i x b_i, s, s^2. Each is stored transposed, so
    that Tr(rho op) = sum_ij rho_ij (op^T)_ij contracts matching, contiguous
    indices; in that layout every state's result is the same whatever the
    size of the stack it is evaluated in. The operators in `pairs` are
    read-only copies of the caller's, and `_ops` is read-only, so a set can
    be shared and does not change with the caller's arrays.
    """

    pairs: tuple
    bound_a: float = field(init=False)
    bound_b: float = field(init=False)

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if not pairs:
            raise ValueError("observable set needs at least one pair")
        obs = np.array([(as_operator(a, dim=2), as_operator(b, dim=2)) for a, b, _ in pairs])
        failed = _first_non_hermitian(obs)
        if failed is not None:
            raise ValueError(f"observables for {pairs[failed[0]][2]!r} must be Hermitian")
        a, b = _read_only(obs[:, 0]), _read_only(obs[:, 1])
        a4, b4 = np.kron(a, I2), np.kron(I2, b)  # a_i x I and I x b_i, (P, 4, 4) each
        ab = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(a4.shape)  # a_i x b_i
        s = a4 + b4
        ops = np.stack((a4, a4 @ a4, b4, b4 @ b4, ab, s, s @ s), axis=1)
        norms = np.abs(obs).max(axis=(2, 3)).mean(axis=1)  # (|a_i| + |b_i|) / 2
        object.__setattr__(self, "pairs", tuple(zip(a, b, (str(label) for _, _, label in pairs))))
        object.__setattr__(self, "bound_a", max(0.0, _min_variance_sum(a)))
        object.__setattr__(self, "bound_b", max(0.0, _min_variance_sum(b)))
        object.__setattr__(self, "_scale", max(1.0, float(norms.max()) ** 2))
        object.__setattr__(self, "_ops", _read_only(ops.swapaxes(-1, -2)))

    @property
    def separable_bound(self) -> float:
        return self.bound_a + self.bound_b


@dataclass(frozen=True)
class PairStats:
    label: str
    var_a: float
    var_b: float
    var_sum: float
    covariance: float


@dataclass(frozen=True)
class WitnessReport:
    """Per-pair statistics plus both witness values and their verdicts."""

    pairs: tuple
    l_value: float
    ml_value: float
    separable_bound: float
    verdict_l: Verdict
    verdict_ml: Verdict


def _stack(matrices) -> np.ndarray:
    m = np.ascontiguousarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"expected an (N, 4, 4) stack of matrices, got shape {m.shape}")
    return m


def _pair_moments(matrices: np.ndarray, oset: ObservableSet):
    """var_a, var_b, var_sum and cov of every pair on every state, as (N, P) arrays.

    One contraction gives all expectations (`_ops` holds the transposes).
    var_sum takes the direct route through <s> and <s^2>, not the
    decomposition, so the decomposition check compares two computations.
    """
    values = np.einsum("nij,pkij->npk", matrices, oset._ops)
    imag = np.abs(values.imag).max(axis=2)
    failed = first_failure(imag < EXPECTATION_IMAG_TOL * oset._scale)
    if failed is not None:
        n, p = failed
        raise NumericsError(
            f"expectation of a Hermitian operator came out complex at stack index {n}, "
            f"pair {oset.pairs[p][2]!r}: imaginary part {imag[n, p]}"
        )
    # rows <a>, <a^2>, <b>, <b^2>, <ab>, <s>, <s^2>, taken by index (cheaper than an unpack)
    m = values.real.transpose(2, 0, 1)
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


def _witness_values(var_a, var_b, var_sum, cov, ends, scale=1.0):
    """Plain and modified witness values over the first k pairs, for each k in `ends`.

    Takes (N, P) per-pair moments and returns (l, ml) for each k in turn,
    2 * len(ends) length-N arrays. Each pair's plain term and its two
    modified forms are formed once and added pair by pair from +0.0, and the
    two modified forms must agree at every k returned, in order (to
    DECOMPOSITION_TOL times the set's `scale`). Below 8
    pairs this is numpy's row sum bit for bit (all -0.0 terms sum to +0.0,
    which a `cumsum` from the first term would not give); a set of 8 or
    more pairs adds in pair order.
    """
    terms = np.array((var_sum, var_a + var_b - 2.0 * np.abs(cov), var_sum - 4.0 * np.maximum(0.0, cov)))
    total, values = 0.0, []
    for p in range(ends[-1]):
        total = total + terms[..., p]
        if p + 1 in ends:  # rows l, ml and ml's other form, taken by index
            failed = first_failure(np.abs(total[1] - total[2]) <= DECOMPOSITION_TOL * scale)
            if failed is not None:
                (n,) = failed
                raise NumericsError(
                    f"modified-witness forms disagree at stack index {n}: "
                    f"{total[1, n]} vs {total[2, n]}"
                )
            values += (total[0], total[1])
    return tuple(values)


def _first_non_hermitian(obs: np.ndarray) -> tuple | None:
    """Index of the first non-Hermitian matrix in a finite (..., 2, 2) stack, or None (see `local_bound`)."""
    deviation = np.abs(obs - obs.conj().swapaxes(-1, -2))
    if deviation.max() <= HERMITIAN_TOL:
        return None
    tol = HERMITIAN_TOL * np.maximum(1.0, np.abs(obs).max(axis=(-2, -1)))
    return first_failure(deviation.max(axis=(-2, -1)) <= tol)


def _min_variance_sum(obs: np.ndarray) -> float:
    """`local_bound` of a checked, nonempty (k, 2, 2) stack."""
    v = 0.5 * np.einsum("kij,pji->kp", obs, _PAULIS).real
    return float(np.sum(v * v) - np.linalg.eigvalsh(v.T @ v)[-1])


def local_bound(observables) -> float:
    """Greatest lower bound of sum_i var(o_i) over single-qubit states.

    Write each Hermitian o_i as c_i I + v_i . sigma with v_i = Tr(o_i sigma)/2
    real. On a state with Bloch vector r (|r| <= 1), var(o_i) = |v_i|^2 -
    (v_i . r)^2, so the sum is sum_i |v_i|^2 - r^T M r with M = sum_i v_i v_i^T.
    Its minimum over the Bloch ball is sum_i |v_i|^2 - lambda_max(M), exactly.
    The observables are checked one by one, then as one (k, 2, 2) stack for
    Hermiticity: max|o - o^dagger| <= HERMITIAN_TOL * max(1, max|o|), scaled
    only where the absolute comparison fails. v is one contraction of that
    stack with the Pauli stack (each trace adds two exact products).
    """
    obs = np.array([as_operator(o, dim=2) for o in observables])
    if not len(obs):
        raise ValueError("need at least one observable")
    if _first_non_hermitian(obs) is not None:
        raise ValueError("observables must be Hermitian")
    return _min_variance_sum(obs)


_STANDARD_SETS = {  # each party measures the basis Pauli, labelled by the basis
    name: ObservableSet(tuple((b.pauli, b.pauli, b.value) for b in bases))
    for name, bases in (("L2", tuple(Basis)[:2]), ("L3", tuple(Basis)))
}


def standard_sets() -> dict[str, ObservableSet]:
    """The two polarization witness sets, built once from `Basis`.

    L2 pairs the first two bases, 0/90 and 45/135 (separable bound
    1 + 1 = 2); L3 adds the circular basis (bound 2 + 2 = 4). Both parties
    measure the same Pauli in every basis. The dict is new on every call;
    the sets in it are shared and read-only.
    """
    return dict(_STANDARD_SETS)


def ppt_min_eigenvalues(matrices) -> np.ndarray:
    """Minimum eigenvalue of the partial transpose of each state in an (N, 4, 4) stack."""
    return np.linalg.eigvalsh(transpose_second_qubit(_stack(matrices)))[:, 0]


def pure_ppt_min_eigenvalues(amplitudes) -> np.ndarray:
    """Minimum eigenvalue of the partial transpose of each pure state in an (N, 4) amplitude stack.

    Holds only for pure states. With Psi the 2x2 matrix of a state's
    amplitudes (psi_00, psi_01; psi_10, psi_11) and s_1, s_2 its Schmidt
    coefficients (Psi's singular values), the partial transpose of
    |psi><psi| has spectrum {s_1^2, s_2^2, s_1 s_2, -s_1 s_2}, so its
    smallest eigenvalue is -s_1 s_2 = -|det Psi| (Peres, PRL 77, 1413
    (1996); Vidal and Werner, PRA 65, 032314 (2002)). The amplitudes are
    taken as given: normalized, which the caller checks.
    """
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) stack of amplitudes, got shape {psi.shape}")
    return -np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose; negative iff entangled."""
    return float(ppt_min_eigenvalues(rho.matrix[None])[0])


def detected(values, bound: float, scale: float = 1.0):
    """True where a witness value certifies entanglement; scalars or arrays; `scale` is the set's."""
    # margin keeps boundary separable states from being flagged by roundoff
    return values < bound - VERDICT_MARGIN * scale


def verdict_for(value: float, bound: float, scale: float = 1.0) -> Verdict:
    return Verdict.ENTANGLEMENT_DETECTED if detected(value, bound, scale) else Verdict.INCONCLUSIVE


def evaluate_many(matrices, oset: ObservableSet) -> tuple[np.ndarray, np.ndarray]:
    """Plain and modified witness values, as two length-N arrays, for an (N, 4, 4) stack.

    The matrices are taken as given (no density-matrix validation); every
    runtime check of `evaluate` runs on each of them.
    """
    return _witness_values(*_pair_moments(_stack(matrices), oset), (len(oset.pairs),), oset._scale)


def evaluate_standard(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L2, ML2, L3 and ML3, four length-N arrays, for an (N, 4, 4) stack, from one kernel pass.

    L2's pairs are the first two of L3's (`standard_sets`), so the per-pair
    moments of L3 hold those of L2 in their first two columns, and the
    witness sums after two and three pairs give both families, each with its
    two modified forms checked. Every value is bit for bit `evaluate_many`
    with that family's set.
    """
    return _witness_values(*_pair_moments(_stack(matrices), _STANDARD_SETS["L3"]), (2, 3))


def evaluate(rho: DensityMatrix, oset: ObservableSet) -> WitnessReport:
    """Full per-pair statistics plus both witness values and verdicts.

    The modified value is also formed as sum_i var(a_i + b_i) - 4*max(0, cov_i);
    the two forms must agree to within roundoff or the statistics code is broken.
    """
    moments = _pair_moments(rho.matrix[None], oset)
    l_values, ml_values = _witness_values(*moments, (len(oset.pairs),), oset._scale)
    rows = zip(*(m[0].tolist() for m in moments))  # var_a, var_b, var_sum, cov of each pair
    stats = tuple(PairStats(label, *row) for (_, _, label), row in zip(oset.pairs, rows))
    l_value, ml_value, bound = float(l_values[0]), float(ml_values[0]), oset.separable_bound
    verdicts = (verdict_for(value, bound, oset._scale) for value in (l_value, ml_value))
    return WitnessReport(stats, l_value, ml_value, bound, *verdicts)
