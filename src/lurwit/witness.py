"""Uncertainty-sum entanglement witnesses for two-qubit states.

A witness is a list of paired local observables {(a_i, b_i)}. Separable
states obey two families of bounds:

  * plain witness:     sum_i var(a_i + b_i)                 >= U_A + U_B
  * modified witness:  sum_i var(a_i) + var(b_i) - 2|cov_i| >= U_A + U_B

where U_A (U_B) is the greatest lower bound of sum_i var(a_i) over
single-party states. A value below the bound certifies entanglement; the
modified form is sensitive only to the covariance magnitude, so it also
catches states whose covariances have unhelpful signs. The Peres
partial-transpose test gives the exact ground truth for two qubits and is
exposed as `ppt_min_eigenvalue` (one state) and `ppt_min_eigenvalues` (a
stack).

Every witness quantity is linear in the state, so one kernel serves every
caller and there is no scalar path beside it: a single contraction of an
(N, 4, 4) stack of density matrices with the (P, 7, 4, 4) lifted operators
of an `ObservableSet` gives all 7 * P expectations of all N states at once.
`evaluate_many` returns the witness values of a stack; `evaluate` is the
same kernel on a stack of one, plus the per-pair report (the variances and
the covariance of each pair). The runtime invariant checks (real
expectations, the variance decomposition, the agreement of the two
modified-witness forms) run on every call, as maxima over the stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    NumericsError,
    as_operator,
    first_failure,
    is_hermitian,
    transpose_second_qubit,
)
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


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """Paired local observables plus the single-party bounds they must beat.

    `pairs` holds (a_i, b_i, label) triples of Hermitian 2x2 operators;
    `bound_a + bound_b` is the separable bound for both witness families.
    The lifted two-qubit operators are precomputed once per set, stacked as
    one (P, 7, 4, 4) array `_ops`: for pair i, with a = a_i x I, b = I x b_i
    and s = a + b, the 7 operators are a, a^2, b, b^2, a_i x b_i, s, s^2.
    Each is stored transposed, so that Tr(rho op) = sum_ij rho_ij (op^T)_ij
    contracts matching, contiguous indices; in that layout every state's
    result is the same whatever the size of the stack it is evaluated in.
    The operators in `pairs` are read-only copies of the caller's, and
    `_ops` is read-only, so a set can be shared and does not change with
    the caller's arrays.
    """

    pairs: tuple
    bound_a: float
    bound_b: float

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("observable set needs at least one pair")
        checked = []
        lifted = []
        for a, b, label in self.pairs:
            a = _read_only(as_operator(a, dim=2))
            b = _read_only(as_operator(b, dim=2))
            if not is_hermitian(a, HERMITIAN_TOL) or not is_hermitian(b, HERMITIAN_TOL):
                raise ValueError(f"observables for {label!r} must be Hermitian")
            checked.append((a, b, str(label)))
            a4 = np.kron(a, I2)
            b4 = np.kron(I2, b)
            s = a4 + b4
            lifted.append((a4, a4 @ a4, b4, b4 @ b4, np.kron(a, b), s, s @ s))
        if self.bound_a < 0 or self.bound_b < 0:
            raise ValueError("single-party bounds must be nonnegative")
        object.__setattr__(self, "pairs", tuple(checked))
        object.__setattr__(self, "_ops", _read_only(np.array(lifted).swapaxes(-1, -2)))

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
    failed = first_failure(imag < EXPECTATION_IMAG_TOL)
    if failed is not None:
        n, p = failed
        raise NumericsError(
            f"expectation of a Hermitian operator came out complex at stack index {n}, "
            f"pair {oset.pairs[p][2]!r}: imaginary part {imag[n, p]}"
        )
    mean_a, sq_a, mean_b, sq_b, joint, mean_s, sq_s = values.real.transpose(2, 0, 1)
    var_a = sq_a - mean_a**2
    var_b = sq_b - mean_b**2
    cov = joint - mean_a * mean_b
    var_sum = sq_s - mean_s**2
    residual = np.abs(var_sum - (var_a + var_b + 2.0 * cov))
    failed = first_failure(residual <= DECOMPOSITION_TOL)
    if failed is not None:
        n, p = failed
        raise NumericsError(
            f"variance decomposition failed at stack index {n}, pair {oset.pairs[p][2]!r}: "
            f"{var_sum[n, p]} vs {var_a[n, p] + var_b[n, p] + 2.0 * cov[n, p]}"
        )
    return var_a, var_b, var_sum, cov


def _witness_values(var_a, var_b, var_sum, cov):
    """Plain and modified witness values per state; checks the two modified forms agree."""
    l_values = var_sum.sum(axis=1)
    ml_values = (var_a + var_b - 2.0 * np.abs(cov)).sum(axis=1)
    ml_alternative = (var_sum - 4.0 * np.maximum(0.0, cov)).sum(axis=1)
    failed = first_failure(np.abs(ml_values - ml_alternative) <= DECOMPOSITION_TOL)
    if failed is not None:
        (n,) = failed
        raise NumericsError(
            f"modified-witness forms disagree at stack index {n}: "
            f"{ml_values[n]} vs {ml_alternative[n]}"
        )
    return l_values, ml_values


def _basis_set(bases) -> ObservableSet:
    # each party measures the basis Pauli, labelled by the basis; k
    # anticommuting Paulis have single-party bound k - 1 (see `local_bound`)
    bound = len(bases) - 1.0
    return ObservableSet(tuple((b.pauli, b.pauli, b.value) for b in bases), bound, bound)


_STANDARD_SETS = {"L2": _basis_set(tuple(Basis)[:2]), "L3": _basis_set(tuple(Basis))}


def standard_sets() -> dict[str, ObservableSet]:
    """The two polarization witness sets, built once from `Basis`.

    L2 pairs the first two bases, 0/90 and 45/135 (separable bound
    1 + 1 = 2); L3 adds the circular basis (bound 2 + 2 = 4). Both parties
    measure the same Pauli in every basis. The dict is new on every call;
    the sets in it are shared and read-only.
    """
    return dict(_STANDARD_SETS)


def local_bound(observables) -> float:
    """Greatest lower bound of sum_i var(o_i) over single-qubit states.

    Write each Hermitian o_i as c_i I + v_i . sigma with v_i = Tr(o_i sigma)/2
    real. On a state with Bloch vector r (|r| <= 1), var(o_i) = |v_i|^2 -
    (v_i . r)^2, so the sum is sum_i |v_i|^2 - r^T M r with M = sum_i v_i v_i^T.
    Its minimum over the Bloch ball is sum_i |v_i|^2 - lambda_max(M), exactly.
    """
    obs = [as_operator(o, dim=2) for o in observables]
    if not obs:
        raise ValueError("need at least one observable")
    for o in obs:
        if not is_hermitian(o, HERMITIAN_TOL):
            raise ValueError("observables must be Hermitian")
    v = np.array([[0.5 * np.trace(o @ s).real for s in (SX, SY, SZ)] for o in obs])
    return float(np.sum(v * v) - np.linalg.eigvalsh(v.T @ v)[-1])


def ppt_min_eigenvalues(matrices) -> np.ndarray:
    """Minimum eigenvalue of the partial transpose of each state in an (N, 4, 4) stack."""
    return np.linalg.eigvalsh(transpose_second_qubit(_stack(matrices)))[:, 0]


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose; negative iff entangled."""
    return float(ppt_min_eigenvalues(rho.matrix[None])[0])


def detected(values, bound: float):
    """True where a witness value certifies entanglement; scalars or arrays."""
    # margin keeps boundary separable states from being flagged by roundoff
    return values < bound - VERDICT_MARGIN


def verdict_for(value: float, bound: float) -> Verdict:
    return Verdict.ENTANGLEMENT_DETECTED if detected(value, bound) else Verdict.INCONCLUSIVE


def evaluate_many(matrices, oset: ObservableSet) -> tuple[np.ndarray, np.ndarray]:
    """Plain and modified witness values, as two length-N arrays, for an (N, 4, 4) stack.

    The matrices are taken as given (no density-matrix validation); every
    runtime check of `evaluate` runs on each of them.
    """
    return _witness_values(*_pair_moments(_stack(matrices), oset))


def evaluate(rho: DensityMatrix, oset: ObservableSet) -> WitnessReport:
    """Full per-pair statistics plus both witness values and verdicts.

    The modified value is also formed as sum_i var(a_i + b_i) - 4*max(0, cov_i);
    the two forms must agree to within roundoff or the statistics code is broken.
    """
    moments = _pair_moments(rho.matrix[None], oset)
    l_values, ml_values = _witness_values(*moments)
    var_a, var_b, var_sum, cov = (m[0].tolist() for m in moments)
    stats = tuple(
        PairStats(label, var_a[p], var_b[p], var_sum[p], cov[p])
        for p, (_, _, label) in enumerate(oset.pairs)
    )
    l_value = float(l_values[0])
    ml_value = float(ml_values[0])
    bound = oset.separable_bound
    return WitnessReport(
        pairs=stats,
        l_value=l_value,
        ml_value=ml_value,
        separable_bound=bound,
        verdict_l=verdict_for(l_value, bound),
        verdict_ml=verdict_for(ml_value, bound),
    )
