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
exposed as `ppt_min_eigenvalue`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    NumericsError,
    as_operator,
    is_hermitian,
    partial_transpose_second,
    tensor_product,
)
from .states import I2, SX, SY, SZ, Basis, DensityMatrix

EXPECTATION_IMAG_TOL = 1e-10
DECOMPOSITION_TOL = 1e-10
VERDICT_MARGIN = 1e-9


class Verdict(enum.Enum):
    ENTANGLEMENT_DETECTED = "ENTANGLEMENT_DETECTED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """Paired local observables plus the single-party bounds they must beat.

    `pairs` holds (a_i, b_i, label) triples of Hermitian 2x2 operators;
    `bound_a + bound_b` is the separable bound for both witness families.
    The lifted two-qubit operators are precomputed once per set because
    Monte Carlo studies evaluate the same set on very many states.
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
            a = as_operator(a, dim=2)
            b = as_operator(b, dim=2)
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
        object.__setattr__(self, "_lifted", tuple(lifted))

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


def _expect(rho: DensityMatrix, op: np.ndarray) -> float:
    value = np.trace(rho.matrix @ op)
    if abs(value.imag) >= EXPECTATION_IMAG_TOL:
        raise NumericsError(f"expectation of a Hermitian operator came out complex: {value}")
    return float(value.real)


def expectation(rho: DensityMatrix, obs) -> float:
    """<obs> = Tr(rho obs) for a Hermitian two-qubit operator."""
    return _expect(rho, as_operator(obs, dim=4))


def variance(rho: DensityMatrix, obs) -> float:
    o = as_operator(obs, dim=4)
    return _expect(rho, o @ o) - _expect(rho, o) ** 2


def covariance(rho: DensityMatrix, a, b) -> float:
    """cov(a, b) = <a x b> - <a x I><I x b> for local observables a, b."""
    a = as_operator(a, dim=2)
    b = as_operator(b, dim=2)
    joint = _expect(rho, tensor_product(a, b))
    return joint - _expect(rho, tensor_product(a, I2)) * _expect(rho, tensor_product(I2, b))


def variance_of_sum(rho: DensityMatrix, a, b) -> float:
    """Variance of (a x I + I x b), computed directly on the joint operator."""
    s = tensor_product(as_operator(a, dim=2), I2) + tensor_product(I2, as_operator(b, dim=2))
    return variance(rho, s)


def _pair_stats(rho: DensityMatrix, label: str, lifted) -> PairStats:
    a4, a4_sq, b4, b4_sq, ab, s, s_sq = lifted
    mean_a = _expect(rho, a4)
    mean_b = _expect(rho, b4)
    var_a = _expect(rho, a4_sq) - mean_a**2
    var_b = _expect(rho, b4_sq) - mean_b**2
    cov = _expect(rho, ab) - mean_a * mean_b
    var_sum = _expect(rho, s_sq) - _expect(rho, s) ** 2  # direct route, not the decomposition
    if abs(var_sum - (var_a + var_b + 2.0 * cov)) > DECOMPOSITION_TOL:
        raise NumericsError(
            f"variance decomposition failed for pair {label!r}: "
            f"{var_sum} vs {var_a + var_b + 2.0 * cov}"
        )
    return PairStats(label, var_a, var_b, var_sum, cov)


def lur_value(rho: DensityMatrix, oset: ObservableSet) -> float:
    """Sum of variances of the paired sums; compare against oset.separable_bound."""
    return evaluate(rho, oset).l_value


def mlur_value(rho: DensityMatrix, oset: ObservableSet) -> float:
    """Sum of var(a_i) + var(b_i) - 2|cov_i|; compare against oset.separable_bound."""
    return evaluate(rho, oset).ml_value


def standard_sets() -> dict[str, ObservableSet]:
    """The two polarization witness sets.

    L2 pairs the 0/90 and 45/135 bases (separable bound 1 + 1 = 2); L3 adds
    the circular basis (bound 2 + 2 = 4). Identical Pauli measurements on
    both parties in every basis.
    """
    l2 = ObservableSet(
        pairs=((SZ, SZ, Basis.LIN_0_90.value), (SX, SX, Basis.LIN_45_135.value)),
        bound_a=1.0,
        bound_b=1.0,
    )
    l3 = ObservableSet(
        pairs=(
            (SZ, SZ, Basis.LIN_0_90.value),
            (SX, SX, Basis.LIN_45_135.value),
            (SY, SY, Basis.CIRC_R_L.value),
        ),
        bound_a=2.0,
        bound_b=2.0,
    )
    return {"L2": l2, "L3": l3}


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


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose; negative iff entangled."""
    return float(np.linalg.eigvalsh(partial_transpose_second(rho.matrix))[0])


def verdict_for(value: float, bound: float) -> Verdict:
    # margin keeps boundary separable states from being flagged by roundoff
    if value < bound - VERDICT_MARGIN:
        return Verdict.ENTANGLEMENT_DETECTED
    return Verdict.INCONCLUSIVE


def evaluate(rho: DensityMatrix, oset: ObservableSet) -> WitnessReport:
    """Full per-pair statistics plus both witness values and verdicts.

    The modified value is also formed as sum_i var(a_i + b_i) - 4*max(0, cov_i);
    the two forms must agree to within roundoff or the statistics code is broken.
    """
    stats = [
        _pair_stats(rho, label, ops)
        for (_, _, label), ops in zip(oset.pairs, oset._lifted)
    ]
    l_value = sum(st.var_sum for st in stats)
    ml_value = sum(st.var_a + st.var_b - 2.0 * abs(st.covariance) for st in stats)
    ml_alternative = sum(st.var_sum - 4.0 * max(0.0, st.covariance) for st in stats)
    if abs(ml_value - ml_alternative) > DECOMPOSITION_TOL:
        raise NumericsError(f"modified-witness forms disagree: {ml_value} vs {ml_alternative}")
    bound = oset.separable_bound
    return WitnessReport(
        pairs=tuple(stats),
        l_value=l_value,
        ml_value=ml_value,
        separable_bound=bound,
        verdict_l=verdict_for(l_value, bound),
        verdict_ml=verdict_for(ml_value, bound),
    )
