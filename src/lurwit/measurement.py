"""Simulated coincidence counting and witness estimation from finite counts.

Measuring the per-basis joint outcome rates is already enough to estimate
every quantity in both witness families: single-party means, variances, and
the covariance all come from the same four coincidence rates, so the
modified witness costs no extra measurement settings.

Estimator conventions, chosen to keep identities exact on finite samples:

  * plug-in (divide by N) variances, never N-1: then
    var_sum = var_a + var_b + 2*cov holds exactly on every table, at the
    price of an O(1/N) bias;
  * |cov| enters the modified witness as the absolute value of the plug-in
    covariance, which is biased upward when the true covariance is near 0;
  * standard errors use the first-order delta method on the multinomial
    covariance of the outcome frequencies (approximate, and reported as 0
    when the statistic sits at a stationary point of the frequencies).

The tables' bases select the standard witness set that supplies the bound,
and the witness sums (with their check that the two ML forms agree) are the
exact path's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import Basis, DensityMatrix, I2
from .witness import Verdict, _expect, _witness_values, standard_sets, verdict_for

# joint outcomes in the fixed order (+,+), (+,-), (-,+), (-,-)
SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])
SIGN_AB = SIGN_A * SIGN_B

PROB_SUM_TOL = 1e-12
MAX_SHOTS = int(np.iinfo(np.int64).max)  # counts are int64


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Joint +/- outcome probabilities for one measurement basis."""

    basis: Basis
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (4,):
            raise ValueError(f"expected 4 joint probabilities, got shape {p.shape}")
        if np.any(p < 0.0) or np.any(p > 1.0) or abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"not a probability vector: {p}")
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Joint outcome counts for one basis; counts sum to `shots`."""

    basis: Basis
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (4,) or np.any(c < 0):
            raise ValueError(f"expected 4 nonnegative counts, got {self.counts}")
        object.__setattr__(self, "counts", c)

    @property
    def shots(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BasisEstimate:
    label: str
    var_a: float
    var_a_se: float
    var_b: float
    var_b_se: float
    var_sum: float
    var_sum_se: float
    covariance: float
    covariance_se: float


@dataclass(frozen=True)
class EstimatedReport:
    """Point estimates and standard errors for one witness family."""

    bases: tuple
    l_value: float
    l_se: float
    ml_value: float
    ml_se: float
    separable_bound: float
    verdict_l: Verdict
    verdict_ml: Verdict


def _outcome_projectors(pauli: np.ndarray) -> tuple:
    plus, minus = (I2 + pauli) / 2.0, (I2 - pauli) / 2.0
    return tuple(np.kron(pa, pb) for pa in (plus, minus) for pb in (plus, minus))


_PROJECTORS = {basis: _outcome_projectors(basis.pauli) for basis in Basis}  # P_a x P_b


def outcome_distribution(rho: DensityMatrix, basis: Basis) -> OutcomeDistribution:
    """Joint probabilities Tr[rho (P_a x P_b)] in the +/- eigenbasis of the basis Pauli."""
    # projector traces, not the closed form (1 + s<a> + t<b> + st<ab>)/4: that moves
    # p by an ulp, and an ulp off 0.5 changes what numpy's binomial sampler draws
    probs = np.array([_expect(rho, op) for op in _PROJECTORS[basis]])
    probs = np.clip(probs, 0.0, 1.0)  # roundoff only; projector traces are in [0, 1]
    probs /= probs.sum()
    return OutcomeDistribution(basis, probs)


def sample_counts(
    dist: OutcomeDistribution, shots: int, rng: np.random.Generator
) -> CountTable:
    """Multinomial coincidence counts; deterministic given the generator state."""
    if shots < 1:
        raise ValueError("need at least one shot")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots={shots} exceeds the largest supported count {MAX_SHOTS}")
    return CountTable(dist.basis, rng.multinomial(shots, dist.probabilities))


def _delta_se(grad: np.ndarray, freqs: np.ndarray, shots: int) -> float:
    # first-order propagation through the multinomial covariance of freqs
    mean = float(freqs @ grad)
    second = float(freqs @ (grad * grad))
    return math.sqrt(max(0.0, second - mean * mean) / shots)


def _basis_estimate(table: CountTable) -> tuple[BasisEstimate, float]:
    """Moments and their standard errors for one basis, plus the SE of its ML term."""
    shots = table.shots
    f = table.counts / shots
    m_a = float(f @ SIGN_A)
    m_b = float(f @ SIGN_B)
    m_ab = float(f @ SIGN_AB)

    # outcomes are +/-1 so <A^2> = <B^2> = 1 exactly
    var_a = 1.0 - m_a**2
    var_b = 1.0 - m_b**2
    cov = m_ab - m_a * m_b
    var_sum = var_a + var_b + 2.0 * cov

    grad_cov = SIGN_AB - m_b * SIGN_A - m_a * SIGN_B
    grad_var_sum = 2.0 * SIGN_AB - 2.0 * (m_a + m_b) * (SIGN_A + SIGN_B)
    # |cov| gradient uses sign(cov); at cov == 0 the subgradient 0 is used
    grad_ml = -2.0 * m_a * SIGN_A - 2.0 * m_b * SIGN_B - 2.0 * np.sign(cov) * grad_cov

    est = BasisEstimate(
        label=table.basis.value,
        var_a=var_a,
        var_a_se=_delta_se(-2.0 * m_a * SIGN_A, f, shots),
        var_b=var_b,
        var_b_se=_delta_se(-2.0 * m_b * SIGN_B, f, shots),
        var_sum=var_sum,
        var_sum_se=_delta_se(grad_var_sum, f, shots),
        covariance=cov,
        covariance_se=_delta_se(grad_cov, f, shots),
    )
    return est, _delta_se(grad_ml, f, shots)


def estimate_witnesses(tables) -> EstimatedReport:
    """Estimate both witness values from per-basis count tables.

    The tables' bases pick the standard set (0/90 and 45/135 for L2, all
    three for L3) and its separable bound. The witness values are summed in
    table order, as the exact path sums its pairs. Counts in different bases
    are independent, so the witness standard errors add in quadrature.
    """
    tables = list(tables)
    bases = [t.basis for t in tables]
    if len(set(bases)) != len(bases):
        raise ValueError("duplicate basis in count tables")
    labels = {b.value for b in bases}
    sets = [s for s in standard_sets().values() if {label for _, _, label in s.pairs} == labels]
    if not sets:
        raise ValueError(f"count tables cover bases {sorted(labels)}, not those of L2 or L3")
    bound = sets[0].separable_bound
    for t in tables:
        if t.shots < 2:
            raise ValueError(f"basis {t.basis.value}: need at least 2 shots to estimate a variance")

    estimates = []
    l_var = ml_var = 0.0
    for t in tables:
        est, ml_se = _basis_estimate(t)
        estimates.append(est)
        l_var += est.var_sum_se**2
        ml_var += ml_se**2
    moments = np.array([[(e.var_a, e.var_b, e.var_sum, e.covariance) for e in estimates]])
    l_values, ml_values = _witness_values(*moments.transpose(2, 0, 1))
    l_value, ml_value = float(l_values[0]), float(ml_values[0])

    return EstimatedReport(
        bases=tuple(estimates),
        l_value=l_value,
        l_se=math.sqrt(l_var),
        ml_value=ml_value,
        ml_se=math.sqrt(ml_var),
        separable_bound=bound,
        verdict_l=verdict_for(l_value, bound),
        verdict_ml=verdict_for(ml_value, bound),
    )
