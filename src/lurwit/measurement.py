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

The layer is array code. `outcome_probabilities` takes all 12 projector
traces of a state in one contraction and keeps the read-only (3, 4) result
while the state lives (a `DensityMatrix` is read-only too, so it cannot go
stale). Each count table is one multinomial draw from one of its rows
(`lurwit.cli.simulate_counts`). The estimator works on a (..., B, 4) stack
of int64 counts (replicates, bases, outcomes): `estimate_witnesses_many`
returns the witness arrays of R replicates, and `estimate_witnesses` is its
R = 1 case with the bound and the verdicts. Every result is bit for bit
what a per-table loop of Python scalars gives, and a row of a stack does
not depend on the stack: the frequency dot products use `np.vecdot`, which
like the 1-D `f @ g` makes one BLAS dot per row (a `sum` or `einsum` adds
in another order), and squares use `np.float_power(x, 2.0)`, which like
Python's `x**2` calls libm `pow` (numpy's `x**2` is `x*x`, and the two
differ in the last bit now and then).
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import NumericsError, first_failure
from .states import Basis, DensityMatrix, I2
from .witness import EXPECTATION_IMAG_TOL, Verdict, _witness_values, standard_sets, verdict_for

# joint outcomes in the fixed order (+,+), (+,-), (-,+), (-,-)
SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])
SIGN_AB = SIGN_A * SIGN_B
_SIGNS = np.array([SIGN_A, SIGN_B, SIGN_AB])
# the delta-method gradients' constant vectors (see `_table_moments`)
_GRAD_VAR_A, _GRAD_VAR_B = -2.0 * SIGN_A, -2.0 * SIGN_B
_GRAD_SUM_BASE = 2.0 * SIGN_AB
_GRAD_SUM_SLOPE = 2.0 * (SIGN_A + SIGN_B)

PROB_SUM_TOL = 1e-12
MAX_SHOTS = int(np.iinfo(np.int64).max)  # counts are int64


def _is_distribution(p: np.ndarray) -> np.ndarray:
    """Per row of a (..., 4) array: entries in [0, 1] summing to 1 (NaN fails)."""
    in_range = ((0.0 <= p) & (p <= 1.0)).all(axis=-1)
    return in_range & (np.abs(p.sum(axis=-1) - 1.0) <= PROB_SUM_TOL)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Joint outcome counts of one basis, summing to `shots`; `counts` is a read-only int64 copy."""

    basis: Basis
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (4,) or c.dtype.kind not in "iuf":
            raise ValueError(f"expected 4 nonnegative counts, got {self.counts}")
        values = c.tolist()
        if c.dtype.kind == "f":
            if not all(math.isfinite(v) and v == int(v) for v in values):
                raise ValueError(f"counts must be whole numbers, got {self.counts}")
            values = list(map(int, values))
        if min(values) < 0:
            raise ValueError(f"expected 4 nonnegative counts, got {self.counts}")
        total = sum(values)
        if total > MAX_SHOTS:
            raise ValueError(f"counts total {total} exceeds the largest supported count {MAX_SHOTS}")
        counts = c.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def shots(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class EstimatedReport:
    """Point estimates and standard errors for one witness family; `bases` in table order."""

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


# P_a x P_b for every basis (rows in `Basis` order) and outcome
_PROJECTORS = np.array([_outcome_projectors(basis.pauli) for basis in Basis])
_PROJECTORS.flags.writeable = False
# separable bound of each standard set, keyed by the labels of its bases
_BOUNDS = {
    frozenset(label for _, _, label in s.pairs): s.separable_bound for s in standard_sets().values()
}
# outcome probabilities of every live state; a state hashes by identity
_PROBABILITIES = weakref.WeakKeyDictionary()


def outcome_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Joint probabilities Tr[rho (P_a x P_b)] of every basis, as a read-only (3, 4) array.

    Row i belongs to the i-th `Basis`, in the +/- eigenbasis of its Pauli.
    Each state's array is computed once and kept while the state lives.
    """
    probs = _PROBABILITIES.get(rho)
    if probs is not None:
        return probs
    # projector traces, not the closed form (1 + s<a> + t<b> + st<ab>)/4: that moves
    # p by an ulp, and an ulp off 0.5 changes what numpy's binomial sampler draws
    values = np.trace(rho.matrix @ _PROJECTORS, axis1=-2, axis2=-1)
    failed = first_failure(np.abs(values.imag) < EXPECTATION_IMAG_TOL)
    if failed is not None:
        raise NumericsError(f"expectation of a Hermitian operator came out complex: {values[failed]}")
    probs = np.clip(values.real, 0.0, 1.0)  # roundoff only; projector traces are in [0, 1]
    probs /= probs.sum(axis=-1, keepdims=True)
    failed = first_failure(_is_distribution(probs))
    if failed is not None:
        raise ValueError(f"not a probability vector: {probs[failed]}")
    probs.flags.writeable = False
    _PROBABILITIES[rho] = probs
    return probs


def check_shots(shots) -> None:
    """Raise ValueError unless `shots` is an integer in [1, MAX_SHOTS]."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError("need at least one shot")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots={shots} exceeds the largest supported count {MAX_SHOTS}")


def _table_moments(counts: np.ndarray):
    """Plug-in moments and delta-method SEs of every table in a (..., B, 4) int64 stack.

    Returns var_a, var_b, var_sum and cov, each (..., B), and the SEs as
    (..., B, 2): those of var_sum and of the table's ML term
    var_a + var_b - 2|cov|. Every table needs at least one shot.
    """
    shots = np.add.reduce(counts, axis=-1)
    f = counts / shots[..., None]
    rows = f[..., None, :]  # (..., B, 1, 4): one dot product per row and vector
    means = np.vecdot(rows, _SIGNS)  # <A>, <B>, <AB>
    m_a, m_b, m_ab = means[..., 0], means[..., 1], means[..., 2]

    # outcomes are +/-1 so <A^2> = <B^2> = 1 exactly
    var_ab = 1.0 - np.float_power(means[..., :2], 2.0)
    var_a, var_b = var_ab[..., 0], var_ab[..., 1]
    cov = m_ab - m_a * m_b
    var_sum = var_a + var_b + 2.0 * cov

    # gradients of var_sum and the ML term in the frequencies, then their squares;
    # the sign vectors are +/-1 and the factors 2, so folding them into constants
    # changes no rounding
    a, b = m_a[..., None], m_b[..., None]
    grads = np.empty(f.shape[:-1] + (4, 4))
    np.subtract(_GRAD_SUM_BASE, (a + b) * _GRAD_SUM_SLOPE, out=grads[..., 0, :])
    grad_cov = SIGN_AB - b * SIGN_A - a * SIGN_B
    # |cov| gradient uses sign(cov); at cov == 0 the subgradient 0 is used
    sign2 = (2.0 * np.sign(cov))[..., None]
    np.subtract(a * _GRAD_VAR_A + b * _GRAD_VAR_B, sign2 * grad_cov, out=grads[..., 1, :])
    np.multiply(grads[..., :2, :], grads[..., :2, :], out=grads[..., 2:, :])

    # first-order propagation through the multinomial covariance of f
    moments = np.vecdot(rows, grads)  # E[g] of both gradients, then E[g^2]
    spread = moments[..., 2:] - np.square(moments[..., :2])
    se = np.sqrt(np.maximum(0.0, spread) / shots[..., None])
    return var_a, var_b, var_sum, cov, se


def _separable_bound(bases: tuple) -> float:
    """The bound of the standard set the bases pick; ValueError if they pick none."""
    if len(set(bases)) != len(bases):
        raise ValueError("duplicate basis in count tables")
    labels = frozenset(b.value for b in bases)
    if labels not in _BOUNDS:
        raise ValueError(f"count tables cover bases {sorted(labels)}, not those of L2 or L3")
    return _BOUNDS[labels]


def _estimate(counts: np.ndarray, bases: tuple, name):
    """Witness values and their SEs, four length-R arrays, from an (R, B, 4) count stack.

    The witness values are summed in basis order, as the exact path sums its
    pairs. Counts in different bases are independent, so the witness SEs add
    in quadrature, also in basis order. `name(r)` prefixes the message of a
    table with fewer than 2 shots.
    """
    failed = first_failure(np.add.reduce(counts, axis=-1) >= 2)
    if failed is not None:
        r, b = failed
        raise ValueError(f"{name(r)}basis {bases[b].value}: need at least 2 shots to estimate a variance")
    var_a, var_b, var_sum, cov, se = _table_moments(counts)
    l_values, ml_values = _witness_values(var_a, var_b, var_sum, cov)
    # squared SEs of var_sum and the ML term, added up one basis after another
    l_var, ml_var = np.add.accumulate(np.float_power(se, 2.0), axis=-2)[..., -1, :].T
    return l_values, np.sqrt(l_var), ml_values, np.sqrt(ml_var)


def _checked_counts(counts, bases: tuple) -> np.ndarray:
    """`counts` as an (R, B, 4) int64 stack; ValueError naming the first bad table."""
    c = np.asarray(counts)
    if c.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {c.dtype}")
    if c.ndim != 3 or c.shape[1:] != (len(bases), 4):
        raise ValueError(f"expected counts of shape (R, {len(bases)}, 4), got {c.shape}")
    failed = first_failure(((0 <= c) & (c <= MAX_SHOTS)).all(axis=-1))
    if failed is None:
        # no table's total may pass MAX_SHOTS; two halves of entries <= MAX_SHOTS
        # cannot wrap in uint64, and their sum only matters when each half fits
        u = c.astype(np.uint64)
        low, high = u[..., :2].sum(axis=-1), u[..., 2:].sum(axis=-1)
        failed = first_failure((low <= MAX_SHOTS) & (high <= MAX_SHOTS) & (low + high <= MAX_SHOTS))
    if failed is not None:
        r, b = failed
        raise ValueError(
            f"replicate {r}, basis {bases[b].value}: counts {c[r, b].tolist()} are not "
            f"nonnegative with a total of at most {MAX_SHOTS}"
        )
    return c.astype(np.int64, copy=False)


def estimate_witnesses_many(counts, bases):
    """Both witness estimates of R replicates, from an (R, B, 4) integer count stack.

    counts[r, b] is replicate r's count table in bases[b]. Returns
    (l, l_se, ml, ml_se), four length-R arrays; row r equals
    `estimate_witnesses` on replicate r's tables, bit for bit. The checks are
    `estimate_witnesses`' own (bases, then counts, then at least 2 shots per
    table), and a failed count check names the first failing replicate.
    """
    bases = tuple(bases)
    _separable_bound(bases)
    return _estimate(_checked_counts(counts, bases), bases, lambda r: f"replicate {r}, ")


def estimate_witnesses(tables) -> EstimatedReport:
    """Estimate both witness values from per-basis count tables.

    The tables' bases pick the standard set (0/90 and 45/135 for L2, all
    three for L3) and its separable bound. This is `estimate_witnesses_many`
    on one replicate, with the bound and the verdicts.
    """
    tables = list(tables)
    bases = tuple(t.basis for t in tables)
    bound = _separable_bound(bases)
    counts = np.array([[t.counts for t in tables]])
    l_value, l_se, ml_value, ml_se = (float(v[0]) for v in _estimate(counts, bases, lambda r: ""))
    verdicts = verdict_for(l_value, bound), verdict_for(ml_value, bound)
    return EstimatedReport(bases, l_value, l_se, ml_value, ml_se, bound, *verdicts)
