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
exact path's own kernel, `witness._witness_values`.

The layer is array code. `outcome_probabilities` keeps each live state's
12 projector traces as one read-only (3, 4) array (a `DensityMatrix` is
read-only, so it cannot go stale). A replicate's counts are one read-only
(3, 4) int64 stack, one multinomial draw per row (`lurwit.cli.draw_counts`).
The estimator takes each table of a (..., B, 4) count stack (replicates,
bases, outcomes) through its moments once, and `_estimate` gives the values
and SEs after the first k bases for every k from its `first` to B: all B for
`estimate_witnesses_many`; two and three (L2 and L3) for `estimate_standard`,
which `simulate` hands its drawn stack. `estimate_witnesses` adds the bound
and verdicts on one replicate, through a record of its counts (checking
bases and shots on every call): the `CountTable`s of one drawn replicate
(`drawn_tables`) share one record and so one pass for L2 and L3.

The moments are statistic-major: each per-table statistic is one
contiguous (..., B) row and the gradients one (4, ..., B, 4) stack, so a
replicate's few tables run numpy's contiguous loops, cheaper per call than
strided columns. Results are bit for bit a per-table loop of Python
scalars, and a row does not depend on its stack: the dot products are
`np.vecdot` (a constant (3, 1, ..., 1, 4) sign stack against the
frequencies, the frequencies against the gradients), one BLAS dot per row
like the 1-D `f @ g` (`sum` or `einsum` add in another order); squares are
`np.float_power(x, 2.0)`, libm `pow` like Python's `x**2` (numpy's `x*x`
differs in the last bit now and then).

The outcome-projector stack is built on the first `outcome_probabilities`
call, and the table of standard-set bounds (and so the sets) on the first
`estimate_witnesses` or `estimate_witnesses_many` call, not at import.
`EstimatedReport` is a named tuple, read-only and equal field by field.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import NumericsError, first_failure
from .states import Basis, DensityMatrix, I2
from .witness import (
    EXPECTATION_IMAG_TOL,
    Verdict,
    _witness_values,
    standard_sets,
    verdict_for,
)

# joint outcomes in the fixed order (+,+), (+,-), (-,+), (-,-)
SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])
SIGN_AB = SIGN_A * SIGN_B
_SIGNS = np.array([SIGN_A, SIGN_B, SIGN_AB])
_SIGNS.flags.writeable = False
# the delta-method gradients' constant vectors (see `_table_moments`)
_GRAD_VAR_A, _GRAD_VAR_B = -2.0 * SIGN_A, -2.0 * SIGN_B
_GRAD_SUM_BASE = 2.0 * SIGN_AB
_GRAD_SUM_SLOPE = 2.0 * (SIGN_A + SIGN_B)

PROB_SUM_TOL = 1e-12
MAX_SHOTS = int(np.iinfo(np.int64).max)  # counts are int64


def _as_basis(basis) -> Basis:
    """`basis` if it is a `Basis`, else the `Basis` it labels; ValueError for anything else."""
    return basis if isinstance(basis, Basis) else Basis(basis)


def _is_distribution(p: np.ndarray) -> np.ndarray:
    """Per row of a (..., 4) array: entries in [0, 1] summing to 1 (NaN fails)."""
    in_range = ((0.0 <= p) & (p <= 1.0)).all(axis=-1)
    return in_range & (np.abs(p.sum(axis=-1) - 1.0) <= PROB_SUM_TOL)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Joint outcome counts of one basis, summing to `shots`; `counts` is a read-only int64 copy.

    `basis` is a `Basis` or its label; anything else raises ValueError.
    """

    basis: Basis
    counts: np.ndarray
    # (record, row) of a table `drawn_tables` built; not a dataclass field
    _drawn = (None, -1)

    def __post_init__(self):
        object.__setattr__(self, "basis", _as_basis(self.basis))
        c = np.asarray(self.counts)
        if c.dtype.kind == "b":  # refused as `_checked_counts` and `check_shots` refuse booleans
            raise ValueError(f"counts must be integers, got dtype {c.dtype}")
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
        object.__setattr__(self, "_shots", total)

    @property
    def shots(self) -> int:
        return self._shots


class EstimatedReport(NamedTuple):
    """Point estimates and standard errors for one witness family; `bases` in table order."""

    bases: tuple
    l_value: float
    l_se: float
    ml_value: float
    ml_se: float
    separable_bound: float
    verdict_l: Verdict
    verdict_ml: Verdict


@functools.cache
def _projectors() -> np.ndarray:
    """P_a x P_b for every basis (rows in `Basis` order) and outcome, as one read-only
    (3, 4, 4, 4) stack, built on the first call."""
    halves = [((I2 + basis.pauli) / 2.0, (I2 - basis.pauli) / 2.0) for basis in Basis]  # P_+, P_-
    projectors = np.array([[np.kron(pa, pb) for pa in h for pb in h] for h in halves])
    projectors.flags.writeable = False
    return projectors


@functools.cache
def _bounds() -> dict:
    """The separable bound of each standard set, keyed by the labels of its bases; built on the first call."""
    return {frozenset(label for _, _, label in s.pairs): s.separable_bound for s in standard_sets().values()}


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
    values = np.trace(rho.matrix @ _projectors(), axis1=-2, axis2=-1)
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


def _table_moments(counts: np.ndarray, shots: np.ndarray):
    """Plug-in moments and delta-method SEs of every table in a (..., B, 4) int64 stack.

    `shots` holds each table's total, (..., B). Returns var_a, var_b,
    var_sum and cov, each (..., B), and the SEs as (2, ..., B): those of
    var_sum and of the table's ML term var_a + var_b - 2|cov|. Every
    statistic is one contiguous row. Every table needs at least one shot.
    """
    f = counts / shots[..., None]
    means = np.vecdot(_SIGNS.reshape((3,) + (1,) * (f.ndim - 1) + (4,)), f)  # <A>, <B>, <AB>
    # rows by index: unpacking iterates over the array, which costs more per row
    m_a, m_b, m_ab = means[0], means[1], means[2]

    # outcomes are +/-1 so <A^2> = <B^2> = 1 exactly
    var_ab = 1.0 - np.float_power(means[:2], 2.0)
    var_a, var_b = var_ab[0], var_ab[1]
    cov = m_ab - m_a * m_b
    var_sum = var_a + var_b + 2.0 * cov

    # gradients of var_sum and the ML term in the frequencies, then their squares;
    # the sign vectors are +/-1 and the factors 2, so folding them into constants
    # changes no rounding
    a, b = m_a[..., None], m_b[..., None]
    grads = np.empty((4,) + f.shape)
    np.subtract(_GRAD_SUM_BASE, (a + b) * _GRAD_SUM_SLOPE, out=grads[0])
    grad_cov = SIGN_AB - b * SIGN_A - a * SIGN_B
    # |cov| gradient uses sign(cov); at cov == 0 the subgradient 0 is used
    sign2 = (2.0 * np.sign(cov))[..., None]
    np.subtract(a * _GRAD_VAR_A + b * _GRAD_VAR_B, sign2 * grad_cov, out=grads[1])
    np.square(grads[:2], out=grads[2:])

    # first-order propagation through the multinomial covariance of f
    moments = np.vecdot(f, grads)  # E[g] of both gradients, then E[g^2]
    spread = moments[2:] - np.square(moments[:2])
    se = np.sqrt(np.maximum(0.0, spread) / shots)
    return var_a, var_b, var_sum, cov, se


def _checked_bases(bases) -> tuple:
    """The bases as a tuple of `Basis` members, and the bound of the standard set they pick.

    A basis may be given by its label; ValueError for anything else, and if
    the bases pick no standard set.
    """
    bases = tuple(map(_as_basis, bases))
    labels = frozenset(b.value for b in bases)  # one label per basis
    if len(labels) != len(bases):
        raise ValueError("duplicate basis in count tables")
    bound = _bounds().get(labels)
    if bound is None:
        raise ValueError(f"count tables cover bases {sorted(labels)}, not those of L2 or L3")
    return bases, bound


def _too_few_shots(prefix: str, basis: Basis) -> ValueError:
    return ValueError(f"{prefix}basis {basis.value}: need at least 2 shots to estimate a variance")


def _moments(counts: np.ndarray, bases: tuple):
    """`_table_moments` of an (R, B, 4) stack; ValueError names the first table under 2 shots."""
    shots = np.add.reduce(counts, axis=-1)
    failed = first_failure(shots >= 2)
    if failed is not None:
        r, b = failed
        raise _too_few_shots(f"replicate {r}, ", bases[b])
    return _table_moments(counts, shots)


def _estimate(moments, first):
    """Witness values and SEs after the first k bases, for each k from `first` to B.

    Returns (l, l_se, ml, ml_se) for each k in turn, 4 * (B - first + 1)
    length-R arrays. The witness values are the exact path's sums over
    pair-major rows (`witness._witness_values`, with its ML check at every
    k). Counts in different bases are independent, so the witness SEs add in
    quadrature: the squared SEs of var_sum and of the ML term add up one
    basis after another.
    """
    var_a, var_b, var_sum, cov, se = moments
    values = iter(_witness_values((var_sum.T, cov.T, (var_a + var_b).T), first))
    se_sums = np.sqrt(np.add.accumulate(np.float_power(se, 2.0), axis=-1))
    estimates = []
    for k, l_values, ml_values in zip(range(first, se.shape[-1] + 1), values, values, strict=True):
        estimates += (l_values, se_sums[0, ..., k - 1], ml_values, se_sums[1, ..., k - 1])
    return tuple(estimates)


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


class _Record:
    """Count tables as one read-only (1, B, 4) int64 stack, and their estimates once taken.

    `estimates` is None until the first `estimate` call, then maps every k
    from `first` to B to (l, l_se, ml, ml_se) over the first k tables.
    """

    __slots__ = ("counts", "first", "estimates", "__weakref__")

    def __init__(self, counts: np.ndarray, first: int):
        self.counts = counts
        self.first = first
        self.estimates = None

    def estimate(self, k: int) -> tuple:
        """(l, l_se, ml, ml_se) over the first k tables; the caller checked each has 2 or more shots."""
        if self.estimates is None:
            moments = _table_moments(self.counts, np.add.reduce(self.counts, axis=-1))
            values = [v.item() for v in _estimate(moments, self.first)]
            ends = range(self.first, self.counts.shape[1] + 1)
            self.estimates = {k: tuple(values[4 * i:4 * i + 4]) for i, k in enumerate(ends)}
        return self.estimates[k]


def drawn_tables(counts) -> list:
    """One replicate's `CountTable`s, in `Basis` order, from its three draws of one total each.

    Each table is validated as any `CountTable` is. While they live, the
    tables keep one read-only (1, 3, 4) stack of their validated counts, so
    `estimate_witnesses` on the first two or all three, in order, estimates
    both families from it once (see there).
    """
    tables = [CountTable(basis, c) for basis, c in zip(Basis, counts, strict=True)]
    totals = [t.shots for t in tables]
    if len(set(totals)) != 1:
        raise ValueError(f"a replicate draws the same number of shots per basis, got {totals}")
    stack = np.array([[t.counts for t in tables]])
    stack.flags.writeable = False
    record = _Record(stack, 2)
    for row, table in enumerate(tables):
        object.__setattr__(table, "_drawn", (record, row))
    return tables


def _drawn_of(tables: list):
    """The record of the drawn replicate whose first len(tables) tables these are, in order, or None."""
    drawn = getattr(tables[0], "_drawn", (None,))[0] if tables else None
    if drawn is None or any(getattr(t, "_drawn", None) != (drawn, row) for row, t in enumerate(tables)):
        return None
    return drawn


def estimate_witnesses_many(counts, bases):
    """Both witness estimates of R replicates, from an (R, B, 4) integer count stack.

    counts[r, b] is replicate r's count table in bases[b]. Returns
    (l, l_se, ml, ml_se), four length-R arrays; row r equals
    `estimate_witnesses` on replicate r's tables, bit for bit. The checks are
    `estimate_witnesses`' own (bases, then counts, then at least 2 shots per
    table), and a failed count check names the first failing replicate.
    """
    bases, _ = _checked_bases(bases)
    return _estimate(_moments(_checked_counts(counts, bases), bases), len(bases))


def estimate_standard(counts):
    """L2 and L3 estimates of R replicates from one (R, 3, 4) count stack in `Basis` order.

    Returns (l2, l2_se, ml2, ml2_se, l3, l3_se, ml3, ml3_se), eight length-R
    arrays. The counts are checked, and every table's moments taken, once;
    L2 and L3 are the estimates after two and three bases. Every value is
    bit for bit that of `estimate_witnesses_many` on the first two bases and
    on all three, and bad counts raise what the call on all three raises.
    """
    bases = tuple(Basis)
    return _estimate(_moments(_checked_counts(counts, bases), bases), 2)


def estimate_witnesses(tables) -> EstimatedReport:
    """Estimate both witness values from per-basis count tables.

    The tables' bases pick the standard set (0/90 and 45/135 for L2, all
    three for L3) and its separable bound. This is `estimate_witnesses_many`
    on one replicate, with the bound and the verdicts.

    The tables' counts are estimated through one record: on the first two
    or all three tables of one `drawn_tables` call, in order, that is the
    replicate's record, whose first such call estimates L2 and L3 from its
    kept stack in one moments pass (so a failed ML check in either family
    fails both); on any other tables it is a new record over their own
    counts. The bases and the tables' shots are checked on every call, and
    the values are bit for bit those of any tables with the same counts.
    """
    tables = list(tables)
    bases, bound = _checked_bases(t.basis for t in tables)
    for table in tables:
        if table.shots < 2:
            raise _too_few_shots("", table.basis)
    record = _drawn_of(tables) or _Record(np.array([[t.counts for t in tables]]), len(tables))
    l_value, l_se, ml_value, ml_se = record.estimate(len(tables))
    verdicts = verdict_for(l_value, bound), verdict_for(ml_value, bound)
    return EstimatedReport(bases, l_value, l_se, ml_value, ml_se, bound, *verdicts)
