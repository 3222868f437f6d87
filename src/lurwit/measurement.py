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
    covariance of the outcome frequencies (approximate), as a centred
    spread (`_table_floats`), exactly 0 when the statistic sits at a
    stationary point of the frequencies the table saw.

The tables' bases select the standard witness set that supplies the bound,
and the witness sums (with their check that the two ML forms agree) are
those of the exact path's one-state loop, `witness._float_sums`.

`outcome_probabilities` keeps each live state's 12 projector traces as one
read-only (3, 4) array (a `DensityMatrix` is read-only, so it cannot go
stale). `draw_counts` gives a replicate's counts as one read-only (3, 4)
int64 stack, one multinomial draw per row. The estimator takes each table
of an (R, B, 4) count stack (replicates, bases, outcomes) through its
moments once, and `_estimate` gives the values and SEs after the first k
bases for every k from its `first` to B: all B for
`estimate_witnesses_many`; two and three (L2 and L3) for `estimate_standard`.
`estimate_witnesses` adds the bound and verdicts on one replicate: each call
checks its tables' bases and shots and estimates their counts, so L2 and L3
on the same tables are two calls over the same counts.

The estimator has one path. A stack's counts are checked in Python ints
(`_checked_counts`), and every replicate, one after another, is a loop of
Python floats over its tables (`_table_floats`, `_replicate_estimate`),
cheaper on one replicate (`simulate`, `estimate_witnesses`) than numpy's
fixed cost per call, and linear in R on a stack (README gives the cost). A
row does not depend on its stack or on the BLAS build: every sum over the
four outcomes is added left to right, and every square is `x * x`, not
libm `pow`.

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

from . import rng
from .linalg import NumericsError, first_failure
from .states import Basis, DensityMatrix, I2
from .witness import (
    DECOMPOSITION_TOL,
    EXPECTATION_IMAG_TOL,
    Verdict,
    standard_sets,
    verdict_for,
)

PROB_SUM_TOL = 1e-12
MAX_SHOTS = int(np.iinfo(np.int64).max)  # counts are int64
_BASES = tuple(Basis)  # built once: iterating the enum runs a Python generator, about 1 us


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

    def __post_init__(self):
        object.__setattr__(self, "basis", _as_basis(self.basis))
        c = _count_array(self.counts)
        if c.shape != (4,) or c.dtype.kind not in "iu" or min(c.tolist()) < 0:
            raise ValueError(f"expected 4 nonnegative counts, got {self.counts}")
        total = sum(c.tolist())
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


def _table_floats(c0: int, c1: int, c2: int, c3: int) -> tuple:
    """Plug-in moments and delta-method SEs of one table of at least one shot, in Python floats:
    var_a, var_b, var_sum, cov and the centred SEs of var_sum and of the ML term
    var_a + var_b - 2|cov|. c0..c3 count the outcomes (+,+), (+,-), (-,+), (-,-), each +/-1, so
    <A^2> = <B^2> = 1. Over them u = A - <A> is up, up, um, um and v = B - <B> is vp, vm, vp, vm;
    the SE gradients are (u + v)^2 and u^2 + v^2 - 2 sign(cov) u v (README), and 2 sign(cov) is
    2 * ((cov > 0) - (cov < 0)), the subgradient 0 at cov == 0."""
    n = float(c0 + c1 + c2 + c3)
    f0, f1, f2, f3 = float(c0) / n, float(c1) / n, float(c2) / n, float(c3) / n
    m_a, m_b, m_ab = f0 + f1 - f2 - f3, f0 - f1 + f2 - f3, f0 - f1 - f2 + f3
    var_a, var_b, cov = 1.0 - m_a * m_a, 1.0 - m_b * m_b, m_ab - m_a * m_b
    two_sign = 2.0 * ((cov > 0.0) - (cov < 0.0))
    up, um, vp, vm = 1.0 - m_a, -1.0 - m_a, 1.0 - m_b, -1.0 - m_b
    se = []
    for g0, g1, g2, g3 in (
        ((up + vp) * (up + vp), (up + vm) * (up + vm), (um + vp) * (um + vp), (um + vm) * (um + vm)),
        (up * up + vp * vp - two_sign * (up * vp), up * up + vm * vm - two_sign * (up * vm),
         um * um + vp * vp - two_sign * (um * vp), um * um + vm * vm - two_sign * (um * vm)),
    ):
        mean = f0 * g0 + f1 * g1 + f2 * g2 + f3 * g3
        d0, d1, d2, d3 = g0 - mean, g1 - mean, g2 - mean, g3 - mean
        se.append(math.sqrt((f0 * (d0 * d0) + f1 * (d1 * d1) + f2 * (d2 * d2) + f3 * (d3 * d3)) / n))
    return var_a, var_b, var_a + var_b + 2.0 * cov, cov, *se


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


def _replicate_estimate(rows: list, first: int, r: int) -> list:
    """Witness values and SEs of replicate `r`, given as B rows of four ints, after its first k
    bases, k = first..B, as one list: (l, l_se, ml, ml_se) for each k in turn.

    `_table_floats` per row, then `witness._float_sums`' sums from +0.0 in basis order and its ML
    check (naming stack index `r`), in one loop with the squared SEs (a call to it costs more).
    Counts in different bases are independent, so the witness SEs add in quadrature.
    """
    l = ml = ml_other = l_var = ml_var = 0.0
    estimates = []
    for k, table in enumerate(rows, 1):
        var_a, var_b, var_sum, cov, l_se, ml_se = _table_floats(*table)
        l, l_var, ml_var = l + var_sum, l_var + l_se * l_se, ml_var + ml_se * ml_se
        ml += var_a + var_b - 2.0 * abs(cov)
        ml_other += var_sum - 4.0 * max(0.0, cov)
        if k >= first:
            if not abs(ml - ml_other) <= DECOMPOSITION_TOL:
                raise NumericsError(f"modified-witness forms disagree at stack index {r}: {ml} vs {ml_other}")
            estimates += (l, math.sqrt(l_var), ml, math.sqrt(ml_var))
    return estimates


def _estimate(rows: list, first: int, b: int) -> tuple:
    """Witness values and SEs of R replicates, each B = `b` rows of checked counts, after their
    first k bases, k = first..B: 4 * (B - first + 1) length-R arrays, (l, l_se, ml, ml_se) per k.

    Each replicate is `_replicate_estimate` in turn, so the first failed ML check is that of the
    lowest replicate, and the results are stacked by one `np.array` call.
    """
    if not rows:  # an empty list would give numpy no shape
        return tuple(np.empty((4 * (b - first + 1), 0)))
    estimates = []
    for r, replicate in enumerate(rows):  # a loop: a comprehension costs more on one replicate
        estimates.append(_replicate_estimate(replicate, first, r))
    return tuple(np.array(estimates).T)


def _count_array(counts) -> np.ndarray:
    """`counts` as an array, by the count rule of tables and stacks: ValueError for a bool (numpy
    counts one as 0 or 1), a float, or an integer past MAX_SHOTS or below int64 (numpy makes it
    uint64, float or object); an ndarray of numbers is judged by its dtype."""
    c = np.asarray(counts)
    if c.dtype.kind == "b":
        raise ValueError(f"counts must be integers, got dtype {c.dtype}")
    if c is not counts or c.dtype.kind == "O":
        items = np.asarray(counts, dtype=object).ravel().tolist()
        if {bool, np.bool_} & set(map(type, items)):
            raise ValueError(f"counts must be integers, got {counts}")
        for v in items:
            if isinstance(v, numbers.Integral) and v > MAX_SHOTS:
                raise ValueError(f"count {v} exceeds the largest supported count {MAX_SHOTS}")
            if isinstance(v, numbers.Integral) and v < -MAX_SHOTS - 1:
                raise ValueError(f"count {v} is negative")
    if c.dtype.kind == "f":
        raise ValueError(f"counts must be integers, got dtype {c.dtype}")
    return c


def _out_of_range(r: int, basis: Basis, counts: list) -> ValueError:
    return ValueError(
        f"replicate {r}, basis {basis.value}: counts {counts} are not "
        f"nonnegative with a total of at most {MAX_SHOTS}"
    )


def _checked_counts(counts, bases: tuple) -> list:
    """`counts`, an (R, B, 4) integer stack, as R lists of B rows of four Python ints.

    ValueError naming the first table, in replicate-then-basis order, whose entries are out of
    range; or else the first whose total passes MAX_SHOTS; or else the first under 2 shots.
    """
    c = _count_array(counts)
    if c.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {c.dtype}")
    if c.ndim != 3 or c.shape[1:] != (len(bases), 4):
        raise ValueError(f"expected counts of shape (R, {len(bases)}, 4), got {c.shape}")
    stack = c.tolist()
    tables = [(r, basis, row, sum(row)) for r, rows in enumerate(stack) for basis, row in zip(bases, rows)]
    for r, basis, row, _ in tables:  # every table's entries, then every table's total
        if not 0 <= min(row) <= max(row) <= MAX_SHOTS:
            raise _out_of_range(r, basis, row)
    for r, basis, row, shots in tables:
        if shots > MAX_SHOTS:
            raise _out_of_range(r, basis, row)
    for r, basis, _, shots in tables:
        if shots < 2:
            raise _too_few_shots(f"replicate {r}, ", basis)
    return stack


def draw_counts(rho: DensityMatrix, shots: int, seed: int) -> np.ndarray:
    """One replicate's counts as a read-only (3, 4) int64 stack, rows in `Basis` order.

    Row i is `rng.stream(seed, i).multinomial(shots, p_i)`, bit for bit, drawn by
    `rng.keyed_draws`. ValueError unless `shots` is an integer in [1, MAX_SHOTS].
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError("need at least one shot")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots={shots} exceeds the largest supported count {MAX_SHOTS}")
    probs = iter(outcome_probabilities(rho))
    counts = np.array(rng.keyed_draws(seed, range(3), lambda g: g.multinomial(shots, next(probs))))
    counts.flags.writeable = False
    return counts


def simulate_counts(rho: DensityMatrix, shots: int, seed: int) -> list:
    """`draw_counts` as one `CountTable` per basis, in `Basis` order."""
    return [CountTable(basis, c) for basis, c in zip(_BASES, draw_counts(rho, shots, seed))]


def estimate_witnesses_many(counts, bases):
    """Both witness estimates of R replicates, from an (R, B, 4) integer count stack.

    counts[r, b] is replicate r's count table in bases[b]. Returns
    (l, l_se, ml, ml_se), four length-R arrays; row r equals
    `estimate_witnesses` on replicate r's tables, bit for bit. The checks are
    `estimate_witnesses`' own (bases, then counts, then at least 2 shots per
    table), and a failed count check names the first failing replicate.
    """
    bases, _ = _checked_bases(bases)
    return _estimate(_checked_counts(counts, bases), len(bases), len(bases))


def estimate_standard(counts):
    """L2 and L3 estimates of R replicates from one (R, 3, 4) count stack in `Basis` order.

    Returns (l2, l2_se, ml2, ml2_se, l3, l3_se, ml3, ml3_se), eight length-R
    arrays. The counts are checked, and every table's moments taken, once;
    L2 and L3 are the estimates after two and three bases. Every value is
    bit for bit that of `estimate_witnesses_many` on the first two bases and
    on all three, and bad counts raise what the call on all three raises.
    """
    return _estimate(_checked_counts(counts, _BASES), 2, len(_BASES))


def estimate_witnesses(tables) -> EstimatedReport:
    """Estimate both witness values from per-basis count tables.

    The tables' bases pick the standard set (0/90 and 45/135 for L2, all
    three for L3) and its separable bound. This is `estimate_witnesses_many`
    on one replicate, with the bound and the verdicts.

    Every call checks the bases and the tables' shots, then estimates the
    tables' counts in Python floats (`_replicate_estimate`), bit for bit as
    any tables with the same counts.
    """
    tables = list(tables)
    bases, bound = _checked_bases(t.basis for t in tables)
    for table in tables:
        if table.shots < 2:
            raise _too_few_shots("", table.basis)
    l_value, l_se, ml_value, ml_se = _replicate_estimate([t.counts.tolist() for t in tables], len(tables), 0)
    verdicts = verdict_for(l_value, bound), verdict_for(ml_value, bound)
    return EstimatedReport(bases, l_value, l_se, ml_value, ml_se, bound, *verdicts)
