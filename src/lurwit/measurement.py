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
    spread (`_table_moments`), exactly 0 when the statistic sits at a
    stationary point of the frequencies the table saw.

The tables' bases select the standard witness set that supplies the bound,
and the witness sums (with their check that the two ML forms agree) are the
exact path's own kernel, `witness._witness_values`.

The layer is array code. `outcome_probabilities` keeps each live state's
12 projector traces as one read-only (3, 4) array (a `DensityMatrix` is
read-only, so it cannot go stale). `draw_counts` gives a replicate's counts
as one read-only (3, 4) int64 stack, one multinomial draw per row. The
estimator takes each table of a (..., B, 4) count stack (replicates, bases,
outcomes) through its moments once, and `_estimate` gives the values and SEs
after the first k bases for every k from its `first` to B: all B for
`estimate_witnesses_many`; two and three (L2 and L3) for `estimate_standard`.
`estimate_witnesses` adds the bound and verdicts on one replicate, through a
record of its counts (checking bases and shots on every call): the
`CountTable`s of one `simulate_counts` draw share one record, over the
draw's own stack, and so one pass for L2 and L3.

The moments are statistic-major: each per-table statistic is one
contiguous (..., B) row and the gradients one (2, ..., B, 4) stack, so a
replicate's few tables run numpy's contiguous loops, cheaper per call than
strided columns. Results are bit for bit a per-table loop of Python
floats, and a row does not depend on its stack or on the BLAS build: every
sum over the four outcomes is `np.add.reduce` of elementwise products,
which numpy adds left to right with no BLAS call, and every square is
`x * x`, not libm `pow`.

The outcome-projector stack is built on the first `outcome_probabilities`
call, and the table of standard-set bounds (and so the sets) on the first
`estimate_witnesses` or `estimate_witnesses_many` call, not at import.
`EstimatedReport` is a named tuple, read-only and equal field by field.
"""

from __future__ import annotations

import functools
import numbers
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
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
    # (record, row) of a table `simulate_counts` built; not a dataclass field
    _drawn = (None, -1)

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


def _table_moments(counts: np.ndarray):
    """Plug-in moments and delta-method SEs of every table in a (..., B, 4) int64 stack.

    Returns var_a, var_b, var_sum and cov, each (..., B), and the SEs as
    (2, ..., B): those of var_sum and of the table's ML term
    var_a + var_b - 2|cov|. Every statistic is one contiguous row. Every
    table needs at least one shot.
    """
    shots = np.add.reduce(counts, axis=-1)
    f = counts / shots[..., None]
    signs = _SIGNS.reshape((3,) + (1,) * (f.ndim - 1) + (4,))
    means = np.add.reduce(f * signs, axis=-1)  # <A>, <B>, <AB>
    # rows by index: unpacking iterates over the array, which costs more per row
    m_a, m_b, m_ab = means[0], means[1], means[2]

    # outcomes are +/-1 so <A^2> = <B^2> = 1 exactly
    var_ab = 1.0 - means[:2] * means[:2]
    var_a, var_b = var_ab[0], var_ab[1]
    cov = m_ab - m_a * m_b
    var_sum = var_a + var_b + 2.0 * cov

    # gradients in the frequencies, up to constants (which the SE does not see), over the
    # centred outcomes u = A - <A> and v = B - <B>: (u + v)^2 for var_sum and
    # u^2 + v^2 - 2 sign(cov) u v for the ML term, with the subgradient 0 at cov == 0
    uv = signs[:2] - means[:2, ..., None]
    u_plus_v, squares = uv[0] + uv[1], uv * uv
    grads = np.empty((2,) + f.shape)
    np.multiply(u_plus_v, u_plus_v, out=grads[0])
    np.subtract(squares[0] + squares[1], (2.0 * np.sign(cov))[..., None] * (uv[0] * uv[1]), out=grads[1])

    # first-order propagation through the multinomial covariance of f, centred:
    # SE^2 = sum f (g - sum f g)^2 / n, exactly 0 where g is constant on the outcomes seen
    spread = grads - np.add.reduce(f * grads, axis=-1)[..., None]
    se = np.sqrt(np.add.reduce(f * (spread * spread), axis=-1) / shots)
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


def _estimate(counts: np.ndarray, first: int):
    """Witness values and SEs of an (R, B, 4) count stack after its first k bases, k = first..B.

    Returns (l, l_se, ml, ml_se) for each k in turn, 4 * (B - first + 1)
    length-R arrays. Every table needs at least one shot. The witness values are the exact path's sums over
    pair-major rows (`witness._witness_values`, with its ML check at every
    k). Counts in different bases are independent, so the witness SEs add in
    quadrature: the squared SEs of var_sum and of the ML term add up one
    basis after another.
    """
    var_a, var_b, var_sum, cov, se = _table_moments(counts)
    values = iter(_witness_values((var_sum.T, cov.T, (var_a + var_b).T), first))
    se_sums = np.sqrt(np.add.accumulate(se * se, axis=-1))
    estimates = []
    for k, l_values, ml_values in zip(range(first, se.shape[-1] + 1), values, values, strict=True):
        estimates += (l_values, se_sums[0, ..., k - 1], ml_values, se_sums[1, ..., k - 1])
    return tuple(estimates)


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


def _checked_counts(counts, bases: tuple) -> np.ndarray:
    """`counts` as an (R, B, 4) int64 stack; ValueError naming the first table out of range, or
    else the first under 2 shots."""
    c = _count_array(counts)
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
        shots = low + high
        failed = first_failure((low <= MAX_SHOTS) & (high <= MAX_SHOTS) & (shots <= MAX_SHOTS))
    if failed is not None:
        r, b = failed
        raise ValueError(
            f"replicate {r}, basis {bases[b].value}: counts {c[r, b].tolist()} are not "
            f"nonnegative with a total of at most {MAX_SHOTS}"
        )
    failed = first_failure(shots >= 2)
    if failed is not None:
        r, b = failed
        raise _too_few_shots(f"replicate {r}, ", bases[b])
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
            values = [v.item() for v in _estimate(self.counts, self.first)]
            ends = range(self.first, self.counts.shape[1] + 1)
            self.estimates = {k: tuple(values[4 * i:4 * i + 4]) for i, k in enumerate(ends)}
        return self.estimates[k]


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
    """`draw_counts` as one `CountTable` per basis, in `Basis` order.

    While they live, the tables keep the draw's stack as their record, so
    `estimate_witnesses` estimates both families from it once (see there).
    """
    counts = draw_counts(rho, shots, seed)
    tables = [CountTable(basis, c) for basis, c in zip(Basis, counts)]
    record = _Record(counts[None], 2)
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
    return _estimate(_checked_counts(counts, bases), len(bases))


def estimate_standard(counts):
    """L2 and L3 estimates of R replicates from one (R, 3, 4) count stack in `Basis` order.

    Returns (l2, l2_se, ml2, ml2_se, l3, l3_se, ml3, ml3_se), eight length-R
    arrays. The counts are checked, and every table's moments taken, once;
    L2 and L3 are the estimates after two and three bases. Every value is
    bit for bit that of `estimate_witnesses_many` on the first two bases and
    on all three, and bad counts raise what the call on all three raises.
    """
    return _estimate(_checked_counts(counts, tuple(Basis)), 2)


def estimate_witnesses(tables) -> EstimatedReport:
    """Estimate both witness values from per-basis count tables.

    The tables' bases pick the standard set (0/90 and 45/135 for L2, all
    three for L3) and its separable bound. This is `estimate_witnesses_many`
    on one replicate, with the bound and the verdicts.

    The tables' counts are estimated through one record: on the first two
    or all three tables of one `simulate_counts` call, in order, that is the
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
