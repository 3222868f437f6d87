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
signs. The Peres partial-transpose test gives the exact ground truth for
two qubits and is exposed as `ppt_min_eigenvalue` (one state) and
`ppt_min_eigenvalues` (a stack), one LAPACK eigensolve per state. A stack
of pure states given by its amplitudes, such as the Haar stack of
`haar-study`, needs none: `pure_ppt_min_eigenvalues` gives the same
eigenvalue as the Schmidt determinant -|psi_00 psi_11 - psi_01 psi_10|.

Every witness quantity is linear in the state, so one kernel serves every
caller and there is no scalar path beside it: a single contraction of an
(N, 4, 4) stack of density matrices with the (P, 7, 4, 4) lifted operators
of an `ObservableSet` gives all 7 * P expectations of all N states at once,
as (7, P, N) rows, by `einsum` or gemm (`_expectations` states the rule).
One summation kernel, `_witness_values`, adds each pair's terms in pair
order and returns the sums after k pairs for each k from the first asked
for to P: `evaluate_many` asks for P, and `evaluate` is the same on a stack
of one, plus the per-pair report. `evaluate_standard` asks for two and
three, L2 and L3, from one pass over L3's operators: L2's pairs are L3's
first two, so the two families read the same per-basis statistics, as they
would in the lab. The finite-shot estimator (`lurwit.measurement`) sums its
per-table moments with the same kernel. The runtime invariant checks (real
expectations, the variance decomposition, the agreement of the two
modified-witness forms at every sum returned) run on every call, each as
one maximum over its whole block, with tolerances (and the verdict margin)
scaled by the set; only a failed check looks for the first failing state.

The standard sets are built on the first `standard_sets` or
`evaluate_standard` call, not at import. The report records `PairStats` and
`WitnessReport` are named tuples, read-only and equal field by field.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import HERMITIAN_TOL, NumericsError, as_operator, first_failure, transpose_second_qubit
from .states import I2, SX, SY, SZ, Basis, DensityMatrix

EXPECTATION_IMAG_TOL = 1e-10
DECOMPOSITION_TOL = 1e-10
VERDICT_MARGIN = 1e-9
# observables with an entry (for `local_bound`, a Pauli component) of this
# modulus or more are refused: below it every square and product the kernel
# and `local_bound` form, and their sums, stay finite
ENTRY_LIMIT = 2.0**500
# the largest stack whose witness sums take one `accumulate` call; above it one add
# per pair is cheaper, as `accumulate` walks its rows state by state (README)
ACCUMULATE_MAX_STATES = 63


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
    which is 1.0 for every set of Paulis; `verdict_margin` is the scaled
    margin. The lifted two-qubit operators are precomputed once per set,
    stacked as one C-contiguous (P, 7, 4, 4) array `_ops`: for pair i, with
    a = a_i x I, b = I x b_i and s = a + b, the 7 operators are a, b, s,
    a^2, b^2, s^2 and a_i x b_i, so that the variances are one square and
    one subtraction of rows. Each is stored transposed: Tr(rho op) = sum_ij
    rho_ij (op^T)_ij contracts matching, contiguous indices, and `_ops`
    reshaped to (7P, 16) is the transposed right-hand side of gemm. `_exact`
    says whether the set may take that path (see `_expectations`). The
    operators in `pairs` are read-only copies of the caller's, and `_ops` is
    read-only, so a set can be shared and does not change with the caller's
    arrays. A pair with an entry of modulus `ENTRY_LIMIT` (2^500, about
    3.3e150) or more is refused with a `ValueError` that names it; below that
    the lifted squares (entries at most 16 |o|^2) and every sum the kernel
    forms of them are finite.
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
        peaks = np.abs(obs).max(axis=(2, 3))  # |a_i| and |b_i|, (P, 2)
        failed = first_failure(peaks.max(axis=1) < ENTRY_LIMIT)
        if failed is not None:
            raise ValueError(f"observables for {pairs[failed[0]][2]!r} are too large: an entry reaches 2^500")
        a4, b4 = np.kron(a, I2), np.kron(I2, b)  # a_i x I and I x b_i, (P, 4, 4) each
        ab = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(a4.shape)  # a_i x b_i
        s = a4 + b4
        ops = np.stack((a4, b4, s, a4 @ a4, b4 @ b4, s @ s, ab), axis=1)
        norms = peaks.mean(axis=1)  # (|a_i| + |b_i|) / 2
        object.__setattr__(self, "pairs", tuple(zip(a, b, (str(label) for _, _, label in pairs))))
        object.__setattr__(self, "bound_a", max(0.0, _min_variance_sum(a)))
        object.__setattr__(self, "bound_b", max(0.0, _min_variance_sum(b)))
        object.__setattr__(self, "_scale", max(1.0, float(norms.max()) ** 2))
        object.__setattr__(self, "_ops", _read_only(ops.swapaxes(-1, -2)))
        object.__setattr__(self, "_exact", _exact_products(ops))

    @property
    def verdict_margin(self) -> float:
        """`VERDICT_MARGIN` times the set's scale: how far below the bound a value must be to detect."""
        return VERDICT_MARGIN * self._scale

    @property
    def separable_bound(self) -> float:
        return self.bound_a + self.bound_b


class PairStats(NamedTuple):
    label: str
    var_a: float
    var_b: float
    var_sum: float
    covariance: float


class WitnessReport(NamedTuple):
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


def _exact_products(ops: np.ndarray) -> bool:
    """True when every lifted operator is all real or all imaginary, with parts 0 or +-2^k, k >= 0."""
    parts = np.abs(np.stack((ops.real, ops.imag)))  # (2, P, 7, 4, 4)
    powers = (parts == 0.0) | ((np.frexp(parts)[0] == 0.5) & (parts >= 1.0))
    mixed = parts.any(axis=(3, 4)).all(axis=0)  # an operator with real and imaginary entries
    return bool(powers.all() and not mixed.any())


def _expectations(matrices: np.ndarray, ops: np.ndarray, gemm: bool) -> np.ndarray:
    """Tr(rho op) for every state and lifted operator, as (7, P, N) complex rows: pair-major statistics.

    The contraction rule (`_pair_moments` sets `gemm`): an exact set
    (`ObservableSet._exact`; the standard sets are exact) on two or more
    states takes gemm; one state or an inexact set takes `einsum`, which adds
    each expectation's 16 products in index order. The gemm, (N, 16) @ (16,
    7P), adds them in the same order but keeps real and imaginary sums apart,
    so it gives einsum's bits, up to the sign of an expectation that is
    exactly zero, only when every product is exact; and one state's one-row
    product would go to gemv, which adds in another order. From two states up
    gemm costs about what `einsum` does, and far less on large stacks. Both
    results are views: a contiguous copy of gemm's rows would be one more
    stack-sized allocation per call (README).
    """
    if not gemm:
        return np.einsum("nij,pkij->kpn", matrices, ops)
    n, p = len(matrices), len(ops)
    return (matrices.reshape(n, 16) @ ops.reshape(7 * p, 16).T).reshape(n, p, 7).transpose(2, 1, 0)


def _pair_moments(matrices: np.ndarray, oset: ObservableSet) -> np.ndarray:
    """var_a, var_b, var_sum, cov and var_a + var_b of every pair and state, as one (5, P, N) block.

    One contraction gives all expectations (`_ops` holds the transposes;
    `_expectations` says which). var_sum takes the direct route through <s>
    and <s^2>, not the decomposition, so the decomposition check compares two
    computations. Each check is one block maximum, which NaN fails; only a
    failure looks for the first.
    """
    gemm = oset._exact and len(matrices) > 1
    values = _expectations(matrices, oset._ops, gemm)  # <a>, <b>, <s>, <a^2>, <b^2>, <s^2>, <ab>
    imag, tol = np.abs(values.imag), EXPECTATION_IMAG_TOL * oset._scale
    if not imag.max(initial=0.0) < tol:
        imag = imag.max(axis=0).T
        n, p = first_failure(imag < tol)
        raise NumericsError(
            f"expectation of a Hermitian operator came out complex at stack index {n}, "
            f"pair {oset.pairs[p][2]!r}: imaginary part {imag[n, p]}"
        )
    m = values.real  # rows taken by index (cheaper than an unpack)
    moments = np.empty((5,) + m.shape[1:])
    np.subtract(m[3:6], np.square(m[:3]), out=moments[:3])  # var_a, var_b, var_sum
    cov = np.subtract(m[6], np.multiply(m[0], m[1], out=moments[3]), out=moments[3])
    var_ab, var_sum = np.add(moments[0], moments[1], out=moments[4]), moments[2]
    residual, tol = np.abs(var_sum - (var_ab + 2.0 * cov)), DECOMPOSITION_TOL * oset._scale
    if not residual.max(initial=0.0) <= tol:
        n, p = first_failure(residual.T <= tol)
        raise NumericsError(
            f"variance decomposition failed at stack index {n}, pair {oset.pairs[p][2]!r}: "
            f"{var_sum[p, n]} vs {var_ab[p, n] + 2.0 * cov[p, n]}"
        )
    return moments


def _witness_values(moments, first, scale=1.0):
    """Plain and modified witness values over the first k pairs, for every k from `first` to P.

    `moments` holds var_sum, cov and var_a + var_b as (P, N) rows (the last
    three of `_pair_moments`' block); returns (l, ml) for each k in turn.
    Each pair's three terms go into one block after a +0.0 row and are added
    in pair order (see `ACCUMULATE_MAX_STATES`). The two modified forms must
    agree at every k returned, to DECOMPOSITION_TOL times `scale`. Below 8
    pairs this is numpy's row sum bit for bit (all -0.0 terms sum to +0.0,
    which a `cumsum` from the first term would not give).
    """
    var_sum, cov, var_ab = moments[0], moments[1], moments[2]
    terms = np.zeros((3, len(var_sum) + 1, var_sum.shape[1]))
    terms[0, 1:] = var_sum
    np.subtract(var_ab, 2.0 * np.abs(cov), out=terms[1, 1:])
    np.subtract(var_sum, 4.0 * np.maximum(0.0, cov), out=terms[2, 1:])
    if terms.shape[2] <= ACCUMULATE_MAX_STATES:
        terms = np.add.accumulate(terms, axis=1)
    else:
        for p in range(1, len(terms[0])):
            np.add(terms[:, p - 1], terms[:, p], out=terms[:, p])
    sums = terms[:, first:]  # l, ml and ml's other form after each k pairs
    gap, tol = np.abs(sums[1] - sums[2]), DECOMPOSITION_TOL * scale
    if not gap.max(initial=0.0) <= tol:
        k, n = first_failure(gap <= tol)
        raise NumericsError(
            f"modified-witness forms disagree at stack index {n}: {sums[1, k, n]} vs {sums[2, k, n]}"
        )
    return tuple(sums[:2].swapaxes(0, 1).reshape(2 * sums.shape[1], sums.shape[2]))


def _first_non_hermitian(obs: np.ndarray) -> tuple | None:
    """Index of the first non-Hermitian matrix in a finite (..., 2, 2) stack, or None (see `local_bound`)."""
    deviation = np.abs(obs - obs.conj().swapaxes(-1, -2))
    if deviation.max() <= HERMITIAN_TOL:
        return None
    tol = HERMITIAN_TOL * np.maximum(1.0, np.abs(obs).max(axis=(-2, -1)))
    return first_failure(deviation.max(axis=(-2, -1)) <= tol)


def _min_variance_sum(obs: np.ndarray) -> float:
    """`local_bound` of a checked, nonempty (k, 2, 2) stack; `ValueError` at `ENTRY_LIMIT`."""
    v = 0.5 * np.einsum("kij,pji->kp", obs, _PAULIS).real
    if not np.abs(v).max() < ENTRY_LIMIT:  # then no sum below of fewer than 2^22 squares overflows
        raise ValueError("observables are too large: a Pauli component reaches 2^500")
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


@functools.cache
def _standard_sets() -> dict[str, ObservableSet]:
    """The standard sets by name, built on the first call; each party measures the basis Pauli."""
    return {
        name: ObservableSet(tuple((b.pauli, b.pauli, b.value) for b in bases))
        for name, bases in (("L2", tuple(Basis)[:2]), ("L3", tuple(Basis)))
    }


def standard_sets() -> dict[str, ObservableSet]:
    """The two polarization witness sets, built from `Basis` on the first call.

    L2 pairs the first two bases, 0/90 and 45/135 (separable bound
    1 + 1 = 2); L3 adds the circular basis (bound 2 + 2 = 4). Both parties
    measure the same Pauli in every basis. The dict is new on every call;
    the sets in it are shared and read-only.
    """
    return dict(_standard_sets())


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


def detected(values, bound: float, margin: float = VERDICT_MARGIN):
    """True where a witness value certifies entanglement; scalars or arrays.

    The margin keeps boundary separable states from being flagged by
    roundoff; for a custom set pass its `verdict_margin`.
    """
    return values < bound - margin


def verdict_for(value: float, bound: float, margin: float = VERDICT_MARGIN) -> Verdict:
    return Verdict.ENTANGLEMENT_DETECTED if detected(value, bound, margin) else Verdict.INCONCLUSIVE


def evaluate_many(matrices, oset: ObservableSet) -> tuple[np.ndarray, np.ndarray]:
    """Plain and modified witness values, as two length-N arrays, for an (N, 4, 4) stack.

    The matrices are taken as given (no density-matrix validation); every
    runtime check of `evaluate` runs on each of them.
    """
    return _witness_values(_pair_moments(_stack(matrices), oset)[2:], len(oset.pairs), oset._scale)


def evaluate_standard(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L2, ML2, L3 and ML3, four length-N arrays, for an (N, 4, 4) stack, from one kernel pass.

    L2's pairs are the first two of L3's (`standard_sets`), so the witness
    sums of L3's moments after two and three pairs give both families, each
    with its two modified forms checked, bit for bit `evaluate_many` with
    that family's set.
    """
    return _witness_values(_pair_moments(_stack(matrices), _standard_sets()["L3"])[2:], 2)


def evaluate(rho: DensityMatrix, oset: ObservableSet) -> WitnessReport:
    """Full per-pair statistics plus both witness values and verdicts.

    The modified value is also formed as sum_i var(a_i + b_i) - 4*max(0, cov_i);
    the two forms must agree to within roundoff or the statistics code is broken.
    """
    moments = _pair_moments(rho.matrix[None], oset)
    l_values, ml_values = _witness_values(moments[2:], len(oset.pairs), oset._scale)
    rows = moments[:4, :, 0].T.tolist()  # var_a, var_b, var_sum, cov of each pair
    stats = tuple(PairStats(label, *row) for (_, _, label), row in zip(oset.pairs, rows))
    l_value, ml_value, bound = float(l_values[0]), float(ml_values[0]), oset.separable_bound
    verdicts = (verdict_for(value, bound, oset.verdict_margin) for value in (l_value, ml_value))
    return WitnessReport(stats, l_value, ml_value, bound, *verdicts)
