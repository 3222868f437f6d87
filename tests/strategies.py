"""Hypothesis strategies for states and observables."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from lurwit.states import DensityMatrix

component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
coefficient = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def pure_states(draw):
    re = draw(st.tuples(*[component] * 4))
    im = draw(st.tuples(*[component] * 4))
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    assume(norm > 1e-2)
    return v / norm


@st.composite
def qubit_pure_states(draw):
    re = draw(st.tuples(component, component))
    im = draw(st.tuples(component, component))
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    assume(norm > 1e-2)
    return v / norm


@st.composite
def product_pure_states(draw):
    return np.kron(draw(qubit_pure_states()), draw(qubit_pure_states()))


@st.composite
def density_matrices(draw):
    """Mixture of one to three random pure states."""
    k = draw(st.integers(1, 3))
    comps = [draw(pure_states()) for _ in range(k)]
    raw = draw(st.tuples(*[st.floats(0.05, 1.0) for _ in range(k)]))
    w = np.array(raw) / sum(raw)
    m = sum(wi * np.outer(v, v.conj()) for wi, v in zip(w, comps))
    return DensityMatrix(m)


@st.composite
def hermitian_2x2(draw):
    a0, ax, ay, az = (draw(coefficient) for _ in range(4))
    return np.array([[a0 + az, ax - 1j * ay], [ax + 1j * ay, a0 - az]])


@st.composite
def hermitian_4x4(draw):
    re = np.array(draw(st.tuples(*[component] * 16))).reshape(4, 4)
    im = np.array(draw(st.tuples(*[component] * 16))).reshape(4, 4)
    m = re + 1j * im
    return (m + m.conj().T) / 2.0


signed_zero = st.sampled_from([0.0, -0.0])
moment = st.one_of(signed_zero, st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@st.composite
def moment_stacks(draw, sizes):
    """Per-pair moments of a three-pair stack of N rows, N drawn from `sizes`.

    Returns var_a, var_b, var_sum and cov, each (N, 3), and the SEs, (N, 3, 2).
    The rows are drawn ones and three set ones, in a drawn order and repeated
    up to N: every value -0.0, every value +0.0, and cov = +/-0.0 beside
    drawn variances. var_sum is var_a + var_b + 2 cov, so the two forms of
    the modified witness agree.
    """
    n = draw(st.sampled_from(sizes))
    pair = st.tuples(moment, moment, moment, moment, moment)  # var_a, var_b, cov and two SEs
    rows = draw(st.lists(st.tuples(pair, pair, pair), min_size=1, max_size=4))
    rows += [[(-0.0,) * 5] * 3, [(0.0,) * 5] * 3]
    rows.append([(draw(moment), draw(moment), draw(signed_zero), draw(moment), draw(moment))] * 3)
    values = np.resize(np.array(draw(st.permutations(rows))), (n, 3, 5))
    var_a, var_b, cov = (np.ascontiguousarray(values[..., k]) for k in range(3))
    return var_a, var_b, var_a + var_b + 2.0 * cov, cov, np.ascontiguousarray(values[..., 3:])


def _exact_states() -> np.ndarray:
    """Bell states, |HH>, |H+> and the maximally mixed state: entries 0, +-1/4, +-1/2 and 1."""
    h, plus = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)
    vectors = [np.array(v) / np.sqrt(2.0) for v in ([0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, -1])]
    vectors += [np.kron(h, h), np.kron(h, plus)]
    rho = [np.outer(v, v).astype(complex) for v in vectors]
    return np.array(rho + [np.eye(4, dtype=complex) / 4.0])


def signed_zero_stack(g: np.random.Generator, n: int) -> np.ndarray:
    """An (n, 4, 4) stack of Hermitian matrices with signed zeros, drawn from `g`.

    The rows are drawn from a pool of exact states (`_exact_states`, whose
    witness sums are often exactly zero) and random mixed states; each exact
    state comes twice, and every zero real or imaginary part of it is given
    a drawn sign, the same at (i, j) and (j, i).
    """
    exact = np.repeat(_exact_states(), 2, axis=0)
    for part in (exact.real, exact.imag):
        signs = np.where(g.random(part.shape) < 0.5, -1.0, 1.0)
        signs = np.triu(signs) + np.triu(signs, 1).swapaxes(1, 2)  # symmetric
        part[...] = np.where(part == 0.0, np.copysign(0.0, signs), part)
    z = g.standard_normal((6, 4, 4)) + 1j * g.standard_normal((6, 4, 4))
    mixed = z @ z.conj().swapaxes(1, 2)
    pool = np.concatenate((exact, mixed / np.trace(mixed, axis1=1, axis2=2).real[:, None, None]))
    return pool[g.integers(0, len(pool), n)]


@st.composite
def kernel_stacks(draw, sizes):
    """A `signed_zero_stack` of N rows, N drawn from `sizes`, from a drawn seed."""
    n = draw(st.sampled_from(sizes))
    return signed_zero_stack(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
