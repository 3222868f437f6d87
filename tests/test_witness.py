import itertools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurwit import states, witness
from lurwit.cli import STACK_CHUNK
from lurwit.linalg import NumericsError
from lurwit.rng import stream
from lurwit.states import (
    BELL_KINDS,
    Basis,
    DensityMatrix,
    NoiseKind,
    bell_state,
    density_from_pure,
    noise_mixture,
    noise_mixtures,
    parse_state_spec,
)
from lurwit.witness import (
    ObservableSet,
    Verdict,
    evaluate,
    evaluate_many,
    evaluate_standard,
    local_bound,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    pure_ppt_min_eigenvalues,
    standard_sets,
)
from oracles import (
    SX,
    SY,
    SZ,
    I2,
    covariance_brute,
    local_bound_brute,
    local_bound_reference,
    lifted_operators_reference,
    mixed_ensemble,
    pair_moments_reference,
    random_hermitian,
    random_mixed_matrix,
    random_pure_state,
    random_pure_states,
    random_separable_state,
    random_separable_states,
    su2_pauli_sum,
    var_sum_brute,
    variance_brute,
    witness_sums_reference,
    witness_values_reference,
)
from strategies import density_matrices, hermitian_2x2, kernel_stacks, moment_stacks, product_pure_states

SETS = standard_sets()
SINGLET = density_from_pure(bell_state("psi-"))


def _bell_rho(kind):
    return density_from_pure(bell_state(kind))


def _pair(rho, a, b):
    """The kernel's statistics of the one pair (a, b) on rho."""
    return evaluate(rho, ObservableSet(pairs=((a, b, "pair"),))).pairs[0]


# ------------------------------------------------------------- expectations


def test_expectation_of_identity_is_one():
    # every moment of an identity pair is <I> - <I>^2 times a constant: 0 iff <I> = 1
    for rho in (SINGLET, noise_mixture(0.3, NoiseKind.WERNER)):
        pair = _pair(rho, I2, 2.0 * I2)
        for value in (pair.var_a, pair.var_b, pair.var_sum, pair.covariance):
            assert value == pytest.approx(0.0, abs=1e-12)


def test_expectation_singlet_zz():
    # <sz x sz> = -1 and <sz x I> = <I x sz> = 0 on the singlet
    pair = evaluate(SINGLET, SETS["L2"]).pairs[0]
    assert pair.label == "0/90"
    assert pair.covariance == pytest.approx(-1.0, abs=1e-12)
    assert pair.var_a == pytest.approx(1.0, abs=1e-12)
    assert pair.var_b == pytest.approx(1.0, abs=1e-12)


def test_expectation_maximally_mixed_traceless():
    # <s x I> = <s x s> = 0, so var = <s^2> = 1 and cov = 0 for every Pauli s
    mixed = noise_mixture(0.0, NoiseKind.WERNER)
    for pair in evaluate(mixed, SETS["L3"]).pairs:
        assert pair.var_a == pytest.approx(1.0, abs=1e-12)
        assert pair.var_b == pytest.approx(1.0, abs=1e-12)
        assert pair.covariance == pytest.approx(0.0, abs=1e-12)


def test_expectation_flags_complex_value():
    # `evaluate` is the kernel on a stack of one; a matrix that skipped the
    # density checks gives its complex expectation away there too
    rho = density_from_pure(bell_state("psi-"))
    object.__setattr__(rho, "matrix", rho.matrix + 1e-3j * np.kron(SZ, SZ))
    with pytest.raises(NumericsError, match="complex at stack index 0, pair '0/90'"):
        evaluate(rho, SETS["L2"])


# ---------------------------------------------------- covariance and variance


@given(product_pure_states(), hermitian_2x2(), hermitian_2x2())
def test_product_states_have_zero_covariance(psi, a, b):
    assert abs(_pair(density_from_pure(psi), a, b).covariance) <= 1e-10


def test_u2_singlet_covariances():
    rho = parse_state_spec("u2-singlet")
    zz, xx = evaluate(rho, SETS["L2"]).pairs  # sz on both sides, then sx
    assert zz.covariance == pytest.approx(-1.0, abs=1e-12)
    assert xx.covariance == pytest.approx(0.5, abs=1e-12)


def test_variance_of_sum_fixtures():
    for pair in evaluate(SINGLET, SETS["L3"]).pairs:
        assert pair.var_sum == pytest.approx(0.0, abs=1e-12)
    assert evaluate(_bell_rho("psi+"), SETS["L2"]).pairs[1].var_sum == pytest.approx(4.0, abs=1e-12)
    mixed = noise_mixture(0.0, NoiseKind.WERNER)
    assert evaluate(mixed, SETS["L2"]).pairs[0].var_sum == pytest.approx(2.0, abs=1e-12)


@given(density_matrices(), hermitian_2x2(), hermitian_2x2())
def test_variance_sum_decomposition(rho, a, b):
    # var_sum comes from <s> and <s^2> directly, not from the parts
    pair = _pair(rho, a, b)
    assert abs(pair.var_sum - (pair.var_a + pair.var_b + 2.0 * pair.covariance)) <= 1e-10


@given(density_matrices(), hermitian_2x2(), hermitian_2x2())
def test_covariance_bounds(rho, a, b):
    pair = _pair(rho, a, b)
    va, vb, c2 = pair.var_a, pair.var_b, 2.0 * pair.covariance
    assert -(va + vb) - 1e-10 <= c2 <= va + vb + 1e-10


@given(density_matrices(), hermitian_2x2(), hermitian_2x2())
def test_witness_values_match_brute_force(rho, a, b):
    oset = ObservableSet(pairs=((a, b, "pair"),))
    report = evaluate(rho, oset)
    assert report.l_value == pytest.approx(var_sum_brute(rho.matrix, a, b), abs=1e-9)
    ml_brute = (
        var_sum_brute(rho.matrix, a, b)
        - 4.0 * max(0.0, covariance_brute(rho.matrix, a, b))
    )
    assert report.ml_value == pytest.approx(ml_brute, abs=1e-9)


def test_mixture_variance_inequality():
    # the variance of a mixture dominates the mixture of variances; the package
    # has no variance of a general two-qubit observable, so the oracle's is used
    g = stream(404)
    for _ in range(300):
        k = int(g.integers(1, 5))
        weights = g.exponential(size=k)
        weights /= weights.sum()
        comps = [random_separable_state(g, 1) for _ in range(k)]
        mix = DensityMatrix(sum(w * c.matrix for w, c in zip(weights, comps)))
        obs = np.asarray(g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)))
        obs = (obs + obs.conj().T) / 2.0
        mixture_var = variance_brute(mix.matrix, obs)
        avg_var = sum(w * variance_brute(c.matrix, obs) for w, c in zip(weights, comps))
        assert mixture_var >= avg_var - 1e-10


# ------------------------------------------------------------- witness values


def _values(rho, oset):
    report = evaluate(rho, oset)
    return report.l_value, report.ml_value


def test_bell_state_witness_table():
    l2 = {k: evaluate(_bell_rho(k), SETS["L2"]).l_value for k in ("psi+", "psi-", "phi+", "phi-")}
    l3 = {k: evaluate(_bell_rho(k), SETS["L3"]).l_value for k in ("psi+", "psi-", "phi+", "phi-")}
    assert l2["psi-"] == pytest.approx(0.0, abs=1e-12)
    assert l3["psi-"] == pytest.approx(0.0, abs=1e-12)
    assert l2["psi+"] == pytest.approx(4.0, abs=1e-12)
    assert l2["phi-"] == pytest.approx(4.0, abs=1e-12)
    # phi+ carries positive covariance in both linear bases, which drives its
    # two-basis value to the top of the 0..8 window rather than 4
    assert l2["phi+"] == pytest.approx(8.0, abs=1e-12)
    for kind in ("psi+", "phi+", "phi-"):
        assert l3[kind] == pytest.approx(8.0, abs=1e-12)


def test_modified_witness_is_zero_for_all_bell_states():
    for kind in ("psi+", "psi-", "phi+", "phi-"):
        assert evaluate(_bell_rho(kind), SETS["L3"]).ml_value == pytest.approx(0.0, abs=1e-12)
        assert evaluate(_bell_rho(kind), SETS["L2"]).ml_value == pytest.approx(0.0, abs=1e-12)


def test_werner_family_witness_line():
    for p in np.linspace(0.0, 1.0, 11):
        rho = noise_mixture(float(p), NoiseKind.WERNER)
        assert evaluate(rho, SETS["L3"]).l_value == pytest.approx(6.0 - 6.0 * p, abs=1e-10)


def test_u1_fixture_all_covariances_vanish():
    rho = parse_state_spec("u1-singlet")
    report = evaluate(rho, SETS["L3"])
    for pair in report.pairs:
        assert abs(pair.covariance) <= 1e-10
    assert report.l_value == pytest.approx(6.0, abs=1e-12)
    assert report.ml_value == pytest.approx(6.0, abs=1e-12)


def test_u2_fixture_witness_values():
    rho = parse_state_spec("u2-singlet")
    report = evaluate(rho, SETS["L2"])
    assert report.l_value == pytest.approx(3.0, abs=1e-12)
    assert report.ml_value == pytest.approx(1.0, abs=1e-12)


def test_standard_set_bounds():
    assert SETS["L2"].separable_bound == 2.0
    assert SETS["L3"].separable_bound == 4.0
    labels = [label for _, _, label in SETS["L3"].pairs]
    assert labels == ["0/90", "45/135", "R/L"]
    # both sets come from the Basis table: L2 its first two bases, L3 all three
    paulis = {Basis.LIN_0_90: SZ, Basis.LIN_45_135: SX, Basis.CIRC_R_L: SY}  # H/V computational
    for oset, bases in ((SETS["L2"], list(Basis)[:2]), (SETS["L3"], list(Basis))):
        assert [label for _, _, label in oset.pairs] == [b.value for b in bases]
        for (a, b, _), basis in zip(oset.pairs, bases):
            assert np.array_equal(basis.pauli, paulis[basis])
            assert np.array_equal(a, basis.pauli) and np.array_equal(b, basis.pauli)


def test_standard_sets_are_shared_and_read_only():
    first, second = standard_sets(), standard_sets()
    assert first is not second
    for key in ("L2", "L3"):
        assert first[key] is second[key]
        with pytest.raises(ValueError, match="read-only"):
            first[key]._ops[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            first[key].pairs[0][0][0, 0] = 1.0  # its copy of a Basis Pauli
    first["L3"] = SETS["L2"]  # the dict is the caller's own
    assert standard_sets()["L3"] is SETS["L3"]


@given(density_matrices())
@settings(max_examples=60)
def test_modified_witness_never_exceeds_plain(rho):
    for oset in SETS.values():
        l_value, ml_value = _values(rho, oset)
        assert ml_value <= l_value + 1e-12


def test_dominance_is_equality_without_positive_covariance():
    for p in (0.0, 0.3, 0.8, 1.0):
        rho = noise_mixture(float(p), NoiseKind.WERNER)  # all covariances are -p
        l_value, ml_value = _values(rho, SETS["L3"])
        assert ml_value == pytest.approx(l_value, abs=1e-12)


def test_observable_set_validation():
    with pytest.raises(ValueError, match="at least one pair"):
        ObservableSet(pairs=())
    with pytest.raises(ValueError, match="'bad' must be Hermitian"):
        ObservableSet(pairs=((SZ, SZ, "z"), (SX, np.array([[0, 1], [0, 0]]), "bad")))
    with pytest.raises(ValueError, match="must be finite"):
        ObservableSet(pairs=((SZ, np.array([[np.nan, 0], [0, 1]]), "nan"),))
    with pytest.raises(TypeError):  # the bounds are derived, not given
        ObservableSet(((SZ, SZ, "z"),), 5.0, 5.0)


def test_observable_set_holds_read_only_copies():
    a, b = SX.copy(), SZ.copy()
    oset = ObservableSet(((a, b, "x-z"),))
    ops = oset._ops.copy()
    a[0, 1] = 5.0
    b[0, 0] = 5.0
    assert np.array_equal(oset.pairs[0][0], SX) and np.array_equal(oset.pairs[0][1], SZ)
    assert np.array_equal(oset._ops, ops)
    for op in oset.pairs[0][:2]:
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0


# ---------------------------------------------------------------- local bound


def test_local_bound_single_pauli_is_zero():
    assert local_bound([SZ]) == pytest.approx(0.0, abs=1e-12)
    assert local_bound([SX]) == pytest.approx(0.0, abs=1e-12)


def test_local_bound_two_paulis():
    assert local_bound([SX, SZ]) == pytest.approx(1.0, abs=1e-12)


def test_local_bound_three_paulis():
    assert local_bound([SX, SY, SZ]) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("names", ["sx", "sy", "sz", "sx,sy", "sx,sz", "sy,sz", "sx,sy,sz"])
def test_local_bound_pauli_subsets(names):
    paulis = {"sx": SX, "sy": SY, "sz": SZ}
    obs = [paulis[name] for name in names.split(",")]
    assert local_bound(obs) == pytest.approx(len(obs) - 1, abs=1e-12)


def test_local_bound_matches_sampled_minimum():
    g = stream(99)
    n = 20_000
    for _ in range(50):
        obs = [random_hermitian(g, 2) for _ in range(int(g.integers(1, 5)))]
        exact = local_bound(obs)
        sampled = local_bound_brute(obs, n)
        assert exact <= sampled + 1e-12
        # An angle t from the minimizer costs at most lambda_max(M) * t^2, where
        # lambda_max(M) <= sum_i ||o_i||^2 and the sample leaves t < 3/sqrt(n).
        resolution = sum(np.linalg.norm(o, 2) ** 2 for o in obs) * 9.0 / n
        assert sampled - exact <= resolution


def test_local_bound_consistent_with_standard_bounds():
    assert 2.0 * local_bound([SZ, SX]) == pytest.approx(SETS["L2"].separable_bound, abs=1e-12)
    assert 2.0 * local_bound([SZ, SX, SY]) == pytest.approx(SETS["L3"].separable_bound, abs=1e-12)


def test_local_bound_equals_the_per_observable_reference_bitwise():
    checked = 0
    for k in (1, 2, 3):  # every Pauli subset in every order
        for obs in itertools.permutations((SX, SY, SZ), k):
            assert local_bound(obs).hex() == local_bound_reference(obs).hex()
            assert local_bound(np.array(obs)).hex() == local_bound_reference(obs).hex()
            checked += 1
    assert checked == 15
    g = stream(1717)
    for _ in range(1200):
        obs = [random_hermitian(g, 2) for _ in range(int(g.integers(1, 5)))]
        assert local_bound(obs).hex() == local_bound_reference(obs).hex()
    obs = [random_hermitian(g, 2) for _ in range(3)]
    assert local_bound(iter(obs)).hex() == local_bound_reference(obs).hex()  # any iterable


NOT_HERMITIAN = np.array([[0, 1], [0, 0]], dtype=complex)
# bad inputs, each with the error the per-observable reference raises for it
BAD_OBSERVABLES = {
    "empty": ([], "need at least one observable"),
    "4x4": ([np.eye(4), np.eye(4)], "expected a 2x2 matrix, got 4x4"),
    "non-square": ([np.zeros((2, 3))], r"expected a square matrix, got shape \(2, 3\)"),
    "nan": ([SX, np.array([[np.nan, 0], [0, 1]])], "must be finite"),
    "non-hermitian": ([SX, NOT_HERMITIAN], "observables must be Hermitian"),
    "ragged": ([SZ, np.eye(4)], "expected a 2x2 matrix, got 4x4"),
    "infinite after non-hermitian": ([NOT_HERMITIAN, np.full((2, 2), np.inf)], "must be finite"),
    "one matrix, not a list": (SX, r"expected a square matrix, got shape \(2,\)"),
}


def test_local_bound_rejects_bad_input():
    for name, (observables, message) in BAD_OBSERVABLES.items():
        with pytest.raises(ValueError, match=message) as want:
            local_bound_reference(observables)
        with pytest.raises(ValueError) as got:
            local_bound(observables)
        assert str(got.value) == str(want.value), name


# ------------------------------------------------ derived bounds and scale


def _seeded_sets(seed: int, count: int) -> list:
    """(pairs, set) for `count` seeded sets of 1-4 random Hermitian pairs."""
    g = stream(seed)
    drawn = []
    for _ in range(count):
        size = int(g.integers(1, 5))
        pairs = tuple((random_hermitian(g, 2), random_hermitian(g, 2), f"pair{i}") for i in range(size))
        drawn.append((pairs, ObservableSet(pairs)))
    return drawn


SEEDED_SETS = _seeded_sets(2525, 40)


def _minimizer(observables) -> np.ndarray:
    """The pure qubit attaining `local_bound`: Bloch vector the top eigenvector of sum_i v_i v_i^T."""
    v = np.array([[0.5 * np.trace(o @ s).real for s in (SX, SY, SZ)] for o in observables])
    r = np.linalg.eigh(v.T @ v)[1][:, -1]
    return 0.5 * (I2 + r[0] * SX + r[1] * SY + r[2] * SZ)


def test_observable_sets_derive_their_bounds_from_local_bound():
    for pairs, oset in SEEDED_SETS:
        assert oset.bound_a.hex() == max(0.0, local_bound([a for a, _, _ in pairs])).hex()
        assert oset.bound_b.hex() == max(0.0, local_bound([b for _, b, _ in pairs])).hex()
    # |HH> sits on the z/x set's bound 1 + 1, as it sits on L2's
    hh = density_from_pure(np.array([1.0, 0.0, 0.0, 0.0]))
    report = evaluate(hh, ObservableSet(((SZ, SZ, "z"), (SX, SX, "x"))))
    assert report.separable_bound == 2.0 and report.l_value == report.ml_value == 2.0
    assert report.verdict_l is report.verdict_ml is Verdict.INCONCLUSIVE


def test_derived_bound_is_sound_on_separable_states():
    stack = random_separable_states(2626, range(400), [1 + k % 4 for k in range(400)])
    for _, oset in SEEDED_SETS:
        floor = oset.separable_bound - oset.verdict_margin
        for values in evaluate_many(stack, oset):
            assert values.min() >= floor


def test_derived_bound_is_attained_by_the_product_of_minimizers():
    for pairs, oset in SEEDED_SETS:
        rho_a = _minimizer([a for a, _, _ in pairs])
        rho_b = _minimizer([b for _, b, _ in pairs])
        report = evaluate(DensityMatrix(np.kron(rho_a, rho_b)), oset)
        tol = 1e-12 * max(1.0, oset.separable_bound)
        assert abs(report.l_value - oset.separable_bound) <= tol
        assert abs(report.ml_value - oset.separable_bound) <= tol
        assert report.verdict_l is report.verdict_ml is Verdict.INCONCLUSIVE


def _scaled(oset: ObservableSet, c: float) -> ObservableSet:
    return ObservableSet(tuple((c * a, c * b, label) for a, b, label in oset.pairs))


@pytest.mark.parametrize("c", [1e-3, 1e3, 1e6])
def test_values_and_bounds_scale_as_c_squared(c):
    psi = random_pure_states(2727, range(150))
    stack = np.concatenate([mixed_ensemble(stream(2727), 150, 4), psi[:, :, None] * psi.conj()[:, None, :]])
    rhos = [DensityMatrix(m) for m in stack[::10]]
    compared = flagged = 0
    for _, oset in SEEDED_SETS:
        big = _scaled(oset, c)
        for got, want in ((big.bound_a, oset.bound_a), (big.bound_b, oset.bound_b)):
            assert abs(got - c * c * want) <= 1e-12 * c * c * max(want, oset._scale)
        for got, want in zip(evaluate_many(stack, big), evaluate_many(stack, oset)):
            assert (np.abs(got - c * c * want) <= 1e-12 * c * c * np.maximum(np.abs(want), oset._scale)).all()
        for rho in rhos:
            small_report, big_report = evaluate(rho, oset), evaluate(rho, big)
            for value, verdict, big_verdict in (
                (small_report.l_value, small_report.verdict_l, big_report.verdict_l),
                (small_report.ml_value, small_report.verdict_ml, big_report.verdict_ml),
            ):
                gap = abs(value - oset.separable_bound)
                if gap > 2.0 * witness.VERDICT_MARGIN * max(oset._scale, big._scale / (c * c)):
                    assert verdict is big_verdict
                    compared += 1
                    flagged += verdict is Verdict.ENTANGLEMENT_DETECTED
    assert compared > 0.95 * 2 * len(rhos) * len(SEEDED_SETS) and flagged > 0


def _rotation(g) -> np.ndarray:
    q = g.standard_normal(4)
    return su2_pauli_sum(q / np.linalg.norm(q))


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e6, 1e8])
def test_scaled_sets_raise_nothing_and_flag_no_product_state(c):
    # each rotated z/x set is attained by |u0 u0>, u0 = U|0>: on its bound, never detected
    g = np.random.default_rng(7)
    for _ in range(300):
        u = _rotation(g)
        z, x = u @ SZ @ u.conj().T, u @ SX @ u.conj().T
        oset = ObservableSet(((c * z, c * z, "z"), (c * x, c * x, "x")))
        psi = np.kron(u[:, 0], u[:, 0])
        report = evaluate(density_from_pure(psi), oset)
        assert report.verdict_l is report.verdict_ml is Verdict.INCONCLUSIVE
        assert abs(report.l_value - oset.separable_bound) <= 1e-12 * max(1.0, oset.separable_bound)
    g = np.random.default_rng(7)
    oset = ObservableSet(((c * SX, c * SZ, "x-z"), (c * SY, c * SY, "y-y")))
    unit = ObservableSet(((SX, SZ, "x-z"), (SY, SY, "y-y")))
    stack = np.array([random_mixed_matrix(g) for _ in range(200)])
    for got, want in zip(evaluate_many(stack, oset), evaluate_many(stack, unit)):
        assert (np.abs(got - c * c * want) <= 1e-12 * c * c * np.maximum(1.0, np.abs(want))).all()


def test_public_margin_gives_the_verdict_of_evaluate():
    # a Werner state just past L2's threshold: its value c^2 (2 - 4e-11) lies
    # below the bound by more than the unscaled margin and less than the scaled one
    c = 1e3
    oset = ObservableSet(((c * SZ, c * SZ, "z"), (c * SX, c * SX, "x")))
    assert oset.verdict_margin == witness.VERDICT_MARGIN * oset._scale == pytest.approx(1e-3)
    rho = noise_mixture(0.5 + 1e-11, NoiseKind.WERNER)
    report = evaluate(rho, oset)
    reported = ((report.l_value, report.verdict_l), (report.ml_value, report.verdict_ml))
    for n in (1, 2):
        for value, (one, verdict) in zip(evaluate_many(np.array([rho.matrix] * n), oset), reported):
            assert (value == one).all()
            gap = oset.separable_bound - value
            assert (witness.VERDICT_MARGIN < gap).all() and (gap < oset.verdict_margin).all()
            assert witness.detected(value, oset.separable_bound).all()  # the unscaled margin would detect
            assert not witness.detected(value, oset.separable_bound, oset.verdict_margin).any()
            assert verdict is Verdict.INCONCLUSIVE
            assert witness.verdict_for(float(value[0]), oset.separable_bound, oset.verdict_margin) is verdict
    for oset in SETS.values():
        assert oset.verdict_margin == witness.VERDICT_MARGIN


@pytest.mark.parametrize("c", [1.3e154, 1e155, 1e200, 1e300])
def test_observables_whose_squares_overflow_raise_value_error(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(ValueError, match="observables for 'x-z' are too large: an entry reaches 2\\^500"):
            ObservableSet(((SZ, SZ, "z"), (c * SX, c * SZ, "x-z")))
        with pytest.raises(ValueError, match="observables are too large: a Pauli component reaches 2\\^500"):
            local_bound([c * SX, c * SZ])


def test_entries_just_below_the_limit_are_accepted():
    below, limit = witness.ENTRY_LIMIT / 2.0, witness.ENTRY_LIMIT
    assert limit == 2.0**500  # the value the messages quote
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (below, np.nextafter(limit, 0.0)):
            oset = ObservableSet(((c * SZ, c * SZ, "z"), (c * SX, c * SZ, "x-z"), (c * SY, c * SY, "y")))
            report = evaluate(SINGLET, oset)
            assert np.isfinite([report.l_value, report.ml_value, oset.separable_bound]).all()
            assert np.isfinite(evaluate_many(np.array([SINGLET.matrix] * 8), oset)).all()
            assert np.isfinite(local_bound([c * SX, c * SY, c * SZ]))
        with pytest.raises(ValueError, match="'z' are too large"):
            ObservableSet(((limit * SZ, SZ, "z"),))
        with pytest.raises(ValueError, match="observables are too large"):
            local_bound([SZ, limit * SX])
        assert local_bound([limit * I2]) == 0.0  # the identity part has no Pauli component


def test_scale_is_one_for_pauli_sets():
    for oset in SETS.values():
        assert oset._scale == 1.0
    for k in (1, 2, 3):
        for obs in itertools.permutations((SX, SY, SZ), k):
            assert ObservableSet(tuple((o, o, "p") for o in obs))._scale == 1.0
    assert ObservableSet(((3.0 * SX, SZ, "3x-z"),))._scale == 4.0  # ((3 + 1) / 2)^2


def test_hermitian_check_is_relative_to_the_entries():
    u = _rotation(np.random.default_rng(7))
    for c in (1e6, 1e8, 1e12):
        rotated = [c * u @ p @ u.conj().T for p in (SZ, SX)]
        assert local_bound(rotated) == pytest.approx(c * c, rel=1e-9)
        ObservableSet(((rotated[0], rotated[1], "zx"),))
        with pytest.raises(ValueError, match="observables must be Hermitian"):
            local_bound([rotated[0], c * NOT_HERMITIAN])
        with pytest.raises(ValueError, match="observables for 'bad' must be Hermitian"):
            ObservableSet(((rotated[0], rotated[1], "zx"), (rotated[0], c * NOT_HERMITIAN, "bad")))


# ----------------------------------------------------------------- PPT oracle


def test_ppt_fixtures():
    assert ppt_min_eigenvalue(SINGLET) == pytest.approx(-0.5, abs=1e-12)
    assert ppt_min_eigenvalue(noise_mixture(1.0 / 3.0, NoiseKind.WERNER)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_ppt_nonnegative_for_separable_samples():
    g = stream(55)
    for _ in range(200):
        rho = random_separable_state(g, int(g.integers(1, 7)))
        assert ppt_min_eigenvalue(rho) >= -1e-9


# ------------------------------------------------------------------- evaluate


def test_evaluate_singlet_report():
    report = evaluate(SINGLET, SETS["L3"])
    assert report.l_value == pytest.approx(0.0, abs=1e-12)
    assert report.ml_value == pytest.approx(0.0, abs=1e-12)
    assert report.separable_bound == 4.0
    assert report.verdict_l is Verdict.ENTANGLEMENT_DETECTED
    assert report.verdict_ml is Verdict.ENTANGLEMENT_DETECTED


def test_evaluate_psi_plus_split_verdict():
    report = evaluate(_bell_rho("psi+"), SETS["L3"])
    assert report.l_value == pytest.approx(8.0, abs=1e-12)
    assert report.verdict_l is Verdict.INCONCLUSIVE
    assert report.ml_value == pytest.approx(0.0, abs=1e-12)
    assert report.verdict_ml is Verdict.ENTANGLEMENT_DETECTED


def test_evaluate_maximally_mixed_inconclusive():
    report = evaluate(noise_mixture(0.0, NoiseKind.WERNER), SETS["L3"])
    assert report.l_value == pytest.approx(6.0, abs=1e-12)
    assert report.ml_value == pytest.approx(6.0, abs=1e-12)
    assert report.verdict_l is Verdict.INCONCLUSIVE
    assert report.verdict_ml is Verdict.INCONCLUSIVE


def test_boundary_product_state_stays_inconclusive():
    # |H,H> sits exactly on both bounds; the verdict margin must not flag it
    hh = np.zeros(4, dtype=complex)
    hh[0] = 1.0
    rho = density_from_pure(hh)
    for key, value in (("L2", 2.0), ("L3", 4.0)):
        report = evaluate(rho, SETS[key])
        assert report.l_value == pytest.approx(value, abs=1e-12)
        assert report.verdict_l is Verdict.INCONCLUSIVE
        assert report.verdict_ml is Verdict.INCONCLUSIVE


def test_detection_margin_on_scalars_and_arrays():
    values = np.array([4.0, 4.0 - 0.5e-9, 4.0 - 2e-9, 0.0])
    expected = [False, False, True, True]
    assert witness.detected(values, 4.0).tolist() == expected
    verdicts = [witness.verdict_for(float(v), 4.0) for v in values]
    assert [v is Verdict.ENTANGLEMENT_DETECTED for v in verdicts] == expected


def test_evaluate_checks_modified_witness_forms(monkeypatch):
    real = witness._pair_moments

    def skewed(matrices, oset):
        moments = real(matrices, oset)  # var_a, var_b, var_sum, cov, var_a + var_b
        moments[2] += 1e-6
        return moments

    monkeypatch.setattr(witness, "_pair_moments", skewed)
    with pytest.raises(NumericsError, match="modified-witness forms disagree"):
        evaluate(SINGLET, SETS["L3"])


def test_evaluate_many_names_the_non_hermitian_state():
    k = 5
    stack = np.array([SINGLET.matrix] * 8)
    stack[k] = stack[k] + 1e-3j * np.kron(SZ, SZ)  # Tr(rho (sz x sz)) picks up 4e-3j
    with pytest.raises(NumericsError, match=f"complex at stack index {k}, pair '0/90'"):
        evaluate_many(stack, SETS["L3"])


def test_kernel_checks_the_variance_decomposition():
    oset = ObservableSet(SETS["L3"].pairs)  # its own copy: the standard sets are shared
    ops = oset._ops.copy()
    ops[1, 5] += 1e-6 * np.eye(4)  # s^2 of the 45/135 pair: var_sum moves, the parts do not
    object.__setattr__(oset, "_ops", ops)
    stack = np.array([SINGLET.matrix] * 3)
    message = "decomposition failed at stack index 0, pair '45/135'"
    with pytest.raises(NumericsError, match=message):
        evaluate_many(stack, oset)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 101])
def test_kernel_checks_run_on_both_sides_of_the_gemm_cutoff(n, monkeypatch):
    paths = []
    real = witness._expectations

    def recorded(matrices, ops, gemm):
        paths.append(gemm)
        return real(matrices, ops, gemm)

    monkeypatch.setattr(witness, "_expectations", recorded)
    k = max(0, n - 2)
    for pauli, call, label in ((SZ, lambda m: evaluate_many(m, SETS["L3"]), "0/90"), (SY, evaluate_standard, "R/L")):
        stack = np.array([SINGLET.matrix] * n)
        stack[k] = stack[k] + 1e-3j * np.kron(pauli, pauli)
        with pytest.raises(NumericsError, match=f"complex at stack index {k}, pair '{label}'"):
            call(stack)
    oset = ObservableSet(SETS["L3"].pairs)
    ops = oset._ops.copy()
    ops[1, 5] += 1e-6 * np.eye(4)  # s^2 of the 45/135 pair
    object.__setattr__(oset, "_ops", ops)
    with pytest.raises(NumericsError, match="decomposition failed at stack index 0, pair '45/135'"):
        evaluate_many(np.array([SINGLET.matrix] * n), oset)
    assert paths == [n > 1] * 3


def test_evaluate_many_rejects_a_bad_shape():
    with pytest.raises(ValueError, match="stack"):
        evaluate_many(SINGLET.matrix, SETS["L3"])


def test_empty_stack_gives_empty_results():
    empty = noise_mixtures([], NoiseKind.WERNER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [*evaluate_standard(empty), *evaluate_many(empty, SETS["L3"])]
        results.append(ppt_min_eigenvalues(empty))
    assert [r.shape for r in results] == [(0,)] * 7


def test_pure_ppt_determinant_matches_the_eigensolver():
    # -|psi_00 psi_11 - psi_01 psi_10| is the partial transpose's smallest eigenvalue on pure states
    for kind in BELL_KINDS:
        psi, rho = states.haar_rotated_bell_states(kind, 23, range(5000))
        assert np.abs(pure_ppt_min_eigenvalues(psi) - ppt_min_eigenvalues(rho)).max() <= 1e-14
    g = stream(2323)
    theta = np.linspace(0.0, np.pi / 4, 9)  # theta = 0 is the product state |HH>
    partial = np.zeros((len(theta), 4), dtype=complex)
    partial[:, 0], partial[:, 3] = np.cos(theta), np.sin(theta)
    qubits = g.standard_normal((20, 2, 2)) + 1j * g.standard_normal((20, 2, 2))  # two per row
    products = (qubits[:, 0, :, None] * qubits[:, 1, None, :]).reshape(-1, 4)
    products /= np.linalg.norm(products, axis=1)[:, None]
    psi = np.concatenate([random_pure_states(2323, range(2000)), partial, products])
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    got = pure_ppt_min_eigenvalues(psi)
    assert np.abs(got - ppt_min_eigenvalues(rho)).max() <= 1e-14
    assert np.abs(got[2000:2009] + np.cos(theta) * np.sin(theta)).max() <= 1e-15
    assert np.abs(got[2009:]).max() <= 1e-15
    assert pure_ppt_min_eigenvalues(np.empty((0, 4))).shape == (0,)
    with pytest.raises(ValueError, match="amplitudes"):
        pure_ppt_min_eigenvalues(psi[0])


def _check_kernel_against_reference(matrices, osets):
    """Kernel moments vs the brute-force oracles; evaluate and PPT rows bit for bit."""
    ppt = ppt_min_eigenvalues(matrices)
    rhos = [DensityMatrix(m) for m in matrices]
    for oset in osets:
        moments = witness._pair_moments(matrices, oset)
        l_values, ml_values = evaluate_many(matrices, oset)
        lifted = [(np.kron(a, I2), np.kron(I2, b)) for a, b, _ in oset.pairs]
        for k, (m, rho) in enumerate(zip(matrices, rhos)):
            for p, ((a, b, _), (a4, b4)) in enumerate(zip(oset.pairs, lifted)):
                var_a, var_b, var_sum, cov = moments[:4, p, k]
                assert abs(var_a - variance_brute(m, a4)) <= 1e-12
                assert abs(var_b - variance_brute(m, b4)) <= 1e-12
                assert abs(var_sum - var_sum_brute(m, a, b)) <= 1e-12
                assert abs(cov - covariance_brute(m, a, b)) <= 1e-12
            report = evaluate(rho, oset)
            assert report.l_value == l_values[k] and report.ml_value == ml_values[k]
            assert [(s.var_a, s.var_b, s.var_sum, s.covariance) for s in report.pairs] == [
                tuple(moments[:4, p, k]) for p in range(len(oset.pairs))
            ]
    for k, rho in enumerate(rhos):
        assert ppt_min_eigenvalue(rho) == ppt[k]


@given(st.lists(density_matrices(), min_size=1, max_size=6), hermitian_2x2(), hermitian_2x2())
@settings(max_examples=40)
def test_kernel_matches_scalar_reference_on_hypothesis_states(rhos, a, b):
    pairs = SETS["L3"].pairs + ((a, b, "random"),)
    extra = ObservableSet(pairs=pairs)
    _check_kernel_against_reference(np.array([r.matrix for r in rhos]), (SETS["L2"], extra))


def test_kernel_matches_scalar_reference_on_seeded_states():
    _check_kernel_against_reference(mixed_ensemble(stream(2024), 2000, 5), tuple(SETS.values()))


def _random_set(g, size: int) -> ObservableSet:
    return ObservableSet(tuple((random_hermitian(g, 2), random_hermitian(g, 2), f"pair{i}") for i in range(size)))


KERNEL_SETS = {
    **SETS,
    "exact custom": ObservableSet(((SX, SZ, "x-z"), (SZ, -SX, "z-x"), (2 * SY, 2 * SY, "2y-2y"))),
    "inexact custom": ObservableSet(((SX, SY, "x-y"), (SX, 3 * SZ, "x-3z"))),
    "random": _random_set(stream(2801), 4),
}


@given(
    kernel_stacks((1, 2, 3, 4, 5, 6, 101, STACK_CHUNK + 3)),
    st.sampled_from(sorted(KERNEL_SETS)),
)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_the_statistic_major_reference_bitwise(stack, name):
    # bytes compare the sign of every zero sum as well. gemm gives an exactly zero
    # expectation either sign, and which one depends on the operator's column, so on
    # its path the moments are compared as values; every sum starts from +0.0
    oset = KERNEL_SETS[name]
    assert oset._exact == (name in ("L2", "L3", "exact custom"))
    var_a, var_b, var_sum, cov = want = pair_moments_reference(stack, oset)
    moments, before = witness._pair_moments(stack, oset), np.array((*want, var_a + var_b)).transpose(0, 2, 1)
    if oset._exact and len(stack) > 1:
        assert np.array_equal(moments, before)
    else:
        assert moments.tobytes() == before.tobytes()
    got, want = evaluate_many(stack, oset), witness_sums_reference(*want, (len(oset.pairs),), oset._scale)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    if name == "L3":
        want = witness_sums_reference(var_a, var_b, var_sum, cov, (2, 3))
        assert [v.tobytes() for v in evaluate_standard(stack)] == [v.tobytes() for v in want]


def _raises_as_the_reference(call, reference, index: int) -> None:
    """`call` raises the `NumericsError` text that `reference` raises, and it names stack index `index`."""
    with pytest.raises(NumericsError) as want:
        reference()
    with pytest.raises(NumericsError) as got:
        call()
    assert str(got.value) == str(want.value)
    assert re.search(rf"stack index {index}\b", str(got.value)), str(got.value)


def _positions(n: int) -> tuple:
    return n // 2, n - 1


@pytest.mark.parametrize("n", [1, 5, 6, 101])
def test_complex_expectations_fail_as_before(n):
    first, second = _positions(n)
    stack = np.array([SINGLET.matrix] * n)
    for k, c in ((first, 1e-3), (second, 2e-3)):
        stack[k] = stack[k] + c * 1j * np.kron(SY, SY)
    reference = lambda: witness_sums_reference(*pair_moments_reference(stack, SETS["L3"]), (2, 3))
    _raises_as_the_reference(lambda: evaluate_standard(stack), reference, first)


@pytest.mark.parametrize("n", [1, 5, 6, 101])
def test_broken_decompositions_fail_as_before(n):
    # s^2 of the 45/135 pair gains 2^-20 (|00><01| + |01><00|): every product stays exact, and
    # var_sum moves by 2^-19 Re rho_01, which is 0 on the singlet and 2^-20 on |H+>
    first, second = _positions(n)
    skew = np.zeros((4, 4))
    skew[0, 1] = skew[1, 0] = 2.0**-20
    oset = ObservableSet(SETS["L3"].pairs)
    ops, before = oset._ops.copy(), lifted_operators_reference(oset.pairs)
    ops[1, 5] += skew
    before[1, 6] += skew
    object.__setattr__(oset, "_ops", ops)
    stack = np.array([SINGLET.matrix] * n)
    stack[[first, second]] = density_from_pure(np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2.0)).matrix
    reference = lambda: witness_sums_reference(*pair_moments_reference(stack, oset, before), (3,))
    _raises_as_the_reference(lambda: evaluate_many(stack, oset), reference, first)


@pytest.mark.parametrize("n", [1, 5, 6, 101])
@pytest.mark.parametrize("pairs", [(0, 0), (2, 0)], ids=["both-in-L2", "first-only-in-L3"])
def test_disagreeing_modified_forms_fail_as_before(n, pairs, monkeypatch):
    # var_sum skewed at two states; a skew on the R/L pair shows only at L3's sum,
    # after L2's is checked, so then the second state is the one named
    first, second = _positions(n)
    skew = np.zeros((3, n))
    skew[pairs[0], first] = skew[pairs[1], second] = 1e-6
    stack = np.array([SINGLET.matrix] * n)
    var_a, var_b, var_sum, cov = pair_moments_reference(stack, SETS["L3"])
    real = witness._pair_moments

    def skewed(matrices, oset):
        moments = real(matrices, oset)
        moments[2] += skew
        return moments

    monkeypatch.setattr(witness, "_pair_moments", skewed)
    reference = lambda: witness_sums_reference(var_a, var_b, var_sum + skew.T, cov, (2, 3))
    _raises_as_the_reference(lambda: evaluate_standard(stack), reference, first if pairs[0] < 2 else second)


@given(density_matrices())
@settings(max_examples=60)
def test_report_pairs_satisfy_decomposition(rho):
    report = evaluate(rho, SETS["L3"])
    for pair in report.pairs:
        assert abs(pair.var_sum - (pair.var_a + pair.var_b + 2.0 * pair.covariance)) <= 1e-10
    assert report.ml_value <= report.l_value + 1e-12


def test_detected_states_are_always_npt():
    # witnesses must never flag a PPT (separable) state
    g = stream(777)
    flagged = 0
    for i in range(2000):
        if i % 2:
            rho = DensityMatrix(random_mixed_matrix(g))
        else:
            rho = random_separable_state(g, int(g.integers(1, 5)))
        for oset in SETS.values():
            report = evaluate(rho, oset)
            for verdict in (report.verdict_l, report.verdict_ml):
                if verdict is Verdict.ENTANGLEMENT_DETECTED:
                    flagged += 1
                    assert ppt_min_eigenvalue(rho) < 1e-9
    assert flagged > 0  # the sweep must actually exercise detections


def test_random_pure_states_obey_cross_implication():
    g = stream(31337)
    seen_high = 0
    for _ in range(2000):
        rho = density_from_pure(random_pure_state(g))
        report = evaluate(rho, SETS["L2"])
        if report.l_value > 6.0:
            seen_high += 1
            assert report.ml_value < 2.0
    assert seen_high > 0


# ------------------------------------------------- L2 and L3 from one pass


def test_l2_pairs_are_the_first_two_of_l3():
    # `evaluate_standard` and `estimate_standard` read L2 from L3's first two columns
    l2, l3 = SETS["L2"], SETS["L3"]
    assert [label for _, _, label in l2.pairs] == [label for _, _, label in l3.pairs[:2]]
    assert l2._ops.tobytes() == l3._ops[:2].tobytes()
    assert [b.value for b in Basis][:2] == [label for _, _, label in l2.pairs]


def _standard_stacks():
    g = stream(4040)
    stacks = {}
    for n in (1, 37):
        for kind in ("psi-", "phi+"):
            _, stacks[f"haar-{kind}-{n}"] = states.haar_rotated_bell_states(kind, 11, range(n))
        for kind in NoiseKind:
            grid = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.3])
            stacks[f"{kind.value}-{n}"] = states.noise_mixtures(grid, kind, base="phi-")
        stacks[f"mixed-{n}"] = np.array([random_mixed_matrix(g) for _ in range(n)])
    return stacks


STANDARD_STACKS = _standard_stacks()


@pytest.mark.parametrize("name", sorted(STANDARD_STACKS))
def test_standard_pass_equals_one_pass_per_family(name):
    stack = STANDARD_STACKS[name]
    got = evaluate_standard(stack)
    want = (*evaluate_many(stack, SETS["L2"]), *evaluate_many(stack, SETS["L3"]))
    assert [v.shape for v in got] == [(len(stack),)] * 4
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    for k in (0, len(stack) - 1):  # a row alone gives the bits it gives in the stack
        assert [v.tobytes() for v in evaluate_standard(stack[k:k + 1])] == [v[k:k + 1].tobytes() for v in got]


@given(moment_stacks((1, STACK_CHUNK + 3)))
@settings(max_examples=40, deadline=None)  # N > STACK_CHUNK rows per example
def test_standard_running_sums_equal_one_sum_per_family(moments):
    # signed zeros included: a row sum starts from +0.0, so all -0.0 terms sum to +0.0
    var_a, var_b, var_sum, cov, _ = moments
    family = (var_a, var_b, var_sum, cov)
    want = (*witness_values_reference(*(m[:, :2] for m in family)), *witness_values_reference(*family))
    block = np.array([m.T for m in (*family, var_a + var_b)])  # the kernel's (5, P, N) layout
    with mock.patch.object(witness, "_pair_moments", lambda matrices, oset: block):
        got = evaluate_standard(np.zeros((len(var_a), 4, 4)))
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.parametrize("skew", [[1e-6, 0.0, -1e-6], [0.0, 0.0, 1e-6]], ids=["L2-only", "L3-only"])
def test_standard_pass_checks_both_families(skew, monkeypatch):
    # the first skew cancels in L3's sum over three pairs, the second is outside L2's two
    real = witness._pair_moments

    def skewed(matrices, oset):
        moments = real(matrices, oset)
        moments[2] += np.array(skew)[:, None]  # var_sum of each pair
        return moments

    monkeypatch.setattr(witness, "_pair_moments", skewed)
    with pytest.raises(NumericsError, match="modified-witness forms disagree at stack index 0"):
        evaluate_standard(np.array([SINGLET.matrix]))


def test_standard_pass_flags_a_complex_expectation():
    stack = np.array([SINGLET.matrix] * 4)
    stack[3] = stack[3] + 1e-3j * np.kron(SY, SY)
    with pytest.raises(NumericsError, match="complex at stack index 3, pair 'R/L'"):
        evaluate_standard(stack)
