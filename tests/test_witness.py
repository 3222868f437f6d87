import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurwit import witness
from lurwit.linalg import NumericsError
from lurwit.rng import stream
from lurwit.states import (
    Basis,
    DensityMatrix,
    NoiseKind,
    apply_local_unitary,
    bell_state,
    density_from_pure,
    noise_mixture,
    random_pure_state,
    random_separable_state,
    special_unitary,
)
from lurwit.witness import (
    ObservableSet,
    Verdict,
    evaluate,
    evaluate_many,
    local_bound,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    standard_sets,
)
from oracles import (
    SX,
    SY,
    SZ,
    I2,
    covariance_brute,
    local_bound_brute,
    random_hermitian,
    random_mixed_matrix,
    var_sum_brute,
    variance_brute,
)
from strategies import density_matrices, hermitian_2x2, product_pure_states

SETS = standard_sets()
SINGLET = density_from_pure(bell_state("psi-"))


def _bell_rho(kind):
    return density_from_pure(bell_state(kind))


def _pair(rho, a, b):
    """The kernel's statistics of the one pair (a, b) on rho."""
    return evaluate(rho, ObservableSet(pairs=((a, b, "pair"),), bound_a=0.0, bound_b=0.0)).pairs[0]


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
    rho = apply_local_unitary(special_unitary("u2"), SINGLET)
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
    oset = ObservableSet(pairs=((a, b, "pair"),), bound_a=0.0, bound_b=0.0)
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
    rho = apply_local_unitary(special_unitary("u1"), SINGLET)
    report = evaluate(rho, SETS["L3"])
    for pair in report.pairs:
        assert abs(pair.covariance) <= 1e-10
    assert report.l_value == pytest.approx(6.0, abs=1e-12)
    assert report.ml_value == pytest.approx(6.0, abs=1e-12)


def test_u2_fixture_witness_values():
    rho = apply_local_unitary(special_unitary("u2"), SINGLET)
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
    with pytest.raises(ValueError):
        ObservableSet(pairs=(), bound_a=1.0, bound_b=1.0)
    with pytest.raises(ValueError):
        ObservableSet(pairs=((np.array([[0, 1], [0, 0]]), SZ, "bad"),), bound_a=1.0, bound_b=1.0)
    with pytest.raises(ValueError):
        ObservableSet(pairs=((SZ, SZ, "z"),), bound_a=-1.0, bound_b=1.0)


def test_observable_set_holds_read_only_copies():
    a, b = SX.copy(), SZ.copy()
    oset = ObservableSet(((a, b, "x-z"),), 0.0, 0.0)
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


def test_local_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        local_bound([])
    with pytest.raises(ValueError):
        local_bound([np.array([[0, 1], [0, 0]], dtype=complex)])


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
        var_a, var_b, var_sum, cov = real(matrices, oset)
        return var_a, var_b, var_sum + 1e-6, cov

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
    oset = ObservableSet(SETS["L3"].pairs, 2.0, 2.0)  # its own copy: the standard sets are shared
    ops = oset._ops.copy()
    ops[1, 6] += 1e-6 * np.eye(4)  # s^2 of the 45/135 pair: var_sum moves, the parts do not
    object.__setattr__(oset, "_ops", ops)
    stack = np.array([SINGLET.matrix] * 3)
    message = "decomposition failed at stack index 0, pair '45/135'"
    with pytest.raises(NumericsError, match=message):
        evaluate_many(stack, oset)


def test_evaluate_many_rejects_a_bad_shape():
    with pytest.raises(ValueError, match="stack"):
        evaluate_many(SINGLET.matrix, SETS["L3"])


def _check_kernel_against_reference(matrices, osets):
    """Kernel moments vs the brute-force oracles; evaluate and PPT rows bit for bit."""
    ppt = ppt_min_eigenvalues(matrices)
    for oset in osets:
        moments = witness._pair_moments(matrices, oset)
        l_values, ml_values = evaluate_many(matrices, oset)
        lifted = [(np.kron(a, I2), np.kron(I2, b)) for a, b, _ in oset.pairs]
        for k, m in enumerate(matrices):
            rho = DensityMatrix(m)
            for p, ((a, b, _), (a4, b4)) in enumerate(zip(oset.pairs, lifted)):
                var_a, var_b, var_sum, cov = (x[k, p] for x in moments)
                assert abs(var_a - variance_brute(m, a4)) <= 1e-12
                assert abs(var_b - variance_brute(m, b4)) <= 1e-12
                assert abs(var_sum - var_sum_brute(m, a, b)) <= 1e-12
                assert abs(cov - covariance_brute(m, a, b)) <= 1e-12
            report = evaluate(rho, oset)
            assert report.l_value == l_values[k] and report.ml_value == ml_values[k]
            assert [(s.var_a, s.var_b, s.var_sum, s.covariance) for s in report.pairs] == [
                tuple(x[k, p] for x in moments) for p in range(len(oset.pairs))
            ]
    for k, m in enumerate(matrices):
        assert ppt_min_eigenvalue(DensityMatrix(m)) == ppt[k]


@given(st.lists(density_matrices(), min_size=1, max_size=6), hermitian_2x2(), hermitian_2x2())
@settings(max_examples=40)
def test_kernel_matches_scalar_reference_on_hypothesis_states(rhos, a, b):
    pairs = SETS["L3"].pairs + ((a, b, "random"),)
    extra = ObservableSet(pairs=pairs, bound_a=0.0, bound_b=0.0)
    _check_kernel_against_reference(np.array([r.matrix for r in rhos]), (SETS["L2"], extra))


def test_kernel_matches_scalar_reference_on_seeded_states():
    g = stream(2024)
    matrices = []
    for i in range(2000):
        if i % 3 == 0:
            matrices.append(density_from_pure(random_pure_state(g)).matrix)
        elif i % 3 == 1:
            matrices.append(random_mixed_matrix(g))
        else:
            matrices.append(random_separable_state(g, int(g.integers(1, 5))).matrix)
    _check_kernel_against_reference(np.array(matrices), tuple(SETS.values()))


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
