import gc
import itertools
import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from lurwit import measurement
from lurwit.cli import STACK_CHUNK
from lurwit.linalg import NumericsError, first_failure
from lurwit.measurement import (
    CountTable,
    MAX_SHOTS,
    draw_counts,
    estimate_standard,
    estimate_witnesses,
    estimate_witnesses_many,
    outcome_probabilities,
    simulate_counts,
)
from lurwit.rng import stream
from lurwit.states import (
    Basis,
    DensityMatrix,
    NoiseKind,
    bell_state,
    density_from_pure,
    noise_mixture,
)
from lurwit.witness import evaluate, standard_sets
from oracles import (
    SX,
    SY,
    SZ,
    basis_estimate_gradient_reference,
    basis_estimate_reference,
    estimate_reference,
    estimate_values_reference,
    outcome_probabilities_brute,
    random_mixed_matrix,
    random_pure_state,
    standard_errors_exact,
)
from strategies import moment_stacks

SETS = standard_sets()
SINGLET = density_from_pure(bell_state("psi-"))


def _tables_from_probabilities(rho, shots):
    """Counts proportional to the exact outcome probabilities (no sampling)."""
    tables = []
    for basis, probs in zip(Basis, outcome_probabilities(rho)):
        counts = np.round(probs * shots).astype(np.int64)
        assert counts.sum() == shots  # states in these tests have dyadic probabilities
        tables.append(CountTable(basis, counts))
    return tables


def test_singlet_linear_basis_distribution():
    probs = outcome_probabilities(SINGLET)[0]  # 0/90
    assert np.allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_maximally_mixed_distribution_is_flat():
    mixed = noise_mixture(0.0, NoiseKind.WERNER)
    assert np.allclose(outcome_probabilities(mixed), 0.25, atol=1e-12)


def test_polarized_eigenstate_distribution():
    hh = np.zeros(4, dtype=complex)
    hh[0] = 1.0
    probs = outcome_probabilities(density_from_pure(hh))[0]  # 0/90
    assert np.allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_outcome_distribution_validation():
    # the check `outcome_probabilities` makes on each row
    rows = np.array([[0.5, 0.5, 0.5, -0.5], [0.3, 0.3, 0.3, 0.3], [0.25, 0.25, 0.5, 0.0]])
    assert measurement._is_distribution(rows).tolist() == [False, False, True]


def test_outcome_distribution_matches_projector_trace_oracle():
    paulis = {Basis.LIN_0_90: SZ, Basis.LIN_45_135: SX, Basis.CIRC_R_L: SY}
    for i in range(1000):
        g = stream(77, i)
        if i % 2:
            rho = density_from_pure(random_pure_state(g))
        else:
            rho = DensityMatrix(random_mixed_matrix(g))
        for basis, got in zip(Basis, outcome_probabilities(rho)):
            want = outcome_probabilities_brute(rho.matrix, paulis[basis])
            assert got.tobytes() == want.tobytes()  # bit for bit


def test_degenerate_distribution_sampling():
    hh = density_from_pure(np.array([1, 0, 0, 0], dtype=complex))  # 0/90 row: [1, 0, 0, 0]
    table = simulate_counts(hh, 12345, 0)[0]
    assert np.array_equal(table.counts, [12345, 0, 0, 0])


def test_zero_probability_outcomes_never_fire():
    table = simulate_counts(SINGLET, 1_000_000, 1)[0]  # 0/90: (+,+) and (-,-) have p = 0
    assert table.counts[0] == 0
    assert table.counts[3] == 0


def test_sample_counts_requires_shots():
    with pytest.raises(ValueError):
        simulate_counts(SINGLET, 0, 0)


def test_sample_counts_rejects_counts_past_int64():
    rho = noise_mixture(0.5, NoiseKind.WERNER)
    largest = 2**63 - 1
    assert [t.shots for t in simulate_counts(rho, largest, 0)] == [largest] * 3
    with pytest.raises(ValueError, match=str(largest + 1)):
        simulate_counts(rho, largest + 1, 0)


@pytest.mark.parametrize("shots", [2.5, 2.0, True, "3"])
def test_sample_counts_rejects_non_integer_shots(shots):
    with pytest.raises(ValueError, match="shots must be an integer"):
        simulate_counts(SINGLET, shots, 0)
    assert [t.shots for t in simulate_counts(SINGLET, np.int64(5), 0)] == [5] * 3


def test_empirical_frequencies_converge():
    rho = noise_mixture(0.5, NoiseKind.WERNER)
    shots = 100_000
    tables = simulate_counts(rho, shots, 42)  # basis i draws from stream (42, i)
    for probs, table in zip(outcome_probabilities(rho), tables):
        freqs = table.counts / shots
        se = np.sqrt(probs * (1.0 - probs) / shots)
        assert np.all(np.abs(freqs - probs) <= 5.0 * se + 1e-12)


def test_count_table_validation():
    with pytest.raises(ValueError):
        CountTable(Basis.LIN_0_90, np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        CountTable(Basis.LIN_0_90, np.array([1, -2, 3, 4]))


def test_count_table_rejects_fractional_and_overflowing_counts():
    # float counts are refused whole or not, as the stack estimators refuse them
    for bad in ([1.7, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], [math.nan, 1, 2, 3], [math.inf, 1, 2, 3]):
        with pytest.raises(ValueError, match="^counts must be integers, got dtype float64$"):
            CountTable(Basis.LIN_0_90, bad)
    with pytest.raises(ValueError, match="exceeds the largest supported count"):
        CountTable(Basis.LIN_0_90, [2**62] * 3 + [0])
    with pytest.raises(ValueError):
        CountTable(Basis.LIN_0_90, [True, False, True, True])
    assert CountTable(Basis.LIN_0_90, [2**62, 2**62 - 1, 0, 0]).shots == MAX_SHOTS


_FLOAT = "counts must be integers, got dtype float64"


def _past(count: int) -> str:
    return f"count {count} exceeds the largest supported count {MAX_SHOTS}"


@pytest.mark.parametrize("row, message", [
    ([1.0, 2.0, 3.0, 4.0], _FLOAT),
    (np.array([1.0, 2.0, 3.0, 4.0]), _FLOAT),
    ([1.7, 2, 3, 4], _FLOAT),
    ([math.nan, 1, 2, 3], _FLOAT),
    ([2**63, 0, 0, 0], _past(2**63)),
    ([0, 1, 2**64, 3], _past(2**64)),
    (np.array([2**70, 0, 0, 0], dtype=object), _past(2**70)),
    ([-2**64, 1, 2, 3], f"count {-2**64} is negative"),
], ids=["whole-floats", "float-array", "fraction", "nan", "past-int64", "past-uint64", "object-array",
        "below-int64"])
def test_tables_and_stacks_share_one_count_rule(row, message):
    # numpy reads a list holding 2**63 as float64, and one holding 2**64 or -2**64 as object
    with pytest.raises(ValueError) as table:
        CountTable(Basis.LIN_0_90, row)
    assert str(table.value) == message
    good = [1, 1, 1, 1]
    for call in (estimate_standard, lambda c: estimate_witnesses_many(c, tuple(Basis))):
        with pytest.raises(ValueError) as stack:
            call([[row, good, good]])
        assert str(stack.value) == message


def test_count_table_refuses_booleans_with_the_integer_message():
    # the message of `estimate_witnesses_many` (its `_checked_counts`) on a boolean stack
    with pytest.raises(ValueError) as stack:
        estimate_witnesses_many(np.ones((1, 2, 4), dtype=bool), [Basis.LIN_0_90, Basis.LIN_45_135])
    assert str(stack.value) == "counts must be integers, got dtype bool"
    for bad in ([True, False, True, True], np.array([True, True, False, True]), np.ones(3, dtype=bool)):
        with pytest.raises(ValueError) as table:
            CountTable(Basis.LIN_0_90, bad)
        assert str(table.value) == str(stack.value)
    # every other input keeps its message
    for text, bad in (("[1, 2, 3]", [1, 2, 3]), ("['a', 'b', 'c', 'd']", ["a", "b", "c", "d"]),
                      ("[ 1 -2  3  4]", np.array([1, -2, 3, 4]))):
        with pytest.raises(ValueError) as other:
            CountTable(Basis.LIN_0_90, bad)
        assert str(other.value) == f"expected 4 nonnegative counts, got {text}"


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_among_integer_counts_is_refused_on_every_path(flag):
    # numpy reads [1, True, 2, 3] as int64, so the bool would count as one shot
    row = [1, flag, 2, 3]
    with pytest.raises(ValueError) as table:
        CountTable(Basis.LIN_0_90, row)
    assert str(table.value) == f"counts must be integers, got {row}"
    rest = [[2, 2, 2, 1], [3, 1, 1, 2]]
    # in a nested list, in a list among arrays, and as a bool array in a list
    for nested in ([[row, *rest]], [[np.array(rest[0]), row, np.array(rest[1])]],
                   [[*rest, np.array([flag] * 4)]]):
        for call in (estimate_standard, lambda c: estimate_witnesses_many(c, tuple(Basis))):
            with pytest.raises(ValueError, match="^counts must be integers, got "):
                call(nested)
    # the same counts as integers are taken
    assert CountTable(Basis.LIN_0_90, [1, 1, 2, 3]).shots == 7
    assert np.isfinite(estimate_standard([[[1, 1, 2, 3], *rest]])).all()


def test_count_arrays_are_not_read_again_for_bools():
    counts = draw_counts(SINGLET, 1000, 3)
    with mock.patch.object(np, "asarray", wraps=np.asarray) as asarray:
        simulate_counts(SINGLET, 1000, 3)
        estimate_standard(counts[None])
        assert all(call.kwargs.get("dtype") is not object for call in asarray.call_args_list)
        estimate_standard(counts[None].tolist())
        assert any(call.kwargs.get("dtype") is object for call in asarray.call_args_list)


def test_count_table_takes_a_basis_label():
    for basis in Basis:
        assert CountTable(basis.value, [1, 2, 3, 4]).basis is basis
    for bad in ("0/91", "LIN_0_90", 0, None, ("0/90",)):
        with pytest.raises(ValueError, match="not a valid Basis"):
            CountTable(bad, [1, 2, 3, 4])
    counts = np.array([[[3, 1, 4, 1], [5, 9, 2, 6]]])
    labelled = estimate_witnesses(CountTable(b, c) for b, c in zip(["0/90", "45/135"], counts[0]))
    assert labelled.bases == (Basis.LIN_0_90, Basis.LIN_45_135)
    assert labelled == estimate_witnesses(CountTable(b, c) for b, c in zip(Basis, counts[0]))
    many = estimate_witnesses_many(counts, ["0/90", Basis.LIN_45_135])
    assert _bits(c[0] for c in many) == _bits(
        (labelled.l_value, labelled.l_se, labelled.ml_value, labelled.ml_se)
    )
    with pytest.raises(ValueError, match="not a valid Basis"):
        estimate_witnesses_many(counts, ["0/90", "45/136"])
    with pytest.raises(ValueError, match="duplicate basis"):  # a label and its member are one basis
        estimate_witnesses_many(counts, ["0/90", Basis.LIN_0_90])
    with pytest.raises(ValueError, match="replicate 0, basis 45/135: need at least 2 shots"):
        estimate_witnesses_many(np.ones((1, 2, 4), int) * [[[1], [0]]], ["0/90", "45/135"])


def test_outcome_distribution_rejects_nan():
    assert not measurement._is_distribution(np.array([math.nan, 0.5, 0.25, 0.25]))


def test_outcome_probabilities_stack_the_bases():
    for rho in (SINGLET, noise_mixture(0.3, NoiseKind.POLARIZED)):
        probs = outcome_probabilities(rho)
        assert probs.shape == (3, 4)
        for row, basis in zip(probs, Basis):  # rows in `Basis` order
            assert row.tobytes() == outcome_probabilities_brute(rho.matrix, basis.pauli).tobytes()


def test_outcome_probabilities_are_computed_once_per_state():
    rho = DensityMatrix(random_mixed_matrix(stream(31)))
    probs = outcome_probabilities(rho)
    assert outcome_probabilities(rho) is probs
    assert not probs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        probs[0, 0] = 0.5
    # the kept array goes away with its state
    kept = len(measurement._PROBABILITIES)
    del rho, probs
    gc.collect()
    assert len(measurement._PROBABILITIES) == kept - 1


def test_state_does_not_follow_the_callers_array():
    m = random_mixed_matrix(stream(32))
    rho = DensityMatrix(m)
    matrix, probs = rho.matrix.copy(), outcome_probabilities(rho).copy()
    m[:] = np.eye(4) / 4.0
    assert rho.matrix.tobytes() == matrix.tobytes()
    assert not rho.matrix.flags.writeable
    assert outcome_probabilities(rho).tobytes() == probs.tobytes()
    assert outcome_probabilities(DensityMatrix(m)).tobytes() != probs.tobytes()


def test_count_table_counts_are_a_read_only_copy():
    given = np.array([3, 1, 4, 1])
    table = CountTable(Basis.LIN_0_90, given)
    assert table.counts.dtype == np.int64 and not table.counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.counts[0] = 9
    given[0] = 9  # the caller's array stays writeable and the table keeps its counts
    assert table.counts.tolist() == [3, 1, 4, 1] and table.shots == 9


def test_plugin_estimates_reproduce_exact_values():
    # counts exactly proportional to the outcome probabilities must reproduce
    # the density-matrix values
    for rho in (SINGLET, noise_mixture(0.5, NoiseKind.WERNER), noise_mixture(0.0, NoiseKind.WERNER)):
        tables = _tables_from_probabilities(rho, 8192)
        report3 = estimate_witnesses(tables)
        exact3 = evaluate(rho, SETS["L3"])
        assert report3.l_value == pytest.approx(exact3.l_value, abs=1e-10)
        assert report3.ml_value == pytest.approx(exact3.ml_value, abs=1e-10)
        report2 = estimate_witnesses([t for t in tables if t.basis is not Basis.CIRC_R_L])
        exact2 = evaluate(rho, SETS["L2"])
        assert report2.l_value == pytest.approx(exact2.l_value, abs=1e-10)
        assert report2.ml_value == pytest.approx(exact2.ml_value, abs=1e-10)
        assert report2.separable_bound == 2.0
        assert report3.separable_bound == 4.0
        assert report2.separable_bound == SETS["L2"].separable_bound
        assert report3.separable_bound == SETS["L3"].separable_bound
        # the bases, not their order, pick the set; sums follow the table order
        reordered = estimate_witnesses(tables[::-1])
        assert reordered.separable_bound == SETS["L3"].separable_bound
        assert reordered.bases == (Basis.CIRC_R_L, Basis.LIN_45_135, Basis.LIN_0_90)
        assert reordered.l_value == pytest.approx(report3.l_value, abs=1e-12)


def test_estimated_identity_is_exact_on_any_table():
    g = stream(9)
    for trial in range(100):
        rho = DensityMatrix(random_mixed_matrix(g))
        tables = [CountTable(b, g.multinomial(500, p)) for b, p in zip(Basis, outcome_probabilities(rho))]
        report = estimate_witnesses(tables)
        for t in tables:
            var_a, var_b, var_sum, cov, *_ = measurement._table_floats(*t.counts.tolist())
            # plug-in estimators make this an identity
            assert var_sum == var_a + var_b + 2.0 * cov
        assert report.ml_value <= report.l_value + 1e-12


def test_estimator_input_validation():
    tables = _tables_from_probabilities(SINGLET, 64)
    with pytest.raises(ValueError):
        estimate_witnesses(tables[:1])  # one basis is not a witness
    with pytest.raises(ValueError):
        estimate_witnesses([tables[0], tables[0]])  # duplicate basis
    for subset in ([tables[0], tables[2]], [tables[1], tables[2]]):  # not the two-basis set
        with pytest.raises(ValueError, match="not those of L2 or L3"):
            estimate_witnesses(subset)
    starved = CountTable(Basis.LIN_0_90, np.array([1, 0, 0, 0]))
    with pytest.raises(ValueError):
        estimate_witnesses([starved, tables[1], tables[2]])


def _skew_cov(monkeypatch) -> None:
    """Make `measurement._table_floats` return every cov 1e-6 too high."""
    real = measurement._table_floats

    def skewed(*counts):
        var_a, var_b, var_sum, cov, *se = real(*counts)
        return var_a, var_b, var_sum, cov + 1e-6, *se

    monkeypatch.setattr(measurement, "_table_floats", skewed)


def test_estimated_path_checks_modified_witness_forms(monkeypatch):
    _skew_cov(monkeypatch)  # every table is estimated in Python floats
    tables = _tables_from_probabilities(noise_mixture(0.5, NoiseKind.WERNER), 4096)
    with pytest.raises(NumericsError, match="modified-witness forms disagree"):
        estimate_witnesses(tables)


def test_singlet_witness_estimate_is_deterministically_zero():
    # the summed outcome is certain for the singlet, so the plug-in witness
    # estimate and its propagated error both vanish at any shot count
    for shots in (2, 3, 10, 1000, 100_000):
        report = estimate_witnesses(simulate_counts(SINGLET, shots, 3))
        assert report.l_value == report.l_se == 0.0
        assert report.ml_value == report.ml_se == 0.0


@pytest.mark.parametrize("kind", ["psi-", "psi+", "phi+", "phi-"])
def test_bell_state_ml_errors_are_exactly_zero(kind):
    # a Bell state's outcomes are perfectly correlated or anti-correlated in
    # every basis, so on every drawn table the ML gradient is 0 wherever f > 0
    rho = density_from_pure(bell_state(kind))
    counts = np.array([
        draw_counts(rho, shots, seed) for shots in (2, 3, 10, 10**3, 10**6) for seed in range(6)
    ])
    _, _, _, ml2_se, _, _, _, ml3_se = estimate_standard(counts)
    assert ml2_se.tolist() == ml3_se.tolist() == [0.0] * len(counts)


def test_werner_estimates_have_positive_errors():
    rho = noise_mixture(0.5, NoiseKind.WERNER)
    report = estimate_witnesses(simulate_counts(rho, 4096, 11))
    assert report.l_se > 0.0
    assert report.ml_se > 0.0


def test_estimates_converge_at_large_shots():
    # plug-in consistency: at 1e6 shots the estimate sits within 5 SE of the
    # exact value in essentially every run
    rho = noise_mixture(0.5, NoiseKind.WERNER)
    exact = evaluate(rho, SETS["L3"])
    hits = 0
    seeds = 30
    for seed in range(seeds):
        report = estimate_witnesses(simulate_counts(rho, 1_000_000, 1000 + seed))
        if abs(report.l_value - exact.l_value) <= 5.0 * report.l_se:
            hits += 1
    assert hits >= seeds - 1


HH = density_from_pure(np.array([1, 0, 0, 0], dtype=complex))
H_PLUS = density_from_pure(np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2.0))


def _bits(values) -> list:
    return [float(v).hex() for v in values]


def _moment_rows(counts) -> list:
    """Each table's (var_a, var_b, var_sum, cov, var_sum SE, ML SE) from `_table_floats`, as bits."""
    return [_bits(measurement._table_floats(*table)) for table in np.reshape(counts, (-1, 4)).tolist()]


def test_estimator_matches_scalar_reference_bitwise():
    # every field of every report and every table's moments and reported SEs,
    # bit for bit, against the per-table loop in Python floats (sums left to
    # right over the outcomes, squares as x * x)
    g = stream(4242)
    named = {"singlet": SINGLET, "HH": HH, "H+": H_PLUS, "werner": noise_mixture(0.5, NoiseKind.WERNER)}
    named.update({f"mixed{k}": DensityMatrix(random_mixed_matrix(g)) for k in range(6)})
    named.update({f"pure{k}": density_from_pure(random_pure_state(g)) for k in range(6)})
    # the bases in which one party's outcome is certain, so the plug-in
    # covariance is exactly 0 and the ML gradient takes the subgradient 0
    certain = {"HH": {"0/90"}, "H+": {"0/90", "45/135"}}
    checked = 0
    for name, rho in named.items():
        for shots in (2, 3, 100, 10**6):
            for seed in range(11):
                tables = simulate_counts(rho, shots, seed)
                checked += len(tables)
                for subset in (tables, tables[:2], tables[::-1]):
                    report = estimate_witnesses(subset)
                    per_table, l, l_se, ml, ml_se = estimate_reference(subset)
                    assert report.bases == tuple(t.basis for t in subset)
                    got = _moment_rows([[t.counts for t in subset]])
                    assert got == [_bits(e) for e in per_table]
                    assert _bits((report.l_value, report.l_se, report.ml_value, report.ml_se)) == _bits(
                        (l, l_se, ml, ml_se)
                    )
                    if name == "singlet":
                        assert report.l_value == report.l_se == 0.0
                    for t, (_, _, _, cov, _, _) in zip(subset, per_table):
                        if t.basis.value in certain.get(name, ()):
                            assert cov == 0.0
    assert checked >= 2000


def test_estimator_matches_scalar_reference_on_generic_tables():
    # uniform random partitions of 10^6 shots give generic frequencies, on
    # which every rounding of the moments and SEs shows
    shots = 10**6
    cuts = np.sort(stream(5151).integers(0, shots + 1, (1500, 3, 3)), axis=-1)
    counts = np.diff(cuts, prepend=0, append=shots, axis=-1)
    bases = list(Basis)
    columns = estimate_witnesses_many(counts, bases)
    rows = _moment_rows(counts)  # the whole stack at once, then each replicate's tables apart
    assert rows == [_bits(basis_estimate_reference(c)) for replicate in counts for c in replicate]
    for r, replicate in enumerate(counts):
        tables = [CountTable(b, c) for b, c in zip(bases, replicate)]
        report = estimate_witnesses(tables)
        per_table, *want = estimate_reference(tables)
        assert _moment_rows([replicate]) == rows[3 * r:3 * r + 3] == [_bits(e) for e in per_table]
        assert _bits((report.l_value, report.l_se, report.ml_value, report.ml_se)) == _bits(want)
        assert _bits(c[r] for c in columns) == _bits(want)


def _every_table(low: int, high: int) -> np.ndarray:
    """Every table of `low` to `high` shots, as one (T, 4) int64 stack."""
    return np.array([
        c for n in range(low, high + 1) for c in itertools.product(range(n + 1), repeat=4) if sum(c) == n
    ])


def _exact_root(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def test_standard_errors_match_exact_rational_arithmetic():
    # every table of 2 to 12 shots against the delta method in exact fractions
    counts = _every_table(2, 12)
    assert len(counts) == 1815
    excluded = branched = 0
    for table in counts.tolist():
        *_, float_cov, var_sum_se, ml_se = measurement._table_floats(*table)
        got = [var_sum_se, ml_se]
        var_sum_se2, ml_se2, exact_cov = standard_errors_exact(table)
        checked = [(got[0], var_sum_se2)]
        if exact_cov == 0:
            # the subgradient 0 is exact here, but a float cov of +-1e-17 takes a +-1 branch
            excluded += 1
            branched += float_cov != 0.0
        else:
            checked.append((got[1], ml_se2))
        for value, exact in checked:
            assert abs(Decimal(value) - _exact_root(exact)) <= Decimal("1e-15"), (table, value, float(exact))
        # tables on which an SE is exactly 0 give 0.0, not roundoff
        pp, pm, mp, mm = table
        if max(table) == sum(table):  # one outcome
            assert got == [0.0, 0.0], table
        if pm == mp == 0:  # perfectly correlated
            assert got[1] == 0.0, table
        if pp == mm == 0:  # perfectly anti-correlated
            assert got == [0.0, 0.0], table
    assert (excluded, branched) == (347, 15), f"{excluded} ML SEs excluded, {branched} on a +-1 branch"


def test_centred_and_gradient_forms_agree_within_the_cancellation_bound():
    # SE^2 = E[g^2] - E[g]^2, the uncentred form the centred spread replaced,
    # loses a few eps of E[g^2] / n; both forms agree up to that
    g = stream(5252)
    counts = [_every_table(2, 12)]
    for shots in (100, 10**4, 10**6):
        cuts = np.sort(g.integers(0, shots + 1, (1000, 3)), axis=-1)
        counts.append(np.diff(cuts, prepend=0, append=shots, axis=-1))
    counts = np.concatenate(counts)
    eps = np.finfo(float).eps
    for table in counts:
        got = measurement._table_floats(*table.tolist())[4:]
        var_sum_se2, ml_se2, *scales = basis_estimate_gradient_reference(table)
        for value, old, scale in zip(got, (var_sum_se2, ml_se2), scales):
            assert abs(value * value - old) <= 16.0 * eps * scale, (table.tolist(), value * value, old)


def _one_replicate_inputs() -> np.ndarray:
    """(R, 3, 4) replicates: every table of 2-12 shots in every basis, tables of an exact
    covariance, and tables of 2^53 + 1 to MAX_SHOTS shots."""
    tables = _every_table(2, 12)
    replicates = [np.stack([tables, np.roll(tables, 1, axis=0), np.roll(tables, 2, axis=0)], axis=1)]
    # perfectly correlated, anti-correlated and uncorrelated; one outcome; one party certain
    replicates.append([[[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], [[2, 0, 0, 0], [1, 1, 0, 0], [0, 3, 0, 3]]])
    g = stream(3434)
    for total in (2**53 + 1, 2**53 + 3, 2**60 + 7, 2**62 + 1, MAX_SHOTS - 1, MAX_SHOTS):
        cuts = np.sort(g.integers(0, total, (12, 3, 3), endpoint=True), axis=-1)
        replicates.append(np.diff(cuts, prepend=0, append=total, axis=-1))
        replicates.append([[[total, 0, 0, 0], [1, total - 1, 0, 0], [total - 2, 0, 1, 1]]])
    return np.concatenate([np.asarray(r, dtype=np.int64) for r in replicates])


def test_one_replicate_estimates_equal_its_row_in_a_stack_and_the_oracle_bitwise(monkeypatch):
    # each array of a one-replicate stack is row 0 of the same replicate stacked twice, and each
    # table's moments are the per-table oracle's
    replicates = _one_replicate_inputs()
    assert len(replicates) == 1815 + 2 + 6 * 13
    assert (replicates.sum(axis=-1) > 2**53).sum() == 6 * 13 * 3
    for c in replicates:
        twice = np.stack([c, c])
        assert [_bits(v) for v in estimate_standard(c[None])] == [_bits(v[:1]) for v in estimate_standard(twice)]
        for b in (2, 3):
            bases = list(Basis)[:b]
            got = estimate_witnesses_many(c[None, :b], bases)
            assert [_bits(v) for v in got] == [_bits(v[:1]) for v in estimate_witnesses_many(twice[:, :b], bases)]
        for table in c.tolist():
            assert _bits(measurement._table_floats(*table)) == _bits(basis_estimate_reference(np.array(table)))
    # a failed ML check raises the same text alone and stacked twice
    _skew_cov(monkeypatch)
    for c in replicates[::200]:
        with pytest.raises(NumericsError, match="modified-witness forms disagree") as one:
            estimate_standard(c[None])
        with pytest.raises(NumericsError) as stacked:
            estimate_standard(np.stack([c, c]))
        assert str(one.value) == str(stacked.value)


def test_a_failed_ml_check_names_the_failing_replicate(monkeypatch):
    counts = np.array([draw_counts(noise_mixture(0.5, NoiseKind.WERNER), 4096, seed) for seed in range(4)])
    tables = [tuple(t) for replicate in counts.tolist() for t in replicate]
    assert len(set(tables)) == len(tables)
    real, skewed = measurement._table_floats, set()

    def skewing(*table):
        moments = real(*table)
        if table not in skewed:
            return moments
        var_a, var_b, var_sum, cov, *se = moments
        return var_a, var_b, var_sum, cov + 1e-6, *se

    monkeypatch.setattr(measurement, "_table_floats", skewing)
    skewed.update(tables[6:9])  # replicate 2's tables only
    for call in (estimate_standard, lambda c: estimate_witnesses_many(c, list(Basis))):
        with pytest.raises(NumericsError, match="modified-witness forms disagree at stack index 2: "):
            call(counts)
    # replicate-major: replicate 2's R/L table fails L3 before replicate 3's 45/135 table fails L2
    skewed.clear()
    skewed.update((tables[8], tables[10]))
    with pytest.raises(NumericsError, match="at stack index 2: "):
        estimate_standard(counts)


def test_many_rows_equal_single_calls_bitwise():
    g = stream(99)
    rhos = [SINGLET, HH, H_PLUS] + [DensityMatrix(random_mixed_matrix(g)) for _ in range(5)]
    replicates = [
        simulate_counts(rho, shots, seed) for rho in rhos for shots in (2, 50, 10**6) for seed in range(8)
    ]
    for order in ([0, 1, 2], [0, 1], [2, 0, 1]):
        bases = [list(Basis)[i] for i in order]
        counts = np.array([[tables[i].counts for i in order] for tables in replicates])
        columns = estimate_witnesses_many(counts, bases)
        assert [c.shape for c in columns] == [(len(replicates),)] * 4
        for r, tables in enumerate(replicates):
            report = estimate_witnesses([tables[i] for i in order])
            want = (report.l_value, report.l_se, report.ml_value, report.ml_se)
            assert _bits(c[r] for c in columns) == _bits(want)


def test_many_input_errors_name_the_first_bad_replicate():
    good = np.array([t.counts for t in _tables_from_probabilities(SINGLET, 64)])
    counts = np.array([good] * 5)
    bases = list(Basis)
    with pytest.raises(ValueError, match="duplicate basis"):
        estimate_witnesses_many(counts[:, :2], [Basis.LIN_0_90] * 2)
    with pytest.raises(ValueError, match="not those of L2 or L3"):
        estimate_witnesses_many(counts[:, 1:], bases[1:])

    starved = counts.copy()
    starved[4, 0] = [0, 0, 0, 0]
    starved[3, 1] = [1, 0, 0, 0]
    with pytest.raises(ValueError, match="replicate 3, basis 45/135: need at least 2 shots"):
        estimate_witnesses_many(starved, bases)

    negative = counts.copy()
    negative[4, 0, 0] = -5
    negative[2, 2, 1] = -1
    with pytest.raises(ValueError, match="replicate 2, basis R/L"):
        estimate_witnesses_many(negative, bases)
    with pytest.raises(ValueError, match="duplicate basis"):  # the bases are checked first
        estimate_witnesses_many(negative, [Basis.LIN_0_90] * 3)

    past = counts.copy()
    past[1, 0] = [2**62, 2**62, 0, 0]
    with pytest.raises(ValueError, match="replicate 1, basis 0/90"):
        estimate_witnesses_many(past, bases)
    unsigned = counts.astype(np.uint64)
    unsigned[0, 2, 3] = 2**63
    with pytest.raises(ValueError, match="replicate 0, basis R/L"):
        estimate_witnesses_many(unsigned, bases)
    largest = counts.copy()
    largest[1, 0] = [2**62, 2**62 - 1, 0, 0]
    assert np.isfinite(estimate_witnesses_many(largest, bases)[0]).all()

    with pytest.raises(ValueError, match="integers"):
        estimate_witnesses_many(counts.astype(float), bases)
    with pytest.raises(ValueError, match="shape"):
        estimate_witnesses_many(counts[0], bases)


# -------------------------------------------- L2 and L3 from one count stack


def _one_call_per_family(counts):
    bases = list(Basis)
    return (*estimate_witnesses_many(counts[:, :2], bases[:2]), *estimate_witnesses_many(counts, bases))


def test_standard_estimate_equals_one_call_per_family():
    g = stream(717)
    rhos = [SINGLET, HH, H_PLUS] + [DensityMatrix(random_mixed_matrix(g)) for _ in range(4)]
    replicates = [
        [t.counts for t in simulate_counts(rho, shots, seed)]
        for rho in rhos for shots in (2, 3, 50, 10**6) for seed in range(5)
    ]
    # tables with zero-count outcomes, and 2-shot tables, set by hand
    replicates += [
        [[2, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 2]],
        [[0, 1, 1, 0], [0, 0, 2, 0], [1, 0, 0, 1]],
        [[0, 7, 0, 0], [3, 0, 0, 4], [5, 0, 6, 0]],
    ]
    counts = np.array(replicates)
    assert (counts == 0).any(axis=-1).any() and (counts.sum(axis=-1) == 2).any()
    got = estimate_standard(counts)
    assert [c.shape for c in got] == [(len(counts),)] * 8
    assert [_bits(c) for c in got] == [_bits(c) for c in _one_call_per_family(counts)]
    for r in (0, len(counts) - 1):  # R = 1 gives the bits of its row in the stack
        assert [_bits(c) for c in estimate_standard(counts[r:r + 1])] == [_bits(c[r:r + 1]) for c in got]


@given(moment_stacks((2, STACK_CHUNK + 3)))
@settings(max_examples=40, deadline=None)  # N > STACK_CHUNK rows per example
def test_standard_estimate_running_sums_equal_one_estimate_per_family(moments):
    # the values and SEs of the one pass against one row-sum estimate per family, with each
    # table's moments injected in the order the estimator reads them: replicate after replicate,
    # basis after basis
    want = (*estimate_values_reference(*(m[:, :2] for m in moments)), *estimate_values_reference(*moments))
    counts = np.ones((len(moments[0]), 3, 4), dtype=np.int64)
    *statistics, se = moments  # the SEs are (N, B, 2)
    tables = iter(np.stack([*statistics, se[..., 0], se[..., 1]], axis=-1).reshape(-1, 6).tolist())
    with mock.patch.object(measurement, "_table_floats", lambda *counts: next(tables)):
        got = estimate_standard(counts)
    assert next(tables, None) is None
    assert [_bits(c) for c in got] == [_bits(c) for c in want]


def _bad_stacks():
    good = np.array([[t.counts for t in _tables_from_probabilities(SINGLET, 64)]] * 4)
    starved_l3 = good.copy()
    starved_l3[2, 2] = [1, 0, 0, 0]  # only the R/L table, which L2 does not read
    starved_l2 = good.copy()
    starved_l2[3, 1] = [0, 0, 0, 0]
    negative = good.copy()
    negative[1, 0, 2] = -1
    past = good.copy()
    past[0, 2] = [2**62, 2**62, 0, 0]
    starved_then_negative = good.copy()
    starved_then_negative[0, 1] = [1, 0, 0, 0]
    starved_then_negative[1, 0, 1] = -1
    return {
        "starved-l3": starved_l3,
        "starved-l2": starved_l2,
        "negative": negative,
        "past-max": past,
        "starved-then-negative": starved_then_negative,
        "float": good.astype(float),
        "two-bases": good[:, :2],
        "one-replicate-2d": good[0],
    }


BAD_STACKS = _bad_stacks()


@pytest.mark.parametrize("name", sorted(BAD_STACKS))
def test_standard_estimate_raises_what_the_l3_call_raises(name):
    counts = BAD_STACKS[name]
    with pytest.raises(ValueError) as want:
        estimate_witnesses_many(counts, list(Basis))
    with pytest.raises(ValueError) as got:
        estimate_standard(counts)
    assert str(got.value) == str(want.value)
    if name == "starved-then-negative":  # the range rule runs over every table before the 2-shot rule
        assert str(got.value).startswith("replicate 1, basis 0/90: counts [0, -1, 32, 0] are not ")


def _one_replicate_stacks():
    good = np.array([t.counts for t in _tables_from_probabilities(SINGLET, 64)])

    def replicate(*tables, dtype=np.int64):
        counts = good.astype(dtype)
        for b, row in tables:
            counts[b] = row
        return counts[None]

    return {
        "bool": np.ones((1, 3, 4), dtype=bool),
        "float": good[None].astype(float),
        "wrong-shape": good[None, :, :3],
        "negative": replicate((1, [3, -1, 0, 0])),
        "past-max": replicate((2, [2**63, 0, 0, 0]), dtype=np.uint64),
        "uint64-total-past-max": replicate((0, [2**62, 0, 2**62, 0]), dtype=np.uint64),
        "int64-half-past-max": replicate((1, [2**62, 2**62, 0, 0])),
        "total-then-negative": replicate((0, [2**62, 2**62, 0, 0]), (2, [0, 0, -4, 9])),
        "starved": replicate((1, [1, 0, 0, 0])),
        "empty": replicate((2, [0, 0, 0, 0])),
        "starved-then-negative": replicate((0, [1, 0, 0, 0]), (1, [-1, 5, 0, 0])),
        "negative-then-starved": replicate((0, [0, 0, 0, -2]), (2, [0, 1, 0, 0])),
    }


ONE_REPLICATE_STACKS = _one_replicate_stacks()


@pytest.mark.parametrize("name", sorted(ONE_REPLICATE_STACKS))
def test_one_replicate_counts_fail_as_the_first_of_two(name, monkeypatch):
    # the same text for the same replicate alone and stacked with another, and the range rule
    # over every table before the 2-shot rule
    counts = ONE_REPLICATE_STACKS[name]
    second = counts if counts.shape[1:] != (3, 4) else np.ones_like(counts)
    searches = []
    monkeypatch.setattr(measurement, "first_failure", lambda ok: searches.append(ok) or first_failure(ok))
    for call in (estimate_standard, lambda c: estimate_witnesses_many(c, tuple(Basis))):
        with pytest.raises(ValueError) as want:
            call(np.concatenate([counts, second]))
        del searches[:]
        with pytest.raises(ValueError) as got:
            call(counts)
        assert not searches  # the counts are checked in Python ints, with no array search
        # a shape error names the whole stack's shape
        assert str(got.value) == str(want.value).replace("got (2, ", "got (1, ")
    if name.endswith("-then-negative"):
        assert re.fullmatch(r"replicate 0, basis (R/L|45/135): counts \[.*\] are not .*", str(got.value))
    if name.startswith("negative-then"):
        assert str(got.value).startswith("replicate 0, basis 0/90: counts [0, 0, 0, -2] are not ")


def test_standard_estimate_of_no_replicates_is_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimate_standard(np.zeros((0, 3, 4), np.int64))
    assert [c.shape for c in got] == [(0,)] * 8


# ------------------------------------------- tables drawn as one replicate


def _report_bits(report) -> list:
    floats = (report.l_value, report.l_se, report.ml_value, report.ml_se, report.separable_bound)
    return [*_bits(floats), report.bases, report.verdict_l, report.verdict_ml]


def _rebuilt(tables) -> list:
    return [CountTable(t.basis, t.counts) for t in tables]


def test_simulated_tables_estimate_as_rebuilt_tables_bitwise():
    g = stream(1515)
    rhos = [SINGLET, HH, H_PLUS, noise_mixture(0.9, NoiseKind.WERNER)]
    rhos += [DensityMatrix(random_mixed_matrix(g)) for _ in range(3)]
    rhos += [density_from_pure(random_pure_state(g)) for _ in range(3)]
    checked = 0
    for rho in rhos:
        for shots in (2, 3, 100, 10**6):
            for seed in range(6):
                for order in ((2, 3), (3, 2)):  # L2 then L3, and L3 then L2
                    tables = simulate_counts(rho, shots, seed)
                    for n in order:
                        got = estimate_witnesses(tables[:n])
                        assert _report_bits(got) == _report_bits(estimate_witnesses(_rebuilt(tables[:n])))
                        checked += 1
    assert checked >= 800


def test_reordered_mixed_and_hand_built_tables_estimate_as_rebuilt_tables():
    a = simulate_counts(noise_mixture(0.7, NoiseKind.POLARIZED), 500, 1)
    b = simulate_counts(noise_mixture(0.7, NoiseKind.POLARIZED), 500, 2)
    first = a[0]
    moved = CountTable(first.basis, [0, 0, 0, first.shots])  # hand-built, all counts on (-,-)
    cases = {
        "reversed": a[::-1],
        "L2 reversed": a[1::-1],
        "mixed replicates": [a[0], b[1], a[2]],
        "mixed L2": [b[0], a[1]],
        "hand-built first": [moved, *a[1:]],
        "hand-built last": [*a[:2], CountTable(a[2].basis, a[2].counts)],
    }
    for name, tables in cases.items():
        got = estimate_witnesses(tables)
        assert _report_bits(got) == _report_bits(estimate_witnesses(_rebuilt(tables))), name
        # the stack path on the same counts, as one replicate
        stacked = estimate_witnesses_many([[t.counts for t in tables]], [t.basis for t in tables])
        assert _bits(got[1:5]) == _bits([v[0] for v in stacked]), name


def test_drawn_replicate_checks_every_call():
    single = simulate_counts(SINGLET, 1, 0)
    for n in (2, 3, 2):
        with pytest.raises(ValueError) as got:
            estimate_witnesses(single[:n])
        with pytest.raises(ValueError) as want:
            estimate_witnesses(_rebuilt(single[:n]))
        assert str(got.value) == str(want.value) == "basis 0/90: need at least 2 shots to estimate a variance"
    tables = simulate_counts(SINGLET, 100, 0)
    estimate_witnesses(tables)
    for subset in (tables[:1], tables[1:], [tables[0], tables[0]]):  # the bases still pick the set
        with pytest.raises(ValueError):
            estimate_witnesses(subset)


def test_a_failed_ml_check_raises_on_every_call_that_reaches_it(monkeypatch):
    tables = simulate_counts(noise_mixture(0.5, NoiseKind.WERNER), 4096, 3)
    l2 = _report_bits(estimate_witnesses(tables[:2]))
    # skew the third table only: the L3 calls reach it, the L2 calls do not
    third, real = tuple(tables[2].counts.tolist()), measurement._table_floats

    def skewed(*counts):
        moments = real(*counts)
        if counts != third:
            return moments
        var_a, var_b, var_sum, cov, *se = moments
        return var_a, var_b, var_sum, cov + 1e-6, *se

    monkeypatch.setattr(measurement, "_table_floats", skewed)
    for n in (3, 2, 3, 2):
        for given in (tables[:n], _rebuilt(tables[:n])):
            if n == 3:
                with pytest.raises(NumericsError, match="modified-witness forms disagree"):
                    estimate_witnesses(given)
            else:
                assert _report_bits(estimate_witnesses(given)) == l2
    _skew_cov(monkeypatch)  # now every table: both families fail, call after call
    for n in (2, 3, 2):
        with pytest.raises(NumericsError, match="modified-witness forms disagree"):
            estimate_witnesses(tables[:n])


def test_any_iterable_of_tables_is_accepted():
    rho = noise_mixture(0.9, NoiseKind.WERNER)
    for shots in (100, 10**6):
        for seed in range(5):
            tables = simulate_counts(rho, shots, seed)
            for n in (2, 3):
                want = _report_bits(estimate_witnesses(tables[:n]))
                for given in (iter(tables[:n]), tuple(tables[:n]), (t for t in tables[:n])):
                    assert _report_bits(estimate_witnesses(given)) == want


def test_simulated_tables_hold_read_only_copies_of_the_draw(monkeypatch):
    rho, shots, seed = noise_mixture(0.4, NoiseKind.POLARIZED), 1000, 8
    draws, real = [], measurement.draw_counts
    monkeypatch.setattr(measurement, "draw_counts", lambda *args: draws.append(real(*args)) or draws[-1])
    tables = simulate_counts(rho, shots, seed)
    (drawn,) = draws
    assert [t.basis for t in tables] == list(Basis)
    assert [t.counts.tolist() for t in tables] == drawn.tolist() == real(rho, shots, seed).tolist()
    assert all(t.counts.dtype == np.int64 and not t.counts.flags.writeable and t.shots == shots for t in tables)
    assert not any(np.shares_memory(t.counts, drawn) for t in tables)
    with pytest.raises(ValueError, match="read-only"):
        tables[0].counts[0] = 9
