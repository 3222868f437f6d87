import gc
import math
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from lurwit import measurement
from lurwit.cli import STACK_CHUNK, draw_counts, simulate_counts
from lurwit.linalg import NumericsError
from lurwit.measurement import (
    CountTable,
    MAX_SHOTS,
    drawn_tables,
    estimate_standard,
    estimate_witnesses,
    estimate_witnesses_many,
    outcome_probabilities,
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
    basis_estimate_reference,
    estimate_reference,
    estimate_values_reference,
    outcome_probabilities_brute,
    random_mixed_matrix,
    random_pure_state,
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
    with pytest.raises(ValueError, match="whole numbers"):
        CountTable(Basis.LIN_0_90, [1.7, 2, 3, 4])
    with pytest.raises(ValueError, match="exceeds the largest supported count"):
        CountTable(Basis.LIN_0_90, [2**62] * 3 + [0])
    for bad in ([math.nan, 1, 2, 3], [math.inf, 1, 2, 3], [True, False, True, True]):
        with pytest.raises(ValueError):
            CountTable(Basis.LIN_0_90, bad)
    whole = CountTable(Basis.LIN_0_90, [1.0, 2.0, 3.0, 4.0])
    assert whole.counts.dtype == np.int64 and whole.shots == 10
    assert CountTable(Basis.LIN_0_90, [2**62, 2**62 - 1, 0, 0]).shots == MAX_SHOTS


def test_count_table_refuses_booleans_with_the_integer_message():
    # the message of `estimate_witnesses_many` (its `_checked_counts`) on a boolean stack
    with pytest.raises(ValueError) as stack:
        estimate_witnesses_many(np.ones((1, 2, 4), dtype=bool), [Basis.LIN_0_90, Basis.LIN_45_135])
    assert str(stack.value) == "counts must be integers, got dtype bool"
    for bad in ([True, False, True, True], np.array([True, True, False, True]), np.ones(3, dtype=bool)):
        with pytest.raises(ValueError) as table:
            CountTable(Basis.LIN_0_90, bad)
        assert str(table.value) == str(stack.value)
    with pytest.raises(ValueError) as drawn:
        drawn_tables(np.ones((3, 4), dtype=bool))
    assert str(drawn.value) == str(stack.value)
    # every other input keeps its message
    for text, bad in (("[1, 2, 3]", [1, 2, 3]), ("['a', 'b', 'c', 'd']", ["a", "b", "c", "d"]),
                      ("[ 1 -2  3  4]", np.array([1, -2, 3, 4]))):
        with pytest.raises(ValueError) as other:
            CountTable(Basis.LIN_0_90, bad)
        assert str(other.value) == f"expected 4 nonnegative counts, got {text}"


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
        counts = np.array([[t.counts for t in tables]])
        var_a, var_b, var_sum, cov, _ = measurement._table_moments(counts, counts.sum(axis=-1))
        # plug-in estimators make this an identity
        assert var_sum.tolist() == (var_a + var_b + 2.0 * cov).tolist()
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


def test_estimated_path_checks_modified_witness_forms(monkeypatch):
    real = measurement._table_moments

    def skewed(counts, shots):
        var_a, var_b, var_sum, cov, se = real(counts, shots)
        return var_a, var_b, var_sum, cov + 1e-6, se

    monkeypatch.setattr(measurement, "_table_moments", skewed)
    tables = _tables_from_probabilities(noise_mixture(0.5, NoiseKind.WERNER), 4096)
    with pytest.raises(NumericsError, match="modified-witness forms disagree"):
        estimate_witnesses(tables)


def test_singlet_witness_estimate_is_deterministically_zero():
    # the summed outcome is certain for the singlet, so the plug-in witness
    # estimate and its propagated error both vanish at any shot count
    for shots in (10, 1000, 100_000):
        report = estimate_witnesses(simulate_counts(SINGLET, shots, 3))
        assert report.l_value == 0.0
        assert report.l_se == 0.0


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
    """Each table's (var_a, var_b, var_sum, cov, var_sum SE, ML SE) from `_table_moments`, as bits."""
    counts = np.asarray(counts)
    var_a, var_b, var_sum, cov, se = measurement._table_moments(counts, counts.sum(axis=-1))
    rows = np.stack([var_a, var_b, var_sum, cov, se[0], se[1]], axis=-1)
    return [_bits(row) for row in rows.reshape(-1, 6)]


def test_estimator_matches_scalar_reference_bitwise():
    # every field of every report and every table's moments and reported SEs,
    # bit for bit, against the per-table loop in Python scalars (BLAS dot
    # products, libm pow for the squares)
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


@pytest.mark.parametrize("replicates", [0, 1, 5000])
def test_table_moments_are_contiguous_statistic_rows(replicates):
    # statistic-major: each per-table statistic is one C-contiguous (R, B)
    # row and the SEs one (2, R, B) block (a structural check, no timing)
    counts = stream(31).multinomial(100, [0.4, 0.1, 0.2, 0.3], (replicates, 3))
    *statistics, se = measurement._table_moments(counts, counts.sum(axis=-1))
    for row in statistics:
        assert row.shape == (replicates, 3) and row.flags.c_contiguous
    assert se.shape == (2, replicates, 3) and se.flags.c_contiguous


def test_table_moments_take_any_leading_shape():
    counts = stream(32).multinomial(50, [0.1, 0.2, 0.3, 0.4], (6, 3))
    want = _moment_rows(counts)
    assert _moment_rows(counts.reshape(2, 3, 3, 4)) == want
    assert _moment_rows(counts[1]) == want[3:6]  # one replicate's (B, 4) tables, no leading axis


def test_estimator_matches_scalar_reference_on_generic_tables():
    # uniform random partitions of 10^6 shots give generic frequencies, on
    # which x*x and libm pow(x, 2) differ in about one square in 1,000
    shots = 10**6
    cuts = np.sort(stream(5151).integers(0, shots + 1, (1500, 3, 3)), axis=-1)
    counts = np.diff(cuts, prepend=0, append=shots, axis=-1)
    bases = list(Basis)
    columns = estimate_witnesses_many(counts, bases)
    rows = _moment_rows(counts)  # the whole stack at once: a row does not depend on it
    assert rows == [_bits(basis_estimate_reference(c)) for replicate in counts for c in replicate]
    for r, replicate in enumerate(counts):
        tables = [CountTable(b, c) for b, c in zip(bases, replicate)]
        report = estimate_witnesses(tables)
        per_table, *want = estimate_reference(tables)
        assert _moment_rows([replicate]) == rows[3 * r:3 * r + 3] == [_bits(e) for e in per_table]
        assert _bits((report.l_value, report.l_se, report.ml_value, report.ml_se)) == _bits(want)
        assert _bits(c[r] for c in columns) == _bits(want)


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


@given(moment_stacks((1, STACK_CHUNK + 3)))
@settings(max_examples=40, deadline=None)  # N > STACK_CHUNK rows per example
def test_standard_estimate_running_sums_equal_one_estimate_per_family(moments):
    # the values and SEs of the one pass against one row-sum estimate per family
    want = (*estimate_values_reference(*(m[:, :2] for m in moments)), *estimate_values_reference(*moments))
    counts = np.ones((len(moments[0]), 3, 4), dtype=np.int64)
    *statistics, se = moments  # the reference reads the SEs as (N, B, 2), the estimator as (2, N, B)
    stacked = (*statistics, np.ascontiguousarray(np.moveaxis(se, -1, 0)))
    with mock.patch.object(measurement, "_moments", lambda counts, bases: stacked):
        got = estimate_standard(counts)
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
    return {
        "starved-l3": starved_l3,
        "starved-l2": starved_l2,
        "negative": negative,
        "past-max": past,
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


@pytest.fixture
def moments_calls(monkeypatch):
    """A list that gains one entry per `_table_moments` call: the shape of its count stack."""
    calls = []
    real = measurement._table_moments

    def counted(counts, shots):
        calls.append(counts.shape)
        return real(counts, shots)

    monkeypatch.setattr(measurement, "_table_moments", counted)
    return calls


def test_drawn_replicate_estimates_equal_rebuilt_tables_bitwise(moments_calls):
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
                    before = len(moments_calls)
                    for n in order:
                        got = estimate_witnesses(tables[:n])
                        want = estimate_witnesses(_rebuilt(tables[:n]))
                        assert _report_bits(got) == _report_bits(want)
                        checked += 1
                    # the drawn replicate's one pass, and one per call on the rebuilt tables
                    assert moments_calls[before:] == [(1, 3, 4), (1, order[0], 4), (1, order[1], 4)]
    assert checked >= 800


def test_other_tables_take_the_per_call_path(moments_calls):
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
        before = len(moments_calls)
        got = estimate_witnesses(tables)
        assert moments_calls[before:] == [(1, len(tables), 4)], name
        assert _report_bits(got) == _report_bits(estimate_witnesses(_rebuilt(tables))), name
    assert a[0]._drawn[0].estimates is None and b[0]._drawn[0].estimates is None


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


def test_drawn_replicate_fails_both_families_on_a_failed_ml_check(monkeypatch, moments_calls):
    real = measurement._table_moments

    def skewed(counts, shots):
        var_a, var_b, var_sum, cov, se = real(counts, shots)
        return var_a, var_b, var_sum, cov + 1e-6, se

    monkeypatch.setattr(measurement, "_table_moments", skewed)
    tables = simulate_counts(noise_mixture(0.5, NoiseKind.WERNER), 4096, 3)
    for n in (2, 3, 2):  # nothing is kept from a failed pass, so every call takes it again
        with pytest.raises(NumericsError, match="modified-witness forms disagree"):
            estimate_witnesses(tables[:n])
    assert tables[0]._drawn[0].estimates is None


def test_one_moments_pass_per_drawn_replicate(moments_calls):
    rho = noise_mixture(0.9, NoiseKind.WERNER)
    replicates = [simulate_counts(rho, shots, seed) for shots in (100, 10**6) for seed in range(5)]
    for tables in replicates:
        for n in (2, 3, 3, 2):
            estimate_witnesses(tables[:n])
        estimate_witnesses(iter(tables))  # any iterable of the tables
    assert moments_calls == [(1, 3, 4)] * len(replicates)


def test_drawn_replicate_keeps_one_read_only_stack():
    counts = draw_counts(noise_mixture(0.4, NoiseKind.POLARIZED), 1000, 8)
    tables = drawn_tables(counts)
    stack = tables[0]._drawn[0].counts
    assert all(t._drawn[0].counts is stack for t in tables)
    assert stack.shape == (1, 3, 4) and stack.dtype == np.int64 and not stack.flags.writeable
    assert stack.tolist() == [[t.counts.tolist() for t in tables]]
    for other in (counts, counts.tolist(), counts.copy(), counts.astype(np.int32)):
        kept = drawn_tables(other)[0]._drawn[0].counts
        assert not np.shares_memory(kept, other) and not kept.flags.writeable
        assert kept.dtype == np.int64 and kept.tolist() == stack.tolist()
    with pytest.raises(ValueError, match="same number of shots per basis"):
        drawn_tables([[1, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3]])
    with pytest.raises(ValueError):
        drawn_tables([[1, 1, 0, 0], [2, 0, 0, 0]])  # one table per basis
    with pytest.raises(ValueError, match="nonnegative"):  # each table is validated as ever
        drawn_tables([[1, 1, 0, 0], [2, 0, 0, 0], [3, -1, 0, 0]])


def test_drawn_record_goes_away_with_its_tables():
    tables = simulate_counts(SINGLET, 100, 4)
    estimate_witnesses(tables)
    kept = weakref.ref(tables[0]._drawn[0])
    assert kept().estimates is not None
    del tables[1:]
    gc.collect()
    assert kept() is not None  # one table still holds it
    del tables
    gc.collect()
    assert kept() is None
