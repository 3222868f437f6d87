import gc
import math

import numpy as np
import pytest

from lurwit import measurement
from lurwit.cli import simulate_counts
from lurwit.linalg import NumericsError
from lurwit.measurement import (
    CountTable,
    MAX_SHOTS,
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
    random_pure_state,
)
from lurwit.witness import evaluate, standard_sets
from oracles import (
    SX,
    SY,
    SZ,
    basis_estimate_reference,
    estimate_reference,
    outcome_probabilities_brute,
    random_mixed_matrix,
)

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
        var_a, var_b, var_sum, cov, _ = measurement._table_moments(np.array([[t.counts for t in tables]]))
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

    def skewed(counts):
        var_a, var_b, var_sum, cov, se = real(counts)
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
    var_a, var_b, var_sum, cov, se = measurement._table_moments(np.asarray(counts))
    rows = np.stack([var_a, var_b, var_sum, cov, se[..., 0], se[..., 1]], axis=-1)
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
