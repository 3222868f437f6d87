"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with -s to see them). Monte Carlo criteria use fixed seeds via the
package's keyed streams, so every run checks the same ensembles.
"""

import numpy as np

from lurwit.cli import run_haar_study
from lurwit.measurement import estimate_witnesses, simulate_counts
from lurwit.rng import stream
from lurwit.states import (
    NORM_TOL,
    NoiseKind,
    bell_state,
    density_from_pure,
    noise_mixture,
    noise_mixtures,
    parse_state_spec,
)
from lurwit.witness import (
    evaluate,
    evaluate_many,
    local_bound,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    standard_sets,
)
from oracles import (
    I2,
    SX,
    SY,
    SZ,
    checked_states,
    kron,
    pure_states,
    random_hermitian,
    random_pure_states,
    random_separable_states,
    separable_draw,
    separable_matrices,
    var_sum_brute,
)

SETS = standard_sets()
L2, L3 = SETS["L2"], SETS["L3"]
SINGLET = density_from_pure(bell_state("psi-"))
TOL = 1e-9


def _criterion(number, text, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _bisect(f, lo, hi, iters=80):
    flo = f(lo)
    assert flo * f(hi) < 0, "bisection needs a sign change"
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2.0


def _l(rho, oset):
    return evaluate(rho, oset).l_value


def _ml(rho, oset):
    return evaluate(rho, oset).ml_value


def test_criterion_1_singlet_fixtures():
    values = (_l(SINGLET, L2), _l(SINGLET, L3), _ml(SINGLET, L2), _ml(SINGLET, L3))
    ppt = ppt_min_eigenvalue(SINGLET)
    ok = all(abs(v) <= 1e-12 for v in values) and abs(ppt + 0.5) <= TOL
    _criterion(1, "singlet witness values all 0, PPT minimum -1/2", ok,
               f"values={values}, ppt={ppt:.12f}")


def test_criterion_2_bell_state_asymmetry():
    rho = {k: density_from_pure(bell_state(k)) for k in ("psi+", "psi-", "phi+", "phi-")}
    ok = True
    for kind in ("psi+", "phi+", "phi-"):
        ok &= abs(_l(rho[kind], L3) - 8.0) <= TOL
    for kind in rho:
        ok &= abs(_ml(rho[kind], L3)) <= TOL
    ok &= abs(_l(rho["psi+"], L2) - 4.0) <= TOL
    ok &= abs(_l(rho["phi-"], L2) - 4.0) <= TOL
    # phi+ has positive covariance in both linear bases; the measured
    # two-basis value sits at the top of the window, not at 4
    phi_plus_l2 = _l(rho["phi+"], L2)
    phi_plus_oracle = var_sum_brute(rho["phi+"].matrix, SZ, SZ) + var_sum_brute(
        rho["phi+"].matrix, SX, SX
    )
    ok &= abs(phi_plus_l2 - phi_plus_oracle) <= TOL
    ok &= abs(phi_plus_l2 - 8.0) <= TOL
    _criterion(2, "L3 = 8 and ML3 = 0 across Bell states; L2 = 4 for psi+/phi-", ok,
               f"recorded L2(phi+) = {phi_plus_l2:.9f} by brute-force oracle")


def test_criterion_3_special_unitary_fixtures():
    r1 = evaluate(parse_state_spec("u1-singlet"), L3)
    ok = abs(r1.l_value - 6.0) <= TOL and abs(r1.ml_value - 6.0) <= TOL
    ok &= all(abs(p.covariance) <= 1e-10 for p in r1.pairs)

    r2 = evaluate(parse_state_spec("u2-singlet"), L2)
    zz, xx = r2.pairs  # sz on both sides, then sx
    ok &= abs(r2.l_value - 3.0) <= TOL
    ok &= abs(r2.ml_value - 1.0) <= TOL
    ok &= abs(2.0 * zz.covariance + 2.0) <= TOL
    ok &= abs(2.0 * xx.covariance - 1.0) <= TOL

    psi_plus = bell_state("psi+")
    fidelity = np.vdot(psi_plus, parse_state_spec("u3-singlet").matrix @ psi_plus).real
    ok &= abs(fidelity - 1.0) <= 1e-12
    _criterion(3, "u1: ML3 = L3 = 6 with vanishing covariances; u2: L2 = 3, ML2 = 1; "
                  "u3 maps the singlet to psi+", ok, f"u3 fidelity={fidelity:.15f}")


def test_criterion_4_werner_thresholds():
    root_l3 = _bisect(lambda p: _l(noise_mixture(p, NoiseKind.WERNER), L3) - 4.0, 0.0, 1.0)
    root_ppt = _bisect(lambda p: ppt_min_eigenvalue(noise_mixture(p, NoiseKind.WERNER)), 0.0, 1.0)
    ok = abs(root_l3 - 1.0 / 3.0) <= 1e-6 and abs(root_ppt - 1.0 / 3.0) <= 1e-6
    _criterion(4, "Werner sweep: L3 crosses 4 and PPT crosses 0 at p = 1/3", ok,
               f"L3 root={root_l3:.9f}, PPT root={root_ppt:.9f}")


def test_criterion_5_polarized_thresholds():
    stack = noise_mixtures(np.linspace(0.01, 1.0, 100), NoiseKind.POLARIZED)
    l3, _ = evaluate_many(stack, L3)
    ok = bool(np.all(l3 < 4.0) and np.all(ppt_min_eigenvalues(stack) < 0.0))
    _criterion(5, "polarized sweep: L3 < 4 and PPT < 0 for every p >= 0.01", ok)


def test_criterion_6_separable_soundness():
    n = 10_000
    stack = random_separable_states(600, range(n), [(i % 6) + 1 for i in range(n)])
    l2, ml2 = evaluate_many(stack, L2)
    l3, ml3 = evaluate_many(stack, L3)
    bad = (
        (l2 < 2.0 - TOL)
        | (l2 > 6.0 + TOL)
        | (l3 < 4.0 - TOL)
        | (ml2 < 2.0 - TOL)
        | (ml3 < 4.0 - TOL)
        | (ml3 > l3 + 1e-12)
    )
    violations = int(np.count_nonzero(bad))
    ok = violations == 0
    _criterion(6, f"soundness over {n} separable states: L2 in [2, 6], L3 >= 4, "
                  "ML2 >= 2, ML3 >= 4", ok,
               f"violations={violations}, worst L2=[{l2.min():.6f}, {l2.max():.6f}], "
               f"min L3={l3.min():.6f}, min ML2={ml2.min():.6f}, min ML3={ml3.min():.6f}")


def test_criterion_7_cross_implication():
    n = 100_000
    psi = random_pure_states(700, range(n))
    assert np.max(np.abs(np.sum(np.abs(psi) ** 2, axis=1) - 1.0)) <= NORM_TOL
    l2, ml2 = evaluate_many(psi[:, :, None] * psi.conj()[:, None, :], L2)  # |psi><psi| stack
    assert np.all(ml2 <= l2 + 1e-12), f"max ML2 - L2 = {np.max(ml2 - l2)}"
    high = int(np.count_nonzero(l2 > 6.0))
    counterexamples = int(np.count_nonzero(~(ml2[l2 > 6.0] < 2.0)))
    ok = counterexamples == 0 and high > 0
    _criterion(7, f"cross-implication over {n} random pure states: L2 > 6 forces ML2 < 2",
               ok, f"{high} states had L2 > 6, counterexamples={counterexamples}")


def test_criterion_8_dominance_and_detection_rates():
    summary, per_sample = run_haar_study("psi-", 10_000, 1)
    l3, ml3 = per_sample["l3"], per_sample["ml3"]
    dominance_ok = bool(np.all(ml3 <= l3 + 1e-12))
    ppt_ok = bool(np.all(np.abs(per_sample["ppt_min_eig"] + 0.5) <= TOL))
    missed_by_l3 = int(np.count_nonzero(l3 >= 4.0))
    strict = summary["ml3_detect_fraction"] > summary["l3_detect_fraction"]
    ok = dominance_ok and ppt_ok and strict and missed_by_l3 > 0
    _criterion(8, "ML3 detection fraction strictly exceeds L3's on a 10^4 Haar study",
               ok,
               f"ml3={summary['ml3_detect_fraction']:.4f} vs l3={summary['l3_detect_fraction']:.4f}, "
               f"margin={summary['ml3_detect_fraction'] - summary['l3_detect_fraction']:.4f}, "
               f"entangled-but-missed-by-L3={missed_by_l3}")


def _expect(rho, ops):
    """Tr(rho_k op_k) of each state of a stack, for one operator per state."""
    return np.einsum("nij,nji->n", rho, ops).real


def _variance(rho, ops):
    return _expect(rho, ops @ ops) - _expect(rho, ops) ** 2


def test_criterion_9_identity_suite():
    n = 10_000
    # `random_hermitian` draws what this test drew with its own helper
    g, h = stream(900), stream(900)
    m = h.standard_normal((2, 2)) + 1j * h.standard_normal((2, 2))
    assert np.array_equal(random_hermitian(g, 2), (m + m.conj().T) / 2.0)

    # the draws interleave on one stream, so they are taken in a loop (two
    # `random_pure_state` draws, a weight and two observables per state) and
    # the states are built, checked and tested as stacks afterwards
    normals, lam, a, b = [], [], [], []
    g = stream(900)
    for _ in range(n):
        normals.append(g.standard_normal((2, 2, 4)))
        lam.append(g.uniform())
        a.append(random_hermitian(g, 2))
        b.append(random_hermitian(g, 2))
    v, w = pure_states(np.array(normals).reshape(-1, 2, 4)).reshape(n, 2, 4).swapaxes(0, 1)
    pv, pw = (x[:, :, None] * x.conj()[:, None, :] for x in (v, w))  # np.outer of each
    lam = np.array(lam)[:, None, None]
    rho = checked_states(lam * pv + (1 - lam) * pw)
    a, b = np.array(a), np.array(b)
    a4, b4 = kron(a, I2), kron(I2, b)
    va = _variance(rho, a4)
    vb = _variance(rho, b4)
    cov = _expect(rho, kron(a, b)) - _expect(rho, a4) * _expect(rho, b4)
    vs = _variance(rho, a4 + b4)
    eq2_ok = bool(np.all(np.abs(vs - (va + vb + 2.0 * cov)) <= 1e-10))
    eq5_ok = bool(np.all((-(va + vb) - 1e-10 <= 2.0 * cov) & (2.0 * cov <= va + vb + 1e-10)))

    # each component is a one-term `random_separable_state`, drawn in the
    # loop and built as one stack afterwards
    draws, weights, owner, obs = [], [], [], []
    g = stream(901)
    for i in range(n):
        k = int(g.integers(1, 5))
        w = g.exponential(size=k)
        w /= w.sum()
        draws += [separable_draw(g, 1) for _ in range(k)]
        weights += w.tolist()
        owner += [i] * k
        obs.append(random_hermitian(g, 4))
    comps = checked_states(separable_matrices(draws))
    weights, owner, obs = np.array(weights), np.array(owner), np.array(obs)
    # each mixture is the running sum of its w_j * c_j; term j of all of them at once
    term = np.arange(len(owner)) - np.searchsorted(owner, owner)
    mixes = np.zeros((n, 4, 4), dtype=complex)
    for j in range(term.max() + 1):
        mixes[owner[term == j]] += weights[term == j, None, None] * comps[term == j]
    mixture_var = _variance(checked_states(mixes), obs)
    avg = np.bincount(owner, weights * _variance(comps, obs[owner]), minlength=n)
    eq3_ok = bool(np.all(mixture_var >= avg - 1e-10))

    ok = eq2_ok and eq5_ok and eq3_ok
    _criterion(9, f"identity suite on {n} draws: sum-variance decomposition, covariance "
                  "bounds, mixture-variance inequality", ok,
               f"eq2={eq2_ok}, eq5={eq5_ok}, eq3={eq3_ok}")


def _simulate_l3(rho, shots, seed):
    return estimate_witnesses(simulate_counts(rho, shots, seed))


def test_criterion_10_finite_shot_consistency():
    # part 1: the singlet estimate sits within 5 SE of 0 for essentially all
    # seeds (here: the summed outcome is deterministic, so both sides are 0)
    seeds = 100
    hits = 0
    for seed in range(seeds):
        report = _simulate_l3(SINGLET, 10_000, 1000 + seed)
        if abs(report.l_value - 0.0) <= 5.0 * report.l_se:
            hits += 1
    singlet_ok = hits >= 99

    # part 2: the error must shrink as shots^(-1/2); measured on a Werner
    # state because the singlet's estimator has exactly zero spread
    rho = noise_mixture(0.5, NoiseKind.WERNER)
    shot_grid = [100, 1_000, 10_000]
    mean_ses = []
    for shots in shot_grid:
        ses = [
            _simulate_l3(rho, shots, 5000 + 101 * shots + seed).l_se for seed in range(100)
        ]
        mean_ses.append(np.mean(ses))
    slope = np.polyfit(np.log(shot_grid), np.log(mean_ses), 1)[0]
    scaling_ok = abs(slope + 0.5) <= 0.1

    ok = singlet_ok and scaling_ok
    _criterion(10, "finite-shot consistency: singlet within 5 SE over 100 seeds; "
                   "SE scaling exponent -0.5 +/- 0.1", ok,
               f"singlet pass rate={hits}/{seeds}, scaling slope={slope:.4f}")


def test_criterion_11_local_bound_minimizer():
    two = local_bound([SX, SZ])
    three = local_bound([SX, SY, SZ])
    ok = abs(two - 1.0) <= 1e-12 and abs(three - 2.0) <= 1e-12
    ok &= abs(2.0 * two - L2.separable_bound) <= 2e-12
    ok &= abs(2.0 * three - L3.separable_bound) <= 2e-12
    _criterion(11, "local bound minimizer: {sx,sz} -> 1 and {sx,sy,sz} -> 2, matching "
                   "the witness bounds as U_A + U_B", ok,
               f"two-basis={two:.9f}, three-basis={three:.9f}")
