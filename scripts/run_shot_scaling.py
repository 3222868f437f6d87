#!/usr/bin/env python3
"""Standard-error scaling of the witness estimator with shot count.

Runs repeated finite-shot simulations of a Werner state and reports how the
propagated standard error of the three-basis witness shrinks with shots
(expected slope -1/2 on a log-log scale). Each shot count's replicates are
drawn seed by seed with `draw_counts`, stacked into one (seeds, 3, 4)
array and estimated in one `estimate_witnesses_many` call.
"""

import argparse

import numpy as np

from lurwit.cli import draw_counts
from lurwit.measurement import estimate_witnesses_many
from lurwit.states import Basis, NoiseKind, noise_mixture


def run(p: float, shot_grid, seeds: int, seed0: int) -> None:
    rho = noise_mixture(p, NoiseKind.WERNER)
    print("shots,mean_l3,mean_l3_se,empirical_sd")
    mean_ses = []
    for shots in shot_grid:
        counts = np.array([draw_counts(rho, shots, seed0 + 101 * shots + s) for s in range(seeds)])
        values, ses, _, _ = estimate_witnesses_many(counts, Basis)
        mean_ses.append(np.mean(ses))
        print(f"{shots},{np.mean(values):.6g},{np.mean(ses):.6g},{np.std(values):.6g}")
    slope = np.polyfit(np.log(shot_grid), np.log(mean_ses), 1)[0]
    print(f"# log-log slope of mean SE vs shots: {slope:.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--shots", type=int, nargs="+", default=[100, 1000, 10000])
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--seed0", type=int, default=5000)
    args = parser.parse_args()
    run(args.p, args.shots, args.seeds, args.seed0)
