#!/usr/bin/env python3
"""Fit observed decay against every applicable theoretical rate.

Runs the two-velocity system for constants, for the piecewise {1, 4}
relaxation profile and for the three pieces 1, 4, 0.5 broken at pi/2 and
3 pi/2 (grid nodes, so the scheme resolves the breaks) on seeded random
data, fits entropy and pair-norm decay, and prints the theory/observation
table. The "optimal" column is the sharp pair-norm rate: mu(sigma) for a
constant, and for the piecewise profiles half the telegrapher-based optimal
rate, which the perturbative "theory" rate lies below. A quick end-to-end
sanity run:

    python3 scripts/decay_vs_theory.py --seed 3 --t-final 30
"""

import argparse
import math

from gtlab.profiles import RelaxationProfile
from gtlab.rates import rate_2v
from gtlab.solver import MacroState2V, fit_decay_rate, simulate_2v
from gtlab.telegrapher import optimal_rate, rescale_sigma, telegrapher_gap
from gtlab.torus import random_band_limited


def run_case(label, profile, optimal, n, t_final, seed):
    rep = rate_2v(profile)
    init = MacroState2V(
        random_band_limited(n, seed=seed, zero_mean=False),
        random_band_limited(n, seed=seed + 1),
    )
    traj = simulate_2v(init, profile, t_final, theta=rep.theta)
    e_rate, e_r2 = fit_decay_rate(traj.times, traj["entropy"])
    n_rate, _ = fit_decay_rate(traj.times, traj.pair_norm())
    print(
        f"{label:<14} theta={rep.theta:<8.4g} entropy: fit {e_rate:.4f}, theory {rep.rate:.4f}"
        f"   pair norm: fit {n_rate:.4f}, theory {rep.rate / 2:.4f}, optimal {optimal:.4f}"
        f"   (r2 {e_r2:.5f})"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--t-final", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for sigma in (0.5, 1.0, 5.0):
        profile = RelaxationProfile.constant(sigma)
        # the constant rate is sharp, so its pair-norm rate is the optimal one
        run_case(f"const {sigma:g}", profile, rate_2v(profile).mu, args.n, args.t_final, args.seed)
    three = RelaxationProfile.piecewise([(0.5 * math.pi, 1.0), (1.5 * math.pi, 4.0), (2.0 * math.pi, 0.5)])
    for label, profile in (("pc {1,4}", RelaxationProfile.two_piece(1.0, 4.0)), ("pc {1,4,0.5}", three)):
        problem = rescale_sigma(profile)
        optimal = optimal_rate(problem, telegrapher_gap(problem)) / 2
        run_case(label, profile, optimal, args.n, args.t_final, args.seed)


if __name__ == "__main__":
    main()
