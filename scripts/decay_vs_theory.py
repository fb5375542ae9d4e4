#!/usr/bin/env python3
"""Fit observed decay against every applicable theoretical rate.

Runs the two-velocity system for a constant and for the piecewise {1, 4}
relaxation profile on seeded random data, fits entropy and pair-norm decay,
and prints the theory/observation table. The "optimal" column is the sharp
pair-norm rate: mu(sigma) for a constant, and for {1, 4} half the
telegrapher-based optimal rate, which the perturbative "theory" rate lies
below. A quick end-to-end sanity run:

    python3 scripts/decay_vs_theory.py --seed 3 --t-final 30
"""

import argparse

from gtlab.profiles import RelaxationProfile
from gtlab.rates import constant_rate, perturbative_rate
from gtlab.solver import MacroState2V, fit_decay_rate, simulate_2v
from gtlab.telegrapher import bs_rate
from gtlab.torus import random_band_limited


def run_case(label, profile, rep, optimal, n, t_final, seed):
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
        rep = constant_rate(sigma)  # sharp, so its pair-norm rate is the optimal one
        run_case(
            f"const {sigma:g}",
            RelaxationProfile.constant(sigma),
            rep,
            rep.rate / 2,
            args.n,
            args.t_final,
            args.seed,
        )
    profile = RelaxationProfile.two_piece(1.0, 4.0)
    run_case(
        "pc {1,4}",
        profile,
        perturbative_rate(profile),
        bs_rate(profile).rate / 2,
        args.n,
        args.t_final,
        args.seed,
    )


if __name__ == "__main__":
    main()
