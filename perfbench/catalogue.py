"""Workload catalogue: the CLI calls each workload makes for a given seed.

A workload runs rounds. A round is a fixed list of ops, built once from the
workload seed; an op is every CLI call made on one generated input (a
profile and, for the simulations, an initial-data seed). Every seed runs the
same profiles, so a round costs the same whatever the seed; the seed chooses
the initial data and the order of the ops. A workload may also
have failure cases: ops that fail at the reference commit. They are run once,
outside the timed rounds, so that a failure never counts as work done. Every
input a seed can select comes from the pools below, so
``reference/<workload>.json`` holds the reference commit's output for each
call a run can make.

The two-piece profiles were drawn once, log-uniformly on [0.25, 8], with
``numpy.random.default_rng(2020)`` and rounded to three significant digits.
The rounds use the first draws of the pool; the reference outputs cover all
of it.
"""

from __future__ import annotations

import random

WORKLOADS = ("decay-dense", "decay-sparse", "rate-certify")

DECAY_PC_POOL = (
    (1.27, 1.49), (4.99, 3.02), (0.794, 5.31), (1.51, 1.53), (3.06, 1.18), (4.76, 2.68),
    (2.51, 6.65), (3.41, 0.344), (4.38, 1.71), (0.557, 7.54), (1.9, 1.1), (4.68, 1.45),
)
#: decay-dense runs the first three of the pool, decay-sparse the first. Per
#: seed draws from the pool would move a round's cost by a few percent from
#: seed to seed: (1.9, 1.1) alone takes about 0.2 s longer than the others.
DECAY_DENSE_PC = DECAY_PC_POOL[:3]
DECAY_SPARSE_PC = DECAY_PC_POOL[:1]
#: The first two of 16 further draws from the same generator. rate-certify
#: runs these for every seed, with no per-seed draw: appendix-a cost at the
#: reference commit is heavy-tailed over the 16 (3.4 s to 25 s per profile),
#: so per-seed draws spread wall_s by 20-50 % across seeds (see README.md).
RATE_PC_PROFILES = ((2.93, 0.402), (1.34, 5.46))
#: The paper's Appendix A profile.
PAPER_PROFILE = (1.0, 4.0)
#: rate-certify's failure cases: a profile whose Poincare scan needs about
#: 8 GB at the reference commit (MemoryError under the address-space cap), and
#: one whose telegrapher search finds no root in its strip (exit 3).
OOM_PROFILE = (0.05, 1.0)
STRIP_PROFILE = (0.25, 4.0)
#: Initial-data seeds passed to the CLI as --seed.
INIT_SEEDS = (0, 1, 2, 3)
#: The defective sigma = 2 needs --eps: without it the CLI rejects the run
#: only after the whole simulation.
DEFECTIVE_EPS = ("--eps", "0.5")


def two_piece(a: float, b: float) -> str:
    return f"pc:{a:g}@pi,{b:g}@2pi"


def const(s: float) -> str:
    return f"const:{s:g}"


def _eps(sigma: str) -> tuple:
    return DEFECTIVE_EPS if sigma == "const:2" else ()


def decay_dense_op(sigma: str, seed: int) -> tuple:
    """simulate-2v and simulate-3v at n=256, T=30, every step recorded."""
    common = ("--sigma", sigma, "--n", "256", "--t-final", "30", "--record-every", "1",
              "--seed", str(seed)) + _eps(sigma)
    calls = [
        ("simulate-2v",) + common + ("--u0", "random", "--v0", "random"),
        ("simulate-3v",) + common + ("--f1", "random", "--f2", "random", "--f3", "random"),
    ]
    if sigma.startswith("const:"):
        calls.append(("rates", "--sigma", sigma) + _eps(sigma))
        calls.append(("modal-report", "--sigma", sigma) + _eps(sigma))
    return tuple(calls)


def decay_sparse_op(sigma: str, seed: int) -> tuple:
    """n=4096 split runs (T=5) and an n=256 RK4 run (T=20), one record per 64 steps.

    The horizons keep an op near 1.6 s, so a run holds enough ops for its
    percentiles. RK4 takes T=20 because at n=256 its fit window must still
    hold the 10 records the fit requires.
    """
    common = ("--sigma", sigma, "--record-every", "64", "--seed", str(seed))
    return (
        ("simulate-2v",) + common + ("--n", "4096", "--t-final", "5", "--u0", "random", "--v0", "random"),
        ("simulate-3v",) + common
        + ("--n", "4096", "--t-final", "5", "--f1", "random", "--f2", "random", "--f3", "random"),
        ("simulate-2v",) + common
        + ("--n", "256", "--t-final", "20", "--scheme", "rk4", "--u0", "random", "--v0", "random"),
    )


def rate_certify_op(sigma: str) -> tuple:
    return (("rates", "--sigma", sigma), ("appendix-a", "--sigma", sigma))


def build(workload: str, seed: int) -> list:
    """The round of ``workload`` for ``seed``: a list of ops, each a tuple of argv tuples."""
    rng = random.Random(seed)
    if workload == "decay-dense":
        sigmas = [const(1), const(2), const(5)] + [two_piece(*p) for p in DECAY_DENSE_PC]
        rng.shuffle(sigmas)
        return [decay_dense_op(s, rng.choice(INIT_SEEDS)) for s in sigmas]
    if workload == "decay-sparse":
        sigmas = [const(1), const(5)] + [two_piece(*p) for p in DECAY_SPARSE_PC]
        rng.shuffle(sigmas)
        return [decay_sparse_op(s, rng.choice(INIT_SEEDS)) for s in sigmas]
    if workload == "rate-certify":
        rest = list(RATE_PC_PROFILES)
        rng.shuffle(rest)
        return [rate_certify_op(two_piece(*p)) for p in [PAPER_PROFILE] + rest]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def failure_cases(workload: str) -> list:
    """Ops of ``workload`` that fail at the reference commit, run once outside the timed rounds."""
    if workload == "rate-certify":
        return [rate_certify_op(two_piece(*p)) for p in (OOM_PROFILE, STRIP_PROFILE)]
    return []


def every_op(workload: str) -> list:
    """Every op any seed can select, for building the reference outputs."""
    if workload == "decay-dense":
        sigmas = [const(1), const(2), const(5)] + [two_piece(*p) for p in DECAY_PC_POOL]
        return [decay_dense_op(s, k) for s in sigmas for k in INIT_SEEDS]
    if workload == "decay-sparse":
        sigmas = [const(1), const(5)] + [two_piece(*p) for p in DECAY_PC_POOL]
        return [decay_sparse_op(s, k) for s in sigmas for k in INIT_SEEDS]
    if workload == "rate-certify":
        profiles = (PAPER_PROFILE, OOM_PROFILE, STRIP_PROFILE) + RATE_PC_PROFILES
        return [rate_certify_op(two_piece(*p)) for p in profiles]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def call_key(argv) -> str:
    """Reference key of one CLI call (its argv without --out)."""
    return " ".join(argv)
