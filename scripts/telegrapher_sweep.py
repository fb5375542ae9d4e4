#!/usr/bin/env python3
"""Run the telegrapher gap search over a fixed set of 333 profiles, and compare two sweeps.

    PYTHONPATH=src python3 scripts/telegrapher_sweep.py --out sweep.json
    PYTHONPATH=src python3 scripts/telegrapher_sweep.py --out new.json --compare sweep.json

The profiles, in order (index 0 .. 332), each as the CLI's ``pc:`` spec:

- 300 two-piece profiles (a on (0, pi], b on (pi, 2 pi]), the rows of
  exp(default_rng(5).uniform(log 0.05, log 12, (300, 2)));
- six two-piece profiles: {1, 4}, (2.93, 0.402), (1.34, 5.46), (1.05, 1.07),
  (0.05, 1) and (0.25, 4);
- pc:1@pi,100@2pi, pc:1@1,4@3,0.5@2pi and pc:2@0.5,0.3@2,5@4,1@2pi;
- 24 random profiles from default_rng(33): for each, a piece count n from
  integers(3, 33), then n - 1 breakpoints, sorted uniform(0, 2 pi), and n
  values exp(uniform(log 0.05, log 12)).

Each profile is searched by telegrapher_gap(rescale_sigma(profile)), in this
one process. A row gives its index, its spec, its status ("ok" or the
exception's class), the failure's stage and message, the count, the gap, the
roots (re, im), the number of ``_d_batch`` calls it made and the number of
points of D they evaluated. The stage is the message's first clause, after
"telegrapher gap: " and up to the first colon, semicolon, parenthesis or
digit, so that a message's numbers and advice do not count.

With --compare, the rows are matched by index against an earlier output: a
row differs when its status, stage, count or number of roots differs, or its
gap, or a root against the nearest root of the other side, differs by more
than RTOL = 1e-12 relative. The rows that differ, the largest relative difference of
gaps and roots, and both sides' total ``_d_batch`` calls and evaluations of D are
printed, "n/a" for a total an earlier output does not record; the exit status is
1 if any row differs.
"""

import argparse
import json
import math
import re
import sys
from collections import Counter

import numpy as np

import gtlab.telegrapher as tele
from gtlab.errors import NumericalError, ValidationError
from gtlab.profiles import RelaxationProfile

FIXED_PAIRS = ((1.0, 4.0), (2.93, 0.402), (1.34, 5.46), (1.05, 1.07), (0.05, 1.0), (0.25, 4.0))
FIXED_SPECS = ("pc:1@pi,100@2pi", "pc:1@1,4@3,0.5@2pi", "pc:2@0.5,0.3@2,5@4,1@2pi")
LOG_RANGE = (math.log(0.05), math.log(12.0))
RTOL = 1e-12


def _pair_spec(a: float, b: float) -> str:
    return f"pc:{a!r}@pi,{b!r}@2pi"


def profiles() -> list:
    """The 333 sweep profiles as ``pc:`` specs, in index order."""
    seeded = np.exp(np.random.default_rng(5).uniform(*LOG_RANGE, (300, 2)))
    specs = [_pair_spec(a, b) for a, b in seeded.tolist()]
    specs += [_pair_spec(a, b) for a, b in FIXED_PAIRS]
    specs += FIXED_SPECS
    rng = np.random.default_rng(33)
    for _ in range(24):
        n = int(rng.integers(3, 33))
        ends = np.sort(rng.uniform(0.0, 2.0 * math.pi, n - 1)).tolist()
        values = np.exp(rng.uniform(*LOG_RANGE, n)).tolist()
        specs.append("pc:" + ",".join(f"{v!r}@{e!r}" for v, e in zip(values, ends)) + f",{values[-1]!r}@2pi")
    return specs


def _stage(message: str) -> str:
    return re.match(r"[^:;(0-9]*", message.removeprefix("telegrapher gap: ")).group(0).strip()


def search(index: int, spec: str) -> dict:
    """One profile's row: the search's outcome, the ``_d_batch`` calls it made and the points they evaluated."""
    calls = evaluations = 0
    d_batch = tele._d_batch

    def counted(gammas, *args, **kwargs):
        nonlocal calls, evaluations
        calls += 1
        evaluations += np.size(gammas)
        return d_batch(gammas, *args, **kwargs)

    row = {"index": index, "sigma": spec, "status": "ok", "stage": "", "message": ""}
    tele._d_batch = counted
    try:
        result = tele.telegrapher_gap(tele.rescale_sigma(RelaxationProfile.parse(spec)))
    except (NumericalError, ValidationError) as exc:
        row.update(status=type(exc).__name__, stage=_stage(str(exc)), message=str(exc), count=None, gap=None, roots=[])
    else:
        row.update(count=result.count, gap=result.gap, roots=[[r.real, r.imag] for r in result.roots])
    finally:
        tele._d_batch = d_batch
    row["d_batch_calls"] = calls
    row["d_evaluations"] = evaluations
    return row


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def _root_distance(roots: list, earlier: list) -> float:
    """The largest relative distance from a root of either list to the nearest of the other:
    the search sorts its roots by real part, which a conjugate pair can share to rounding."""
    a = np.array([complex(*r) for r in roots])
    b = np.array([complex(*r) for r in earlier])
    distance = np.abs(a[:, None] - b[None, :])
    return max(np.max(distance.min(axis=1) / np.abs(a)), np.max(distance.min(axis=0) / np.abs(b)))


def totals(rows: list) -> str:
    """The rows' total ``_d_batch`` calls and evaluations of D, "n/a" for a field a row lacks."""
    return ", ".join(
        f"{name} {sum(row[key] for row in rows) if all(key in row for row in rows) else 'n/a'}"
        for name, key in (("_d_batch calls", "d_batch_calls"), ("D evaluations", "d_evaluations"))
    )


def compare(rows: list, earlier: list) -> tuple:
    """(indices of the rows that differ, the largest relative difference of gaps and roots)."""
    before = {row["index"]: row for row in earlier}
    differ = []
    largest = 0.0
    for row in rows:
        old = before.get(row["index"])
        if old is None or any(row[key] != old[key] for key in ("sigma", "status", "stage", "count")):
            differ.append(row["index"])
            continue
        if row["status"] != "ok":
            continue
        if len(row["roots"]) != len(old["roots"]):
            differ.append(row["index"])
            continue
        worst = max(_relative(row["gap"], old["gap"]), _root_distance(row["roots"], old["roots"]))
        largest = max(largest, worst)
        if worst > RTOL:
            differ.append(row["index"])
    return differ, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the rows here as JSON (default: print no rows)")
    parser.add_argument("--compare", help="an earlier output to compare the rows with")
    args = parser.parse_args(argv)
    rows = [search(i, spec) for i, spec in enumerate(profiles())]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=1)
    ok = sum(row["status"] == "ok" for row in rows)
    stages = dict(Counter(row["stage"] for row in rows if row["status"] != "ok"))
    print(f"{len(rows)} profiles: {ok} ok, {len(rows) - ok} failed {stages}")
    print(totals(rows))
    if not args.compare:
        return 0
    with open(args.compare) as fh:
        earlier = json.load(fh)
    differ, largest = compare(rows, earlier)
    print(f"earlier: {totals(earlier)}")
    print(f"{len(differ)} rows differ {differ}; largest relative difference of gaps and roots {largest:.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
