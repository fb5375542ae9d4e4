"""Output checks: every CLI call against the reference commit's stored output.

``read_outputs`` turns the files a call wrote into the summary stored in
``reference/<workload>.json``; ``check_call`` compares a call's summary with
the stored one and checks invariants that hold whatever the reference says.
Every tolerance is tighter than the matching gate in tests/test_acceptance.py,
which holds fitted rates to 2 % of theory and the Appendix A rates to 1e-3.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

#: Rows of each trajectory kept in the reference, evenly spaced, ends included.
TRAJECTORY_SAMPLES = 9

#: (rtol, atol) per summary.csv column.
SUMMARY_TOL = {
    "theta": (1e-9, 1e-12),
    "theoretical_rate": (1e-9, 1e-12),
    "fitted_rate": (1e-5, 1e-9),
    "margin": (0.0, 1e-5),
    "r_squared": (0.0, 1e-6),
}
#: (rtol, atol) for sampled trajectory rows; atol is relative to the largest
#: sampled magnitude, so that columns holding rounding noise (a flux average
#: of 1e-17) still compare while the entropy is followed over 13 decades.
TRAJECTORY_TOL = (1e-7, 1e-15)
RATES_TOL = (1e-9, 1e-12)
MODAL_TOL = (1e-8, 1e-10)
#: Absolute tolerance per comparison.csv method. The improved rate is a fixed
#: point iterated to 1e-6, so a different iteration path may move it by that.
COMPARISON_TOL = {"perturbative": 1e-9, "improved-poincare": 1e-5, "bernard-salvarani": 1e-7}
GAP_TOL = 1e-7
ROOT_TOL = 1e-6

ENTROPY_INCREASE_MAX = 1e-8
MASS_DRIFT_MAX = 1e-12

PAPER_SIGMA = "pc:1@pi,4@2pi"
PAPER_RATES = {"perturbative": 0.5359, "improved-poincare": 0.7234, "bernard-salvarani": 0.86845}
PAPER_GAP = 2.72831
PAPER_TOL = 1e-3


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _rows(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_cell(c) for c in row] for row in rows[1:]]


def sigma_of(argv) -> str:
    return argv[list(argv).index("--sigma") + 1]


def read_outputs(argv, outdir: Path) -> dict:
    """Summary of what one successful call wrote into ``outdir``."""
    sub = argv[0]
    if sub in ("simulate-2v", "simulate-3v"):
        header, summary = _rows(outdir / "summary.csv")
        with open(outdir / "trajectory.csv") as fh:
            columns = fh.readline().strip().split(",")
        data = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        index = sorted({int(i) for i in np.linspace(0, len(data) - 1, TRAJECTORY_SAMPLES).round()})
        return {
            "summary_header": header,
            "summary": summary,
            "trajectory": {
                "columns": columns,
                "rows": len(data),
                "sample_index": index,
                "sample": data[index].tolist(),
            },
            "_data": data,
        }
    if sub == "rates":
        return {"rates": _rows(outdir / "rates.csv")[1]}
    if sub == "modal-report":
        return {"modal": _rows(outdir / "modal_report.csv")[1]}
    if sub == "appendix-a":
        return {"comparison": {row[0]: row[1] for row in _rows(outdir / "comparison.csv")[1]}}
    raise ValueError(f"no output reader for subcommand {sub!r}")


def _close(got, want, rtol, atol) -> bool:
    if isinstance(want, str) or want is None or isinstance(got, str) or got is None:
        return got == want
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol


def _compare_rows(name, got, want, rtol, atol) -> list:
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        return [f"{name}: shape {[len(r) for r in got]} != reference {[len(r) for r in want]}"]
    return [
        f"{name}[{i}][{j}] = {g!r}, reference {w!r}"
        for i, (grow, wrow) in enumerate(zip(got, want))
        for j, (g, w) in enumerate(zip(grow, wrow))
        if not _close(g, w, rtol, atol)
    ]


def _compare_simulation(got, want) -> list:
    problems = []
    if got["summary_header"] != want["summary_header"]:
        return [f"summary header {got['summary_header']} != reference {want['summary_header']}"]
    if len(got["summary"]) != len(want["summary"]):
        return [f"summary has {len(got['summary'])} rows, reference {len(want['summary'])}"]
    for grow, wrow in zip(got["summary"], want["summary"]):
        if grow[0] != wrow[0]:
            problems.append(f"summary series {grow[0]!r} != reference {wrow[0]!r}")
            continue
        for col, g, w in zip(want["summary_header"][1:], grow[1:], wrow[1:]):
            rtol, atol = SUMMARY_TOL[col]
            if not _close(g, w, rtol, atol):
                problems.append(f"summary {wrow[0]}.{col} = {g!r}, reference {w!r}")
    gt, wt = got["trajectory"], want["trajectory"]
    if (gt["columns"], gt["rows"]) != (wt["columns"], wt["rows"]):
        return problems + [
            f"trajectory {gt['rows']} rows of {gt['columns']}, reference {wt['rows']} rows of {wt['columns']}"
        ]
    sample = np.asarray(gt["sample"])
    ref = np.asarray(wt["sample"])
    rtol, atol = TRAJECTORY_TOL
    scale = np.max(np.abs(ref))
    bad = np.abs(sample - ref) > rtol * np.abs(ref) + atol * scale
    for i, j in zip(*np.nonzero(bad | ~np.isfinite(sample))):
        problems.append(
            f"trajectory {wt['columns'][j]} at row {wt['sample_index'][i]} = {sample[i, j]!r}, "
            f"reference {ref[i, j]!r}"
        )
    return problems


def _simulation_invariants(got) -> list:
    data = got["_data"]
    columns = got["trajectory"]["columns"]
    if not np.all(np.isfinite(data)):
        return ["trajectory holds non-finite values"]
    problems = []
    increase = float(np.max(np.diff(data[:, columns.index("entropy")]), initial=-np.inf))
    if increase >= ENTROPY_INCREASE_MAX:
        problems.append(f"entropy increased by {increase:.3e} between records (limit {ENTROPY_INCREASE_MAX:g})")
    mass = data[:, columns.index("mass")]
    drift = float(np.max(np.abs(mass - mass[0])))
    if drift >= MASS_DRIFT_MAX:
        problems.append(f"mass drifted by {drift:.3e} (limit {MASS_DRIFT_MAX:g})")
    return problems


def _comparison_invariants(argv, got) -> list:
    rates = got["comparison"]
    order = [rates.get(m) for m in ("perturbative", "improved-poincare", "bernard-salvarani")]
    if any(r is None for r in order):
        return [f"comparison.csv lacks a method: {sorted(rates)}"]
    problems = []
    if not order[0] < order[1] < order[2]:
        problems.append(f"ordering perturbative < improved < optimal violated: {order}")
    if sigma_of(argv) == PAPER_SIGMA:
        for method, value in PAPER_RATES.items():
            if abs(rates[method] - value) >= PAPER_TOL:
                problems.append(f"{method} = {rates[method]:.6g}, paper value {value}")
        gap = math.pi * rates["bernard-salvarani"]
        if abs(gap - PAPER_GAP) >= PAPER_TOL:
            problems.append(f"telegrapher gap = {gap:.6g}, paper value {PAPER_GAP}")
    return problems


def _compare_captures(captures, want) -> list:
    """The telegrapher gap and root set seen by the tracer against the reference.

    An appendix-a call makes exactly one telegrapher search; a traced call
    that records none no longer searches through a traced name, and that is
    a problem, not a pass. Only reference roots with real part below the L1
    norm can set the rate, so only those must be found again; a search may
    add or drop others.
    """
    if len(captures) != 1:
        return [f"{len(captures)} telegrapher searches traced, expected 1: the root set cannot be checked"]
    problems = []
    for cap in captures:
        if abs(cap["gap"] - want["gap"]) > GAP_TOL:
            problems.append(f"telegrapher gap {cap['gap']!r}, reference {want['gap']!r}")
        found = [complex(*r) for r in cap["roots"]]
        for re, im in want["roots"]:
            if re < want["l1_norm"] and not any(abs(f - complex(re, im)) < ROOT_TOL for f in found):
                problems.append(f"telegrapher root {complex(re, im)!r} of the reference not found")
    return problems


def invariants(argv, got: dict) -> list:
    """Problems that no reference can excuse: entropy growth, mass drift, rate ordering."""
    if argv[0] in ("simulate-2v", "simulate-3v"):
        return _simulation_invariants(got)
    if argv[0] == "appendix-a":
        return _comparison_invariants(argv, got)
    return []


def check_call(argv, got: dict, reference: dict | None, captures=None) -> list:
    """Problems with one successful call's outputs; empty when they are right.

    ``captures`` are the telegrapher searches the tracer recorded during the
    call's op, or None for an untraced op. An untraced appendix-a call is
    checked through its comparison.csv rates only, the bernard-salvarani
    rate being the gap over pi; its root set is checked in traced ops.
    """
    sub = argv[0]
    problems = invariants(argv, got)
    if reference is None:
        return problems + ["no reference output for this call"]
    if reference["status"] != "ok":
        return problems  # failed at the reference commit: only the invariants apply
    want = reference["outputs"]
    if sub in ("simulate-2v", "simulate-3v"):
        problems += _compare_simulation(got, want)
    elif sub == "rates":
        problems += _compare_rows("rates.csv", got["rates"], want["rates"], *RATES_TOL)
    elif sub == "modal-report":
        problems += _compare_rows("modal_report.csv", got["modal"], want["modal"], *MODAL_TOL)
    elif sub == "appendix-a":
        for method, tol in COMPARISON_TOL.items():
            g, w = got["comparison"].get(method), want["comparison"][method]
            if g is None or abs(g - w) > tol:
                problems.append(f"{method} rate {g!r}, reference {w!r}")
        if "telegrapher" in reference and captures is not None:
            problems += _compare_captures(captures, reference["telegrapher"])
    return problems
