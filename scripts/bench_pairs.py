"""Benchmark the working tree against a parent commit, in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent HEAD --topic telegrapher_moments \\
        --workload rate-certify --seeds 10 --seconds 30

A workload given as NAME:SEEDS runs seeds 1 .. SEEDS in place of --seeds.

The parent commit is unpacked with ``git archive`` into a fresh directory
(under ``--scratch``, a new temporary one by default); the change is the
working tree. For each seed the two sides run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one after the other, the parent first on odd seeds, and the run record each
writes under perfbench/.out/ is read back. BENCH_<topic>.json then holds, per
workload and per end-to-end metric of BENCHMARK.json, both sides' runs, their
medians and quartiles (numpy's linear percentiles), the distance between the
parent's quartiles (parent_iqr), the pairs the change won (ties count for
neither side), whether that makes a gain (at least nine tenths of the pairs
won, and the medians further apart than parent_iqr), and whether the change's
median stays within the metric's bound of the parent's.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _figure(value: float) -> float:
    return float(f"{value:.4g}")


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's pairs, parent[i] against change[i]: medians, quartiles, wins, gain and bound."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    p_med, c_med = float(np.median(p)), float(np.median(c))
    p_q, c_q = np.percentile(p, [25, 75]), np.percentile(c, [25, 75])
    iqr = float(p_q[1] - p_q[0])
    wins = int(np.sum(sign * (p - c) > 0.0))
    return {
        "parent_median": _figure(p_med),
        "change_median": _figure(c_med),
        "change_over_parent": _figure(c_med / p_med) if p_med else None,
        "parent_quartiles": [_figure(q) for q in p_q],
        "change_quartiles": [_figure(q) for q in c_q],
        "parent_iqr": _figure(iqr),
        "change_better_pairs": f"{wins}/{p.size}",
        "gain": bool(wins >= 0.9 * p.size and sign * (p_med - c_med) > iqr),
        "within_bound": bool(sign * (c_med - p_med) <= bound * abs(p_med)),
        "parent_runs": [_figure(v) for v in p],
        "change_runs": [_figure(v) for v in c],
    }


def workload_block(seeds: list, parent: list, change: list, end_to_end: list) -> dict:
    """A workload's entry from its run records, parent[i] and change[i] of seeds[i]."""
    sides = {"parent": parent, "change": change}
    return {
        "seeds": list(seeds),
        "correct": {side: all(r["result"]["correct"] for r in runs) for side, runs in sides.items()},
        "failed_ops": {side: sum(r["result"]["failed"] for r in runs) for side, runs in sides.items()},
        "attempted_ops": {side: [r["result"]["attempted"] for r in runs] for side, runs in sides.items()},
        "metrics": {
            m["name"]: {
                "unit": m["unit"],
                **compare(
                    [r["result"]["metrics"][m["name"]]["value"] for r in parent],
                    [r["result"]["metrics"][m["name"]]["value"] for r in change],
                    m["better"],
                    m["bound"],
                ),
            }
            for m in end_to_end
        },
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in the checkout at root, and the run record it wrote."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, check=True, capture_output=True,
    )
    return json.loads((root / "perfbench" / ".out" / f"{workload}-seed{seed}-trace0.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit the working tree is measured against")
    parser.add_argument("--topic", required=True, help="names the output, BENCH_<topic>.json")
    parser.add_argument("--workload", action="append", required=True, help="NAME or NAME:SEEDS")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1 .. SEEDS, one pair each")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--scratch", help="where the parent is unpacked (default: a new temporary directory)")
    args = parser.parse_args(argv)

    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    parent_root = Path(tempfile.mkdtemp(prefix=f"parent-{commit}-", dir=args.scratch))
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    machine = None
    for spec in args.workload:
        workload, _, count = spec.partition(":")
        seeds = list(range(1, int(count or args.seeds) + 1))
        runs = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                record = run_once(parent_root if side == "parent" else ROOT, workload, seed, args.seconds)
                runs[side].append(record)
                machine = machine or record["machine"]
                print(f"{workload} seed {seed} {side}: wall_norm_s "
                      f"{record['result']['metrics']['wall_norm_s']['value']:.4g}", flush=True)
        workloads[workload] = workload_block(seeds, runs["parent"], runs["change"], end_to_end)

    out = {
        "topic": args.topic,
        "parent": commit,
        "machine": {**{k: machine[k] for k in ("cpu", "nproc", "python", "numpy")},
                    "os": f"{platform.system()} {platform.release()}"},
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0, in an "
                   "archive of the parent commit and in the working tree, one after the other, the parent first "
                   "on odd seeds; seeds 1 to each workload's count. Medians and quartiles are over seeds "
                   "(numpy linear percentiles); parent_iqr is the distance between the parent's quartiles; a gain wins at least "
                   "nine tenths of the pairs with the medians further apart than parent_iqr; within_bound compares "
                   "the medians against BENCHMARK.json's bound. PYTHONDONTWRITEBYTECODE is set on both sides."),
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.topic}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
