"""The scripts: the examples run to the end on a small grid, bench_pairs aggregates run records, and
telegrapher_sweep searches and compares its profiles."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, expect",
    [
        ("decay_vs_theory.py", "optimal 0.4342"),
        # the three pieces 1, 4, 0.5 broken at pi/2 and 3 pi/2: half of 0.900755
        ("decay_vs_theory.py", "optimal 0.4504"),
    ],
)
def test_script_exits_cleanly(script, expect):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n", "64"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert expect in out.stdout


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(wall: float, rss: float, failed: int = 0, correct: bool = True) -> dict:
    """A canned run record, as perfbench/run.py writes it, holding only what bench_pairs reads."""
    metrics = {"wall_norm_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"result": {"correct": correct, "attempted": 600, "failed": failed, "metrics": metrics}}


def test_bench_pairs_aggregates_run_records():
    # the pairs' aggregation alone, on canned records: no benchmark runs
    bench_pairs = _script("bench_pairs")
    end_to_end = [
        {"name": "wall_norm_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
    parent_wall = [0.040, 0.041, 0.042, 0.043, 0.044, 0.045, 0.046, 0.047, 0.048, 0.049]
    change_wall = [0.033, 0.034, 0.035, 0.036, 0.037, 0.038, 0.039, 0.040, 0.050, 0.041]
    rss = [42.0, 42.1, 42.0, 42.2, 42.0, 42.1, 42.0, 42.0, 42.3, 42.0]
    parent = [_record(w, r) for w, r in zip(parent_wall, rss)]
    change = [_record(w, r, failed=int(i == 3), correct=i != 5) for i, (w, r) in enumerate(zip(change_wall, rss))]
    block = bench_pairs.workload_block(list(range(1, 11)), parent, change, end_to_end)
    assert block["seeds"] == list(range(1, 11))
    assert block["correct"] == {"parent": True, "change": False}
    assert block["failed_ops"] == {"parent": 0, "change": 1}
    assert block["attempted_ops"]["change"] == [600] * 10
    wall = block["metrics"]["wall_norm_s"]
    assert (wall["unit"], wall["parent_median"], wall["change_median"]) == ("s", 0.0445, 0.0375)
    assert wall["parent_quartiles"] == [0.04225, 0.04675]
    assert wall["parent_iqr"] == 0.0045
    assert wall["change_better_pairs"] == "9/10"  # seed 9 lost
    assert wall["gain"] and wall["within_bound"]
    assert wall["parent_runs"] == parent_wall and wall["change_runs"] == change_wall
    memory = block["metrics"]["peak_rss_mb"]
    assert memory["change_better_pairs"] == "0/10"  # every pair a tie
    assert not memory["gain"] and memory["within_bound"] and memory["parent_iqr"] == 0.1


def test_bench_pairs_gain_and_bound_by_direction():
    bench_pairs = _script("bench_pairs")
    # a higher-is-better metric that rises in every pair, by more than the parent's spread
    up = bench_pairs.compare([1.0, 1.1, 1.2, 1.3], [2.0, 2.1, 2.2, 2.3], "higher", 0.25)
    assert up["change_better_pairs"] == "4/4" and up["gain"] and up["within_bound"]
    # eight wins in ten is no gain; a median 30 % worse is past a bound of 25 %
    lower = bench_pairs.compare([1.0] * 10, [0.9] * 8 + [1.1] * 2, "lower", 0.25)
    assert lower["change_better_pairs"] == "8/10" and not lower["gain"]
    assert not bench_pairs.compare([1.0] * 4, [1.3] * 4, "lower", 0.25)["within_bound"]


def test_telegrapher_sweep_rows_and_comparison():
    # four of the 333 profiles: a seeded pair whose gap lies above the strip, {1,4}, the
    # three-piece pc:1@1,4@3,0.5@2pi and the first random many-piece profile
    sweep = _script("telegrapher_sweep")
    specs = sweep.profiles()
    assert len(specs) == 333 and len(set(specs)) == 333
    assert specs[300] == "pc:1.0@pi,4.0@2pi" and specs[307] == "pc:1@1,4@3,0.5@2pi"
    assert specs[309].startswith("pc:") and specs[309].endswith("@2pi")
    rows = [sweep.search(i, specs[i]) for i in (2, 300, 307, 309)]
    assert [row["status"] for row in rows] == ["NumericalError", "ok", "ok", "ok"]
    failed, pair = rows[0], rows[1]
    assert failed["stage"] == "no eigenvalues found in the search strip"
    assert failed["count"] is None and failed["roots"] == []
    assert failed["message"].startswith("telegrapher gap: no eigenvalues found in the search strip 0 < Re gamma <")
    assert pair["gap"] == pytest.approx(2.72831, abs=5e-6)
    assert pair["count"] == 17 and len(pair["roots"]) == 17 and pair["d_batch_calls"] > 0
    # every call evaluates D at one point at least; an earlier output without the field reads n/a
    assert all(row["d_evaluations"] >= row["d_batch_calls"] > 0 for row in rows)
    calls, evaluations = (sum(row[key] for row in rows) for key in ("d_batch_calls", "d_evaluations"))
    assert sweep.totals(rows) == f"_d_batch calls {calls}, D evaluations {evaluations}"
    older = [{key: value for key, value in row.items() if key != "d_evaluations"} for row in rows]
    assert sweep.totals(older) == f"_d_batch calls {calls}, D evaluations n/a"
    # a sweep matches itself; a moved root, a changed count or a changed stage differ
    assert sweep.compare(rows, rows) == ([], 0.0)
    moved = json.loads(json.dumps(rows))
    moved[1]["roots"][0][0] *= 1.0 + 1e-9
    moved[2]["count"] += 1
    moved[0]["stage"] = "root search"
    differ, largest = sweep.compare(rows, moved)
    assert differ == [2, 300, 307] and 1e-10 < largest < 1e-8
