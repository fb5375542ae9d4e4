"""Tests of the benchmark itself: output schema, metric names, a non-vacuous checker.

    python3 -m pytest perfbench -q

Each workload runs for one round of one op, untraced and traced; a traced
rate-certify run also runs its two failure cases (about 10 s).
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import bench
import catalogue
import check

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
#: The most of a traced op's time the benchmark itself may spend, outside every layer.
BENCH_SHARE_MAX = 0.01


@pytest.fixture(scope="module")
def cli():
    return bench.import_cli()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", catalogue.WORKLOADS)
def test_tiny_run_schema(workload, trace, cli):
    out = bench.run(workload, 1, 0.0, bool(trace), probes=1, ops=1)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1 + trace, 0)  # traced runs add a traced round
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert json.loads(json.dumps(result)) == result
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # the layers' self times cover the traced wall time but for the benchmark's own share
        assert 0 < metrics["bench.self_s"] < BENCH_SHARE_MAX * metrics["trace.wall_s"]
        failing = {(op["call"], op["status"], op["known_at_reference"]) for op in out["record"]["failing_ops"]}
        if workload == "rate-certify":
            assert failing == {
                ("appendix-a --sigma pc:0.05@pi,1@2pi", "MemoryError", True),
                ("appendix-a --sigma pc:0.25@pi,4@2pi", "exit 3", True),
            }
            assert metrics["fail_frac"] == pytest.approx(2 / 4)
            assert metrics["poincare.mem_failures"] >= 1 and metrics["telegrapher.failures"] >= 1
        else:
            assert failing == set() and metrics["fail_frac"] == 0
        import gtlab.solver
        import gtlab.torus

        assert not hasattr(gtlab.solver.entropy_2v, "__wrapped__")
        assert not hasattr(gtlab.torus.GridFunction.__post_init__, "__wrapped__")


def _run_and_read(cli, argv, tmp_path):
    status, message, _ = bench.run_call(cli.main, argv, tmp_path)
    assert status == "ok", message
    return check.read_outputs(argv, tmp_path)


def test_perturbed_reference_fails_the_check(cli, tmp_path):
    reference = bench.load_reference("decay-dense")["calls"]
    for argv in catalogue.decay_dense_op("const:2", 0):
        ref = reference[catalogue.call_key(argv)]
        got = _run_and_read(cli, argv, tmp_path / argv[0])
        assert check.check_call(argv, got, ref) == []
        bad = copy.deepcopy(ref)
        outputs = bad["outputs"]
        if argv[0].startswith("simulate"):
            outputs["summary"][0][3] *= 1 + 1e-4  # fitted rate
            outputs["trajectory"]["sample"][1][1] *= 1 + 1e-6  # entropy at T/8
            assert len(check.check_call(argv, got, bad)) == 2
        else:
            rows = outputs["rates" if argv[0] == "rates" else "modal"]
            rows[0][2] += 1e-6
            assert len(check.check_call(argv, got, bad)) == 1


def test_checker_catches_wrong_rates_and_broken_invariants():
    argv = catalogue.rate_certify_op(check.PAPER_SIGMA)[1]
    ref = bench.load_reference("rate-certify")["calls"][catalogue.call_key(argv)]
    got = copy.deepcopy(ref["outputs"])
    assert check.check_call(argv, got, ref) == []
    got["comparison"]["improved-poincare"] += 2e-5
    assert len(check.check_call(argv, got, ref)) == 1
    got["comparison"]["improved-poincare"] = 0.9  # above the optimal rate, off the paper value
    assert len(check.check_call(argv, got, ref)) == 3
    capture = copy.deepcopy(ref["telegrapher"])
    assert check.check_call(argv, ref["outputs"], ref, [capture]) == []
    assert check.check_call(argv, ref["outputs"], ref, None) == []  # untraced: no root set to check
    assert len(check.check_call(argv, ref["outputs"], ref, [])) == 1  # traced, but the search went unseen
    assert len(check.check_call(argv, ref["outputs"], ref, [capture, capture])) == 1
    capture["roots"] = capture["roots"][1:]
    capture["gap"] += 1e-6
    assert len(check.check_call(argv, ref["outputs"], ref, [capture])) >= 1


def test_tail_rule():
    assert bench.tail(range(6)) == {"value": 4, "percentile": 75.0, "samples": 6, "beyond": 1}
    assert [bench.tail(range(n))["beyond"] for n in (9, 12, 20, 21, 54)] == [2, 3, 5, 5, 13]
    assert bench.tail(range(40))["value"] == 29


def test_normalisation_uses_the_probes_on_either_side():
    ops = [{"seconds": 1.0, "probe_s": [0.03]}, {"seconds": 2.0, "probe_s": [0.06]}]
    bench.normalise(ops, 0.06)
    assert [op["probe_s"] for op in ops] == [[0.03, 0.06], [0.06, 0.06]]
    ref = bench.REFERENCE_PROBE_S
    assert ops[0]["norm_seconds"] == pytest.approx(1.0 * ref / 0.045)
    assert ops[1]["norm_seconds"] == pytest.approx(2.0 * ref / 0.06)


def test_inputs_follow_the_seed():
    for workload in catalogue.WORKLOADS:
        assert catalogue.build(workload, 7) == catalogue.build(workload, 7)
        every = {catalogue.call_key(a) for op in catalogue.every_op(workload) for a in op}
        for seed in range(20):
            assert {catalogue.call_key(a) for op in catalogue.build(workload, seed) for a in op} <= every
    assert catalogue.build("decay-dense", 1) != catalogue.build("decay-dense", 2)
    # the seed changes initial data and order, never the profiles a round runs
    for workload in catalogue.WORKLOADS:
        profiles = {tuple(sorted(check.sigma_of(op[0]) for op in catalogue.build(workload, seed)))
                    for seed in range(20)}
        assert len(profiles) == 1


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-dense", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / "perfbench" / ".out").exists()
