"""Benchmark runner: one workload, one seed, one run.

A run measures set-up in fresh interpreters, imports gtlab from the
checkout's ``src``, then repeats the workload's round of ops until its time
is spent. Each op is timed around in-process calls to ``gtlab.cli.main``;
outputs are checked after the op, outside its timing. A host-speed probe
runs before each op and after the last one, and the end-to-end timings are
each op's seconds scaled by the probes on either side of it (see
``host_probe``). With tracing, the first half of the time runs untraced
rounds and the second half traced ones; then the workload's failure cases
run once, under a tracer of their own, for ``fail_frac`` and the failing ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy

import catalogue
import check
from tracing import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"
REFERENCE_DIR = BENCH_DIR / "reference"

#: Soft RLIMIT_AS while ops run. At the reference commit the Poincare
#: scan for (0.05, 1) asks for about 8 GB; under the cap it raises
#: MemoryError instead of exhausting the machine.
MEMORY_CAP = 2 * 2**30
SETUP_PROBES = 5
#: op_tail_norm_s is this percentile of op latency, by nearest rank. A run
#: holds 6 to 54 ops, and their number moves with the host's speed, so a rule
#: such as "the highest percentile with 10 ops beyond it" would jump between
#: the median and the maximum from one run to the next. p90 is the maximum of
#: a rate-certify run's 6-9 ops, and one op's noise spread it past its bound
#: over ten runs; p75 has at least one op beyond it on every workload.
TAIL_PERCENTILE = 75
#: The probe time that the normalised timings are scaled to: a round figure
#: near the probe's median on the 2-core Xeon where the benchmark was built,
#: so that there normalised seconds read close to raw ones. It is a unit, not
#: a measurement, and must never change.
REFERENCE_PROBE_S = 0.03
SUBCOMMANDS = ("simulate-2v", "simulate-3v", "rates", "modal-report", "appendix-a")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no gtlab sources, broken import)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_cli():
    """Import gtlab.cli from this checkout's src, never from elsewhere."""
    if not (SRC / "gtlab" / "cli.py").is_file():
        raise SetupError(f"no gtlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gtlab.cli

    if Path(gtlab.cli.__file__).resolve().parent != SRC / "gtlab":
        raise SetupError(f"gtlab was imported from {gtlab.cli.__file__}, not from {SRC}")
    return gtlab.cli


_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import gtlab.cli, catalogue; "
    "catalogue.build({workload!r}, {seed!r})"
)


def probe_setup(workload: str, seed: int, count: int) -> list:
    """Seconds for a fresh interpreter to import gtlab.cli and build the inputs.

    Each set-up is a dict with its raw ``seconds`` and ``probe_s``, the host
    probes just before and after it; ``normalise`` adds ``norm_seconds``.
    """
    code = _PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed)
    setups = []
    for _ in range(count):
        probe_s = host_probe()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
        setups.append({"seconds": perf_counter() - t0, "probe_s": [probe_s]})
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    normalise(setups, host_probe())
    return setups


def host_probe() -> float:
    """Seconds for a fixed piece of work that calls no gtlab code: a host-speed index.

    The benchmark shares its cores' time with other machines' work, and the
    host's speed moves by 20-40 % within minutes. The probe mixes what gtlab
    ops spend their time on: numpy arithmetic on arrays of 256 values, small
    determinants and interpreted Python loops. Its time follows the host's
    speed, so op seconds scaled by REFERENCE_PROBE_S / probe seconds vary far
    less between runs than raw seconds. It takes about 30 ms.
    """
    rng = numpy.random.default_rng(0)
    u, v = rng.random(256), rng.random(256)
    relax = 1.0 + rng.random(256)
    matrix = rng.random((6, 6))
    acc, count = 0.0, 0
    t0 = perf_counter()
    for i in range(400):
        w = 0.5 * (numpy.roll(u, 1) + numpy.roll(u, -1)) - 0.1 * (numpy.roll(v, -1) - numpy.roll(v, 1))
        v = v - 0.01 * relax * (v - w)
        u = w
        acc += float(numpy.sum(u * u + v * v)) + numpy.linalg.det(matrix)
        for j in range(60):
            count += j * i % 7
    return perf_counter() - t0


@contextlib.contextmanager
def memory_cap(limit: int):
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield limit
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_call(cli_main, argv, out: Path) -> tuple:
    """Run one CLI call in-process: (status, stderr text, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(list(argv) + ["--out", str(out)])
    except MemoryError:
        status = "MemoryError"
    except SystemExit as exc:
        status = f"exit {exc.code}"
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        status = f"{type(exc).__name__}: {exc}"
        stderr.write(traceback.format_exc())
    else:
        status = "ok" if code == 0 else f"exit {code}"
    return status, stderr.getvalue().strip(), perf_counter() - t0


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def op_label(op) -> str:
    argv = op[0]
    label = check.sigma_of(argv)
    if "--seed" in argv:
        label += f" seed={argv[argv.index('--seed') + 1]}"
    return label


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file()) if path.is_dir() else 0


class Workload:
    """The round of one workload and seed, run against gtlab.cli.main."""

    def __init__(self, name: str, seed: int, cli, ops=None):
        self.ops = catalogue.build(name, seed)[:ops]
        self.failure_cases = catalogue.failure_cases(name)
        self.cli = cli
        self.reference = load_reference(name)["calls"]
        self.work = OUT / "work" / name

    def run_op(self, index: int, op, tracer=None) -> dict:
        outs = [self.work / f"op{index}" / f"{j}-{argv[0]}" for j, argv in enumerate(op)]
        shutil.rmtree(self.work / f"op{index}", ignore_errors=True)
        label = op_label(op)
        probe_s = host_probe()
        root = tracer.begin_op(label) if tracer else None
        results = []
        t0 = perf_counter()
        for argv, out in zip(op, outs):
            results.append(run_call(self.cli.main, argv, out))
        seconds = perf_counter() - t0
        if tracer:
            tracer.end_op(root, seconds)
        captures = tracer.captures if tracer else None
        calls = []
        for argv, out, (status, message, call_s) in zip(op, outs, results):
            ref = self.reference.get(catalogue.call_key(argv))
            known = ref is not None and ref["status"] == status
            problems = []
            if status == "ok":
                try:
                    problems = check.check_call(argv, check.read_outputs(argv, out), ref, captures)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            calls.append(
                {
                    "argv": list(argv),
                    "status": status,
                    "message": message.splitlines()[-1] if status != "ok" and message else "",
                    "seconds": call_s,
                    "bytes": _bytes_under(out),
                    "problems": problems,
                    # a wrong number, or a failure the reference commit did not have
                    "incorrect": bool(problems) or (status != "ok" and not known),
                    "known_failure": status != "ok" and known,
                }
            )
        return {
            "op": index,
            "label": label,
            "seconds": seconds,
            "probe_s": [probe_s],
            "calls": calls,
            "failed": any(c["status"] != "ok" or c["problems"] for c in calls),
        }

    def run_round(self, tracer=None) -> dict:
        return {"ops": [self.run_op(i, op, tracer) for i, op in enumerate(self.ops)]}

    def run_rounds(self, budget: float, tracer=None) -> list:
        """Whole rounds until the budget is spent, ending as close to it as whole rounds allow."""
        rounds = []
        t0 = perf_counter()
        while True:
            rounds.append(self.run_round(tracer))
            elapsed = perf_counter() - t0
            if elapsed + 0.5 * elapsed / len(rounds) >= budget:
                break
        normalise([op for r in rounds for op in r["ops"]], host_probe())
        for r in rounds:
            r["seconds"] = sum(op["seconds"] for op in r["ops"])
            r["norm_seconds"] = sum(op["norm_seconds"] for op in r["ops"])
        return rounds

    def run_failure_cases(self, tracer) -> list:
        first = len(self.ops)
        return [self.run_op(first + i, op, tracer) for i, op in enumerate(self.failure_cases)]


def normalise(ops, last_probe: float) -> None:
    """Scale each op's (or set-up's) seconds to the reference probe time.

    An op's host speed is the mean of the probe run just before it and the
    probe run just before the next op (after the last op, ``last_probe``).
    """
    probes = [op["probe_s"][0] for op in ops] + [last_probe]
    for op, after in zip(ops, probes[1:]):
        op["probe_s"].append(after)
        op["norm_seconds"] = op["seconds"] * REFERENCE_PROBE_S / statistics.fmean(op["probe_s"])


def traced_by(tracer, fn, *args):
    """``fn(*args, tracer)`` with the tracer's wrappers installed."""
    tracer.install()
    try:
        return fn(*args, tracer)
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# metrics


def tail(latencies) -> dict:
    """The TAIL_PERCENTILE-th percentile by nearest rank, with the samples it rests on."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = math.ceil(TAIL_PERCENTILE * n / 100) - 1
    return {"value": ordered[k], "percentile": float(TAIL_PERCENTILE), "samples": n, "beyond": n - k - 1}


def op_latencies(rounds, key="norm_seconds") -> list:
    return [op[key] for r in rounds for op in r["ops"]]


def call_latencies(rounds, sub) -> list:
    return [c["seconds"] for r in rounds for op in r["ops"] for c in op["calls"] if c["argv"][0] == sub]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_times(rounds) -> list:
    return [op["probe_s"][0] for r in rounds for op in r["ops"]]


def end_to_end(setups, rounds) -> dict:
    latencies = op_latencies(rounds)
    return {
        "setup_s": (statistics.median(s["norm_seconds"] for s in setups), "s"),
        "wall_norm_s": (statistics.median(r["norm_seconds"] for r in rounds), "s"),
        "op_p50_norm_s": (statistics.median(latencies), "s"),
        "op_tail_norm_s": (tail(latencies)["value"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, traced, untraced, failure_tracer, failures) -> dict:
    """Per-round layer figures from the traced rounds, timings from the untraced ones.

    The failure cases add their failure counts once, and their ops to fail_frac.
    """
    rounds = len(traced)
    layers = tracer.layer_totals()
    counters = tracer.counters

    def per_round(value):
        return value / rounds

    def total(*names):
        return sum(n.total for n in tracer.named(*names))

    def calls(*names):
        return sum(n.calls for n in tracer.named(*names))

    simulate = tracer.named("solver.simulate_2v", "solver.simulate_3v")
    recording = 0.0
    stack = [c for node in simulate for c in node.children.values()]
    while stack:
        node = stack.pop()
        if node.layer in ("torus", "entropy"):
            recording += node.self_time
        stack.extend(node.children.values())
    simulate_s = sum(n.total for n in simulate)
    fits = [n for n in tracer.named("solver.fit_decay_rate", "solver.fit_envelope_rate")
            if not n.parent.name.startswith("solver.fit_")]
    untraced_wall = statistics.median(r["norm_seconds"] for r in untraced)
    traced_wall = statistics.median(r["norm_seconds"] for r in traced)
    seeds = counters.get("telegrapher.newton_seeds", 0)
    ops = [op for r in traced + untraced for op in r["ops"]] + failures

    def failure_count(name):
        return per_round(counters.get(name, 0)) + failure_tracer.counters.get(name, 0)

    m = {}
    for layer in LAYERS:
        if layer in ("torus", "entropy", "rates", "modal"):
            m[f"{layer}.calls"] = (per_round(layers.get(layer, (0, 0))[0]), "count")
        m[f"{layer}.self_s"] = (per_round(layers.get(layer, (0, 0.0))[1]), "s")
    m["torus.gridfunctions"] = (per_round(calls("torus.GridFunction")), "count")
    m["solver.record_share"] = (recording / simulate_s if simulate_s else 0.0, "fraction")
    m["solver.simulate_s"] = (per_round(simulate_s), "s")
    m["solver.steps"] = (per_round(counters.get("solver.steps", 0)), "count")
    m["solver.records"] = (per_round(counters.get("solver.records", 0)), "count")
    m["solver.cell_updates_per_s"] = (
        per_round(counters.get("solver.cell_updates", 0)) / untraced_wall, "1/s")
    m["solver.fit_s"] = (per_round(sum(n.total for n in fits)), "s")
    m["solver.csv_s"] = (per_round(total("solver.Trajectory.to_csv")), "s")
    m["cli.csv_bytes"] = (
        statistics.median(sum(c["bytes"] for op in r["ops"] for c in op["calls"]) for r in untraced), "B")
    m["poincare.scans"] = (per_round(calls("poincare.weighted_poincare")), "count")
    m["poincare.scan_s"] = (per_round(total("poincare.weighted_poincare")), "s")
    for key in ("det_points", "fixed_point_iterates"):
        m[f"poincare.{key}"] = (per_round(counters.get(f"poincare.{key}", 0)), "count")
    m["poincare.mem_failures"] = (failure_count("poincare.mem_failures"), "count")
    m["telegrapher.searches"] = (per_round(calls("telegrapher.telegrapher_gap")), "count")
    m["telegrapher.gap_s"] = (per_round(total("telegrapher.telegrapher_gap")), "s")
    m["telegrapher.newton_seeds"] = (per_round(seeds), "count")
    m["telegrapher.roots"] = (per_round(counters.get("telegrapher.roots", 0)), "count")
    m["telegrapher.roots_per_seed"] = (counters.get("telegrapher.roots", 0) / seeds if seeds else 0.0, "fraction")
    m["telegrapher.failures"] = (failure_count("telegrapher.failures"), "count")
    for sub in SUBCOMMANDS:
        lat = call_latencies(untraced, sub)
        m[f"cli.{sub}.p50_s"] = (statistics.median(lat) if lat else 0.0, "s")
    m["fail_frac"] = (sum(op["failed"] for op in ops) / len(ops), "fraction")
    m["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    m["trace.wall_s"] = (per_round(sum(r["seconds"] for r in traced)), "s")
    m["bench.self_s"] = (per_round(layers.get("bench", (0, 0.0))[1]), "s")
    raw = op_latencies(untraced, "seconds")
    m["wall_s"] = (statistics.median(r["seconds"] for r in untraced), "s")
    m["op_p50_s"] = (statistics.median(raw), "s")
    m["op_tail_s"] = (tail(raw)["value"], "s")
    m["host.probe_s"] = (statistics.median(probe_times(untraced + traced)), "s")
    return m


# ---------------------------------------------------------------------------
# run record


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref).strip()
    if direct:
        return direct
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {
        "cpu": cpu,
        "nproc": nproc(),
        "memory_mb": mem_kb / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def failing_ops(ops) -> list:
    seen = {}
    for op in ops:
        for c in op["calls"]:
            if c["status"] != "ok" or c["problems"]:
                key = (op["label"], c["argv"][0])
                entry = seen.setdefault(key, {
                    "op": op["label"], "call": " ".join(c["argv"]), "status": c["status"],
                    "message": c["message"], "problems": c["problems"][:5],
                    "known_at_reference": c["known_failure"], "times": 0})
                entry["times"] += 1
    return list(seen.values())


# ---------------------------------------------------------------------------
# one run


def run(workload, seed, seconds, trace, *, probes=SETUP_PROBES, ops=None) -> dict:
    """Run one workload and return its result line, run record and spans.

    The result line's ``attempted`` and ``failed`` count the timed ops; the
    failure cases, run only with tracing, count in ``fail_frac`` and the
    run record's failing ops, and a failure the reference commit did not
    have makes the run incorrect.
    """
    setups = probe_setup(workload, seed, probes) if not trace else []
    cli = import_cli()
    bench = Workload(workload, seed, cli, ops)
    tracer = failure_tracer = None
    traced, failures = [], []
    with memory_cap(MEMORY_CAP) as cap:
        if trace:
            untraced = bench.run_rounds(seconds / 2)
            tracer = Tracer()
            traced = traced_by(tracer, bench.run_rounds, seconds / 2)
            failure_tracer = Tracer()
            failures = traced_by(failure_tracer, bench.run_failure_cases)
        else:
            untraced = bench.run_rounds(seconds)
    shutil.rmtree(bench.work, ignore_errors=True)

    timed = [op for r in untraced + traced for op in r["ops"]]
    everything = timed + failures
    metrics = (per_layer(tracer, traced, untraced, failure_tracer, failures) if trace
               else end_to_end(setups, untraced))
    latencies = op_latencies(untraced)
    result = {
        "correct": not any(c["incorrect"] for op in everything for c in op["calls"]),
        "attempted": len(timed),
        "failed": sum(op["failed"] for op in timed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "machine": machine(),
        "memory_cap_bytes": cap,
        "setups": setups,
        "ops_per_round": len(bench.ops),
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "reference_probe_s": REFERENCE_PROBE_S,
        "round_seconds": {"untraced": [r["seconds"] for r in untraced], "traced": [r["seconds"] for r in traced]},
        "round_norm_seconds": {"untraced": [r["norm_seconds"] for r in untraced],
                               "traced": [r["norm_seconds"] for r in traced]},
        "raw": {"wall_s": statistics.median(r["seconds"] for r in untraced),
                "op_p50_s": statistics.median(op_latencies(untraced, "seconds")),
                "op_tail_s": tail(op_latencies(untraced, "seconds"))["value"],
                "probe_s_median": statistics.median(probe_times(untraced)),
                "setup_s": statistics.median(s["seconds"] for s in setups) if setups else None},
        "percentiles": {
            "op_p50_norm_s": {"percentile": 50.0, "samples": len(latencies)},
            "op_tail_norm_s": {k: v for k, v in tail(latencies).items() if k != "value"},
        },
        "failure_cases": [{"label": op["label"], "status": [c["status"] for c in op["calls"]],
                           "seconds": op["seconds"]} for op in failures],
        "fail_frac": sum(op["failed"] for op in everything) / len(everything),
        "failing_ops": failing_ops(everything),
        "ops": [{"label": op["label"], "seconds": op["seconds"], "norm_seconds": op["norm_seconds"],
                 "probe_s": op["probe_s"],
                 "calls": [{k: c[k] for k in ("argv", "status", "seconds", "bytes")} for c in op["calls"]]}
                for op in untraced[0]["ops"]],
        "result": result,
    }
    return {"result": result, "record": record, "spans": tracer.export() if trace else None}
