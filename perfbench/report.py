"""Run every workload untraced and traced, and print the tables.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Prints each end-to-end metric by name and unit per workload, fail_frac with
the failing ops (from the traced runs, which also run the failure cases),
the per-layer table, and per workload the share of the traced wall time
that the benchmark itself spends outside every layer. Takes about
2 x seconds per workload plus set-up, and 10 s more for rate-certify's
failure cases.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, trace) -> tuple:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / ".out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def table(title, metrics, results) -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"  {'metric':32s} {'unit':9s}" + "".join(f"{n:>16s}" for n in names))
    for m in metrics:
        cells = "".join(f"{results[n]['metrics'][m['name']]['value']:16.6g}" for n in names)
        print(f"  {m['name']:32s} {m['unit']:9s}{cells}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    untraced, traced, records, traced_records = {}, {}, {}, {}
    for w in workloads:
        untraced[w], records[w] = run(w, args.seed, seconds, 0)
        traced[w], traced_records[w] = run(w, args.seed, seconds, 1)

    machine = records[workloads[0]]["machine"]
    print(f"seed {args.seed}, {seconds:g} s per run, commit {records[workloads[0]]['git_commit']}")
    print(f"{machine['cpu']}, {machine['nproc']} CPUs, {machine['memory_mb']:.0f} MB; Python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}; threads {machine['thread_caps']}; "
          f"RLIMIT_AS {records[workloads[0]]['memory_cap_bytes'] / 2**30:g} GiB")
    table("End-to-end (untraced)", spec["end_to_end"], untraced)
    for w in workloads:
        rec = records[w]
        tail = rec["percentiles"]["op_tail_norm_s"]
        raw = rec["raw"]
        print(f"  {w}: {rec['ops_per_round']} ops per round, {rec['rounds']['untraced']} rounds; op_p50_norm_s over "
              f"{rec['percentiles']['op_p50_norm_s']['samples']} ops; op_tail_norm_s is p{tail['percentile']:.1f} of "
              f"{tail['samples']} ops ({tail['beyond']} beyond)")
        print(f"    raw: setup_s {raw['setup_s']:.4f} s, wall_s {raw['wall_s']:.4f} s, op_p50_s {raw['op_p50_s']:.4f} s, "
              f"op_tail_s {raw['op_tail_s']:.4f} s; median host probe {raw['probe_s_median'] * 1e3:.2f} ms "
              f"(reference {rec['reference_probe_s'] * 1e3:.0f} ms)")

    print("\nfail_frac and failing ops (traced runs: timed ops and failure cases)")
    for w in workloads:
        rec = traced_records[w]
        print(f"  {w}: fail_frac {rec['fail_frac']:.3f}; timed ops {rec['result']['failed']}/"
              f"{rec['result']['attempted']} failed; failure cases {len(rec['failure_cases'])}; "
              f"correct={untraced[w]['correct'] and traced[w]['correct']}")
        for op in rec["failing_ops"]:
            known = "as at the reference commit" if op["known_at_reference"] else "NEW"
            print(f"    x{op['times']} {op['call']}: {op['status']} ({known}) {op['message']}")

    table("Per-layer (traced; per round)", spec["per_layer"], traced)
    print("\nThe benchmark's own time inside traced ops, outside every layer, per round")
    for w in workloads:
        m = {k: v["value"] for k, v in traced[w]["metrics"].items()}
        print(f"  {w}: bench.self_s {m['bench.self_s']:.4f} s of trace.wall_s {m['trace.wall_s']:.4f} s "
              f"({m['bench.self_s'] / m['trace.wall_s']:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
