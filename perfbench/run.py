"""Run one benchmark workload and print its result as the last line of output.

    python3 perfbench/run.py --workload decay-dense --seed 1 --seconds 30 --trace 0

With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones. The run record (machine, versions, caps, percentiles,
failing ops) goes to perfbench/.out/<workload>-seed<seed>-trace<trace>.json,
and the traced run's span tree to perfbench/.out/<workload>-seed<seed>-spans.json.
"""

import argparse
import json
import os
import sys

# BLAS reads its thread count when numpy is first imported, which importing
# bench does, so the caps are set first; set-up probes inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import bench  # noqa: E402
import catalogue  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    record, result = out["record"], out["result"]
    bench.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(bench.OUT / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if out["spans"] is not None:
        with open(bench.OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(out["spans"], fh)

    rounds = record["rounds"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {rounds['untraced']} untraced and "
          f"{rounds['traced']} traced rounds of {record['ops_per_round']} ops; "
          f"{result['failed']}/{result['attempted']} ops failed; correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    for op in record["failing_ops"]:
        known = "as at the reference commit" if op["known_at_reference"] else "NEW"
        print(f"  failed x{op['times']}: {op['call']}: {op['status']} ({known}) {op['message']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
