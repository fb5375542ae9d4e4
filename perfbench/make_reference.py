"""Write reference/<workload>.json: the outputs of every call a workload can make.

    python3 perfbench/make_reference.py [workload ...]

Run it only at a commit whose outputs are trusted. The stored files are the
outputs of the commit that introduced the benchmark; regenerating them at a
later commit would make the output check compare a change with itself.
"""

import json
import os
import shutil
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import bench  # noqa: E402
import catalogue  # noqa: E402
import check  # noqa: E402


def telegrapher_reference(sigma: str) -> dict:
    """Gap and root set of the telegrapher search for one two-piece profile."""
    from gtlab import telegrapher
    from gtlab.profiles import RelaxationProfile

    problem = telegrapher.rescale_sigma(RelaxationProfile.parse(sigma))
    result = telegrapher.telegrapher_gap(problem)
    return {
        "gap": result.gap,
        "l1_norm": problem.l1_norm,
        "roots": [[r.real, r.imag] for r in result.roots],
    }


def reference(workload: str, cli) -> dict:
    calls = {}
    work = bench.OUT / "reference-work"
    for op in catalogue.every_op(workload):
        for argv in op:
            key = catalogue.call_key(argv)
            if key in calls:
                continue
            out = work / argv[0]
            shutil.rmtree(out, ignore_errors=True)
            status, message, seconds = bench.run_call(cli.main, argv, out)
            entry = {"status": status, "message": message.splitlines()[-1] if message else "",
                     "seconds": round(seconds, 3)}
            if status == "ok":
                outputs = check.read_outputs(argv, out)
                broken = check.invariants(argv, outputs)
                if broken:
                    print(f"{workload}: invariant fails for {key}: {broken}", flush=True)
                    entry["invariant_problems"] = broken
                outputs.pop("_data", None)
                entry["outputs"] = outputs
                if argv[0] == "appendix-a":
                    entry["telegrapher"] = telegrapher_reference(check.sigma_of(argv))
            calls[key] = entry
            print(f"{workload}: {status:12s} {seconds:7.3f} s  {key}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "git_commit": bench.git_commit(),
        "memory_cap_bytes": bench.MEMORY_CAP,
        "calls": calls,
    }


def main(argv) -> int:
    cli = bench.import_cli()
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or catalogue.WORKLOADS:
        with bench.memory_cap(bench.MEMORY_CAP):
            ref = reference(workload, cli)
        with open(bench.REFERENCE_DIR / f"{workload}.json", "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
