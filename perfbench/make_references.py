"""Regenerate the stored reference outputs of one or all workloads.

    python3 perfbench/make_references.py [--workload NAME] [--size full|tiny]

Run this only when the program's outputs change on purpose, and say so in
CHANGES.md: the references are what every benchmark run is checked
against. BLAS is pinned to one thread, as in a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import check  # noqa: E402
import worker  # noqa: E402

#: Cases per workload and size; a run draws its units from these.
POOLS = {
    "full": {"ope-desk": 24, "sweep-desk": 12, "cli-wide": 6},
    "tiny": {"ope-desk": 3, "sweep-desk": 3, "cli-wide": 3},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    worker.import_uips()
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        inputs = workload.build(args.size)
        cases = {}
        for case in range(POOLS[args.size][name]):
            result = worker.run_round(workload, inputs, [case])
            _, outputs, error = result["outputs"][0]
            if error:
                print(error, file=sys.stderr)
                return 1
            cases[str(case)] = outputs
            print(f"{name} case {case}: {result['time']:.2f} s", file=sys.stderr)
        path = check.reference_path(name, args.size)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_references(path, {
            "workload": name,
            "size": args.size,
            "tolerance": {"rel": check.REL_TOL, "abs": check.ABS_TOL},
            "environment": worker.environment(),
            "cases": cases,
        })
    return 0


def write_references(path, doc: dict) -> None:
    """JSON with one line per top-level field and per case, so diffs show which cases changed."""
    fields = [f"{json.dumps(k)}: {json.dumps(doc[k], sort_keys=True)}" for k in sorted(doc) if k != "cases"]
    cases = [
        f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(doc["cases"].items(), key=lambda kv: int(kv[0]))
    ]
    with open(path, "w") as fh:
        fh.write("{\n " + ",\n ".join(fields) + ',\n "cases": {\n' + ",\n".join(cases) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
