"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ope-desk --seed 3 --seconds 32 --trace 0

Run from anywhere; paths are resolved from this file. The uips package is
imported from ``src/`` of the same checkout. Set-up is measured in
the measured process and in fresh processes that only set up and exit,
half of them started before the measured process and half after it. Every child process gets BLAS pinned to one
thread through its own environment. With ``--trace 0`` the last line
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics.
The line before it records the environment, the unit count and the
percentile behind ``unit_tail_s``. A fuller record goes to
``.perfbench/results/``. Exit code 2 means the checkout holds no uips
source tree, 1 that the measured process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = ROOT / ".perfbench" / "results"
WORKLOADS = ("ope-desk", "sweep-desk", "cli-wide")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py; returns its result line and the wall-clock time it was spawned."""
    env = dict(os.environ, **BLAS_PIN)
    spawned = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1]), spawned


def tail(values: list[float]) -> tuple[float, float, bool]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, rule met). With ten samples or fewer no
    percentile qualifies; the slowest sample is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return ordered[k], 100.0 * (k + 1) / n, True
    return ordered[-1], 100.0, False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one uips benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uips" / "__init__.py").is_file():
        print(f"no uips source tree under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setups = []

    def probe(count):
        for _ in range(count):
            ready, spawned = run_child(common + ["--probe"], deadline)
            setups.append(ready["ready"] - spawned)

    try:
        # probes on both sides of the measured run sample the machine over the whole run
        probe(SETUP_PROBES // 2)
        result, spawned = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(result["ready"] - spawned)
        probe(SETUP_PROBES - SETUP_PROBES // 2)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    units = result["unit_times"]
    tail_s, tail_pct, tail_rule_met = tail(units)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = dict(result["layers"])
        metrics["cli.output_bytes"] = result["output_bytes"]
        metrics["cli.byte_identical_outputs"] = result["byte_identical_outputs"]
        metrics["error_rate"] = failed / attempted
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(result["round_times"]),
            "unit_p50_s": statistics.median(units),
            "unit_tail_s": tail_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())
        },
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": result["environment"],
        "rounds": result["rounds"],
        "units": len(units),
        "unit_tail_percentile": tail_pct,
        "unit_tail_rule_met": tail_rule_met,
        "setup_samples_s": setups,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"info": info, "result": line, "worker": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name == "error_rate" or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
