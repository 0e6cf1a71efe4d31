"""One benchmark process: set up, run rounds for a time budget, check outputs.

run.py starts this script with BLAS pinned to one thread. It imports uips
from the checkout's ``src`` directory only, builds the workload's inputs
and then runs rounds, each a fixed number of units, until the time budget
is spent. Outputs are checked against the stored references after each
round, outside the timed section. With ``--trace 1`` every untraced round
is followed by a traced round on the same cases, whose outputs must be
identical to the untraced ones.

With ``--probe`` the process only sets up and exits, so that run.py can
measure set-up time several times per run. The last line of standard
output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".perfbench" / "results"


def import_uips():
    sys.path.insert(0, str(SRC))
    import uips

    if Path(uips.__file__).resolve().parent != (SRC / "uips").resolve():
        raise ImportError(f"uips imported from {uips.__file__}, not from {SRC}")


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def case_stream(pool: list[int], seed: int):
    """The run's cases: a seed-determined shuffle of the reference pool, repeated."""
    order = list(pool)
    random.Random(seed).shuffle(order)
    return itertools.cycle(order)


def run_round(workload, inputs, cases, tracer=None) -> dict:
    """Run the units of one round; only the unit calls are timed."""
    unit_times, raws = [], []
    for case in cases:
        span = tracer.span("bench.unit", case=case) if tracer else contextlib.nullcontext()
        error = raw = None
        start = time.perf_counter()
        try:
            with span:
                raw = workload.run_unit(inputs, case, tracer)
        except Exception:  # noqa: BLE001 - a failed unit is counted, the run goes on
            error = traceback.format_exc()
        unit_times.append(time.perf_counter() - start)
        raws.append((case, raw, error))
    outputs = [(case, None if error else workload.outputs(raw), error) for case, raw, error in raws]
    return {"time": sum(unit_times), "unit_times": unit_times, "outputs": outputs}


class Checker:
    """Counts operations and failures against the stored references."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.cases = references["cases"]
        self.attempted = self.failed = 0
        self.byte_identical = self.output_bytes = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, round_result: dict, untraced: dict | None = None) -> None:
        """Check a round against the references and, if given, its untraced twin."""
        twins = {case: out for case, out, _ in untraced["outputs"]} if untraced else None
        for case, outputs, error in round_result["outputs"]:
            expected = self.cases[str(case)]
            for op in self.workload.operations:
                self.attempted += 1
                where = f"{self.workload.name} case {case} {op}"
                if error:
                    self.fail(f"{where}: raised\n{error}")
                    continue
                mismatches = check.compare_operation(expected[op], outputs[op])
                if mismatches:
                    self.fail(f"{where}: {len(mismatches)} mismatches, first: {mismatches[:3]}")
                elif twins is not None and (twins.get(case) or {}).get(op) != outputs[op]:
                    self.fail(f"{where}: traced output differs from the untraced output")
                if untraced is None:
                    self.byte_identical += check.byte_identical(expected[op], outputs[op])
                    self.output_bytes += sum(doc.get("bytes", 0) for doc in outputs[op].values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true", help="set up, report the time and exit")
    args = parser.parse_args(argv)

    import_uips()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.size)
    ready = time.time()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    references = check.load_references(workload.name, args.size)
    checker = Checker(workload, references)
    cases = case_stream(sorted(int(c) for c in references["cases"]), args.seed)
    tracer = tracing.Tracer() if args.trace else None
    untraced_times, traced_times, unit_times = [], [], []
    rounds = 0
    begin = time.perf_counter()
    while True:
        round_cases = [next(cases) for _ in range(workload.units_per_round)]
        plain = run_round(workload, inputs, round_cases)
        checker.check(plain)
        untraced_times.append(plain["time"])
        unit_times += plain["unit_times"]
        if tracer is not None:
            with tracing.installed(tracer):
                traced = run_round(workload, inputs, round_cases, tracer)
            checker.check(traced, untraced=plain)
            traced_times.append(traced["time"])
        rounds += 1
        elapsed = time.perf_counter() - begin
        # start another round only if it is expected to end by the budget, give or take half a round
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break

    result = {
        "ready": ready,
        "rounds": rounds,
        "round_times": untraced_times,
        "unit_times": unit_times,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "messages": checker.messages,
        "byte_identical_outputs": checker.byte_identical / rounds,
        "output_bytes": checker.output_bytes / rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            checker.fail(f"tracing wrappers left installed: {leftovers}")
            result["failed"] = checker.failed
        layers = tracing.layer_metrics(tracer.spans, rounds)
        layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced_times)
        layers["trace.wall_s"] = statistics.median(traced_times)
        result["layers"] = layers
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = RESULTS_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl"
        tracer.write_jsonl(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    for message in checker.messages:
        print(message, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
