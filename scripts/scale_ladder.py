"""Wall time and peak memory of the logging-fit pipeline on a ladder of sizes.

Each rung (action_count, n_logged) runs in a fresh child process with BLAS
pinned to one thread: build the environment, draw the log, fit the logging
policy and build its propensity tables, every table a weighting reads.
The ``fit`` stage includes the fit's Gram step. The child reports every
stage's wall time (<stage>_s), its RSS high-water mark when the stage ends
(<stage>_rss_mb, so a memory regression names its stage) and its overall
peak RSS; one JSON line per rung goes to stdout.

The fit's loss derivative holds one float64 buffer of n_logged *
action_count cells (the log drawing compares blocks of draws and the
propensity tables hold one row per distinct context), so a rung above
--max-cells cells is reported as skipped instead of run.

Usage: python scripts/scale_ladder.py [--actions 50 500 2000] [--rows 5000 50000]
                                      [--epochs 10] [--max-cells 30000000]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from uips.core import make_rng
from uips.estimators import propensity_tables
from uips.logging_fit import LoggingFitConfig, fit_logging_policy
from uips.synthetic import EnvConfig, build_env, generate_log

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def peak_rss_mb() -> float:
    """The RSS high-water mark of this process so far, in MB."""
    # ru_maxrss is in kilobytes on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_rung(action_count: int, n_logged: int, epochs: int, seed: int) -> dict:
    """Run one rung in this process; returns its stage times and RSS high-water marks."""
    times, rss = {}, {}

    def timed(stage, fn):
        start = time.perf_counter()
        result = fn()
        times[f"{stage}_s"] = round(time.perf_counter() - start, 4)
        rss[f"{stage}_rss_mb"] = peak_rss_mb()
        return result

    env = timed("build_env", lambda: build_env(EnvConfig(action_count=action_count, tau=0.5, seed=seed)))
    dataset = timed("generate_log", lambda: generate_log(env, n_logged, make_rng(seed)))
    fit_config = LoggingFitConfig(epochs=epochs, learning_rate=2.0, seed=seed)
    model = timed("fit", lambda: fit_logging_policy(dataset, fit_config))
    timed("tables", lambda: propensity_tables(dataset, model))
    return {
        "action_count": action_count,
        "n_logged": n_logged,
        "epochs": epochs,
        **times,
        "total_s": round(sum(times.values()), 4),
        **rss,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--actions", type=int, nargs="+", default=[50, 500, 2000])
    parser.add_argument("--rows", type=int, nargs="+", default=[5000, 50000])
    parser.add_argument("--epochs", type=int, default=10, help="logging-fit epochs per rung")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-cells", type=float, default=3e7,
                        help="skip rungs with more than this many n_logged * action_count cells")
    parser.add_argument("--rung", type=int, nargs=2, metavar=("ACTIONS", "ROWS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.rung:
        print(json.dumps(run_rung(*args.rung, args.epochs, args.seed)))
        return 0

    failed = 0
    for action_count in args.actions:
        for n_logged in args.rows:
            rung = {"action_count": action_count, "n_logged": n_logged, "epochs": args.epochs}
            if n_logged * action_count > args.max_cells:
                print(json.dumps({**rung, "skipped": f"more than {args.max_cells:g} cells"}), flush=True)
                continue
            proc = subprocess.run(
                [sys.executable, __file__, "--rung", str(action_count), str(n_logged),
                 "--epochs", str(args.epochs), "--seed", str(args.seed)],
                env=dict(os.environ, **BLAS_PIN), stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                failed += 1
                print(json.dumps({**rung, "failed": f"exit code {proc.returncode}"}), flush=True)
            else:
                print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
