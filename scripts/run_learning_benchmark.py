"""Policy-learning benchmark: grid sweep per method, mean test metrics over seeds.

The methods and their grids are the ``sweep.methods`` of configs/desk.json.

Each seed regenerates the logged dataset, refits the logging model, trains
every grid point of every method together in one stacked step loop (one
policy per point), selects per method by validation NDCG, and reports the
selected point's test metrics.

Usage: python scripts/run_learning_benchmark.py [--seeds 10] [--tau 0.5]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from uips.cli import load_config, run_sweep
from uips.logging_fit import LoggingFitConfig
from uips.synthetic import EnvConfig, build_env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args(argv)

    methods = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk.json")["sweep"]["methods"]
    env = build_env(EnvConfig(tau=args.tau, seed=0))
    train_section = {"learning_rate": 0.5, "epochs": args.epochs, "batch_size": 500}
    fit_config = LoggingFitConfig(epochs=150, learning_rate=2.0)

    per_method = {name: {"p": [], "r": [], "ndcg": []} for name in methods}
    for seed in range(args.seeds):
        rows = run_sweep(env, methods, train_section, fit_config, seed=seed, k_eval=5, n_logged=5000)
        for row in rows:
            per_method[row["method"]]["p"].append(row["test_p_at_k"])
            per_method[row["method"]]["r"].append(row["test_r_at_k"])
            per_method[row["method"]]["ndcg"].append(row["test_ndcg_at_k"])
        print(f"seed {seed}: " + "  ".join(f"{r['method']}={r['test_ndcg_at_k']:.4f}" for r in rows))

    print(f"\ntau={args.tau}, {args.seeds} seeds, mean +- std of test metrics @5:")
    for name, cols in per_method.items():
        p, r, ndcg = (np.array(cols[k]) for k in ("p", "r", "ndcg"))
        print(
            f"  {name:10s} P@5 {p.mean():.4f}+-{p.std():.4f}  "
            f"R@5 {r.mean():.4f}+-{r.std():.4f}  NDCG@5 {ndcg.mean():.4f}+-{ndcg.std():.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
