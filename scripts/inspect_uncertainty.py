"""Frequency-binned uncertainty summary for a skewed synthetic env.

Generates a log, fits the logging model with its per-action Gram
matrices, and prints mean estimation uncertainty and mean estimated logging
probability per action-frequency bin (plot-ready CSV on stdout).

Usage: python scripts/inspect_uncertainty.py [--tau 0.5] [--n 5000]
"""

import argparse
import sys

import numpy as np

from uips.core import make_rng
from uips.estimators import propensity_tables
from uips.logging_fit import N_BINS, LoggingFitConfig, fit_logging_policy, uncertainty_frequency_bins
from uips.synthetic import EnvConfig, build_env, generate_log


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bins", type=int, default=N_BINS)
    args = parser.parse_args(argv)

    env = build_env(EnvConfig(tau=args.tau, seed=args.seed))
    dataset = generate_log(env, args.n, make_rng(args.seed))
    model = fit_logging_policy(dataset, LoggingFitConfig(epochs=150, learning_rate=2.0, seed=args.seed))
    tables = propensity_tables(dataset, model)
    beta = tables.beta_rows[tables.rows, tables.actions]

    bins = uncertainty_frequency_bins(dataset, tables.us, n_bins=args.bins)
    print("bin,min_count,max_count,n_samples,mean_uncertainty,mean_beta_hat")
    for b in bins:
        mask = np.isin(dataset.actions, b["actions"])
        print(
            f"{b['bin']},{b['min_count']},{b['max_count']},{b['n_samples']},"
            f"{b['mean_uncertainty']:.6f},{float(beta[mask].mean()):.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
