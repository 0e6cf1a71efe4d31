"""Off-policy evaluation MSE table across logging-policy temperatures.

For each temperature, regenerates logged data per seed (a fixed number of
draws per test context), refits the logging model, and reports the MSE of
each estimator against the exact policy value. Grid-tuned estimators
(shrinkage, uips) report their best grid point by mean MSE.

Usage: python scripts/run_ope_table.py [--seeds 20] [--out ope_table.csv]
"""

import argparse
import sys

from uips.cli import EPSILON
from uips.estimators import Weighting, ope_mse_experiment
from uips.logging_fit import LoggingFitConfig
from uips.synthetic import EnvConfig, build_env, epsilon_greedy_policy
from uips.weights import DEFAULT_SWEEP_GRID, UipsHyperParams

LAM_GRID = DEFAULT_SWEEP_GRID["lam"]
GAMMA_GRID = [0.1, 0.5, 1, 2, 5, 25]
ETA1_GRID = [0.5, 1.0]


def estimator_specs():
    specs = [
        ("ips_true", Weighting(kind="ips_true")),
        ("bips", Weighting(kind="bips")),
        ("minvar", Weighting(kind="minvar")),
        ("stablevar", Weighting(kind="stablevar")),
    ]
    for lam in LAM_GRID:
        specs.append((f"shrinkage[{lam}]", Weighting(kind="shrinkage", lam=lam)))
        for gamma in GAMMA_GRID:
            for eta1 in ETA1_GRID:
                specs.append((
                    f"uips[{lam},{gamma},{eta1}]",
                    Weighting(kind="uips", hp=UipsHyperParams(lam=lam, gamma=gamma, eta1=eta1, eta2=100.0)),
                ))
    return specs


def tuned(summary, prefix):
    names = [n for n in summary if n.startswith(prefix)]
    best = min(names, key=lambda n: summary[n]["mse"])
    return best, summary[best]["mse"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--samples-per-context", type=int, default=100)
    parser.add_argument("--out", default=None, help="optional CSV path for the summary table")
    args = parser.parse_args(argv)

    rows = []
    for tau in (0.5, 1.0, 2.0):
        env = build_env(EnvConfig(tau=tau, seed=0))
        policy = epsilon_greedy_policy(env, EPSILON)
        result = ope_mse_experiment(
            env, policy, estimator_specs(), seeds=list(range(args.seeds)),
            samples_per_context=args.samples_per_context,
            fit_config=LoggingFitConfig(epochs=150, learning_rate=2.0, negatives=5, l2=1e-4),
        )
        best_shr, mse_shr = tuned(result.summary, "shrinkage")
        best_uips, mse_uips = tuned(result.summary, "uips")
        row = {
            "tau": tau,
            "true_value": result.true_value,
            "ips_true": result.summary["ips_true"]["mse"],
            "bips": result.summary["bips"]["mse"],
            "minvar": result.summary["minvar"]["mse"],
            "stablevar": result.summary["stablevar"]["mse"],
            "shrinkage": mse_shr,
            "uips": mse_uips,
            "shrinkage_point": best_shr,
            "uips_point": best_uips,
        }
        rows.append(row)
        print(
            f"tau={tau}: true={row['true_value']:.4f} | "
            f"ips_true={row['ips_true']:.4f} bips={row['bips']:.4f} "
            f"minvar={row['minvar']:.4f} stablevar={row['stablevar']:.4f} "
            f"shrinkage={mse_shr:.4f} ({best_shr}) uips={mse_uips:.4f} ({best_uips})"
        )

    if args.out:
        header = ["tau", "true_value", "ips_true", "bips", "minvar", "stablevar",
                  "shrinkage", "uips", "shrinkage_point", "uips_point"]
        with open(args.out, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(row[k]) for k in header) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
