"""Command-line entry point wiring JSON configs to experiments.

Every subcommand is a pure function of (config file, seed): outputs carry
no timestamps, JSON is written with sorted keys, and CSV files start with
a comment line holding the hash of the resolved config, so identical
inputs give byte-identical outputs.

Subcommands: generate, fit-logging, train, sweep, ope, inspect-weights.
Flags --config/--seed/--out work on all of them; --seed overrides every
section seed in the config, --out overrides the output directory, which
otherwise comes from the config or the UIPS_OUT_DIR environment variable.
Exit codes: 0 success, 2 config error, 3 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from uips import __version__
from uips.core import LoggedDataset, make_rng
from uips.estimators import Weighting, ope_mse_experiment, propensity_tables
from uips.learning import TrainConfig, train, train_policy
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    accumulate_grams,
    fit_logging_policy,
    uncertainty_frequency_bins,
)
from uips.metrics import evaluate_policy
from uips.synthetic import BanditEnv, EnvConfig, build_env, epsilon_greedy_policy, generate_log
from uips.weights import DEFAULT_SWEEP_GRID, UipsHyperParams, WeightInput, phi_star_branch


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


DEFAULT_UIPS_HP = {"lam": 10.0, "gamma": 5.0, "eta1": 1.0, "eta2": 100.0}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple], config_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file must hold a JSON object, not {type(config).__name__}")
    return config


def resolve_config(config: dict, seed_override, out_override) -> dict:
    """Apply CLI overrides; flags beat config keys."""
    resolved = json.loads(json.dumps(config))  # deep copy
    if seed_override is not None:
        resolved.setdefault("env", {})["seed"] = seed_override
        resolved.setdefault("logging_fit", {})["seed"] = seed_override
        resolved.setdefault("training", {})["seed"] = seed_override
        resolved["seed"] = seed_override
    if out_override is not None:
        resolved["output_dir"] = out_override
    if "output_dir" not in resolved:
        resolved["output_dir"] = os.environ.get("UIPS_OUT_DIR", "uips-out")
    return resolved


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


def _write_report(path: Path, resolved: dict, **fields) -> None:
    """A JSON report: the resolved config, its hash and the package version, plus ``fields``."""
    write_json(path, {"config": resolved, "config_hash": config_hash(resolved), "version": __version__, **fields})


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse(what: str, build, value):
    """``build(value)``; a TypeError or ValueError there is an invalid ``what``."""
    try:
        return build(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _value(section: dict, key: str, default, build=int):
    """``section[key]``, or ``default``, passed through ``build``."""
    return _parse(key, build, section.get(key, default))


def _weighting(spec: dict) -> Weighting:
    return _parse(f"weighting spec {spec}", Weighting.from_dict, spec)


def _load_env(out: Path) -> BanditEnv:
    path = out / "env.json"
    if not path.exists():
        raise ConfigError(f"missing {path}; run the generate subcommand first")
    return BanditEnv.load(path)


def _load_dataset(out: Path, env: BanditEnv) -> LoggedDataset:
    path = out / "logged.jsonl"
    if not path.exists():
        raise ConfigError(f"missing {path}; run the generate subcommand first")
    try:
        dataset = LoggedDataset.from_jsonl(path, env.action_count)
    except ValueError as exc:
        raise ConfigError(f"invalid logged data: {exc}") from exc
    if dataset.dim != env.dim:
        raise ConfigError(f"{path}: contexts have length {dataset.dim}, env.json has dim {env.dim}")
    return dataset


def _load_model(out: Path) -> LoggingModel:
    path = out / "logging_model.json"
    if not path.exists():
        raise ConfigError(f"missing {path}; run the fit-logging subcommand first")
    return LoggingModel.load(path)


def cmd_generate(resolved: dict) -> None:
    out = _out_dir(resolved)
    env_cfg = _value(resolved, "env", {}, EnvConfig.from_dict)
    env = build_env(env_cfg)
    n_logged = _value(resolved, "n_logged", 5000)
    dataset = generate_log(env, n_logged, make_rng(env_cfg.seed))
    env.save(out / "env.json")
    dataset.to_jsonl(out / "logged.jsonl")
    write_json(
        out / "manifest.json",
        {
            "config_hash": config_hash(resolved),
            "seed": env_cfg.seed,
            "n_logged": n_logged,
            "n_samples_written": len(dataset),
            "action_count": env.action_count,
            "dim": env.dim,
        },
    )


def cmd_fit_logging(resolved: dict) -> None:
    out = _out_dir(resolved)
    env = _load_env(out)
    dataset = _load_dataset(out, env)
    fit_config = _value(resolved, "logging_fit", {}, LoggingFitConfig.from_dict)
    model = accumulate_grams(dataset, fit_logging_policy(dataset, fit_config))
    model.save(out / "logging_model.json")


def cmd_train(resolved: dict) -> None:
    out = _out_dir(resolved)
    env = _load_env(out)
    dataset = _load_dataset(out, env)
    model = _load_model(out)
    section = dict(resolved.get("training", {}))
    weighting = _weighting(section.pop("weighting", {"kind": "bips"}))
    config = _parse("training section", lambda s: TrainConfig(weighting=weighting, **s), section)
    policy, trace = train(dataset, model, config, env=env)
    policy.save(out / "policy.json")
    write_csv(
        out / "trace.csv",
        ["epoch", "value", "p_at_k", "r_at_k", "ndcg_at_k", "grad_norm", "max_weight"],
        trace.to_csv_rows(),
        config_hash(resolved),
    )
    p, r, ndcg = evaluate_policy(policy, env.test, config.k_eval)
    _write_report(
        out / "train_report.json", resolved, seed=config.seed, weighting=weighting.kind,
        test_p_at_k=p, test_r_at_k=r, test_ndcg_at_k=ndcg,
    )


def expand_grid(kind: str, grid: dict) -> list[Weighting]:
    """Cartesian product of the per-method hyper-parameter lists."""
    if kind == "uips":
        keys = ["lam", "gamma", "eta1", "eta2"]
        lists = [grid.get(k, DEFAULT_SWEEP_GRID.get(k, [1.0]))[:] for k in keys]
        return [
            Weighting(kind="uips", hp=UipsHyperParams(lam=l, gamma=g, eta1=e1, eta2=e2))
            for l, g, e1, e2 in itertools.product(*lists)
        ]
    if kind in ("uips_p", "uips_o"):
        return [
            Weighting(kind=kind, hp=UipsHyperParams(gamma=g))
            for g in grid.get("gamma", DEFAULT_SWEEP_GRID["gamma"])
        ]
    if kind == "shrinkage":
        return [Weighting(kind="shrinkage", lam=l) for l in grid.get("lam", DEFAULT_SWEEP_GRID["lam"])]
    if kind in ("bips_cap", "dice_s"):
        return [Weighting(kind=kind, cap=c) for c in grid.get("cap", [1, 2, 5, 10, 100])]
    if kind in ("ce", "bips", "snips", "ips_true", "minvar", "stablevar"):
        return [Weighting(kind=kind)]
    raise ConfigError(f"unknown sweep method {kind!r}")


def run_sweep(
    env: BanditEnv,
    methods: dict[str, dict],
    train_section: dict,
    fit_config: LoggingFitConfig,
    seed: int,
    k_eval: int = 5,
    n_logged: int = 5000,
) -> list[dict]:
    """Grid sweep: train per grid point, select per method by validation NDCG.

    Returns one leaderboard row per method with the selected point's test
    metrics. A one-point grid is exactly a single training run.
    """
    dataset = generate_log(env, n_logged, make_rng(seed))
    model = accumulate_grams(
        dataset, fit_logging_policy(dataset, replace(fit_config, seed=seed))
    )
    rows = []
    for method, grid in methods.items():
        candidates = expand_grid(method, grid or {})
        if not candidates:
            raise ConfigError(f"empty grid for method {method!r}")
        lrs = (grid or {}).get("learning_rate", [train_section.get("learning_rate", 0.5)])
        best = None
        for weighting in candidates:
            for lr in lrs:
                section = {k: v for k, v in train_section.items() if k != "learning_rate"}
                config = TrainConfig(
                    weighting=weighting, learning_rate=lr, seed=seed, k_eval=k_eval, **section
                )
                policy = train_policy(dataset, model, config)
                _, _, val_ndcg = evaluate_policy(policy, env.validation, k_eval)
                key = (val_ndcg, -lr)
                if best is None or key > best[0]:
                    best = (key, weighting, lr, policy)
        _, weighting, lr, policy = best
        p, r, ndcg = evaluate_policy(policy, env.test, k_eval)
        rows.append(
            {
                "method": method,
                "selected_params": _describe(weighting, lr),
                "val_ndcg_at_k": best[0][0],
                "test_p_at_k": p,
                "test_r_at_k": r,
                "test_ndcg_at_k": ndcg,
                "seed": seed,
            }
        )
    return rows


def _describe(weighting: Weighting, lr: float) -> str:
    parts = [f"lr={lr}"]
    if weighting.cap is not None:
        parts.append(f"cap={weighting.cap}")
    if weighting.lam is not None:
        parts.append(f"lam={weighting.lam}")
    if weighting.hp is not None:
        hp = weighting.hp
        parts.append(f"lam={hp.lam};gamma={hp.gamma};eta1={hp.eta1};eta2={hp.eta2}")
    return "|".join(parts)


def cmd_sweep(resolved: dict) -> None:
    out = _out_dir(resolved)
    env = build_env(_value(resolved, "env", {}, EnvConfig.from_dict))
    section = resolved.get("sweep", {})
    methods = section.get("methods")
    if not methods:
        raise ConfigError("sweep section needs a non-empty methods map")
    train_section = dict(resolved.get("training", {}))
    for key in ("weighting", "seed", "k_eval"):
        train_section.pop(key, None)
    seed = _value(resolved, "seed", resolved.get("env", {}).get("seed", 0))
    rows = run_sweep(
        env,
        methods,
        train_section,
        _value(resolved, "logging_fit", {}, LoggingFitConfig.from_dict),
        seed=seed,
        k_eval=_value(section, "k_eval", 5),
        n_logged=_value(resolved, "n_logged", 5000),
    )
    columns = ["method", "selected_params", "val_ndcg_at_k", "test_p_at_k", "test_r_at_k", "test_ndcg_at_k", "seed"]
    rows_out = [tuple(r[k] for k in columns) for r in rows]
    write_csv(out / "leaderboard.csv", columns, rows_out, config_hash(resolved))
    _write_report(out / "sweep_report.json", resolved, seed=seed, leaderboard=rows)


def _default_ope_estimators(section: dict) -> list[tuple[str, Weighting]]:
    specs = section.get("estimators")
    if specs:
        return [(s.get("name", s["kind"]), _weighting({k: v for k, v in s.items() if k != "name"})) for s in specs]
    hp = _value(section, "uips_hp", DEFAULT_UIPS_HP, UipsHyperParams.from_dict)
    lam = _value(section, "shrinkage_lam", 10.0, float)
    return [
        ("ips_true", Weighting(kind="ips_true")),
        ("bips", Weighting(kind="bips")),
        ("minvar", Weighting(kind="minvar")),
        ("stablevar", Weighting(kind="stablevar")),
        ("shrinkage", Weighting(kind="shrinkage", lam=lam)),
        ("uips", Weighting(kind="uips", hp=hp)),
    ]


def cmd_ope(resolved: dict) -> None:
    out = _out_dir(resolved)
    env = build_env(_value(resolved, "env", {}, EnvConfig.from_dict))
    section = resolved.get("ope", {})
    epsilon = _value(section, "epsilon", 0.2, float)
    policy = epsilon_greedy_policy(env, epsilon)
    seeds = section.get("seeds")
    if seeds is None:
        base = _value(resolved, "seed", 0)
        seeds = list(range(base, base + _value(section, "n_seeds", 20)))
    result = ope_mse_experiment(
        env,
        policy,
        _default_ope_estimators(section),
        seeds=seeds,
        samples_per_context=_value(section, "samples_per_context", 100),
        fit_config=_value(resolved, "logging_fit", {}, LoggingFitConfig.from_dict),
    )
    write_csv(
        out / "ope_results.csv",
        ["estimator", "seed", "estimate", "squared_error"],
        result.to_csv_rows(),
        config_hash(resolved),
    )
    _write_report(
        out / "ope_summary.json", resolved, seeds=[int(s) for s in seeds],
        true_value=result.true_value, epsilon=epsilon, mse=result.summary,
    )


def cmd_inspect_weights(resolved: dict) -> None:
    out = _out_dir(resolved)
    env = _load_env(out)
    dataset = _load_dataset(out, env)
    model = _load_model(out)
    section = resolved.get("inspect", {})
    epsilon = _value(section, "epsilon", 0.2, float)
    split = section.get("split", "train")
    hp = _value(section, "uips_hp", DEFAULT_UIPS_HP, UipsHyperParams.from_dict)
    n_bins = _value(section, "n_bins", 5)
    policy = epsilon_greedy_policy(env, epsilon, split=split)

    tables = propensity_tables(dataset, policy, model, ("uips",))
    rows = []
    columns = (dataset.actions, tables.pi_sel, tables.beta_sel, tables.us)
    for i, (a, pi, beta, u) in enumerate(zip(*(c.tolist() for c in columns))):
        phi, branch = phi_star_branch(WeightInput(pi=pi, beta_hat=beta, u=u), hp)
        rows.append((i, a, pi, beta, u, phi, branch))
    write_csv(
        out / "weights.csv",
        ["sample", "action", "pi", "beta_hat", "uncertainty", "phi_star", "branch"],
        rows,
        config_hash(resolved),
    )
    bins = uncertainty_frequency_bins(dataset, model, n_bins=n_bins)
    write_csv(
        out / "uncertainty_bins.csv",
        ["bin", "min_count", "max_count", "n_samples", "mean_uncertainty"],
        [(b["bin"], b["min_count"], b["max_count"], b["n_samples"], b["mean_uncertainty"]) for b in bins],
        config_hash(resolved),
    )


COMMANDS = {
    "generate": cmd_generate,
    "fit-logging": cmd_fit_logging,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "ope": cmd_ope,
    "inspect-weights": cmd_inspect_weights,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uips",
        description="Off-policy evaluation and learning with uncertainty-aware propensity weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override every seed in the config")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = resolve_config(load_config(args.config), args.seed, args.out)
        COMMANDS[args.command](resolved)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as the runtime exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
