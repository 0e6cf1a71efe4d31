"""Command-line entry point wiring JSON configs to experiments.

Subcommands: generate, fit-logging, train, sweep, ope, inspect-weights.
generate builds the environment and writes it to env.json with the logged
data; every other subcommand reads env.json from the output directory, and
exits 2 when it is missing or was generated from another env section.
Outputs are a pure function of (config file, seed) and those files: they
carry no timestamps, JSON is written with sorted keys, and CSV files start
with a comment line holding the hash of the resolved config, so identical
inputs give byte-identical outputs.

Each subcommand parses every setting it reads before it reads, builds or
fits anything, so a config error stops it before any work; generate, the
one subcommand that makes the output directory, makes it after that.

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
from typing import Sequence

import numpy as np

from uips import __version__
from uips.core import LoggedDataset, _integer, _real, _write_json, make_rng
from uips.estimators import PARAMETERS, UIPS_KINDS, Weighting, ope_mse_experiment, propensity_tables
from uips.learning import TrainConfig, _describe, train, train_policies
from uips.logging_fit import (
    N_BINS,
    LoggingFitConfig,
    LoggingModel,
    fit_logging_policy,
    uncertainty_frequency_bins,
)
from uips.metrics import evaluate_policy
from uips.synthetic import BanditEnv, EnvConfig, build_env, epsilon_greedy_policy, generate_log
from uips.weights import DEFAULT_SWEEP_GRID, UipsHyperParams, phi_star_vector


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


#: The keys each config section may hold, and then those of the top level. None leaves
#: the check to the dataclass the section builds, which refuses a key it has no field for.
SECTION_KEYS = {
    "env": None, "logging_fit": None, "training": None,
    "sweep": ("methods", "k_eval"),
    "ope": ("epsilon", "seeds", "n_seeds", "estimators", "uips_hp", "shrinkage_lam", "samples_per_context"),
    "inspect": ("epsilon", "split", "n_bins", "uips_hp"),
}
CONFIG_KEYS = ("output_dir", "n_logged", "seed", *SECTION_KEYS)

#: The default of the top-level ``n_logged``: the rows generate writes and sweep draws.
N_LOGGED = 5000
#: The default ``epsilon`` of the ope and inspect sections' epsilon-greedy target policy.
EPSILON = 0.2

#: The header of trace.csv: one row per training epoch, as ``learning.train`` records it.
TRACE_COLUMNS = ("epoch", "value", "p_at_k", "r_at_k", "ndcg_at_k", "grad_norm", "max_weight")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: list[tuple], config_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, obj) -> None:
    _write_json(path, obj, indent=2)


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


def _known_keys(obj: dict, keys, where: str) -> None:
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"invalid {unknown[0]}: {where} has no such key; it reads {', '.join(keys)}")


def _check_config(config: dict) -> None:
    """Refuse a key that no subcommand reads and a section that is not a JSON object."""
    _known_keys(config, CONFIG_KEYS, "the config")
    for name, keys in SECTION_KEYS.items():
        section = config.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"invalid {name}: expected a JSON object, not {type(section).__name__}")
        if keys is not None:
            _known_keys(section, keys, f"the {name} section")


def resolve_config(config: dict, seed_override, out_override) -> dict:
    """Apply CLI overrides; flags beat config keys."""
    _check_config(config)
    resolved = json.loads(json.dumps(config))  # deep copy
    if seed_override is not None:
        _parse("--seed", _integer, seed_override)
        for section in ("env", "logging_fit", "training"):
            resolved.setdefault(section, {})["seed"] = seed_override
        resolved["seed"] = seed_override
    if out_override is not None:
        resolved["output_dir"] = out_override
    out = resolved.setdefault("output_dir", os.environ.get("UIPS_OUT_DIR", "uips-out"))
    if not isinstance(out, str):
        raise ConfigError(f"invalid output_dir {out!r}: expected a path string")
    return resolved


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


def _write_report(path: Path, resolved: dict, **fields) -> None:
    """A JSON report: the resolved config, its hash and the package version, plus ``fields``.

    A non-finite float, such as an infinite ``eta2`` or ``cap`` in the config, is written as
    the string ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``, so that the report is strict
    JSON; the hash is of the config as given."""
    report = {"config": resolved, "config_hash": config_hash(resolved), "version": __version__, **fields}
    write_json(path, json.loads(json.dumps(report), parse_constant=str))


def _parse(what: str, build, value):
    """``build(value)``; a KeyError, TypeError, ValueError or OverflowError there is an invalid ``what``."""
    try:
        return build(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _value(section: dict, key: str, default, build):
    """``section[key]``, or ``default``, passed through ``build``."""
    return _parse(key, build, section.get(key, default))


def _record(section: dict, key: str, cls):
    """``cls`` of the JSON object ``section[key]``: the dataclass it holds."""
    return _value(section, key, {}, lambda obj: cls(**obj))


def _count(value) -> int:
    """``value`` as an integer >= 1."""
    return _integer(value, least=1, what="count")


def _probability(value) -> float:
    """``value`` as a float in [0, 1]."""
    p = float(_real(value, "probability"))
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{value!r} is not in [0, 1]")
    return p


def _list(value) -> list:
    """``value`` as a non-empty JSON list."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, not {type(value).__name__}")
    if not value:
        raise ValueError("the list is empty")
    return value


def _load(path: Path, load, producer: str):
    """``load(path)``; a missing or malformed file is a config error naming it."""
    if not path.exists():
        raise ConfigError(f"missing {path}; run the {producer} subcommand first")
    return _parse(str(path), load, path)


def _load_env(config: EnvConfig, out: Path) -> BanditEnv:
    """The ``env.json`` that the generate subcommand wrote to ``out`` from the parsed ``env`` section."""
    path = out / "env.json"
    env = _load(path, BanditEnv.load, "generate")
    if env.config != config:
        raise ConfigError(f"{path} was not generated from this env section; run the generate subcommand again")
    return env


def _load_log(resolved: dict, out: Path) -> tuple[BanditEnv, LoggedDataset]:
    """``_load_env`` and the ``logged.jsonl`` that the generate subcommand wrote to ``out``."""
    env = _load_env(_record(resolved, "env", EnvConfig), out)
    path = out / "logged.jsonl"
    dataset = _load(path, lambda p: LoggedDataset.from_jsonl(p, env.action_count), "generate")
    if dataset.dim != env.dim:
        raise ConfigError(f"{path}: contexts have length {dataset.dim}, env.json has dim {env.dim}")
    return env, dataset


def _load_model(out: Path, env: BanditEnv) -> LoggingModel:
    """The ``logging_model.json`` that the fit-logging subcommand wrote to ``out``, for ``env``."""
    path = out / "logging_model.json"
    model = _load(path, LoggingModel.load, "fit-logging")
    shape, expected = model.policy.theta.shape, (env.action_count, env.dim)
    if shape != expected:
        raise ConfigError(f"{path} has shape {shape}, env.json has {expected}; run the fit-logging subcommand again")
    return model


def _refuse_overflowing_draws(path: Path, split: str, xs: np.ndarray, draws: int, every: bool) -> None:
    """Refuse the ``split`` contexts ``xs`` of the env.json at ``path`` when a log drawn from
    them can hold a row where :class:`LoggedDataset` refuses its running total of squared
    context norms. With ``every`` the log holds ``draws`` copies of every context, in order;
    without, it holds ``draws`` random draws, and its largest total is ``draws`` copies of one."""
    with np.errstate(over="ignore"):
        totals = np.einsum("ij,ij->i", xs, xs) * draws
        if every:
            totals = np.cumsum(totals)
    overflows = np.isinf(totals)
    if overflows.any():
        draws_text = f"{draws} draws per context" if every else f"{draws} draws of it"
        raise ConfigError(f"{path}: {split} context {overflows.argmax()}: "
                          f"{draws_text} add up squared norms past the float range")


def _base_seed(resolved: dict, env_cfg: EnvConfig) -> int:
    """The top-level ``seed``, which seeds the log sweep draws and starts the ope seeds;
    it defaults to ``env.seed``."""
    return _value(resolved, "seed", env_cfg.seed, _integer)


def cmd_generate(resolved: dict) -> None:
    env_cfg = _record(resolved, "env", EnvConfig)
    n_logged = _value(resolved, "n_logged", N_LOGGED, _count)
    # the one subcommand that makes the output directory; the others read env.json from it
    out = Path(resolved["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"invalid output_dir {str(out)!r}: {exc.strerror}") from exc
    env = build_env(env_cfg)
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
    fit_config = _record(resolved, "logging_fit", LoggingFitConfig)
    out = Path(resolved["output_dir"])
    env, dataset = _load_log(resolved, out)
    model = fit_logging_policy(dataset, fit_config)
    model.save(out / "logging_model.json")


def _train_config(section: dict, **fields) -> TrainConfig:
    """The ``training`` section as a TrainConfig with ``fields`` set. It leaves out
    ``n_logged`` (train reads logged.jsonl, sweep the top-level n_logged), ``weighting``
    (train parses it, a sweep grid sets it) and the keys of ``fields``."""
    kept = {k: v for k, v in section.items() if k not in ("n_logged", "weighting", *fields)}
    return _parse("training section", lambda s: TrainConfig(**s, **fields), kept)


def cmd_train(resolved: dict) -> None:
    section = resolved.get("training", {})
    spec = section.get("weighting", TrainConfig.weighting)
    weighting = spec if spec is TrainConfig.weighting else _parse(f"weighting spec {spec}", Weighting.from_dict, spec)
    config = _train_config(section, weighting=weighting)
    out = Path(resolved["output_dir"])
    env, dataset = _load_log(resolved, out)
    model = _load_model(out, env)
    policy, trace = train(dataset, model, config, env=env)
    policy.save(out / "policy.json")
    rows = [tuple(record.get(c) for c in TRACE_COLUMNS) for record in trace]
    write_csv(out / "trace.csv", TRACE_COLUMNS, rows, config_hash(resolved))
    p, r, ndcg = evaluate_policy(policy, env.test, config.k_eval)
    _write_report(
        out / "train_report.json", resolved, seed=config.seed, weighting=config.weighting.kind,
        test_p_at_k=p, test_r_at_k=r, test_ndcg_at_k=ndcg,
    )


def expand_grid(kind: str, grid: dict) -> list[Weighting]:
    """Cartesian product of the per-method hyper-parameter lists."""
    if kind not in PARAMETERS:
        raise ConfigError(f"unknown sweep method {kind!r}")
    if not isinstance(grid, dict):
        raise TypeError(f"a grid is a JSON object, not {type(grid).__name__}")
    keys = PARAMETERS[kind]
    unread = sorted(set(grid) - {"learning_rate", *keys})
    if unread:
        raise ValueError(f"{kind} reads no {', '.join(unread)}")
    defaults = {**DEFAULT_SWEEP_GRID, "cap": [1, 2, 5, 10, 100]}
    lists = [grid.get(key, defaults[key]) for key in keys]
    points = [dict(zip(keys, values)) for values in itertools.product(*lists)]
    if kind in UIPS_KINDS:
        return [Weighting(kind=kind, hp=UipsHyperParams(**point)) for point in points]
    return [Weighting(kind=kind, **point) for point in points]


def run_sweep(
    env: BanditEnv,
    methods: dict[str, dict],
    train_section: dict,
    fit_config: LoggingFitConfig,
    seed: int,
    k_eval: int = TrainConfig.k_eval,
    n_logged: int = N_LOGGED,
) -> list[dict]:
    """Grid sweep: train every grid point, select per method by validation NDCG.

    Returns one leaderboard row per method with the selected point's test
    metrics. Every (method, weighting, learning rate) point of every method
    trains on one logged dataset, one logging model and one set of
    propensity tables, in one run of the stacked step loop of
    :func:`train_policies`: the points share their minibatches, and each
    gets the policy it would get trained alone. A method selects the point
    of the highest validation NDCG, the smaller learning rate on a tie, and
    the first in grid order after that.
    A one-point grid is exactly a single training run. ``train_section``
    is the ``training`` section, read as :func:`_train_config` reads it:
    the log has the ``n_logged`` rows of the argument, the grid sets the
    weighting, and the arguments set the seed and ``k_eval``.
    """
    return _sweep(env, _sweep_points(methods, train_section, seed, k_eval), fit_config, seed, k_eval, n_logged)


def _sweep_points(methods, train_section: dict, seed: int, k_eval: int) -> list[tuple[str, TrainConfig]]:
    """Each (method, training config) of the grids of ``methods``, in grid order."""
    if not methods or not isinstance(methods, dict):
        raise ConfigError("sweep section needs a non-empty methods map")
    base = _train_config(train_section, seed=seed, k_eval=k_eval)
    points = []
    for method, grid in methods.items():
        candidates = _parse(f"{method} grid", lambda g: expand_grid(method, g), grid or {})
        if not candidates:
            raise ConfigError(f"empty grid for method {method!r}")
        lrs = _parse(
            f"{method} learning_rate", _list, (grid or {}).get("learning_rate", [base.learning_rate])
        )
        for weighting in candidates:
            for lr in lrs:
                config = _parse(
                    "training section", lambda rate: replace(base, weighting=weighting, learning_rate=rate), lr
                )
                points.append((method, config))
    return points


def _sweep(env: BanditEnv, points, fit_config: LoggingFitConfig, seed: int, k_eval: int, n_logged: int) -> list[dict]:
    """The leaderboard rows of :func:`run_sweep` for the parsed grid ``points``."""
    dataset = generate_log(env, n_logged, make_rng(seed))
    model = fit_logging_policy(dataset, replace(fit_config, seed=seed))
    configs = [config for _, config in points]
    tables = propensity_tables(dataset, model)
    best = {}
    for (method, config), policy in zip(points, train_policies(dataset, tables, configs)):
        _, _, val_ndcg = evaluate_policy(policy, env.validation, k_eval)
        key = (val_ndcg, -config.learning_rate)
        if method not in best or key > best[method][0]:
            best[method] = (key, config, policy)
    rows = []
    for method, ((val_ndcg, _), config, policy) in best.items():
        p, r, ndcg = evaluate_policy(policy, env.test, k_eval)
        rows.append(
            {
                "method": method,
                "selected_params": _describe(config.weighting, config.learning_rate),
                "val_ndcg_at_k": val_ndcg,
                "test_p_at_k": p,
                "test_r_at_k": r,
                "test_ndcg_at_k": ndcg,
                "seed": seed,
            }
        )
    return rows


def cmd_sweep(resolved: dict) -> None:
    section = resolved.get("sweep", {})
    env_cfg = _record(resolved, "env", EnvConfig)
    seed = _base_seed(resolved, env_cfg)
    fit_config = _record(resolved, "logging_fit", LoggingFitConfig)
    k_eval = _value(section, "k_eval", TrainConfig.k_eval, _count)
    n_logged = _value(resolved, "n_logged", N_LOGGED, _count)
    points = _sweep_points(section.get("methods"), resolved.get("training", {}), seed, k_eval)
    out = Path(resolved["output_dir"])
    env = _load_env(env_cfg, out)
    _refuse_overflowing_draws(out / "env.json", "train", env.train.xs, n_logged, every=False)
    rows = _sweep(env, points, fit_config, seed, k_eval, n_logged)
    columns = ["method", "selected_params", "val_ndcg_at_k", "test_p_at_k", "test_r_at_k", "test_ndcg_at_k", "seed"]
    rows_out = [tuple(r[k] for k in columns) for r in rows]
    write_csv(out / "leaderboard.csv", columns, rows_out, config_hash(resolved))
    _write_report(out / "sweep_report.json", resolved, seed=seed, leaderboard=rows)


def _estimators(specs) -> list[tuple[str, Weighting]]:
    """The named weightings of ``ope.estimators``. A name defaults to the kind, and
    labels the rows of one estimator: it is a string no other entry has."""
    estimators = []
    for spec in _list(specs):
        spec = dict(spec)
        name = spec.pop("name", None)
        weighting = Weighting.from_dict(spec)
        name = weighting.kind if name is None else name
        if not isinstance(name, str):
            raise TypeError(f"estimator name {name!r} is not a string")
        if name.startswith("#") or any(c in name for c in ",\n\r"):
            raise ValueError(f"estimator name {name!r} would break a row of ope_results.csv")
        if name in dict(estimators):
            raise ValueError(f"two estimators are named {name!r}")
        estimators.append((name, weighting))
    return estimators


def _default_ope_estimators(section: dict) -> list[tuple[str, Weighting]]:
    specs = section.get("estimators")
    if specs is not None:
        for key in ("uips_hp", "shrinkage_lam"):
            if key in section:
                raise ConfigError(f"invalid {key}: the ope section sets estimators, which leave it unread")
        return _parse("estimators", _estimators, specs)
    hp = _record(section, "uips_hp", UipsHyperParams)
    # the shrinkage rule is phi* at u = 0 and eta1 = eta2 = 1, so it defaults to the same lam
    shrinkage = _value(section, "shrinkage_lam", UipsHyperParams.lam,
                       lambda lam: Weighting(kind="shrinkage", lam=float(_real(lam, "lam"))))
    # each named after its kind, as an ope.estimators entry without a name is
    weightings = [*(Weighting(kind=kind) for kind in ("ips_true", "bips", "minvar", "stablevar")), shrinkage,
                  Weighting(kind="uips", hp=hp)]
    return [(weighting.kind, weighting) for weighting in weightings]


def cmd_ope(resolved: dict) -> None:
    section = resolved.get("ope", {})
    epsilon = _value(section, "epsilon", EPSILON, _probability)
    env_cfg = _record(resolved, "env", EnvConfig)
    seeds = section.get("seeds")
    if seeds is None:
        base = _base_seed(resolved, env_cfg)
        seeds = list(range(base, base + _value(section, "n_seeds", 20, _count)))
    else:
        seeds = _parse("seeds", lambda s: [_integer(v) for v in _list(s)], seeds)
        if "n_seeds" in section:
            raise ConfigError("invalid n_seeds: the ope section sets seeds, which leave it unread")
    estimators = _default_ope_estimators(section)
    samples_per_context = _value(section, "samples_per_context", 100, _count)
    fit_config = _record(resolved, "logging_fit", LoggingFitConfig)
    out = Path(resolved["output_dir"])
    env = _load_env(env_cfg, out)
    _refuse_overflowing_draws(out / "env.json", "test", env.test.xs, samples_per_context, every=True)
    result = ope_mse_experiment(
        env,
        epsilon_greedy_policy(env, epsilon),
        estimators,
        seeds=seeds,
        samples_per_context=samples_per_context,
        fit_config=fit_config,
    )
    write_csv(out / "ope_results.csv", result.COLUMNS, result.to_csv_rows(), config_hash(resolved))
    _write_report(
        out / "ope_summary.json", resolved, seeds=seeds,
        true_value=result.true_value, epsilon=epsilon, mse=result.summary,
    )


def cmd_inspect_weights(resolved: dict) -> None:
    section = resolved.get("inspect", {})
    epsilon = _value(section, "epsilon", EPSILON, _probability)
    split = section.get("split", "train")
    if split != "train":
        raise ConfigError(f"invalid split {split!r}: the log is drawn from the train split")
    hp = _record(section, "uips_hp", UipsHyperParams)
    n_bins = _value(section, "n_bins", N_BINS, _count)
    out = Path(resolved["output_dir"])
    env, dataset = _load_log(resolved, out)
    model = _load_model(out, env)
    policy = epsilon_greedy_policy(env, epsilon, split="train")

    tables = propensity_tables(dataset, model)
    pi_sel = policy.distribution_matrix(tables.contexts)[tables.rows, tables.actions]
    # the phi* the uips estimator applies to these samples
    phi, on_cap = phi_star_vector(pi_sel / tables.beta_sel, tables.us, hp)
    columns = (dataset.actions, pi_sel, tables.beta_sel, tables.us, phi, on_cap)
    rows = [
        (i, a, pi, beta, u, w, "cap" if cap else "first_term")
        for i, (a, pi, beta, u, w, cap) in enumerate(zip(*(c.tolist() for c in columns)))
    ]
    write_csv(
        out / "weights.csv",
        ["sample", "action", "pi", "beta_hat", "uncertainty", "phi_star", "branch"],
        rows,
        config_hash(resolved),
    )
    bins = uncertainty_frequency_bins(dataset, tables.us, n_bins=n_bins)
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
