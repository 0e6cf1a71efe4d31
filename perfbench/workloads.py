"""The benchmark's workloads: inputs, one unit of work, and its outputs.

Each workload calls the public uips API. Module attributes are looked up
at call time (``estimators.ope_mse_experiment``, ``cli.main``), so a
traced round goes through the tracing wrappers and an untraced one does
not. A unit's case is an OPE seed, a sweep seed or a CLI seed; every case
a run can draw has stored reference outputs.

Why these three:

* ``ope-desk`` (the shape of acceptance criterion 07) is fit-dominated,
  with 100 distinct contexts in 10,000 rows, and evaluates the whole
  estimator zoo, 160 estimators including the ``phi*`` grid.
* ``sweep-desk`` (the shape of criterion 08) is training-dominated and
  bypasses the OPE estimator zoo.
* ``cli-wide`` runs the six subcommands on 200 actions with rarely
  repeated contexts, so a change that helps the desk shapes must show it
  costs nothing here; it is also the only workload with JSON/JSONL I/O,
  the scalar ``phi_star_branch`` loop and environment rebuilds.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from uips import cli, estimators, logging_fit, synthetic, weights

import check
from tracing import CLI_COMMANDS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench" / "work"

TINY_ENV = {"dim": 6, "action_count": 8, "train_size": 20, "validation_size": 8, "test_size": 10, "tau": 0.5}
LAM_GRID = [0.5, 0.1, 1, 2, 5, 10, 15, 20, 25, 30, 40, 50]

# sweep.methods of configs/desk.json, frozen here so the workload cannot drift
DESK_SWEEP_METHODS = {
    "uips": {"lam": [10, 50], "gamma": [0.5, 5], "eta1": [0.5, 1], "eta2": [100]},
    "bips_cap": {"cap": [1, 5, 10, 100]},
    "shrinkage": {"lam": [1, 10, 50]},
    "ce": {},
}


@dataclass(frozen=True)
class Workload:
    name: str
    units_per_round: int
    build: Callable[[str], dict]
    run_unit: Callable  # (inputs, case, tracer) -> raw result
    outputs: Callable  # raw result -> {operation: {document name: document}}
    operations: tuple[str, ...] = ("unit",)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# --- ope-desk ---------------------------------------------------------------

def _ope_estimators() -> list:
    Weighting, Hp = estimators.Weighting, weights.UipsHyperParams
    out = [(kind, Weighting(kind=kind)) for kind in ("ips_true", "bips", "minvar", "stablevar")]
    out += [(f"shrinkage[{lam}]", Weighting(kind="shrinkage", lam=lam)) for lam in LAM_GRID]
    for lam in LAM_GRID:
        for gamma in (0.1, 0.5, 1, 2, 5, 25):
            for eta1 in (0.5, 1.0):
                hp = Hp(lam=lam, gamma=gamma, eta1=eta1, eta2=100.0)
                out.append((f"uips[{lam},{gamma},{eta1}]", Weighting(kind="uips", hp=hp)))
    return out


def _build_ope(size: str) -> dict:
    if size == "tiny":
        env_cfg, samples, epochs = synthetic.EnvConfig(**TINY_ENV, seed=0), 10, 10
    else:
        env_cfg = synthetic.EnvConfig(
            dim=16, action_count=50, train_size=200, validation_size=50, test_size=100, tau=0.5, seed=0
        )
        samples, epochs = 100, 150
    env = synthetic.build_env(env_cfg)
    return {
        "env": env,
        "policy": synthetic.epsilon_greedy_policy(env, 0.2),
        "estimators": _ope_estimators(),
        "samples_per_context": samples,
        "fit_config": logging_fit.LoggingFitConfig(epochs=epochs, learning_rate=2.0, negatives=5, l2=1e-4),
    }


def _run_ope(inputs: dict, case: int, tracer):
    return estimators.ope_mse_experiment(
        inputs["env"], inputs["policy"], inputs["estimators"], seeds=[case],
        samples_per_context=inputs["samples_per_context"], fit_config=inputs["fit_config"],
    )


def _ope_outputs(result) -> dict:
    tree = {"true_value": result.true_value, "rows": result.to_csv_rows()}
    return {"unit": {"result": check.document(tree)}}


# --- sweep-desk -------------------------------------------------------------

def _build_sweep(size: str) -> dict:
    if size == "tiny":
        env_cfg = synthetic.EnvConfig(**TINY_ENV, seed=0)
        train = {"learning_rate": 0.5, "epochs": 2, "batch_size": 100, "n_logged": 300}
        epochs, n_logged, k = 10, 300, 3
    else:
        env_cfg = synthetic.EnvConfig(tau=0.5, seed=0)
        train = {"learning_rate": 0.5, "epochs": 20, "batch_size": 500, "n_logged": 5000}
        epochs, n_logged, k = 150, 5000, 5
    return {
        "env": synthetic.build_env(env_cfg),
        "train": train,
        "fit_config": logging_fit.LoggingFitConfig(epochs=epochs, learning_rate=2.0),
        "n_logged": n_logged,
        "k_eval": k,
    }


def _run_sweep(inputs: dict, case: int, tracer):
    return cli.run_sweep(
        inputs["env"], DESK_SWEEP_METHODS, dict(inputs["train"]), inputs["fit_config"],
        seed=case, k_eval=inputs["k_eval"], n_logged=inputs["n_logged"],
    )


def _sweep_outputs(rows) -> dict:
    return {"unit": {"leaderboard": check.document(rows)}}


# --- cli-wide ---------------------------------------------------------------

#: Output files of each subcommand; no subcommand rewrites another's files.
CLI_OUTPUTS = {
    "generate": ("env.json", "logged.jsonl", "manifest.json"),
    "fit-logging": ("logging_model.json",),
    "train": ("policy.json", "trace.csv", "train_report.json"),
    "sweep": ("leaderboard.csv", "sweep_report.json"),
    "ope": ("ope_results.csv", "ope_summary.json"),
    "inspect-weights": ("weights.csv", "uncertainty_bins.csv"),
}


def cli_config(size: str) -> dict:
    uips_hp = {"lam": 50.0, "gamma": 5.0, "eta1": 0.5, "eta2": 100.0}
    if size == "tiny":
        env = dict(TINY_ENV, min_labels=1, max_labels=3, seed=0)
        n_logged, fit_epochs, train_epochs, batch, samples = 250, 20, 2, 100, 8
    else:
        env = {"dim": 16, "action_count": 200, "train_size": 2000, "validation_size": 50,
               "test_size": 20, "min_labels": 1, "max_labels": 3, "tau": 0.5, "seed": 0}
        n_logged, fit_epochs, train_epochs, batch, samples = 6000, 100, 10, 500, 20
    return {
        # relative, so that the config hash does not depend on where the run happens
        "output_dir": "out",
        "n_logged": n_logged,
        "seed": 0,
        "env": env,
        "logging_fit": {"learning_rate": 2.0, "epochs": fit_epochs, "negatives": 5, "l2": 1e-4, "seed": 0},
        "training": {"learning_rate": 0.5, "epochs": train_epochs, "batch_size": batch, "seed": 0,
                     "eval_every": 5, "k_eval": 5, "n_logged": n_logged,
                     "weighting": {"kind": "uips", "hp": uips_hp}},
        "sweep": {"k_eval": 5, "methods": {"uips": {"lam": [50], "gamma": [5], "eta1": [0.5], "eta2": [100]},
                                           "bips_cap": {"cap": [10]}}},
        "ope": {"epsilon": 0.2, "samples_per_context": samples, "n_seeds": 2,
                "uips_hp": {"lam": 50.0, "gamma": 0.5, "eta1": 0.5, "eta2": 100.0}, "shrinkage_lam": 50.0},
        "inspect": {"epsilon": 0.2, "split": "train", "n_bins": 5, "uips_hp": uips_hp},
    }


def _build_cli(size: str) -> dict:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return {"config": json.dumps(cli_config(size), indent=2)}


def _run_cli(inputs: dict, case: int, tracer):
    """All six subcommands in one fresh directory; returns (dir, exit codes)."""
    run_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
    (run_dir / "config.json").write_text(inputs["config"])
    codes = {}
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        for command in CLI_COMMANDS:
            with _span(tracer, f"bench.cli.{command}"):
                codes[command] = cli.main([command, "--config", "config.json", "--seed", str(case)])
    except BaseException:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    finally:
        os.chdir(cwd)
    return run_dir, codes


def _cli_outputs(raw) -> dict:
    run_dir, codes = raw
    try:
        out = {}
        for command in CLI_COMMANDS:
            docs = {"exit_code": check.document(codes.get(command))}
            for name in CLI_OUTPUTS[command]:
                path = run_dir / "out" / name
                if path.exists():
                    docs[name] = check.fingerprint_file(path)
            out[command] = docs
        return out
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ope-desk", 3, _build_ope, _run_ope, _ope_outputs),
        Workload("sweep-desk", 2, _build_sweep, _run_sweep, _sweep_outputs),
        Workload("cli-wide", 1, _build_cli, _run_cli, _cli_outputs, operations=CLI_COMMANDS),
    )
}
