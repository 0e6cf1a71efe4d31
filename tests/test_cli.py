import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_train_matches_reference, reference_train
from uips import cli
from uips.cli import main, run_sweep
from uips.core import LoggedDataset
from uips.estimators import Weighting, propensity_tables
from uips.learning import train_policies
from uips.logging_fit import LoggingFitConfig, LoggingModel, fit_logging_policy, uncertainties
from uips.synthetic import BanditEnv, EnvConfig, TabularPolicy, build_env, epsilon_greedy_policy
from uips.weights import UipsHyperParams, phi_star_vector

NAN = float("nan")

TINY_CONFIG = {
    "n_logged": 300,
    "seed": 0,
    "env": {
        "dim": 6, "action_count": 8, "train_size": 25, "validation_size": 10,
        "test_size": 12, "tau": 0.7, "seed": 3,
    },
    "logging_fit": {"learning_rate": 2.0, "epochs": 40, "negatives": 5, "seed": 3},
    "training": {
        "learning_rate": 0.5, "epochs": 4, "batch_size": 100, "seed": 3,
        "k_eval": 3, "n_logged": 300,
        "weighting": {"kind": "uips", "hp": {"lam": 10.0, "gamma": 2.0, "eta1": 1.0, "eta2": 100.0}},
    },
    "sweep": {
        "k_eval": 3,
        "methods": {"uips": {"lam": [10], "gamma": [2], "eta1": [1], "eta2": [100]},
                    "bips_cap": {"cap": [5, 10]}},
    },
    "ope": {"epsilon": 0.2, "samples_per_context": 10, "n_seeds": 2},
    "inspect": {"epsilon": 0.2, "split": "train", "n_bins": 3,
                "uips_hp": {"lam": 10.0, "gamma": 2.0, "eta1": 1.0, "eta2": 100.0}},
}


def write_config(tmp_path: Path, out_name: str) -> Path:
    config = json.loads(json.dumps(TINY_CONFIG))
    config["output_dir"] = str(tmp_path / out_name)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def run_ok(args):
    assert main(args) == 0


def at_line_3(damage):
    """The damage of a whole log that applies ``damage`` to its third line."""
    return lambda lines: [damage(line) if i == 2 else line for i, line in enumerate(lines)]


def json_with(text: str, value, *path) -> str:
    """The JSON object ``text`` with its node at ``path`` set to ``value``."""
    obj = json.loads(text)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(obj)


def read_bytes_map(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


class TestGenerate:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, "a")
        run_ok(["generate", "--config", str(cfg)])
        out = tmp_path / "a"
        assert (out / "env.json").exists() and (out / "logged.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_logged"] == 300
        assert manifest["n_samples_written"] == 300
        assert len((out / "logged.jsonl").read_text().splitlines()) == 300

    def test_round_trip_reproduces_dataset(self, tmp_path):
        cfg = write_config(tmp_path, "b")
        run_ok(["generate", "--config", str(cfg)])
        out = tmp_path / "b"
        env = BanditEnv.load(out / "env.json")
        ds = LoggedDataset.from_jsonl(out / "logged.jsonl", env.action_count)
        rewritten = tmp_path / "rewrite.jsonl"
        ds.to_jsonl(rewritten)
        assert rewritten.read_bytes() == (out / "logged.jsonl").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "c")
        run_ok(["generate", "--config", str(cfg)])
        first = read_bytes_map(tmp_path / "c")
        run_ok(["generate", "--config", str(cfg)])
        assert read_bytes_map(tmp_path / "c") == first


class TestPipeline:
    def _generate(self, tmp_path, name):
        cfg = write_config(tmp_path, name)
        run_ok(["generate", "--config", str(cfg)])
        return cfg, tmp_path / name

    def test_fit_train_inspect_chain(self, tmp_path):
        cfg, out = self._generate(tmp_path, "chain")
        run_ok(["fit-logging", "--config", str(cfg)])
        assert (out / "logging_model.json").exists()
        run_ok(["train", "--config", str(cfg)])
        assert (out / "policy.json").exists()
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("# config_hash=")
        assert trace[1].split(",")[0] == "epoch"
        assert len(trace) == 2 + TINY_CONFIG["training"]["epochs"]
        run_ok(["inspect-weights", "--config", str(cfg)])
        weights = (out / "weights.csv").read_text().splitlines()
        header = weights[1].split(",")
        assert header == ["sample", "action", "pi", "beta_hat", "uncertainty", "phi_star", "branch"]
        branch_col = [line.split(",")[-1] for line in weights[2:]]
        assert set(branch_col) <= {"first_term", "cap"}
        phi_col = np.array([float(line.split(",")[-2]) for line in weights[2:]])
        assert np.all(phi_col <= 2 * 100.0 + 1e-12)
        bins = (out / "uncertainty_bins.csv").read_text().splitlines()
        first_bin = bins[2].split(",")
        last_bin = bins[-1].split(",")
        assert float(first_bin[-1]) > float(last_bin[-1])  # low-frequency bin more uncertain

    def test_inspect_weights_reports_the_phi_star_the_uips_estimator_applies(self, tmp_path):
        cfg, out = self._generate(tmp_path, "applied")
        run_ok(["fit-logging", "--config", str(cfg)])
        run_ok(["inspect-weights", "--config", str(cfg)])
        env = BanditEnv.load(out / "env.json")
        dataset = LoggedDataset.from_jsonl(out / "logged.jsonl", env.action_count)
        model = LoggingModel.load(out / "logging_model.json")
        inspect = TINY_CONFIG["inspect"]
        policy = epsilon_greedy_policy(env, inspect["epsilon"], split=inspect["split"])
        tables = propensity_tables(dataset, model)
        pi_sel = policy.distribution_matrix(tables.contexts)[tables.rows, tables.actions]
        phi, on_cap = phi_star_vector(pi_sel / tables.beta_sel, tables.us, UipsHyperParams(**inspect["uips_hp"]))
        rows = [line.split(",") for line in (out / "weights.csv").read_text().splitlines()[2:]]
        np.testing.assert_array_equal(np.array([float(r[5]) for r in rows]), phi)
        assert [r[6] for r in rows] == ["cap" if c else "first_term" for c in on_cap]

    def test_partial_uips_hp_keeps_the_other_defaults(self, tmp_path):
        cfg, out = self._generate(tmp_path, "partial-hp")
        run_ok(["fit-logging", "--config", str(cfg)])
        columns = []
        for hp in ({"lam": 50.0}, {"lam": 50.0, "gamma": 5.0, "eta1": 1.0, "eta2": 100.0}):
            config = json.loads(cfg.read_text())
            config["inspect"]["uips_hp"] = hp
            cfg.write_text(json.dumps(config))
            run_ok(["inspect-weights", "--config", str(cfg)])
            columns.append([line.split(",")[5] for line in (out / "weights.csv").read_text().splitlines()[2:]])
        assert columns[0] == columns[1]

    def test_partial_uips_hp_fills_the_same_wherever_it_is_written(self, tmp_path):
        cfg, out = self._generate(tmp_path, "partial-weighting")
        run_ok(["fit-logging", "--config", str(cfg)])
        outputs = []
        for hp in ({"lam": 50.0}, {"lam": 50.0, "gamma": 5.0, "eta1": 1.0, "eta2": 100.0}):
            config = json.loads(cfg.read_text())
            config["training"]["weighting"] = {"kind": "uips", "hp": hp}
            cfg.write_text(json.dumps(config))
            run_ok(["train", "--config", str(cfg)])
            # the first line of trace.csv holds the config hash, which differs
            outputs.append(((out / "policy.json").read_bytes(), (out / "trace.csv").read_text().splitlines()[1:]))
        assert outputs[0] == outputs[1]
        ope_hp = dict(cli._default_ope_estimators({"uips_hp": {"lam": 50.0}}))["uips"].hp
        assert Weighting.from_dict({"kind": "uips", "hp": {"lam": 50.0}}).hp == ope_hp

    def test_inspect_weights_computes_uncertainties_once(self, tmp_path, monkeypatch):
        import uips.estimators
        import uips.logging_fit

        cfg, _ = self._generate(tmp_path, "once")
        run_ok(["fit-logging", "--config", str(cfg)])
        calls = []

        def counted(model, dataset):
            calls.append(len(dataset))
            return uncertainties(model, dataset)

        monkeypatch.setattr(uips.estimators, "uncertainties", counted)
        monkeypatch.setattr(uips.logging_fit, "uncertainties", counted)
        run_ok(["inspect-weights", "--config", str(cfg)])
        assert calls == [TINY_CONFIG["n_logged"]]

    def test_all_subcommands_are_deterministic(self, tmp_path):
        cfg, out = self._generate(tmp_path, "det")
        for command in ("fit-logging", "train", "sweep", "ope", "inspect-weights"):
            run_ok([command, "--config", str(cfg)])
        first = read_bytes_map(out)
        for command in ("generate", "fit-logging", "train", "sweep", "ope", "inspect-weights"):
            run_ok([command, "--config", str(cfg)])
        assert read_bytes_map(out) == first

    def test_every_csv_carries_header_and_config_hash(self, tmp_path):
        cfg, out = self._generate(tmp_path, "csvs")
        for command in ("fit-logging", "train", "sweep", "ope", "inspect-weights"):
            run_ok([command, "--config", str(cfg)])
        csvs = sorted(out.glob("*.csv"))
        assert csvs
        for path in csvs:
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# config_hash=") and len(lines[0]) > 20
            assert "," in lines[1]  # header row

    def test_every_json_output_is_strict_with_infinite_hyper_parameters(self, tmp_path):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["output_dir"] = str(tmp_path / "inf")
        config["ope"]["uips_hp"] = {"eta2": math.inf}
        config["inspect"]["uips_hp"]["eta2"] = math.inf
        config["sweep"]["methods"]["bips_cap"]["cap"] = [5, math.inf]
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps(config))
        for command in ("generate", "fit-logging", "train", "sweep", "ope", "inspect-weights"):
            run_ok([command, "--config", str(cfg)])

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        outputs = sorted((tmp_path / "inf").glob("*.json"))
        assert [p.name for p in outputs] == [
            "env.json", "logging_model.json", "manifest.json", "ope_summary.json", "policy.json",
            "sweep_report.json", "train_report.json",
        ]
        for path in outputs:
            json.loads(path.read_text(), parse_constant=refuse)
        summary = json.loads((tmp_path / "inf" / "ope_summary.json").read_text())
        assert summary["config"]["ope"]["uips_hp"] == {"eta2": "Infinity"}
        assert summary["config"]["sweep"]["methods"]["bips_cap"]["cap"] == [5, "Infinity"]
        # the hash is of the config as given, as in the CSVs' comment lines
        assert summary["config_hash"] == cli.config_hash(config)
        csv = (tmp_path / "inf" / "ope_results.csv").read_text()
        assert csv.startswith(f"# config_hash={summary['config_hash']}\n")

    def test_ope_outputs_table3_estimator_set(self, tmp_path):
        cfg, out = self._generate(tmp_path, "ope")
        run_ok(["ope", "--config", str(cfg)])
        summary = json.loads((out / "ope_summary.json").read_text())
        assert set(summary["mse"]) == {"ips_true", "bips", "minvar", "stablevar", "shrinkage", "uips"}
        rows = (out / "ope_results.csv").read_text().splitlines()
        assert rows[1] == "estimator,seed,estimate,squared_error"
        assert len(rows) == 2 + 6 * TINY_CONFIG["ope"]["n_seeds"]

    def test_ope_accepts_custom_estimators_and_seed_list(self, tmp_path):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["output_dir"] = str(tmp_path / "custom")
        config["ope"] = {
            "epsilon": 0.3,
            "samples_per_context": 8,
            "seeds": [7, 9],
            "estimators": [
                {"name": "capped", "kind": "bips_cap", "cap": 5.0},
                {"kind": "snips"},
                {"kind": "uips", "hp": {"lam": 10.0, "gamma": 2.0, "eta1": 1.0, "eta2": 100.0}},
            ],
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(config))
        run_ok(["generate", "--config", str(path)])
        run_ok(["ope", "--config", str(path)])
        summary = json.loads((tmp_path / "custom" / "ope_summary.json").read_text())
        assert set(summary["mse"]) == {"capped", "snips", "uips"}
        assert summary["seeds"] == [7, 9]

    def test_sweep_and_ope_default_the_seed_to_env_seed(self, tmp_path):
        config = json.loads(json.dumps(TINY_CONFIG))
        del config["seed"]
        config["output_dir"] = str(tmp_path / "env-seed")
        path = tmp_path / "env-seed.json"
        path.write_text(json.dumps(config))
        for command in ("generate", "sweep", "ope"):
            run_ok([command, "--config", str(path)])
        out = tmp_path / "env-seed"
        assert json.loads((out / "sweep_report.json").read_text())["seed"] == config["env"]["seed"]
        assert json.loads((out / "ope_summary.json").read_text())["seeds"] == [3, 4]

    def test_sweep_accepts_train_contexts_whose_draws_stay_in_the_float_range(self, tmp_path):
        cfg, out = self._generate(tmp_path, "large-train")
        env = json.loads((out / "env.json").read_text())
        # 300 draws of any one context add up to 1.8e307; all 25 contexts, 300 times each, would not fit
        for row in env["train"]:
            row["x"] = [math.sqrt(6e304)] + [0.0] * (len(row["x"]) - 1)
        (out / "env.json").write_text(json.dumps(env))
        run_ok(["sweep", "--config", str(cfg)])

    def test_sweep_and_ope_read_the_generated_env(self, tmp_path, monkeypatch):
        cfg, _ = self._generate(tmp_path, "reads-env")

        def no_build(config):
            raise AssertionError("only the generate subcommand builds the environment")

        monkeypatch.setattr("uips.cli.build_env", no_build)
        for command in ("sweep", "ope"):
            run_ok([command, "--config", str(cfg)])

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "seeded")
        run_ok(["generate", "--config", str(cfg), "--seed", "11"])
        manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "outflag")
        target = tmp_path / "elsewhere"
        run_ok(["generate", "--config", str(cfg), "--out", str(target)])
        assert (target / "env.json").exists()

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        config = json.loads(json.dumps(TINY_CONFIG))
        path = tmp_path / "noout.json"
        path.write_text(json.dumps(config))  # no output_dir key
        monkeypatch.setenv("UIPS_OUT_DIR", str(tmp_path / "from-env"))
        run_ok(["generate", "--config", str(path)])
        assert (tmp_path / "from-env" / "env.json").exists()

    def test_sweep_leaderboard_rows_match_methods(self, tmp_path):
        cfg, out = self._generate(tmp_path, "sweep")
        run_ok(["sweep", "--config", str(cfg)])
        rows = (out / "leaderboard.csv").read_text().splitlines()
        methods = sorted(line.split(",")[0] for line in rows[2:])
        assert methods == sorted(TINY_CONFIG["sweep"]["methods"])

    def test_selected_params_name_only_what_the_kind_reads(self):
        env = build_env(EnvConfig(**TINY_CONFIG["env"]))
        methods = {
            "uips_p": {"gamma": [2]}, "uips": {"lam": [10], "gamma": [2], "eta1": [1], "eta2": [100]}, "bips": {},
        }
        fit_cfg = LoggingFitConfig(**TINY_CONFIG["logging_fit"])
        train_section = {"learning_rate": 0.5, "epochs": 1, "batch_size": 100}
        rows = run_sweep(env, methods, train_section, fit_cfg, seed=3, k_eval=3, n_logged=300)
        assert {r["method"]: r["selected_params"] for r in rows} == {
            "uips_p": "lr=0.5|gamma=2", "uips": "lr=0.5|lam=10;gamma=2;eta1=1;eta2=100", "bips": "lr=0.5",
        }


class TestSingletonSweepMatchesTrain:
    def test_one_point_grid_equals_single_training_run(self, tmp_path):
        # a sweep over a single grid point reproduces the plain train command
        # when every seed lines up
        config = json.loads(json.dumps(TINY_CONFIG))
        config["seed"] = config["env"]["seed"]
        config["output_dir"] = str(tmp_path / "single")
        config["training"]["n_logged"] = config["n_logged"]
        config["sweep"]["methods"] = {
            "uips": {"lam": [10.0], "gamma": [2.0], "eta1": [1.0], "eta2": [100.0]}
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(config))
        for command in ("generate", "fit-logging", "train", "sweep"):
            run_ok([command, "--config", str(path)])
        out = tmp_path / "single"
        train_report = json.loads((out / "train_report.json").read_text())
        leaderboard = (out / "leaderboard.csv").read_text().splitlines()
        row = leaderboard[2].split(",")
        assert row[0] == "uips"
        assert float(row[5]) == pytest.approx(train_report["test_ndcg_at_k"], abs=1e-12)
        assert float(row[3]) == pytest.approx(train_report["test_p_at_k"], abs=1e-12)

    def test_run_sweep_is_deterministic(self):
        env = build_env(EnvConfig(**TINY_CONFIG["env"]))
        methods = {"uips": {"lam": [10], "gamma": [2], "eta1": [1], "eta2": [100]}}
        train_section = {"learning_rate": 0.5, "epochs": 4, "batch_size": 100, "n_logged": 300}
        fit_cfg = LoggingFitConfig(**TINY_CONFIG["logging_fit"])
        a = run_sweep(env, methods, dict(train_section), fit_cfg, seed=3, k_eval=3, n_logged=300)
        b = run_sweep(env, methods, dict(train_section), fit_cfg, seed=3, k_eval=3, n_logged=300)
        assert a == b
        assert len(a) == 1 and a[0]["method"] == "uips"


class TestTrainingLogSizeIsIgnored:
    def test_train_and_sweep_outputs_do_not_depend_on_it(self, tmp_path):
        # the log is logged.jsonl for train and the top-level n_logged for
        # sweep; outputs differ only in the echoed config and its hash
        outputs = {}
        for name, n_logged in (("with", 300), ("other", 7), ("without", None)):
            config = json.loads(json.dumps(TINY_CONFIG))
            config["output_dir"] = str(tmp_path / name)
            if n_logged is None:
                del config["training"]["n_logged"]
            else:
                config["training"]["n_logged"] = n_logged
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            for command in ("generate", "fit-logging", "train", "sweep"):
                run_ok([command, "--config", str(path)])
            files = {}
            for file, data in read_bytes_map(tmp_path / name).items():
                if file.endswith(".csv"):
                    files[file] = data.split(b"\n", 1)[1]
                elif file.endswith("_report.json") or file == "manifest.json":
                    files[file] = {k: v for k, v in json.loads(data).items() if k not in ("config", "config_hash")}
                else:
                    files[file] = data
            outputs[name] = files
        assert set(outputs["without"]) >= {"policy.json", "trace.csv", "leaderboard.csv"}
        assert outputs["with"] == outputs["without"]
        assert outputs["other"] == outputs["without"]

    def test_sweep_ignores_the_training_seed_k_eval_and_weighting(self, tmp_path):
        # the top-level seed, sweep.k_eval and the grid set these for a sweep; at this
        # learning rate the minibatch order, and so a training seed, shows in the leaderboard
        bodies = []
        for name, changes in (("base", {}), ("changed", {"seed": 7, "k_eval": 1, "weighting": {"kind": "bips"}})):
            config = json.loads(json.dumps(TINY_CONFIG))
            config["output_dir"] = str(tmp_path / name)
            config["training"].update(changes, learning_rate=50.0)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            for command in ("generate", "sweep"):
                run_ok([command, "--config", str(path)])
            bodies.append((tmp_path / name / "leaderboard.csv").read_bytes().split(b"\n", 1)[1])
        assert bodies[0] == bodies[1]


class TestSweepSharesTables:
    def test_every_grid_point_matches_its_own_training_run(self, monkeypatch):
        # one set of propensity tables serves every kind of the grid: minvar
        # reads the beta_hat rows, dice_s the count propensities, uips the
        # uncertainties; 300 rows in batches of 70 leave a ragged last batch
        env = build_env(EnvConfig(**TINY_CONFIG["env"]))
        methods = {
            "uips": {"lam": [10], "gamma": [0.5, 2], "eta1": [1], "eta2": [100]},
            "minvar": {},
            "dice_s": {"cap": [5]},
            "bips_cap": {"cap": [2, 10]},
        }
        calls = []

        def recording_train_policies(dataset, tables, configs):
            policies = train_policies(dataset, tables, configs)
            calls.append((dataset, tables, configs, policies))
            return policies

        monkeypatch.setattr("uips.cli.train_policies", recording_train_policies)
        train_section = {"learning_rate": 0.5, "epochs": 3, "batch_size": 70}
        fit_cfg = LoggingFitConfig(**TINY_CONFIG["logging_fit"])
        run_sweep(env, methods, train_section, fit_cfg, seed=4, k_eval=3, n_logged=300)

        # every grid point of every method trains in one stack on one set of tables
        [(dataset, shared, configs, policies)] = calls
        assert [c.weighting.kind for c in configs] == ["uips", "uips", "minvar", "dice_s", "bips_cap", "bips_cap"]
        assert shared is not None
        # the logging model run_sweep fits on its log for seed 4
        model = fit_logging_policy(dataset, replace(fit_cfg, seed=4))
        for config, policy in zip(configs, policies, strict=True):
            ref_policy, _ = reference_train(dataset, model, config)
            assert_train_matches_reference(policy, None, ref_policy)


class TestExitCodes:
    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("tau", [1e-308, 5e-324])
    def test_tiny_env_tau_is_never_a_runtime_failure(self, tmp_path, tau):
        config = json.loads(write_config(tmp_path, "tiny-tau").read_text())
        config["env"]["tau"] = tau
        path = tmp_path / "tiny-tau.json"
        path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(path)]) in (0, 2)

    def test_missing_inputs_are_config_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "noinputs")
        assert main(["fit-logging", "--config", str(cfg)]) == 2
        assert main(["train", "--config", str(cfg)]) == 2
        for command in ("sweep", "ope"):
            capsys.readouterr()
            assert main([command, "--config", str(cfg)]) == 2
            assert "env.json; run the generate subcommand first" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["env-section", "seed-flag", "no-config"])
    @pytest.mark.parametrize("command", ["fit-logging", "train", "sweep", "ope", "inspect-weights"])
    def test_stale_env_json_is_a_config_error(self, tmp_path, capsys, command, change):
        # env.json must come from the env section this run resolves, --seed included
        cfg = write_config(tmp_path, "stale")
        run_ok(["generate", "--config", str(cfg)])
        run_ok(["fit-logging", "--config", str(cfg)])
        path = tmp_path / "stale" / "env.json"
        flags = []
        if change == "env-section":
            config = json.loads(cfg.read_text())
            config["env"].update(tau=0.1, seed=5)
            cfg.write_text(json.dumps(config))
        elif change == "seed-flag":
            flags = ["--seed", "5"]
        else:
            path.write_text(json.dumps({**json.loads(path.read_text()), "config": None}))
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert f"{path} was not generated from this env section" in err
        assert "run the generate subcommand again" in err
        run_ok(["generate", "--config", str(cfg), *flags])
        run_ok(["fit-logging", "--config", str(cfg), *flags])
        run_ok([command, "--config", str(cfg), *flags])

    @pytest.mark.parametrize("command", ["fit-logging", "train", "sweep", "ope", "inspect-weights"])
    def test_logging_policy_of_the_wrong_shape_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "shape")
        run_ok(["generate", "--config", str(cfg)])
        run_ok(["fit-logging", "--config", str(cfg)])
        path = tmp_path / "shape" / "env.json"
        env = json.loads(path.read_text())
        path.write_text(json.dumps({**env, "logging_theta": env["logging_theta"][:-1]}))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"invalid {path}: logging policy has shape (7, 6), not (action_count, dim) = (8, 6)" in err

    @pytest.mark.parametrize("key, value", [("action_count", 9), ("dim", 7)])
    @pytest.mark.parametrize("command", ["train", "inspect-weights"])
    def test_logging_model_of_another_env_is_a_config_error(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, "stalemodel")
        run_ok(["generate", "--config", str(cfg)])
        run_ok(["fit-logging", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config["env"][key] = value
        cfg.write_text(json.dumps(config))
        run_ok(["generate", "--config", str(cfg)])
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'stalemodel' / 'logging_model.json'} has shape (8, 6)" in err
        assert "run the fit-logging subcommand again" in err

    def test_invalid_section_is_a_config_error(self, tmp_path):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["output_dir"] = str(tmp_path / "badenv")
        config["env"]["tau"] = -1.0
        path = tmp_path / "badenv.json"
        path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(path)]) == 2

    def test_runtime_failure_maps_to_exit_three(self, tmp_path):
        cfg = write_config(tmp_path, "diverge")
        run_ok(["generate", "--config", str(cfg)])
        run_ok(["fit-logging", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config["logging_fit"]["learning_rate"] = 1e120
        config["logging_fit"]["epochs"] = 15
        cfg.write_text(json.dumps(config))
        assert main(["fit-logging", "--config", str(cfg)]) == 3

    def test_snips_weights_summing_to_zero_exit_three(self, tmp_path, capsys, monkeypatch):
        # at a vanishing env.tau the logging policy logs each context's top action only,
        # and the target puts all its mass on the other actions
        cfg = write_config(tmp_path, "snips")
        config = json.loads(cfg.read_text())
        config["env"]["tau"] = 1e-308
        config["ope"]["estimators"] = [{"kind": "snips"}]
        cfg.write_text(json.dumps(config))
        run_ok(["generate", "--config", str(cfg)])

        def off_log_policy(env, epsilon, split="test"):
            xs = env.split(split).xs
            probs = 1.0 - env.logging_policy.distribution_matrix(xs)
            return TabularPolicy(contexts=xs, probs=probs / probs.sum(axis=1, keepdims=True))

        monkeypatch.setattr(cli, "epsilon_greedy_policy", off_log_policy)
        capsys.readouterr()
        assert main(["ope", "--config", str(cfg)]) == 3
        assert "sum of propensity weights is zero" in capsys.readouterr().err


def _numeric_leaves(node, path=()):
    """The path of every int and float leaf of a config, seeds excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if key == "seed":
            continue
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,), value


BOUNDARY_FLOATS = (0.0, 5e-324, 1e-308, -0.0, 1e308, float("inf"), float("-inf"))
#: The integer fields whose work does not grow with their value; a size field such as
#: n_logged or env.dim at 10**6 takes minutes or gigabytes.
UNSCALED_INTEGERS = (
    ("training", "batch_size"), ("training", "k_eval"), ("training", "eval_every"),
    ("logging_fit", "negatives"), ("sweep", "k_eval"), ("inspect", "n_bins"),
)
#: How JSON (NaN, Infinity) and CSV (nan, inf) write a non-finite number.
NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")


def _results_text(path: Path) -> str:
    """An output file's text without the resolved config that a report echoes, where a
    legal infinite eta2 or cap is written as Infinity."""
    text = path.read_text()
    if path.name.endswith("_report.json") or path.name == "ope_summary.json":
        text = json.dumps({k: v for k, v in json.loads(text).items() if k != "config"})
    return text


class TestBoundaryScan:
    """Every numeric extreme in a config field is a finite result, a config error or a documented
    divergence."""

    @pytest.mark.parametrize("value", BOUNDARY_FLOATS + ("integers at 0", "integers at 10**6"), ids=str)
    def test_every_subcommand_is_finite_a_config_error_or_a_divergence(self, tmp_path, capsys, value):
        base = json.loads(write_config(tmp_path, "base").read_text())
        leaves = [
            *_numeric_leaves(base), (("logging_fit", "l2"), 1e-4), (("ope", "shrinkage_lam"), 10.0),
            (("env", "label_noise"), 0.0),
        ]
        if value == "integers at 0":
            cases = [(path, 0) for path, leaf in leaves if isinstance(leaf, int)]
        elif value == "integers at 10**6":
            cases = [(path, 10**6) for path in UNSCALED_INTEGERS]
        else:
            cases = [(path, value) for path, leaf in leaves if isinstance(leaf, float)]
        assert len(cases) > 5
        failures = []
        for i, (path, new) in enumerate(cases):
            case = f"{'.'.join(map(str, path))}={new!r}"
            out = tmp_path / f"scan-{i}"
            config = json.loads(json.dumps(base))
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = new
            config["output_dir"] = str(out)
            cfg = tmp_path / f"scan-{i}.json"
            cfg.write_text(json.dumps(config))
            for command in ("generate", "fit-logging", "train", "sweep", "ope", "inspect-weights"):
                code = main([command, "--config", str(cfg)])
                err = capsys.readouterr().err
                if code not in (0, 2) and not (code == 3 and "diverged" in err):
                    failures.append(f"{case} {command}: exit {code} {err.strip()}")
            written = sorted(out.iterdir()) if out.exists() else []
            failures += [f"{case} {f.name}: not finite" for f in written if NON_FINITE.search(_results_text(f))]
        assert failures == []


class TestMalformedLog:
    @pytest.mark.parametrize("damage, message", [
        (at_line_3(lambda line: line[: len(line) // 2]), "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "a"})),
         "logged.jsonl:3: missing key 'a'"),
        (at_line_3(lambda line: json.dumps({**json.loads(line), "r": 5.0})), "logged.jsonl:3: reward outside [0, 1]"),
        (at_line_3(lambda line: json.dumps({**json.loads(line), "a": 1.5})), "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json.dumps({**json.loads(line), "x": [str(v) for v in json.loads(line)["x"]]})),
         "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json.dumps({**json.loads(line), "a": True})), "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json.dumps({**json.loads(line), "r": "1"})), "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json.dumps({**json.loads(line), "r": False})), "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json.dumps({**json.loads(line), "beta_star": "0.5"})),
         "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json_with(line, 10**30, "a")), "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json_with(line, 10**400, "x", 0)), "logged.jsonl:3: malformed record"),
        (at_line_3(lambda line: json_with(line, 10**400, "r")), "logged.jsonl:3: malformed record"),
        # lines 1 and 20 log the same action: each squared norm is finite, their Gram sum is not
        (lambda lines: [json_with(line, 1.2e154, "x", 0) if i in (0, 19) else line for i, line in enumerate(lines)],
         "logged.jsonl:20: context is not finite or the running total of squared context norms overflows"),
    ], ids=["truncated", "missing-key", "reward-out-of-range", "fractional-action", "string-context",
            "boolean-action", "string-reward", "boolean-reward", "string-beta_star", "action-past-int64",
            "context-past-float", "reward-past-float", "context-norms-past-float"])
    def test_bad_line_is_a_config_error_naming_the_line(self, tmp_path, capsys, damage, message):
        cfg = write_config(tmp_path, "bad")
        run_ok(["generate", "--config", str(cfg)])
        path = tmp_path / "bad" / "logged.jsonl"
        lines = damage(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit-logging", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


class TestBadInputEntersAsConfigError:
    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["generate", "--config", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("generate", None, "n_logged", "many"),
        ("ope", None, "seed", "zero"),
        ("ope", "ope", "samples_per_context", [10]),
        ("ope", "ope", "n_seeds", None),
        ("ope", "ope", "epsilon", "small"),
        ("ope", "ope", "uips_hp", {"lam": -1.0}),
        ("ope", "ope", "shrinkage_lam", -1.0),
        ("sweep", "sweep", "k_eval", "three"),
        ("inspect-weights", "inspect", "epsilon", "small"),
        ("inspect-weights", "inspect", "n_bins", "3 bins"),
        ("inspect-weights", "inspect", "uips_hp", {"beta": 1.0}),
        ("generate", None, "n_logged", 0),
        ("sweep", None, "n_logged", 0),
        ("ope", "ope", "epsilon", 2),
        ("ope", "ope", "samples_per_context", 0),
        ("ope", "ope", "n_seeds", 0),
        ("ope", "ope", "seeds", []),
        ("sweep", "sweep", "k_eval", 0),
        ("inspect-weights", "inspect", "epsilon", 2),
        ("inspect-weights", "inspect", "n_bins", 0),
        ("inspect-weights", "inspect", "split", "bogus"),
        ("ope", "ope", "seeds", "ab"),
        ("ope", "ope", "estimators", [{"name": "x"}]),
        ("ope", "ope", "estimators", {"kind": "bips"}),
        ("ope", "ope", "estimators", []),
        ("ope", "ope", "seeds", [1.5]),
        ("ope", "ope", "seeds", ["a"]),
        ("ope", "ope", "seeds", [-1]),
        ("ope", None, "seed", -1),
        ("sweep", None, "seed", -1),
        ("sweep", None, "seed", 1.5),
        ("generate", None, "n_logged", 300.9),
        ("sweep", None, "n_logged", 300.0),
        ("ope", "ope", "n_seeds", 1.5),
        ("ope", "ope", "samples_per_context", 10.5),
        ("sweep", "sweep", "k_eval", 2.5),
        ("inspect-weights", "inspect", "n_bins", 2.5),
        ("generate", None, "n_logged", True),
        ("ope", "ope", "n_seeds", True),
        ("inspect-weights", "inspect", "split", "validation"),
        ("inspect-weights", "inspect", "split", "test"),
        ("sweep", None, "env", 5),
        ("ope", None, "env", []),
        ("ope", None, "ope", 5),
        ("sweep", None, "sweep", 5),
        ("inspect-weights", None, "inspect", 5),
        ("train", None, "training", 5),
        ("sweep", None, "training", 5),
        ("generate", None, "n_loged", 50),
        ("ope", "ope", "n_seed", 3),
        ("inspect-weights", "inspect", "nbins", 3),
        ("sweep", "sweep", "keval", 3),
        ("train", "training", "weighting", {"kind": "bips", "lam": 10}),
        ("ope", "ope", "estimators", [{"kind": "bips", "cap": 3}]),
        ("ope", "ope", "estimators", [{"kind": "bips", "hp": {}}]),
        ("train", "training", "weighting", {"kind": "uips_p", "hp": {"gamma": 2, "lam": 5}}),
        ("ope", "ope", "estimators", [{"kind": "uips_p", "hp": {"gamma": 2, "lam": 5}}]),
        ("ope", "ope", "estimators", [{"kind": "uips", "hp": {"lam": 10, "gamma": g}} for g in (1, 5)]),
        ("ope", "ope", "estimators", [{"kind": "bips", "name": 5}]),
        ("ope", "ope", "epsilon", True),
        ("ope", "ope", "epsilon", "0.2"),
        ("inspect-weights", "inspect", "epsilon", True),
        ("ope", "ope", "shrinkage_lam", "10"),
        ("ope", "ope", "shrinkage_lam", True),
        ("ope", "ope", "uips_hp", {"lam": True}),
        ("inspect-weights", "inspect", "uips_hp", {"eta2": True}),
        ("train", "training", "weighting", {"kind": "bips_cap", "cap": True}),
        ("ope", "ope", "estimators", [{"kind": "shrinkage", "lam": True}]),
    ])
    def test_non_numeric_or_invalid_value(self, tmp_path, capsys, command, section, key, value):
        cfg = write_config(tmp_path, "bad")
        if command == "inspect-weights":
            run_ok(["generate", "--config", str(cfg)])
            run_ok(["fit-logging", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        (config[section] if section else config)[key] = value
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        assert f"invalid {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("uips_hp", {"lam": 1e9}), ("shrinkage_lam", 7)])
    def test_ope_refuses_a_key_its_estimators_leave_unread(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "unread")
        config = json.loads(cfg.read_text())
        config["ope"].update({"estimators": [{"kind": "bips"}], key: value})
        cfg.write_text(json.dumps(config))
        run_ok(["generate", "--config", str(cfg)])
        capsys.readouterr()
        assert main(["ope", "--config", str(cfg)]) == 2
        assert f"invalid {key}" in capsys.readouterr().err

    def test_ope_refuses_n_seeds_beside_seeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "unread-n-seeds")
        config = json.loads(cfg.read_text())
        config["ope"].update({"seeds": [7, 9], "n_seeds": 2})
        cfg.write_text(json.dumps(config))
        run_ok(["generate", "--config", str(cfg)])
        capsys.readouterr()
        assert main(["ope", "--config", str(cfg)]) == 2
        assert "invalid n_seeds" in capsys.readouterr().err
        assert not (tmp_path / "unread-n-seeds" / "ope_summary.json").exists()

    @pytest.mark.parametrize("command, section, value", [
        ("generate", "env", -1),
        ("generate", "env", 1.5),
        ("fit-logging", "logging_fit", -1),
        ("fit-logging", "logging_fit", "0"),
        ("train", "training", -1),
        ("train", "training", 2.5),
        ("ope", "logging_fit", -2),
        ("ope", "env", 1.5),
        ("sweep", "logging_fit", -1),
        ("fit-logging", "logging_fit", True),
    ])
    def test_invalid_section_seed(self, tmp_path, capsys, command, section, value):
        cfg = write_config(tmp_path, "bad-section-seed")
        for earlier in {"fit-logging": ["generate"], "train": ["generate", "fit-logging"]}.get(command, []):
            run_ok([earlier, "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config[section]["seed"] = value
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        assert f"seed {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("generate", "env", "dim", 6.5),
        ("generate", "env", "action_count", True),
        ("generate", "env", "max_labels", 2.5),
        ("generate", "env", "label_noise", -1.0),
        ("generate", "env", "label_noise", NAN),
        ("fit-logging", "logging_fit", "epochs", 2.5),
        ("fit-logging", "logging_fit", "negatives", True),
        ("generate", "env", "tau", True),
        ("generate", "env", "label_noise", False),
        ("fit-logging", "logging_fit", "learning_rate", True),
        ("fit-logging", "logging_fit", "l2", True),
        ("train", "training", "learning_rate", True),
    ])
    def test_invalid_section_field(self, tmp_path, capsys, command, section, key, value):
        cfg = write_config(tmp_path, "bad-section-field")
        if command == "fit-logging":
            run_ok(["generate", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config[section][key] = value
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"invalid {section}" in err and f"{key} {value!r}" in err

    @pytest.mark.parametrize("command", ["generate", "ope"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "negative-seed")
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--seed", "-1"]) == 2
        assert "invalid --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, file, damage, message", [
        ("inspect-weights", "env.json",
         lambda text: json.dumps({**json.loads(text), "train": [{"x": [0.0] * 6, "relevant": [999]}]}),
         "relevant action outside [0, 8)"),
        ("train", "env.json",
         lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "test"}),
         "env.json: 'test'"),
        ("train", "logging_model.json", lambda text: text[:100], "invalid"),
        ("fit-logging", "logged.jsonl",
         lambda text: "".join(
             json.dumps({k: v for k, v in json.loads(line).items() if k != "beta_star" or i != 2}) + "\n"
             for i, line in enumerate(text.splitlines())
         ),
         "logged.jsonl:3: record has no beta_star, unlike line 1"),
        ("train", "env.json", lambda text: json_with(text, NAN, "test", 0, "x", 0), "contexts must be finite"),
        ("inspect-weights", "env.json", lambda text: json_with(text, NAN, "logging_theta", 0, 0),
         "theta must be finite"),
        ("train", "env.json", lambda text: json_with(text, None, "logging_theta", 0, 0),
         "logging_theta: not a 2-d array of numbers"),
        ("train", "env.json", lambda text: json_with(text, "0.5", "logging_tau"), "logging_tau: not a number"),
        ("train", "env.json", lambda text: json_with(text, [1.5], "train", 0, "relevant"),
         "train: a relevant action is not a JSON integer"),
        ("inspect-weights", "env.json", lambda text: json_with(text, [True], "validation", 0, "relevant"),
         "validation: a relevant action is not a JSON integer"),
        ("train", "env.json", lambda text: json_with(text, [10**30], "test", 1, "relevant"), "too large"),
        ("train", "env.json", lambda text: json_with(text, "0.5", "test", 0, "x", 0),
         "test contexts: not a 2-d array of numbers"),
        ("train", "env.json", lambda text: json_with(text, "8", "action_count"), "action_count '8' is not an integer"),
        ("train", "logging_model.json", lambda text: json_with(text, float("inf"), "grams", 0, 0, 0),
         "grams must be finite"),
        ("inspect-weights", "logging_model.json", lambda text: json_with(text, True, "grams", 0, 0, 0),
         "grams: not a 3-d array of numbers"),
        ("train", "logging_model.json", lambda text: json_with(text, [[0.0] * 6] * 6, "grams", 2),
         "the Gram matrix of action 2 is not positive-definite"),
        ("inspect-weights", "logging_model.json", lambda text: json_with(text, -1.0, "grams", 1, 0, 0),
         "the Gram matrix of action 1 is not positive-definite"),
        ("inspect-weights", "logging_model.json", lambda text: json_with(text, NAN, "theta", 0, 0),
         "theta must be finite"),
        ("inspect-weights", "logging_model.json", lambda text: json_with(text, 1e-300, "tau"), "tau 1e-300 is not 1.0"),
        ("train", "logging_model.json", lambda text: json_with(text, 2.0, "tau"), "tau 2.0 is not 1.0"),
        ("ope", "env.json", lambda text: json_with(text, 1e300, "test", 0, "x", 0), "contexts must be finite"),
        # finite alone, 1e308, but the drawn log holds ope.samples_per_context = 10 copies of it
        ("ope", "env.json", lambda text: json_with(text, 1e154, "test", 0, "x", 0),
         "test context 0: 10 draws per context add up squared norms past the float range"),
        # the log sweep draws holds n_logged = 300 random draws, which may all be this context
        ("sweep", "env.json", lambda text: json_with(text, 1e154, "train", 0, "x", 0),
         "train context 0: 300 draws of it add up squared norms past the float range"),
        ("fit-logging", "logged.jsonl",
         lambda text: "".join(
             (json_with(line, 1e300, "x", 0) if i == 1 else line) + "\n" for i, line in enumerate(text.splitlines())
         ),
         "logged.jsonl:2: context is not finite"),
    ], ids=["relevant-out-of-range", "missing-split", "truncated-model", "beta-star-on-some-records",
            "nan-context", "nan-logging-theta", "null-logging-theta", "string-logging-tau", "fractional-relevant",
            "boolean-relevant", "relevant-past-int64", "string-context", "string-action-count", "infinite-gram",
            "boolean-gram", "zero-gram", "negative-gram-diagonal", "nan-model-theta", "tiny-model-tau",
            "model-tau-2", "huge-context", "test-context-norms-past-float", "train-context-norms-past-float",
            "huge-logged-context"])
    def test_malformed_input_file_is_a_config_error_naming_it(self, tmp_path, capsys, command, file, damage, message):
        cfg = write_config(tmp_path, "damaged")
        run_ok(["generate", "--config", str(cfg)])
        run_ok(["fit-logging", "--config", str(cfg)])
        path = tmp_path / "damaged" / file
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "bogus_key", 1),
        ("sweep", "bogus_key", 1),
        ("train", "k_eval", 0),
        ("train", "refit_logging_per_epoch", True),
        ("train", "logging_fit", {"epochs": 20}),
        ("sweep", "refit_logging_per_epoch", True),
        ("sweep", "logging_fit", {"epochs": 20}),
        ("train", "batch_size", 50.5),
        ("train", "k_eval", 2.5),
        ("train", "eval_every", 1.5),
        ("train", "k_eval", True),
        ("sweep", "epochs", 2.5),
    ])
    def test_bad_training_section(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, "bogus")
        run_ok(["generate", "--config", str(cfg)])
        if command == "train":
            run_ok(["fit-logging", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config["training"][key] = value
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        assert "invalid training section" in capsys.readouterr().err

    def test_negative_learning_rate_in_a_sweep_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "negative")
        run_ok(["generate", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config["sweep"]["methods"]["bips_cap"]["learning_rate"] = [-0.5]
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "invalid training section" in capsys.readouterr().err

    @pytest.mark.parametrize("methods, message", [
        ({"bips_cap": [5]}, "invalid bips_cap grid: a grid is a JSON object, not list"),
        (["uips"], "sweep section needs a non-empty methods map"),
        ({"bips_cap": {"learning_rate": 0.5}}, "invalid bips_cap learning_rate: expected a JSON list, not float"),
        ({"bips_cap": {"learning_rate": []}}, "invalid bips_cap learning_rate: the list is empty"),
        ({"bips_cap": {"caps": [5]}}, "invalid bips_cap grid: bips_cap reads no caps"),
        ({"uips_p": {"gamma": [2], "lam": [10]}}, "invalid uips_p grid: uips_p reads no lam"),
        ({"bips": {"cap": [5]}}, "invalid bips grid: bips reads no cap"),
    ], ids=["grid-list", "methods-list", "learning_rate-number", "learning_rate-empty",
            "unread-key", "key-of-another-method", "key-of-a-method-without-grid"])
    def test_sweep_methods_that_are_not_objects(self, tmp_path, capsys, methods, message):
        cfg = write_config(tmp_path, "notobject")
        run_ok(["generate", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config["sweep"]["methods"] = methods
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, path, value, message", [
        ("train", ("training", "learning_rate"), NAN, "invalid training section"),
        ("fit-logging", ("logging_fit", "learning_rate"), NAN, "invalid logging_fit"),
        ("fit-logging", ("logging_fit", "l2"), NAN, "invalid logging_fit"),
        ("fit-logging", ("logging_fit", "l2"), -1.0, "invalid logging_fit: l2 -1.0 is not a number >= 0"),
        ("train", ("training", "weighting", "hp", "lam"), NAN, "invalid weighting spec"),
        ("train", ("training", "weighting", "hp", "gamma"), NAN, "invalid weighting spec"),
        ("train", ("training", "weighting", "hp", "eta1"), NAN, "invalid weighting spec"),
        ("train", ("training", "weighting", "hp", "eta2"), NAN, "invalid weighting spec"),
        ("train", ("training", "weighting"), {"kind": "bips_cap", "cap": NAN}, "invalid weighting spec"),
        ("train", ("training", "weighting"), {"kind": "shrinkage", "lam": NAN}, "invalid weighting spec"),
        ("ope", ("ope", "uips_hp", "lam"), NAN, "invalid uips_hp"),
        ("sweep", ("sweep", "methods", "uips", "lam"), [NAN], "invalid uips grid"),
    ], ids=["train-learning_rate", "fit-learning_rate", "fit-l2", "fit-l2-negative", "hp-lam", "hp-gamma", "hp-eta1",
            "hp-eta2", "weighting-cap", "weighting-lam", "ope-hp-lam", "sweep-grid-lam"])
    def test_nan_hyper_parameter(self, tmp_path, capsys, command, path, value, message):
        cfg = write_config(tmp_path, "nan")
        if command in ("train", "fit-logging", "sweep"):
            run_ok(["generate", "--config", str(cfg)])
        if command == "train":
            run_ok(["fit-logging", "--config", str(cfg)])
        config = json.loads(cfg.read_text())
        config["ope"]["uips_hp"] = {"lam": 10.0, "gamma": 2.0, "eta1": 1.0, "eta2": 100.0}
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_log_whose_contexts_do_not_match_the_env(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "short")
        run_ok(["generate", "--config", str(cfg)])
        path = tmp_path / "short" / "logged.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps({**r, "x": r["x"][:-1]}) + "\n" for r in records))
        for command in ("fit-logging", "train", "inspect-weights"):
            capsys.readouterr()
            assert main([command, "--config", str(cfg)]) == 2
            assert "logged.jsonl: contexts have length 5" in capsys.readouterr().err
        assert not (tmp_path / "short" / "logging_model.json").exists()


class TestSettingsBeforeWork:
    """Every subcommand parses its settings before it makes the output directory or reads,
    builds or fits anything."""

    @pytest.mark.parametrize("name", ["bips,capped", "a\nb", "a\rb", "#bips"])
    def test_estimator_name_that_breaks_a_csv_row(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, "names")
        run_ok(["generate", "--config", str(cfg)])
        cfg.write_text(json_with(cfg.read_text(), [{"kind": "bips", "name": name}], "ope", "estimators"))
        capsys.readouterr()
        assert main(["ope", "--config", str(cfg)]) == 2
        assert f"invalid estimators: estimator name {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "names" / "ope_results.csv").exists()

    def test_output_dir_that_is_not_a_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "unused")
        cfg.write_text(json_with(cfg.read_text(), 5, "output_dir"))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "invalid output_dir 5" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_output_path_in_the_place_of_a_file(self, tmp_path, capsys, below):
        cfg = write_config(tmp_path, "unused")
        afile = tmp_path / "afile"
        afile.write_text("")
        target = afile / "sub" if below else afile
        assert main(["generate", "--config", str(cfg), "--out", str(target)]) == 2
        assert f"invalid output_dir {str(target)!r}" in capsys.readouterr().err
        assert afile.read_text() == ""

    def test_generate_reads_n_logged_before_building_the_env(self, tmp_path, capsys, monkeypatch):
        def no_build(config):
            raise AssertionError("generate built the environment")

        monkeypatch.setattr("uips.cli.build_env", no_build)
        cfg = write_config(tmp_path, "early")
        cfg.write_text(json_with(cfg.read_text(), 0, "n_logged"))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "invalid n_logged" in capsys.readouterr().err
        assert not (tmp_path / "early").exists()

    def test_fit_logging_reads_its_section_before_the_log(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "nolog")
        cfg.write_text(json_with(cfg.read_text(), 0, "logging_fit", "epochs"))
        assert main(["fit-logging", "--config", str(cfg)]) == 2
        assert "invalid logging_fit" in capsys.readouterr().err

    def test_inspect_weights_reads_its_section_before_the_model(self, tmp_path, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError("inspect-weights read the logging model")

        monkeypatch.setattr("uips.cli.LoggingModel.load", no_load)
        cfg = write_config(tmp_path, "split")
        run_ok(["generate", "--config", str(cfg)])
        run_ok(["fit-logging", "--config", str(cfg)])
        cfg.write_text(json_with(cfg.read_text(), "test", "inspect", "split"))
        capsys.readouterr()
        assert main(["inspect-weights", "--config", str(cfg)]) == 2
        assert "invalid split 'test'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, path, value", [
        ("generate", ("n_logged",), 0),
        ("fit-logging", ("logging_fit", "epochs"), 0),
        ("train", ("training", "epochs"), 0),
        ("train", ("env", "dim"), 0),
        ("sweep", ("sweep", "k_eval"), 0),
        ("sweep", ("sweep", "methods"), {"bips": {"cap": [5]}}),
        ("ope", ("ope", "epsilon"), 2),
        ("inspect-weights", ("inspect", "split"), "test"),
    ])
    def test_no_output_directory_before_the_settings_parse(self, tmp_path, capsys, command, path, value):
        cfg = write_config(tmp_path, "never")
        cfg.write_text(json_with(cfg.read_text(), value, *path))
        assert main([command, "--config", str(cfg)]) == 2
        assert "invalid" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("command, home, value, output, read", [
        ("generate", "N_LOGGED", 40, "manifest.json", lambda text: json.loads(text)["n_logged"]),
        ("ope", "EPSILON", 0.5, "ope_summary.json", lambda text: json.loads(text)["epsilon"]),
        ("inspect-weights", "N_BINS", 2, "uncertainty_bins.csv", lambda text: len(text.splitlines()) - 2),
    ])
    def test_each_default_is_read_from_its_home(self, tmp_path, monkeypatch, command, home, value, output, read):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["output_dir"] = str(tmp_path / "homes")
        del config["n_logged"], config["ope"]["epsilon"], config["inspect"]["n_bins"]
        cfg = tmp_path / "homes.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setattr(cli, home, value)
        for earlier in {"ope": ["generate"], "inspect-weights": ["generate", "fit-logging"]}.get(command, []):
            run_ok([earlier, "--config", str(cfg)])
        run_ok([command, "--config", str(cfg)])
        assert read((tmp_path / "homes" / output).read_text()) == value
