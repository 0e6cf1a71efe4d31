import json
from pathlib import Path

import numpy as np
import pytest

from uips.cli import main, run_sweep
from uips.core import LoggedDataset
from uips.logging_fit import LoggingFitConfig
from uips.synthetic import BanditEnv, EnvConfig, build_env

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
        run_ok(["ope", "--config", str(path)])
        summary = json.loads((tmp_path / "custom" / "ope_summary.json").read_text())
        assert set(summary["mse"]) == {"capped", "snips", "uips"}
        assert summary["seeds"] == [7, 9]

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


class TestExitCodes:
    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad)]) == 2

    def test_missing_inputs_are_config_errors(self, tmp_path):
        cfg = write_config(tmp_path, "noinputs")
        assert main(["fit-logging", "--config", str(cfg)]) == 2
        assert main(["train", "--config", str(cfg)]) == 2

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


class TestMalformedLog:
    @pytest.mark.parametrize("damage, message", [
        (lambda line: line[: len(line) // 2], "logged.jsonl:3: malformed record"),
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "a"}),
         "logged.jsonl:3: missing key 'a'"),
        (lambda line: json.dumps({**json.loads(line), "r": 5.0}), "logged.jsonl:3: reward outside [0, 1]"),
        (lambda line: json.dumps({**json.loads(line), "a": 1.5}), "logged.jsonl:3: malformed record"),
    ], ids=["truncated", "missing-key", "reward-out-of-range", "fractional-action"])
    def test_bad_line_is_a_config_error_naming_the_line(self, tmp_path, capsys, damage, message):
        cfg = write_config(tmp_path, "bad")
        run_ok(["generate", "--config", str(cfg)])
        path = tmp_path / "bad" / "logged.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = damage(lines[2])
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
        ("sweep", "sweep", "k_eval", "three"),
        ("inspect-weights", "inspect", "epsilon", "small"),
        ("inspect-weights", "inspect", "n_bins", "3 bins"),
        ("inspect-weights", "inspect", "uips_hp", {"beta": 1.0}),
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
