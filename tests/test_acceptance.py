"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Numbers mirror the criteria in the project README. Exact oracle checks run
at fixed tolerances; the ordering reproductions run on seeded skewed
desk-scale environments and are fully deterministic.
"""

import json
import math
import time

import numpy as np

from helpers import count_ips_reference, sample_weight_instances
from oracles import (
    WeightInput,
    cap_region_threshold,
    distribution,
    minmax_objective,
    oracle_phi,
    phi_star,
    worst_case_beta,
    worst_case_objective,
)
from uips.cli import main as cli_main
from uips.cli import run_sweep
from uips.core import LoggedDataset, SoftmaxLinearPolicy, make_rng
from uips.estimators import (
    ConstantImputation,
    Weighting,
    exact_bias_variance,
    ope_mse_experiment,
)
from uips.learning import dr_gradient, weighted_gradient
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    fit_logging_policy,
    uncertainties,
    uncertainty_frequency_bins,
)
from uips.synthetic import (
    EnvConfig,
    TabularPolicy,
    build_env,
    epsilon_greedy_policy,
    generate_log,
    generate_log_per_context,
    true_policy_value,
)
from uips.weights import UipsHyperParams


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


INSTANCES = sample_weight_instances(1000, seed=1000)


def test_01_closed_form_minimax_optimality():
    start = time.time()
    worst_gap = -math.inf
    for winput, interval, lam in INSTANCES:
        hp = UipsHyperParams(lam=lam, gamma=1.0, eta1=1.0, eta2=1.0)
        star = phi_star(winput, hp)
        grid = oracle_phi(interval, winput, lam, grid_resolution=20_000, phi_max=2.0)
        gap = worst_case_objective(star, interval, winput, lam) - worst_case_objective(
            grid, interval, winput, lam
        )
        worst_gap = max(worst_gap, gap)
    elapsed = time.time() - start
    report(
        1, "closed-form minimax weight beats a 20k-point grid oracle",
        worst_gap <= 1e-6 and elapsed < 30.0,
        f"(max objective gap {worst_gap:.2e}, {elapsed:.1f}s over 1000 instances)",
    )


def test_02_shrinkage_special_case():
    worst = 0.0
    for winput, _, lam in INSTANCES:
        hp = UipsHyperParams(lam=lam, gamma=0.0, eta1=1.0, eta2=1.0)
        ratio = winput.pi / winput.beta_hat
        worst = max(worst, abs(phi_star(winput, hp) - lam / (lam + ratio**2)))
    report(
        2, "zero-uncertainty weight equals the shrinkage rule",
        worst <= 1e-12, f"(max abs deviation {worst:.2e} over 1000 instances)",
    )


def test_03_per_instance_advantage_over_unit_weight():
    violations = 0
    for winput, interval, lam in INSTANCES:
        hp = UipsHyperParams(lam=lam, gamma=1.0, eta1=1.0, eta2=1.0)
        star = phi_star(winput, hp)
        t_star = minmax_objective(star, worst_case_beta(star, interval, winput, lam), winput, lam)
        t_one = minmax_objective(1.0, worst_case_beta(1.0, interval, winput, lam), winput, lam)
        violations += t_star > t_one
    report(
        3, "worst-case objective at the optimal weight never exceeds unit weight",
        violations == 0, f"({violations} violations over 1000 instances)",
    )


def test_04_estimated_propensity_bias_identity():
    worst = 0.0
    for seed in range(50):
        rng = make_rng(2000 + seed)
        cfg = EnvConfig(
            dim=4, action_count=int(rng.integers(4, 9)), train_size=int(rng.integers(6, 15)),
            validation_size=3, test_size=4, tau=float(rng.uniform(0.5, 2.0)), seed=seed,
        )
        env = build_env(cfg)
        noisy_theta = env.logging_policy.theta + 0.4 * rng.standard_normal(env.logging_policy.theta.shape)
        model = LoggingModel(
            policy=SoftmaxLinearPolicy(theta=noisy_theta, tau=env.logging_policy.tau),
            grams=np.broadcast_to(np.eye(env.dim), (env.action_count, env.dim, env.dim)).copy(),
        )
        policy = epsilon_greedy_policy(env, float(rng.uniform(0.05, 0.6)), split="train")
        bias, _, _ = exact_bias_variance(env, policy, model, Weighting(kind="bips"), int(rng.integers(1, 200)))

        xs, rewards = env.train.xs, env.train.rewards
        pi = np.stack([distribution(policy, x) for x in xs])
        beta_star = env.logging_policy.distribution_matrix(xs)
        beta_hat = np.maximum(model.beta_matrix(xs), 1e-8)
        reference = float(np.mean(np.sum(pi * rewards * (beta_star / beta_hat - 1.0), axis=1)))
        worst = max(worst, abs(bias - reference))
    report(
        4, "exact enumeration reproduces the estimated-propensity bias identity",
        worst <= 1e-10, f"(max abs difference {worst:.2e} over 50 problems)",
    )


def test_05_true_propensity_unbiasedness():
    from uips.estimators import estimate

    failures = []
    for env_seed in range(10):
        rng = make_rng(3000 + env_seed)
        cfg = EnvConfig(
            dim=6, action_count=8, train_size=20, validation_size=5, test_size=12,
            tau=float(rng.uniform(1.0, 2.0)), seed=env_seed,
        )
        env = build_env(cfg)
        policy = epsilon_greedy_policy(env, float(rng.uniform(0.2, 0.6)))
        truth = true_policy_value(env, policy)
        estimates = np.array([
            estimate(generate_log_per_context(env, 20, rng), policy, None,
                     Weighting(kind="ips_true")).value
            for _ in range(500)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        if abs(estimates.mean() - truth) >= 3 * se:
            failures.append(env_seed)
    report(
        5, "true-propensity estimator is unbiased across regenerated logs",
        not failures, f"(within 3 standard errors on 10/10 envs; failures: {failures})",
    )


def _finite_difference_check(analytic, objective, theta0, h=1e-5):
    fd = np.zeros_like(analytic)
    rows, cols = theta0.shape
    for i in range(rows):
        for j in range(cols):
            for sign in (1.0, -1.0):
                theta = theta0.copy()
                theta[i, j] += sign * h
                fd[i, j] += sign * objective(theta)
            fd[i, j] /= 2 * h
    return np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-300)


def test_06_gradient_finite_difference_agreement():
    env = build_env(EnvConfig(dim=6, action_count=8, train_size=25, validation_size=5,
                              test_size=10, seed=70))
    ds = generate_log(env, 150, make_rng(70))
    model = fit_logging_policy(ds, LoggingFitConfig(epochs=60, learning_rate=2.0, seed=70))
    rng = make_rng(71)
    hp = UipsHyperParams(lam=8.0, gamma=2.0, eta1=1.0, eta2=100.0)
    worst_w = worst_dr = 0.0
    for trial in range(20):
        idx = rng.choice(len(ds), size=12, replace=False)
        batch = ds.subset(idx)
        us = uncertainties(model, batch)
        policy = SoftmaxLinearPolicy(theta=0.5 * rng.standard_normal((8, 6)))
        n = np.arange(len(batch))
        beta_sel = np.maximum(model.beta_matrix(batch.xs)[n, batch.actions], 1e-8)
        pi_ref = policy.distribution_matrix(batch.xs)[n, batch.actions]
        weighting = Weighting(kind="uips", hp=hp) if trial % 2 else Weighting(kind="bips")
        if weighting.kind == "bips":
            w_ref = pi_ref / beta_sel
        else:
            from uips.weights import phi_star_vector

            w_ref = pi_ref / beta_sel * phi_star_vector(pi_ref / beta_sel, us, hp)[0]
        frozen = w_ref / pi_ref

        analytic_w = weighted_gradient(policy, batch, model, weighting)

        def weighted_objective(theta):
            pol = SoftmaxLinearPolicy(theta=theta)
            pi = pol.distribution_matrix(batch.xs)[n, batch.actions]
            return float(np.mean(pi * frozen * batch.rewards))

        worst_w = max(worst_w, _finite_difference_check(analytic_w, weighted_objective, policy.theta))

        eta = ConstantImputation(0.4)
        analytic_dr = dr_gradient(policy, batch, model, eta, weighting)
        eta_sel = np.full(len(batch), 0.4)

        def dr_objective(theta):
            pol = SoftmaxLinearPolicy(theta=theta)
            pi_all = pol.distribution_matrix(batch.xs)
            dm = float(np.mean(np.sum(pi_all * 0.4, axis=1)))
            corr = float(np.mean(pi_all[n, batch.actions] * frozen * (batch.rewards - eta_sel)))
            return dm + corr

        worst_dr = max(worst_dr, _finite_difference_check(analytic_dr, dr_objective, policy.theta))
    passed = worst_w < 1e-5 and worst_dr < 1e-5
    report(
        6, "policy gradients match central finite differences",
        passed, f"(max rel err weighted {worst_w:.2e}, doubly-robust {worst_dr:.2e}, 20 instances each)",
    )


def test_07_skewed_env_estimator_mse_ordering():
    start = time.time()
    env = build_env(EnvConfig(dim=16, action_count=50, train_size=200, validation_size=50,
                              test_size=100, tau=0.5, seed=0))
    policy = epsilon_greedy_policy(env, 0.2)
    lam_grid = [0.5, 0.1, 1, 2, 5, 10, 15, 20, 25, 30, 40, 50]
    estimators = [("bips", Weighting(kind="bips"))]
    estimators += [(f"shrinkage[{lam}]", Weighting(kind="shrinkage", lam=lam)) for lam in lam_grid]
    for lam in lam_grid:
        for gamma in (0.1, 0.5, 1, 2, 5, 25):
            for eta1 in (0.5, 1.0):
                estimators.append((
                    f"uips[{lam},{gamma},{eta1}]",
                    Weighting(kind="uips", hp=UipsHyperParams(lam=lam, gamma=gamma, eta1=eta1, eta2=100.0)),
                ))
    res = ope_mse_experiment(
        env, policy, estimators, seeds=list(range(20)), samples_per_context=100,
        fit_config=LoggingFitConfig(epochs=150, learning_rate=2.0, negatives=5, l2=1e-4),
    )

    def se_by_seed(name):
        return {r["seed"]: r["squared_error"] for r in res.rows if r["estimator"] == name}

    uips_names = [n for n, _ in estimators if n.startswith("uips")]
    shr_names = [n for n, _ in estimators if n.startswith("shrinkage")]
    best_uips = min(uips_names, key=lambda n: res.summary[n]["mse"])
    best_shr = min(shr_names, key=lambda n: res.summary[n]["mse"])
    se_u, se_b, se_s = se_by_seed(best_uips), se_by_seed("bips"), se_by_seed(best_shr)
    wins_bips = sum(se_u[s] < se_b[s] for s in se_u)
    wins_shr = sum(se_u[s] < se_s[s] for s in se_u)
    elapsed = time.time() - start
    report(
        7, "tuned uncertainty-aware weighting wins the skewed-env MSE comparison",
        wins_bips >= 18 and wins_shr >= 14 and elapsed < 600.0,
        f"(vs bips {wins_bips}/20, vs tuned shrinkage {wins_shr}/20, "
        f"best point {best_uips}, mse {res.summary[best_uips]['mse']:.4f} "
        f"vs bips {res.summary['bips']['mse']:.4f} vs {best_shr} {res.summary[best_shr]['mse']:.4f}, "
        f"{elapsed:.0f}s)",
    )


def test_08_learned_policy_ranking_ordering():
    env = build_env(EnvConfig(tau=0.5, seed=0))
    methods = {
        "uips": {"lam": [10, 50], "gamma": [0.5, 5], "eta1": [0.5, 1], "eta2": [100]},
        "bips_cap": {"cap": [1, 5, 10, 100]},
    }
    train_section = {"learning_rate": 0.5, "epochs": 20, "batch_size": 500, "n_logged": 5000}
    fit_cfg = LoggingFitConfig(epochs=150, learning_rate=2.0)
    wins = 0
    for seed in range(10):
        rows = run_sweep(env, methods, dict(train_section), fit_cfg, seed=seed, k_eval=5)
        by = {r["method"]: r["test_ndcg_at_k"] for r in rows}
        wins += by["uips"] >= by["bips_cap"]
    report(
        8, "swept uncertainty-aware training beats capped-propensity training on test ranking",
        wins >= 7, f"(test NDCG@5 wins {wins}/10 seeds)",
    )


def test_09_uncertainty_frequency_trend():
    results = []
    for tau, seed in ((0.4, 11), (0.5, 12), (0.6, 13), (0.8, 14)):
        env = build_env(EnvConfig(tau=tau, seed=seed))
        ds = generate_log(env, 4000, make_rng(seed))
        model = fit_logging_policy(ds, LoggingFitConfig(epochs=80, learning_rate=2.0, seed=seed))
        bins = uncertainty_frequency_bins(ds, uncertainties(model, ds), n_bins=5)
        results.append(bins[0]["mean_uncertainty"] > bins[-1]["mean_uncertainty"])
    report(
        9, "lowest-frequency actions carry the highest estimation uncertainty",
        all(results), f"(trend holds on {sum(results)}/{len(results)} skewed envs)",
    )


def test_10_weight_monotonicity_regions():
    u_grid = np.linspace(0.0, 3.0, 31)
    beta_hat = 0.01
    failures = 0
    increasing_checked = 0
    for lam in (0.5, 2.0, 10.0, 50.0):
        for eta in (0.5, 1.0, 2.0, 5.0):
            for gamma in (0.5, 2.0):
                hp = UipsHyperParams(lam=lam, gamma=gamma, eta1=eta, eta2=eta)

                def phi_at(ratio, u):
                    return phi_star(WeightInput(pi=min(1.0, ratio * beta_hat), beta_hat=beta_hat, u=u), hp)

                # high-ratio region: never increasing in uncertainty
                for mult in (1.0, 3.0, 30.0):
                    ratio = mult * math.sqrt(lam) / eta
                    values = [phi_at(ratio, u) for u in u_grid]
                    failures += int(np.any(np.diff(values) > 1e-12))
                # low-ratio region: never decreasing where the conditions hold
                for frac in (1.05, 1.3, 1.8):
                    for i in range(len(u_grid) - 1):
                        u0, u1 = u_grid[i], u_grid[i + 1]
                        ratio = frac * cap_region_threshold(lam, eta, gamma, u0)
                        if not np.isfinite(ratio):
                            continue
                        in_region = all(
                            cap_region_threshold(lam, eta, gamma, u) <= ratio
                            and ratio < math.sqrt(lam) / eta * math.exp(-gamma * u)
                            for u in (u0, u1)
                        )
                        if not in_region:
                            continue
                        increasing_checked += 1
                        failures += int(phi_at(ratio, u1) < phi_at(ratio, u0) - 1e-12)
    report(
        10, "weight monotonicity in uncertainty holds per region",
        failures == 0 and increasing_checked > 50,
        f"({failures} violations; {increasing_checked} increasing-region pairs exercised)",
    )


def test_11_count_propensity_equivalence():
    rng = make_rng(4000)
    mismatches = 0
    for _ in range(50):
        n_ctx = int(rng.integers(2, 7))
        a_count = int(rng.integers(2, 7))
        n = int(rng.integers(20, 60))
        contexts = rng.standard_normal((n_ctx, 3))
        idx = rng.integers(0, n_ctx, n)
        ds = LoggedDataset(
            xs=contexts[idx], actions=rng.integers(0, a_count, n),
            rewards=rng.integers(0, 2, n).astype(float), action_count=a_count,
        )
        policy = TabularPolicy(contexts=contexts, probs=rng.dirichlet(np.ones(a_count), size=n_ctx))
        cap = float(rng.choice([1.0, 5.0, 20.0, np.inf]))
        from uips.estimators import estimate

        got = estimate(ds, policy, None, Weighting(kind="dice_s", cap=cap)).value
        mismatches += got != count_ips_reference(ds, policy, cap)
    report(
        11, "count-propensity estimator equals the independent reference exactly",
        mismatches == 0, f"({mismatches} mismatches over 50 random datasets)",
    )


def test_12_cli_determinism(tmp_path):
    config = {
        "output_dir": str(tmp_path / "run"),
        "n_logged": 250,
        "seed": 0,
        "env": {"dim": 6, "action_count": 8, "train_size": 20, "validation_size": 8,
                "test_size": 10, "tau": 0.7, "seed": 2},
        "logging_fit": {"learning_rate": 2.0, "epochs": 30, "negatives": 5, "seed": 2},
        "training": {"learning_rate": 0.5, "epochs": 3, "batch_size": 100, "seed": 2, "k_eval": 3,
                     "n_logged": 250,
                     "weighting": {"kind": "uips",
                                   "hp": {"lam": 10.0, "gamma": 2.0, "eta1": 1.0, "eta2": 100.0}}},
        "sweep": {"k_eval": 3, "methods": {"uips": {"lam": [10], "gamma": [2], "eta1": [1], "eta2": [100]},
                                           "bips_cap": {"cap": [5]}}},
        "ope": {"epsilon": 0.2, "samples_per_context": 8, "n_seeds": 2},
        "inspect": {"epsilon": 0.2, "split": "train", "n_bins": 3,
                    "uips_hp": {"lam": 10.0, "gamma": 2.0, "eta1": 1.0, "eta2": 100.0}},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    commands = ["generate", "fit-logging", "train", "sweep", "ope", "inspect-weights"]

    def run_all():
        for command in commands:
            assert cli_main([command, "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_all()
    second = run_all()
    identical = first == second
    report(
        12, "every CLI subcommand is byte-deterministic given (config, seed)",
        identical, f"({len(first)} output files compared across two full runs)",
    )
