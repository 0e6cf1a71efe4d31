from dataclasses import replace

import numpy as np
import pytest

from helpers import WEIGHT_KINDS, assert_train_matches_reference, reference_train
from oracles import TabularImputation, imputed_reward, log_prob_grad, prob
from uips.cli import run_sweep
from uips.core import LoggedDataset, SoftmaxLinearPolicy, make_rng
from uips.core import BETA_FLOOR
from uips.estimators import (
    ConstantImputation,
    PropensityTables,
    Weighting,
    propensity_tables,
)
from uips.learning import (
    TrainConfig,
    _log_trick_gradient,
    dr_gradient,
    train,
    train_policies,
    true_gradient_norm,
    weighted_gradient,
)
from uips.logging_fit import LoggingFitConfig, LoggingModel, fit_logging_policy, uncertainties
from uips.synthetic import EnvConfig, build_env, generate_log
from uips.weights import UipsHyperParams

SMALL = EnvConfig(dim=6, action_count=8, train_size=25, validation_size=10, test_size=10, seed=60)
UIPS_HP = UipsHyperParams(lam=10.0, gamma=2.0, eta1=1.0, eta2=100.0)
EVERY_WEIGHTING = [
    Weighting(kind="ce"),
    Weighting(kind="ips_true"),
    Weighting(kind="bips"),
    Weighting(kind="bips_cap", cap=5.0),
    Weighting(kind="snips"),
    Weighting(kind="minvar"),
    Weighting(kind="stablevar"),
    Weighting(kind="shrinkage", lam=5.0),
    Weighting(kind="uips", hp=UIPS_HP),
    Weighting(kind="uips_p", hp=UIPS_HP),
    Weighting(kind="uips_o", hp=UIPS_HP),
    Weighting(kind="dice_s", cap=10.0),
]


def make_setup(seed=0, n=120, cfg=SMALL):
    env = build_env(cfg)
    ds = generate_log(env, n, make_rng(seed))
    model = fit_logging_policy(ds, LoggingFitConfig(epochs=60, learning_rate=2.0, seed=seed))
    return env, ds, model


def random_policy(rng, action_count, dim, scale=0.5):
    return SoftmaxLinearPolicy(theta=scale * rng.standard_normal((action_count, dim)), tau=1.0)


def loop_ips_gradient(policy, batch):
    """Per-sample loop REINFORCE gradient with true propensities."""
    total = np.zeros_like(policy.theta)
    for i in range(len(batch)):
        x, a = batch.xs[i], int(batch.actions[i])
        w = prob(policy, x, a) / batch.true_logging_probs[i]
        total += w * batch.rewards[i] * log_prob_grad(policy, x, a)
    return total / len(batch)


def frozen_phi_objective(theta, batch, model, weighting, us, tau=1.0):
    """Weighted value with the shrink factors locked at the reference policy."""
    policy = SoftmaxLinearPolicy(theta=theta, tau=tau)
    n = np.arange(len(batch))
    pi_sel = policy.distribution_matrix(batch.xs)[n, batch.actions]
    return float(np.mean(pi_sel * us * batch.rewards))


class TestWeightedGradient:
    def test_zero_rewards_give_zero_gradient(self):
        env, ds, model = make_setup()
        zeroed = LoggedDataset(xs=ds.xs, actions=ds.actions, rewards=np.zeros(len(ds)),
                               action_count=ds.action_count)
        grad = weighted_gradient(random_policy(make_rng(1), 8, 6), zeroed, model,
                                 Weighting(kind="uips", hp=UIPS_HP))
        np.testing.assert_array_equal(grad, 0.0)

    def test_matches_finite_differences_with_frozen_weights(self):
        env, ds, model = make_setup()
        us = uncertainties(model, ds)
        rng = make_rng(2)
        h = 1e-5
        kinds = [
            Weighting(kind="bips"),
            Weighting(kind="bips_cap", cap=5.0),
            Weighting(kind="uips", hp=UIPS_HP),
            Weighting(kind="shrinkage", lam=5.0),
            Weighting(kind="ips_true"),
        ]
        for trial in range(20):
            weighting = kinds[trial % len(kinds)]
            idx = rng.choice(len(ds), size=16, replace=False)
            batch = ds.subset(idx)
            policy = random_policy(rng, 8, 6)
            analytic = weighted_gradient(policy, batch, model, weighting)

            # freeze the per-sample multipliers at the reference policy; the
            # objective is then mean(pi * frozen_multiplier * r) and the
            # analytic gradient must match its central differences
            beta_all = model.beta_matrix(batch.xs)
            n = np.arange(len(batch))
            pi_ref = policy.distribution_matrix(batch.xs)[n, batch.actions]
            if weighting.kind == "ips_true":
                w_ref = pi_ref / batch.true_logging_probs
            else:
                beta_sel = np.maximum(beta_all[n, batch.actions], 1e-8)
                ratio = pi_ref / beta_sel
                if weighting.kind == "bips":
                    w_ref = ratio
                elif weighting.kind == "bips_cap":
                    w_ref = np.minimum(weighting.cap, ratio)
                elif weighting.kind == "shrinkage":
                    w_ref = ratio * weighting.lam / (weighting.lam + ratio**2)
                else:
                    from uips.weights import phi_star_vector

                    w_ref = ratio * phi_star_vector(ratio, uncertainties(model, batch), weighting.hp)[0]
            frozen = w_ref / pi_ref  # multiplier independent of theta
            fd = np.zeros_like(analytic)
            for i in range(8):
                for j in range(6):
                    for sign in (1.0, -1.0):
                        theta = policy.theta.copy()
                        theta[i, j] += sign * h
                        fd[i, j] += sign * frozen_phi_objective(theta, batch, model, weighting, frozen)
                    fd[i, j] /= 2 * h
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-300)
            assert rel < 1e-5, weighting.kind

    def test_unit_phi_with_true_propensities_matches_loop_implementation(self):
        env, ds, model = make_setup(seed=3)
        rng = make_rng(4)
        policy = random_policy(rng, 8, 6)
        batch = ds.subset(np.arange(40))
        fast = weighted_gradient(policy, batch, model, Weighting(kind="ips_true"))
        slow = loop_ips_gradient(policy, batch)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_gradient_of_concatenation_is_weighted_average(self):
        env, ds, model = make_setup(seed=5)
        policy = random_policy(make_rng(6), 8, 6)
        weighting = Weighting(kind="bips")
        b1, b2 = ds.subset(np.arange(30)), ds.subset(np.arange(30, 75))
        g1 = weighted_gradient(policy, b1, model, weighting)
        g2 = weighted_gradient(policy, b2, model, weighting)
        g_all = weighted_gradient(policy, ds.subset(np.arange(75)), model, weighting)
        np.testing.assert_allclose(g_all, (30 * g1 + 45 * g2) / 75, rtol=1e-12, atol=1e-15)

    def test_capped_branch_contribution_is_bounded(self):
        env, ds, model = make_setup(seed=7)
        us = uncertainties(model, ds)
        tables = propensity_tables(ds, model)
        hp = UipsHyperParams(lam=50.0, gamma=3.0, eta1=1.0, eta2=0.5)
        policy = random_policy(make_rng(8), 8, 6)
        beta_all = model.beta_matrix(ds.xs)
        checked = 0
        from oracles import WeightInput, phi_star_branch

        for i in range(len(ds)):
            if ds.rewards[i] == 0.0:
                continue
            x, a = ds.xs[i], int(ds.actions[i])
            pi = prob(policy, x, a)
            beta = max(float(beta_all[i, a]), BETA_FLOOR)
            phi, branch = phi_star_branch(WeightInput(pi=pi, beta_hat=beta, u=float(us[i])), hp)
            if branch != "cap":
                continue
            checked += 1
            one = ds.subset(np.array([i]))
            contribution = weighted_gradient(policy, one, model, Weighting(kind="uips", hp=hp),
                                             tables=tables.select(np.array([i])))
            bound = 2.0 * hp.eta2 * (pi / beta) * ds.rewards[i] * np.linalg.norm(log_prob_grad(policy, x, a))
            assert np.linalg.norm(contribution) <= bound + 1e-12
        assert checked > 0


class TestDrGradient:
    def test_zero_imputation_equals_weighted_gradient(self):
        env, ds, model = make_setup(seed=9)
        policy = random_policy(make_rng(10), 8, 6)
        batch = ds.subset(np.arange(50))
        weighting = Weighting(kind="uips", hp=UIPS_HP)
        a = dr_gradient(policy, batch, model, ConstantImputation(0.0), weighting)
        b = weighted_gradient(policy, batch, model, weighting)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_exact_imputation_leaves_only_direct_term(self):
        env, ds, model = make_setup(seed=11)
        policy = random_policy(make_rng(12), 8, 6)
        batch = ds.subset(np.arange(40))
        # imputation table equal to the observed rewards of the logged pairs
        eta = TabularImputation.from_env(env, split="train")
        got = dr_gradient(policy, batch, model, eta, Weighting(kind="bips"))
        # direct term alone: coefficients pi_a (eta_a - sum_b pi_b eta_b)
        pi_all = policy.distribution_matrix(batch.xs)
        eta_all = np.stack([[imputed_reward(eta, batch.xs[i], a) for a in range(8)] for i in range(len(batch))])
        v = np.sum(pi_all * eta_all, axis=1, keepdims=True)
        dm = ((pi_all * (eta_all - v)).T @ batch.xs) / len(batch)
        np.testing.assert_allclose(got, dm, atol=1e-12)

    def test_matches_finite_differences(self):
        env, ds, model = make_setup(seed=13)
        rng = make_rng(14)
        h = 1e-5
        eta = ConstantImputation(0.35)
        for trial in range(20):
            idx = rng.choice(len(ds), size=12, replace=False)
            batch = ds.subset(idx)
            policy = random_policy(rng, 8, 6)
            us = uncertainties(model, batch)
            weighting = Weighting(kind="uips", hp=UIPS_HP) if trial % 2 else Weighting(kind="bips")
            analytic = dr_gradient(policy, batch, model, eta, weighting)

            n = np.arange(len(batch))
            beta_sel = np.maximum(model.beta_matrix(batch.xs)[n, batch.actions], 1e-8)
            pi_ref = policy.distribution_matrix(batch.xs)[n, batch.actions]
            if weighting.kind == "bips":
                w_ref = pi_ref / beta_sel
            else:
                from uips.weights import phi_star_vector

                w_ref = pi_ref / beta_sel * phi_star_vector(pi_ref / beta_sel, us, weighting.hp)[0]
            frozen = w_ref / pi_ref
            eta_sel = np.array([imputed_reward(eta, batch.xs[i], int(batch.actions[i])) for i in n])

            def objective(theta):
                pol = SoftmaxLinearPolicy(theta=theta, tau=1.0)
                pi_all = pol.distribution_matrix(batch.xs)
                eta_all = np.stack(
                    [[imputed_reward(eta, batch.xs[i], a) for a in range(8)] for i in range(len(batch))]
                )
                dm = float(np.mean(np.sum(pi_all * eta_all, axis=1)))
                corr = float(np.mean(pi_all[n, batch.actions] * frozen * (batch.rewards - eta_sel)))
                return dm + corr

            fd = np.zeros_like(analytic)
            for i in range(8):
                for j in range(6):
                    for sign in (1.0, -1.0):
                        theta = policy.theta.copy()
                        theta[i, j] += sign * h
                        fd[i, j] += sign * objective(theta)
                    fd[i, j] /= 2 * h
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-300)
            assert rel < 1e-5


class TestTrain:
    def test_zero_learning_rate_keeps_initial_policy(self):
        env, ds, model = make_setup(seed=15)
        config = TrainConfig(learning_rate=0.0, epochs=3, batch_size=40,
                             weighting=Weighting(kind="bips"), seed=0)
        policy, _ = train(ds, model, config, env=env)
        np.testing.assert_array_equal(policy.theta, np.zeros((8, 6)))

    def test_same_seed_same_trace(self):
        env, ds, model = make_setup(seed=16)
        config = TrainConfig(learning_rate=0.5, epochs=4, batch_size=30,
                             weighting=Weighting(kind="uips", hp=UIPS_HP), seed=9)
        p1, t1 = train(ds, model, config, env=env)
        p2, t2 = train(ds, model, config, env=env)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        assert t1 == t2

    def test_trace_has_one_record_per_epoch(self):
        env, ds, model = make_setup(seed=17)
        config = TrainConfig(learning_rate=0.5, epochs=6, batch_size=30,
                             weighting=Weighting(kind="bips"), seed=1, eval_every=2)
        _, trace = train(ds, model, config, env=env)
        assert [r["epoch"] for r in trace] == list(range(1, 7))
        assert all(np.isfinite(r["value"]) for r in trace)
        assert all(r["grad_norm"] is not None for r in trace)

    def test_divergence_aborts_with_diagnostic(self):
        # floored propensities produce weights ~1e7; an absurd step size then
        # overflows the parameters on the first update
        rng = make_rng(18)
        ds = LoggedDataset(xs=rng.standard_normal((40, 6)), actions=np.zeros(40, dtype=int),
                           rewards=np.ones(40), action_count=8)
        theta_hat = np.zeros((8, 6))
        theta_hat[0] = -100.0
        model = LoggingModel(
            policy=SoftmaxLinearPolicy(theta=theta_hat),
            grams=np.broadcast_to(np.eye(6), (8, 6, 6)).copy(),
        )
        config = TrainConfig(learning_rate=1e308, epochs=2, batch_size=40,
                             weighting=Weighting(kind="bips"), seed=0)
        with pytest.raises(RuntimeError, match="epoch"):
            train(ds, model, config)
        # in a stack of three, only the middle point diverges, and the message names it
        tables = propensity_tables(ds, model)
        stack = [
            replace(config, learning_rate=0.5),
            replace(config, weighting=Weighting(kind="bips_cap", cap=1e9)),
            replace(config, learning_rate=0.5, weighting=Weighting(kind="bips_cap", cap=2.0)),
        ]
        with pytest.raises(RuntimeError, match=r"at epoch 1, bips_cap at lr=1e\+308\|cap=1000000000\.0$"):
            train_policies(ds, tables, stack)
        finite = train_policies(ds, tables, stack[::2])
        assert all(np.all(np.isfinite(policy.theta)) for policy in finite)

    @pytest.mark.parametrize("weighting", [
        Weighting(kind="ce"),
        Weighting(kind="dice_s", cap=10.0),
        Weighting(kind="snips"),
        Weighting(kind="minvar"),
    ])
    def test_alternative_weightings_train_to_finite_policies(self, weighting):
        env, ds, model = make_setup(seed=27, n=300)
        config = TrainConfig(learning_rate=0.5, epochs=2, batch_size=100,
                             weighting=weighting, seed=0)
        policy, trace = train(ds, model, config, env=env)
        assert np.all(np.isfinite(policy.theta))
        assert all(np.isfinite(r["value"]) for r in trace)

    def test_uips_training_improves_validation_ranking(self):
        from uips.metrics import evaluate_policy

        env = build_env(EnvConfig(tau=0.5, seed=0))
        fit_cfg = LoggingFitConfig(epochs=120, learning_rate=2.0)
        gains = []
        for seed in range(10):
            config = TrainConfig(
                learning_rate=0.5, epochs=15, batch_size=500,
                weighting=Weighting(kind="uips",
                                    hp=UipsHyperParams(lam=50, gamma=5, eta1=0.5, eta2=100)),
                seed=seed, eval_every=15,
            )
            dataset = generate_log(env, 5000, make_rng(seed))
            model = fit_logging_policy(dataset, fit_cfg)
            policy, _ = train(dataset, model, config)
            _, _, before = evaluate_policy(SoftmaxLinearPolicy(theta=np.zeros((env.action_count, env.dim))),
                                           env.validation, 5)
            _, _, after = evaluate_policy(policy, env.validation, 5)
            gains.append(after - before)
        assert float(np.median(gains)) >= 0.05


class TestContextGradient:
    # integer contexts and multiples of 1/8 make every sum exact, so adding each
    # context's rows first cannot round differently from the row-by-row product
    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_coefficient_table_equals_the_dense_product_on_dyadic_inputs(self, tau):
        rng = make_rng(31)
        n, m, a_count, dim = 96, 9, 5, 4
        # column 0 numbers the contexts, so a selected row finds its target row
        contexts = np.column_stack([np.arange(m), rng.integers(-3, 4, (m, dim - 1))]).astype(float)
        pi = rng.integers(0, 9, (m, a_count)) / 8
        rows, actions = rng.integers(0, m, n), rng.integers(0, a_count, n)
        coeff = rng.integers(-16, 17, n) / 8
        onehot = np.eye(a_count)
        tables = PropensityTables(rows=rows, actions=actions, contexts=contexts)
        # the whole log, a batch, a batch of one context (padded to two rows) and one row
        for idx in (np.arange(n), np.arange(5, 69), np.flatnonzero(rows == rows[0]), np.array([7])):
            batch = tables.select(idx)
            pi_rows = pi[batch.contexts[:, 0].astype(int)]
            xs = contexts[rows[idx]]
            dense = ((onehot[actions[idx]] - pi[rows[idx]]) * coeff[idx, None]).T @ xs / (tau * len(idx))
            got = _log_trick_gradient(batch, coeff[idx][None], pi_rows[None].copy(), tau)
            np.testing.assert_array_equal(got[0], dense)
            np.testing.assert_array_equal(batch.contexts[batch.rows], xs)


class TestSharedStepLoop:
    # 300 rows in batches of 70 leave a ragged last batch of 20; a batch of
    # one row is left out, see test_one_row_batch_differs_only_by_rounding
    @pytest.mark.parametrize("weighting", EVERY_WEIGHTING, ids=[w.kind for w in EVERY_WEIGHTING])
    def test_policy_and_trace_match_the_reference(self, weighting):
        env, ds, model = make_setup(seed=28, n=300)
        config = TrainConfig(learning_rate=0.5, epochs=3, batch_size=70, weighting=weighting,
                             seed=5, eval_every=2)
        policy, trace = train(ds, model, config, env=env)
        ref_policy, ref_trace = reference_train(ds, model, config, env=env)
        assert_train_matches_reference(policy, trace, ref_policy, ref_trace)
        tables = propensity_tables(ds, model)
        np.testing.assert_array_equal(train_policies(ds, tables, [config])[0].theta, policy.theta)

    def test_default_logging_fit_matches_the_reference(self):
        env = build_env(SMALL)
        ds = generate_log(env, 240, make_rng(6))
        config = TrainConfig(learning_rate=0.5, epochs=2, batch_size=60, seed=6,
                             weighting=Weighting(kind="uips", hp=UIPS_HP))
        policy, trace = train(ds, None, config)
        ref_policy, ref_trace = reference_train(ds, None, config)
        assert_train_matches_reference(policy, trace, ref_policy, ref_trace)
        model = fit_logging_policy(ds, LoggingFitConfig(seed=config.seed))
        tables = propensity_tables(ds, model)
        np.testing.assert_array_equal(train_policies(ds, tables, [config])[0].theta, policy.theta)

    @pytest.mark.parametrize("kind", ["bips", "minvar"])
    def test_hoisted_logging_rows_equal_the_per_batch_rows(self, kind):
        env, ds, model = make_setup(seed=29, n=300)
        tables = propensity_tables(ds, model)
        rng = make_rng(30)
        for size in (2, 3, 70, 300):
            idx = rng.permutation(len(ds))[:size]
            batch = ds.subset(idx)
            expected = model.beta_matrix(batch.xs)
            if kind == "minvar":
                np.testing.assert_array_equal(tables.beta_rows[tables.rows[idx]], expected)
            else:
                np.testing.assert_array_equal(
                    tables.beta_sel[idx], expected[np.arange(size), batch.actions]
                )

    def test_one_row_batch_differs_only_by_rounding(self):
        # numpy computes a one-row product with gemv, not gemm, so the last
        # row of 301 in batches of 100 can round differently from its
        # hoisted row
        env, ds, model = make_setup(seed=28, n=301)
        config = TrainConfig(learning_rate=0.5, epochs=3, batch_size=100,
                             weighting=Weighting(kind="uips", hp=UIPS_HP), seed=5)
        ref_policy, _ = reference_train(ds, model, config, env=env)
        tables = propensity_tables(ds, model)
        np.testing.assert_allclose(train_policies(ds, tables, [config])[0].theta, ref_policy.theta,
                                   rtol=0, atol=1e-12)

    def test_snips_survives_zero_target_mass_on_the_logged_actions(self):
        ds = LoggedDataset(xs=np.ones((40, 6)), actions=np.zeros(40, dtype=int),
                           rewards=np.ones(40), action_count=8)
        theta = np.zeros((8, 6))
        theta[0] = -1000.0
        policy = SoftmaxLinearPolicy(theta=theta)
        assert np.all(policy.distribution_matrix(ds.xs)[:, 0] == 0.0)
        model = LoggingModel(policy=SoftmaxLinearPolicy(theta=np.zeros((8, 6))),
                             grams=np.broadcast_to(np.eye(6), (8, 6, 6)).copy())
        grad = weighted_gradient(policy, ds, model, Weighting(kind="snips"))
        np.testing.assert_array_equal(grad, 0.0)


class TestStackedStepLoop:
    # every weighting kind at two learning rates; 301 rows in batches of 70
    # leave a ragged last batch of 21
    def stack(self):
        env, ds, model = make_setup(seed=32, n=301)
        base = TrainConfig(epochs=3, batch_size=70, seed=7)
        configs = [replace(base, weighting=w, learning_rate=lr) for w in EVERY_WEIGHTING for lr in (0.5, 2.0)]
        return ds, propensity_tables(ds, model), configs

    def test_each_point_equals_its_one_config_run(self):
        ds, tables, configs = self.stack()
        assert {c.weighting.kind for c in configs} == {*WEIGHT_KINDS, "ce"}
        for config, policy in zip(configs, train_policies(ds, tables, configs), strict=True):
            np.testing.assert_array_equal(policy.theta, train_policies(ds, tables, [config])[0].theta)

    @pytest.mark.parametrize("points", [1, 3])
    def test_a_smaller_cell_budget_gives_the_same_policies(self, monkeypatch, points):
        ds, tables, configs = self.stack()
        expected = train_policies(ds, tables, configs)
        monkeypatch.setattr("uips.learning._STACK_CELLS", points * 70 * ds.action_count)
        for policy, want in zip(train_policies(ds, tables, configs), expected, strict=True):
            np.testing.assert_array_equal(policy.theta, want.theta)

    @pytest.mark.parametrize("field, value", [("seed", 8), ("epochs", 2), ("batch_size", 60)])
    def test_configs_must_share_seed_epochs_and_batch_size(self, field, value):
        ds, tables, configs = self.stack()
        with pytest.raises(ValueError, match="share seed, epochs and batch_size"):
            train_policies(ds, tables, [configs[0], replace(configs[1], **{field: value})])

    def test_multi_method_sweep_equals_one_sweep_per_method(self):
        env = build_env(SMALL)
        methods = {
            "uips": {"lam": [10], "gamma": [0.5, 2], "eta1": [1], "eta2": [100], "learning_rate": [0.5, 1.0]},
            "minvar": {},
            "bips_cap": {"cap": [2, 10]},
            "ce": {"learning_rate": [0.25, 0.5]},
        }
        train_section = {"learning_rate": 0.5, "epochs": 2, "batch_size": 70}
        fit_cfg = LoggingFitConfig(epochs=30, learning_rate=2.0)
        together = run_sweep(env, methods, train_section, fit_cfg, seed=2, k_eval=3, n_logged=240)
        alone = [
            row
            for method, grid in methods.items()
            for row in run_sweep(env, {method: grid}, train_section, fit_cfg, seed=2, k_eval=3, n_logged=240)
        ]
        assert together == alone


class TestTrueGradientNorm:
    def test_zero_rewards_make_a_stationary_point(self):
        env, ds, model = make_setup(seed=19)
        zeroed = LoggedDataset(xs=ds.xs, actions=ds.actions, rewards=np.zeros(len(ds)),
                               action_count=ds.action_count, true_logging_probs=ds.true_logging_probs)
        assert true_gradient_norm(random_policy(make_rng(20), 8, 6), zeroed) == 0.0

    def test_invariant_to_pool_order(self):
        env, ds, model = make_setup(seed=21)
        policy = random_policy(make_rng(22), 8, 6)
        perm = make_rng(23).permutation(len(ds))
        a = true_gradient_norm(policy, ds)
        b = true_gradient_norm(policy, ds.subset(perm))
        assert a == pytest.approx(b, rel=1e-9)

    def test_passed_policy_rows_are_left_unchanged(self):
        env, ds, model = make_setup(seed=26)
        policy = random_policy(make_rng(27), 8, 6)
        tables = propensity_tables(ds, None)
        pi_rows = policy.distribution_matrix(tables.contexts)
        kept = pi_rows.copy()
        assert true_gradient_norm(policy, ds, tables, pi_rows) == true_gradient_norm(policy, ds)
        np.testing.assert_array_equal(pi_rows, kept)

    def test_requires_true_propensities(self):
        ds = LoggedDataset(xs=np.ones((2, 3)), actions=[0, 1], rewards=[1.0, 0.0], action_count=2)
        with pytest.raises(ValueError):
            true_gradient_norm(SoftmaxLinearPolicy(theta=np.zeros((2, 3))), ds)

    def test_running_mean_of_squared_norm_decreases(self):
        # full-batch ascent on a 20-action skewed env: the squared true-gradient
        # norm spikes early and decays, so its running mean at 200 steps sits
        # below the running mean at 20 steps for most seeds
        env = build_env(EnvConfig(action_count=20, tau=0.5, seed=0))
        weighting = Weighting(kind="uips", hp=UipsHyperParams(lam=50, gamma=0.5, eta1=0.5, eta2=100))
        holds = 0
        for seed in range(10):
            rng = make_rng(seed)
            ds = generate_log(env, 5000, rng)
            model = fit_logging_policy(ds, LoggingFitConfig(epochs=120, learning_rate=2.0, seed=seed))
            tables = propensity_tables(ds, model)
            theta = np.zeros((env.action_count, env.dim))
            policy = SoftmaxLinearPolicy(theta=theta)
            squared = []
            for _ in range(200):
                grad = weighted_gradient(policy, ds, model, weighting, tables=tables)
                theta = theta + 20.0 * grad
                policy = SoftmaxLinearPolicy(theta=theta)
                pi_rows = policy.distribution_matrix(tables.contexts)
                squared.append(true_gradient_norm(policy, ds, tables, pi_rows) ** 2)
            squared = np.array(squared)
            holds += squared[:200].mean() < squared[:20].mean()
        assert holds >= 8


def test_snips_trace_value_normalization():
    env, ds, model = make_setup(seed=24)
    config = TrainConfig(learning_rate=0.5, epochs=2, batch_size=40,
                         weighting=Weighting(kind="snips"), seed=25)
    policy, trace = train(ds, model, config)
    # the last epoch's record is the estimate for the returned policy
    got = trace[-1]["value"]
    n = np.arange(len(ds))
    pi = policy.distribution_matrix(ds.xs)[n, ds.actions]
    beta = np.maximum(model.beta_matrix(ds.xs)[n, ds.actions], 1e-8)
    w = pi / beta
    assert got == pytest.approx(float((w * ds.rewards).sum() / w.sum()), rel=1e-12)
