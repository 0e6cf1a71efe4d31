from dataclasses import replace

import numpy as np
import pytest

from helpers import count_ips_reference, uncertainty_table
from oracles import TabularImputation, distribution, mse_upper_bound, v_dm, v_dr
from uips.core import BETA_FLOOR, PI_FLOOR, LoggedDataset, SoftmaxLinearPolicy, make_rng
from uips.estimators import (
    ConstantImputation,
    Weighting,
    estimate,
    exact_bias_variance,
    ope_mse_experiment,
    propensity_tables,
    propensity_weights,
    snips_from_weights,
)
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    fit_logging_policy,
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
from uips.weights import UipsHyperParams, phi_star_vector

SMALL = EnvConfig(dim=8, action_count=10, train_size=25, validation_size=10, test_size=15, seed=40)


def identity_model(action_count, dim, theta=None, tau=1.0):
    return LoggingModel(
        policy=SoftmaxLinearPolicy(theta=np.zeros((action_count, dim)) if theta is None else theta, tau=tau),
        grams=np.broadcast_to(np.eye(dim), (action_count, dim, dim)).copy(),
    )


def fitted_model(ds, seed=0, epochs=120):
    return fit_logging_policy(ds, LoggingFitConfig(epochs=epochs, learning_rate=2.0, seed=seed))


def value(ds, policy, model, kind, **params):
    return estimate(ds, policy, model, Weighting(kind=kind, **params)).value


def tabular_policy_for(ds, probs_by_context):
    contexts = np.stack(list(probs_by_context.keys()))
    return TabularPolicy(contexts=contexts, probs=np.stack(list(probs_by_context.values())))


class TestVIps:
    def test_single_sample_arithmetic(self):
        x = np.array([1.0, 0.0])
        ds = LoggedDataset(xs=x[None], actions=[2], rewards=[1.0], action_count=4,
                           true_logging_probs=[0.2])
        policy = TabularPolicy(contexts=x[None], probs=np.array([[0.2, 0.2, 0.4, 0.2]]))
        assert value(ds, policy, None, "ips_true") == pytest.approx(2.0, abs=1e-15)

    def test_unit_weights_give_mean_reward(self):
        env = build_env(SMALL)
        ds = generate_log(env, 400, make_rng(1))
        assert value(ds, env.logging_policy, None, "ips_true") == pytest.approx(
            float(ds.rewards.mean()), abs=1e-12
        )

    def test_requires_true_probabilities(self):
        ds = LoggedDataset(xs=np.ones((1, 2)), actions=[0], rewards=[1.0], action_count=2)
        with pytest.raises(ValueError):
            value(ds, SoftmaxLinearPolicy(theta=np.zeros((2, 2))), None, "ips_true")

    def test_monte_carlo_mean_matches_exact_value(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.3)
        truth = true_policy_value(env, policy)
        rng = make_rng(2)
        estimates = [
            value(generate_log_per_context(env, 20, rng), policy, None, "ips_true")
            for _ in range(200)
        ]
        estimates = np.array(estimates)
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) < 3 * se


class TestVBips:
    def test_oracle_model_equals_true_propensity_estimate(self):
        env = build_env(SMALL)
        ds = generate_log(env, 300, make_rng(3))
        model = identity_model(env.action_count, env.dim, theta=env.logging_policy.theta,
                               tau=env.logging_policy.tau)
        policy = epsilon_greedy_policy(env, 0.4, split="train")
        assert value(ds, policy, model, "bips") == pytest.approx(
            value(ds, policy, None, "ips_true"), abs=1e-12
        )

    def test_zero_rewards_give_zero(self):
        env = build_env(SMALL)
        ds = generate_log(env, 50, make_rng(4))
        zeroed = LoggedDataset(xs=ds.xs, actions=ds.actions, rewards=np.zeros(len(ds)),
                               action_count=ds.action_count)
        assert value(zeroed, epsilon_greedy_policy(env, 0.4, split="train"),
                     identity_model(env.action_count, env.dim), "bips") == 0.0

    def test_single_draw_expectation_matches_bias_identity(self):
        # two contexts, three actions: enumerate every single-sample log
        xs = np.array([[1.0, 0.0], [0.0, 1.0]])
        rewards = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        rng = make_rng(5)
        beta_star = rng.dirichlet(np.ones(3), size=2)
        beta_hat = rng.dirichlet(np.ones(3), size=2)
        pi = rng.dirichlet(np.ones(3), size=2)
        policy = TabularPolicy(contexts=xs, probs=pi)
        # on the one-hot contexts the softmax of log(beta_hat) is beta_hat
        beta_model = identity_model(3, 2, theta=np.log(beta_hat).T)

        expectation = 0.0
        for i in range(2):
            for a in range(3):
                one = LoggedDataset(xs=xs[i][None], actions=[a], rewards=[rewards[i, a]], action_count=3)
                expectation += 0.5 * beta_star[i, a] * value(one, policy, beta_model, "bips")
        true_value = float(np.mean(np.sum(pi * rewards, axis=1)))
        bias = float(np.mean(np.sum(pi * rewards * (beta_star / beta_hat - 1.0), axis=1)))
        assert expectation == pytest.approx(true_value + bias, abs=1e-12)


class TestVBipsCap:
    def _ratio_setup(self):
        # uniform beta_hat = 0.1; pi chosen so the two logged ratios are 1 and 5
        x = np.array([1.0, 0.0])
        probs = np.full(10, 0.5 / 8.0)
        probs[0], probs[1] = 0.1, 0.5
        ds = LoggedDataset(xs=np.stack([x, x]), actions=[0, 1], rewards=[1.0, 1.0], action_count=10)
        policy = TabularPolicy(contexts=x[None], probs=probs[None])
        return ds, policy, identity_model(10, 2)

    def test_infinite_cap_equals_bips(self):
        ds, policy, model = self._ratio_setup()
        assert value(ds, policy, model, "bips_cap", cap=1e12) == pytest.approx(
            value(ds, policy, model, "bips"), abs=1e-12
        )

    def test_binding_cap_returns_cap_times_mean_reward(self):
        ds, policy, model = self._ratio_setup()
        assert value(ds, policy, model, "bips_cap", cap=0.25) == pytest.approx(0.25 * 1.0, abs=1e-15)

    def test_hand_computed_partial_cap(self):
        ds, policy, model = self._ratio_setup()
        # weights {1, 5} capped at 2 -> (1 + 2) / 2
        assert value(ds, policy, model, "bips_cap", cap=2.0) == pytest.approx(1.5, abs=1e-12)


class TestVSnips:
    def test_constant_rewards_return_that_constant(self):
        env = build_env(SMALL)
        ds = generate_log(env, 80, make_rng(6))
        ones = LoggedDataset(xs=ds.xs, actions=ds.actions, rewards=np.ones(len(ds)),
                             action_count=ds.action_count)
        got = value(ones, epsilon_greedy_policy(env, 0.5, split="train"),
                    fitted_model(ds, epochs=40), "snips")
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_single_sample_returns_its_reward(self):
        x = np.array([1.0, 0.0])
        ds = LoggedDataset(xs=x[None], actions=[1], rewards=[0.625], action_count=3)
        policy = TabularPolicy(contexts=x[None], probs=np.array([[0.2, 0.5, 0.3]]))
        assert value(ds, policy, identity_model(3, 2), "snips") == pytest.approx(0.625, rel=1e-12)

    def test_hand_computed_ratio(self):
        # weights {1, 3}, rewards {0, 1} -> 3/4
        x = np.array([1.0, 0.0])
        probs = np.full(10, 0.6 / 8.0)
        probs[0], probs[1] = 0.1, 0.3
        ds = LoggedDataset(xs=np.stack([x, x]), actions=[0, 1], rewards=[0.0, 1.0], action_count=10)
        policy = TabularPolicy(contexts=x[None], probs=probs[None])
        assert value(ds, policy, identity_model(10, 2), "snips") == pytest.approx(0.75, abs=1e-12)

    def test_target_with_no_mass_on_the_logged_actions_is_an_error(self):
        x = np.array([1.0, 0.0])
        ds = LoggedDataset(xs=np.stack([x, x]), actions=[0, 1], rewards=[1.0, 0.0], action_count=3)
        policy = TabularPolicy(contexts=x[None], probs=np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="sum of propensity weights is zero"):
            estimate(ds, policy, identity_model(3, 2), Weighting(kind="snips"))

    def test_invariant_to_weight_scaling(self):
        rng = make_rng(7)
        w = rng.uniform(0.1, 5.0, 40)
        r = rng.integers(0, 2, 40).astype(float)
        base = snips_from_weights(w, r)
        for scale in (0.5, 2.0, 1024.0):  # powers of two keep the float ops exact
            assert snips_from_weights(scale * w, r) == base


class TestReweightedValue:
    def _setup(self):
        env = build_env(SMALL)
        ds = generate_log(env, 500, make_rng(8))
        return env, ds, fitted_model(ds), epsilon_greedy_policy(env, 0.3, split="train")

    def test_huge_lam_shrinkage_matches_bips(self):
        env, ds, model, policy = self._setup()
        got = value(ds, policy, model, "shrinkage", lam=1e12)
        assert got == pytest.approx(value(ds, policy, model, "bips"), rel=1e-6)

    def test_uips_with_zero_gamma_equals_shrinkage(self):
        env, ds, model, policy = self._setup()
        for lam in (0.5, 3.0, 20.0):
            uips = value(ds, policy, model, "uips",
                         hp=UipsHyperParams(lam=lam, gamma=0.0, eta1=1.0, eta2=1.0))
            shrink = value(ds, policy, model, "shrinkage", lam=lam)
            assert uips == pytest.approx(shrink, abs=1e-12)

    def test_minvar_hand_computed_uniform_case(self):
        # uniform pi and beta over 3 actions: h = 3 per action, phi = 1/3 everywhere
        x = np.array([1.0])
        ds = LoggedDataset(xs=np.stack([x, x, x]), actions=[0, 1, 2], rewards=[1.0, 0.0, 1.0],
                           action_count=3)
        policy = TabularPolicy(contexts=x[None], probs=np.array([[1 / 3, 1 / 3, 1 / 3]]))
        model = identity_model(3, 1)
        report = estimate(ds, policy, model, Weighting(kind="minvar"))
        np.testing.assert_allclose(report.per_sample_weights, 1.0 / 3.0, atol=1e-12)
        assert report.value == pytest.approx((1 / 3) * (1 + 0 + 1) / 3, abs=1e-12)

    def test_every_unit_shrink_variant_reduces_to_bips(self):
        env, ds, model, policy = self._setup()
        bips = value(ds, policy, model, "bips")
        unit_hp = UipsHyperParams(lam=1e12, gamma=0.0, eta1=1.0, eta2=1.0)
        for kind, kwargs in (
            ("uips", {"hp": unit_hp}),
            ("uips_p", {"hp": UipsHyperParams(gamma=0.0)}),
            ("uips_o", {"hp": UipsHyperParams(gamma=0.0)}),
            ("shrinkage", {"lam": 1e12}),
        ):
            got = value(ds, policy, model, kind, **kwargs)
            assert got == pytest.approx(bips, rel=1e-9), kind

    def test_diagnostics(self):
        env, ds, model, policy = self._setup()
        report = estimate(ds, policy, model,
                          Weighting(kind="uips", hp=UipsHyperParams(lam=10, gamma=1, eta1=1, eta2=100)))
        w = report.per_sample_weights
        assert report.diagnostics["max_weight"] == pytest.approx(w.max())
        assert report.diagnostics["effective_sample_size"] == pytest.approx(w.sum() ** 2 / (w @ w))


class TestDirectMethodAndDr:
    def test_zero_imputation_gives_zero(self):
        env = build_env(SMALL)
        ds = generate_log(env, 60, make_rng(9))
        policy = epsilon_greedy_policy(env, 0.4, split="train")
        assert v_dm(ds, policy, ConstantImputation(0.0)) == 0.0

    def test_unit_imputation_gives_one(self):
        env = build_env(SMALL)
        ds = generate_log(env, 60, make_rng(10))
        policy = epsilon_greedy_policy(env, 0.4, split="train")
        assert v_dm(ds, policy, ConstantImputation(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_true_reward_table_recovers_exact_value(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.2)
        ds = generate_log_per_context(env, 4, make_rng(11))
        got = v_dm(ds, policy, TabularImputation.from_env(env, split="test"))
        assert got == pytest.approx(true_policy_value(env, policy), abs=1e-12)

    def test_dr_with_zero_imputation_reduces_to_weighting(self):
        env = build_env(SMALL)
        ds = generate_log_per_context(env, 5, make_rng(12))
        model = fitted_model(ds, epochs=60)
        policy = epsilon_greedy_policy(env, 0.2)
        zero = ConstantImputation(0.0)
        assert v_dr(ds, policy, model, zero, Weighting(kind="bips")) == pytest.approx(
            value(ds, policy, model, "bips"), abs=1e-12
        )
        hp = UipsHyperParams(lam=5, gamma=1, eta1=1, eta2=100)
        assert v_dr(ds, policy, model, zero, Weighting(kind="uips", hp=hp)) == pytest.approx(
            value(ds, policy, model, "uips", hp=hp), abs=1e-12
        )

    def test_true_imputation_stays_near_truth_for_any_model(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.2)
        truth = true_policy_value(env, policy)
        oracle_eta = TabularImputation.from_env(env, split="test")
        rng = make_rng(13)
        skewed_model = identity_model(env.action_count, env.dim,
                                      theta=rng.standard_normal((env.action_count, env.dim)))
        estimates = np.array([
            v_dr(generate_log_per_context(env, 8, rng), policy, skewed_model, oracle_eta,
                 Weighting(kind="bips"))
            for _ in range(120)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) < 3 * se + 1e-12

    def test_hand_computed_single_sample(self):
        # perfect beta_hat, constant imputation 0.5, one sample with reward 1
        x = np.array([1.0, 0.0])
        ds = LoggedDataset(xs=x[None], actions=[1], rewards=[1.0], action_count=4)
        policy = TabularPolicy(contexts=x[None], probs=np.array([[0.2, 0.4, 0.2, 0.2]]))

        # x is a unit vector, so the model's scores x . theta_a are log beta_hat
        beta_model = identity_model(4, 2, theta=np.outer(np.log([0.25, 0.2, 0.25, 0.3]), x))
        got = v_dr(ds, policy, beta_model, ConstantImputation(0.5), Weighting(kind="bips"))
        assert got == pytest.approx(0.5 + (0.4 / 0.2) * 0.5, abs=1e-12)  # 1.5


class TestDiceS:
    def test_hand_counted_single_context(self):
        x = np.array([1.0, 0.0])
        ds = LoggedDataset(xs=np.stack([x] * 4), actions=[1, 1, 1, 2], rewards=[1.0] * 4,
                           action_count=4)
        probs = np.array([[0.0, 0.5, 0.5, 0.0]])
        policy = TabularPolicy(contexts=x[None], probs=probs)
        # 3 samples of weight 0.5/0.75 and one of weight 0.5/0.25 -> mean 1.0
        assert value(ds, policy, None, "dice_s", cap=np.inf) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_policies_on_singletons_return_mean_reward(self):
        rng = make_rng(14)
        xs = rng.standard_normal((6, 2))
        actions = rng.integers(0, 3, 6)
        rewards = rng.integers(0, 2, 6).astype(float)
        probs = np.zeros((6, 3))
        probs[np.arange(6), actions] = 1.0
        ds = LoggedDataset(xs=xs, actions=actions, rewards=rewards, action_count=3)
        policy = TabularPolicy(contexts=xs, probs=probs)
        assert value(ds, policy, None, "dice_s", cap=np.inf) == pytest.approx(rewards.mean(), abs=1e-15)

    def test_equals_true_propensity_ips_when_counts_match(self):
        # constructed log whose empirical frequencies equal the stored probabilities
        x = np.array([0.5, 0.5])
        actions = [0] * 2 + [1] * 3 + [2] * 5
        emp = {0: 0.2, 1: 0.3, 2: 0.5}
        ds = LoggedDataset(
            xs=np.stack([x] * 10), actions=actions, rewards=[1.0] * 10, action_count=3,
            true_logging_probs=[emp[a] for a in actions],
        )
        policy = TabularPolicy(contexts=x[None], probs=np.array([[0.1, 0.6, 0.3]]))
        assert value(ds, policy, None, "dice_s", cap=np.inf) == pytest.approx(
            value(ds, policy, None, "ips_true"), abs=1e-12
        )

    def test_matches_count_based_reference(self):
        rng = make_rng(15)
        for trial in range(10):
            n_ctx, a_count = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            contexts = rng.standard_normal((n_ctx, 3))
            idx = rng.integers(0, n_ctx, 40)
            actions = rng.integers(0, a_count, 40)
            rewards = rng.integers(0, 2, 40).astype(float)
            ds = LoggedDataset(xs=contexts[idx], actions=actions, rewards=rewards, action_count=a_count)
            policy = TabularPolicy(contexts=contexts, probs=rng.dirichlet(np.ones(a_count), size=n_ctx))
            cap = float(rng.choice([2.0, 10.0, np.inf]))
            assert value(ds, policy, None, "dice_s", cap=cap) == count_ips_reference(ds, policy, cap)


class TestPropensityTables:
    """The logging softmax on distinct contexts equals the dense matrix over every row."""

    @pytest.mark.parametrize("n, n_contexts, action_count, tau", [
        (200, 15, 8, 1.0), (300, 300, 10, 0.7), (120, 1, 10, 1.0), (150, 20, 1, 1.0),
    ], ids=["repeated-contexts", "all-distinct", "one-context", "one-action"])
    def test_beta_tables_equal_the_dense_gather(self, n, n_contexts, action_count, tau):
        rng = make_rng(16)
        dim = 12
        pool = rng.standard_normal((n_contexts, dim))
        ds = LoggedDataset(
            xs=pool[rng.integers(0, n_contexts, n)], actions=rng.integers(0, action_count, n),
            rewards=np.zeros(n), action_count=action_count,
        )
        model = identity_model(action_count, dim, theta=3.0 * rng.standard_normal((action_count, dim)), tau=tau)
        dense = model.beta_matrix(ds.xs)
        tables = propensity_tables(ds, model)
        np.testing.assert_array_equal(tables.beta_sel, np.maximum(dense[np.arange(n), ds.actions], BETA_FLOOR))
        np.testing.assert_array_equal(tables.beta_rows[tables.rows], dense)


class TestExactBiasVariance:
    def _small_env(self, seed):
        rng = make_rng(seed)
        cfg = EnvConfig(dim=4, action_count=int(rng.integers(4, 8)),
                        train_size=int(rng.integers(6, 14)), validation_size=3, test_size=5,
                        tau=float(rng.uniform(0.5, 2.0)), seed=seed)
        return build_env(cfg)

    def test_true_propensity_weighting_is_unbiased(self):
        for seed in range(8):
            env = self._small_env(seed)
            policy = epsilon_greedy_policy(env, 0.3, split="train")
            bias, _, _ = exact_bias_variance(env, policy, None, Weighting(kind="ips_true"), 50)
            assert bias == pytest.approx(0.0, abs=1e-14)

    def test_bips_bias_matches_independent_enumeration(self):
        for seed in range(8):
            env = self._small_env(seed + 50)
            rng = make_rng(seed + 500)
            model = identity_model(env.action_count, env.dim,
                                   theta=env.logging_policy.theta + 0.3 * rng.standard_normal(
                                       env.logging_policy.theta.shape),
                                   tau=env.logging_policy.tau)
            policy = epsilon_greedy_policy(env, 0.3, split="train")
            bias, _, _ = exact_bias_variance(env, policy, model, Weighting(kind="bips"), 77)
            xs, r = env.train.xs, env.train.rewards
            pi = np.stack([distribution(policy, x) for x in xs])
            beta_star = env.logging_policy.distribution_matrix(xs)
            beta_hat = np.maximum(model.beta_matrix(xs), 1e-8)
            reference = float(np.mean(np.sum(pi * r * (beta_star / beta_hat - 1.0), axis=1)))
            assert bias == pytest.approx(reference, abs=1e-10)

    def test_variance_scales_inversely_with_sample_count(self):
        env = self._small_env(99)
        policy = epsilon_greedy_policy(env, 0.3, split="train")
        model = identity_model(env.action_count, env.dim, theta=env.logging_policy.theta,
                               tau=env.logging_policy.tau)
        _, var1, _ = exact_bias_variance(env, policy, model, Weighting(kind="bips"), 1)
        _, var100, _ = exact_bias_variance(env, policy, model, Weighting(kind="bips"), 100)
        assert var100 == pytest.approx(var1 / 100.0, rel=1e-12)

    def test_exact_mse_below_derived_bound(self):
        hp = UipsHyperParams(lam=5.0, gamma=2.0, eta1=1.0, eta2=100.0)
        for seed in range(20):
            env = self._small_env(seed + 200)
            policy = epsilon_greedy_policy(env, 0.3, split="train")
            ds = generate_log(env, 150, make_rng(seed))
            model = fitted_model(ds, seed=seed, epochs=60)
            _, _, mse = exact_bias_variance(env, policy, model, Weighting(kind="uips", hp=hp), 25)
            xs = env.train.xs
            pi = np.stack([distribution(policy, x) for x in xs])
            beta_hat = np.maximum(model.beta_matrix(xs), 1e-8)
            u_mat = uncertainty_table(model, xs)
            phi, _ = phi_star_vector((pi / beta_hat).ravel(), u_mat.ravel(), hp)
            phi = phi.reshape(pi.shape)
            bound = mse_upper_bound(env, policy, model, phi, 25)
            assert mse <= bound + 1e-12

    @pytest.mark.parametrize("kind", ["minvar", "stablevar"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_row_kinds_read_unfloored_beta_rows_below_the_floor(self, kind, epsilon):
        # a far-off logging model puts many cells below BETA_FLOOR: the floor
        # enters the ratio's denominator only, never the row score h
        env = build_env(EnvConfig(dim=4, action_count=6, train_size=8, validation_size=3, test_size=4,
                                  tau=0.5, seed=17))
        rng = make_rng(1700)
        model = identity_model(env.action_count, env.dim, theta=40.0 * rng.standard_normal((6, 4)), tau=0.5)
        policy = epsilon_greedy_policy(env, epsilon, split="train")
        n_logged = 30
        xs, r = env.train.xs, env.train.rewards
        beta_hat = model.beta_matrix(xs)
        assert (beta_hat < BETA_FLOOR).sum() >= 10
        pi = policy.distribution_matrix(xs)
        pi_f = np.maximum(pi, PI_FLOOR)
        h = beta_hat / pi_f**2 if kind == "minvar" else np.sqrt(beta_hat) / pi_f
        t = pi / np.maximum(beta_hat, BETA_FLOOR) * (h / h.sum(axis=1, keepdims=True)) * r
        p = env.logging_policy.distribution_matrix(xs) / len(xs)
        e_t = (p * t).sum()
        bias, variance, mse = exact_bias_variance(env, policy, model, Weighting(kind=kind), n_logged)
        assert bias == pytest.approx(e_t - true_policy_value(env, policy, "train"), rel=1e-9, abs=1e-12)
        assert variance == pytest.approx(((p * t * t).sum() - e_t**2) / n_logged, rel=1e-9)
        assert mse == bias**2 + variance

    def test_rejects_non_mean_estimators_and_large_problems(self):
        env = self._small_env(300)
        policy = epsilon_greedy_policy(env, 0.3, split="train")
        with pytest.raises(ValueError):
            exact_bias_variance(env, policy, None, Weighting(kind="snips"), 10)
        with pytest.raises(ValueError):
            exact_bias_variance(env, policy, None, Weighting(kind="ips_true"), 10, max_outcomes=3)

    def test_true_probability_of_zero_is_a_value_error_for_ips_true_only(self):
        env = build_env(EnvConfig(dim=4, action_count=6, train_size=8, validation_size=3, test_size=4,
                                  tau=0.001, seed=3))
        assert (env.logging_policy.distribution_matrix(env.train.xs) == 0.0).any()
        policy = epsilon_greedy_policy(env, 0.3, split="train")
        with pytest.raises(ValueError, match="true logging probability"):
            exact_bias_variance(env, policy, None, Weighting(kind="ips_true"), 10)
        model = identity_model(env.action_count, env.dim, theta=env.logging_policy.theta, tau=0.001)
        assert np.isfinite(exact_bias_variance(env, policy, model, Weighting(kind="bips"), 10)).all()


class TestPerPairBoundOrdering:
    def test_optimal_weight_bound_never_exceeds_unit_weight_bound(self):
        # for every (context, action) pair of a fitted env, the worst-case
        # per-pair objective at the optimal weight is at most the one at phi=1
        from oracles import (
            WeightInput,
            confidence_interval,
            minmax_objective,
            phi_star,
            worst_case_beta,
        )

        env = build_env(SMALL)
        ds = generate_log(env, 400, make_rng(16))
        model = fitted_model(ds, seed=16)
        policy = epsilon_greedy_policy(env, 0.3, split="train")
        xs = env.train.xs
        pi = np.stack([distribution(policy, x) for x in xs])
        beta_hat = np.maximum(model.beta_matrix(xs), 1e-8)
        u_mat = uncertainty_table(model, xs)
        lam, gamma = 5.0, 1.5
        hp = UipsHyperParams(lam=lam, gamma=gamma, eta1=1.0, eta2=1.0)
        for i in range(xs.shape[0]):
            for a in range(env.action_count):
                winput = WeightInput(pi=float(pi[i, a]), beta_hat=float(beta_hat[i, a]),
                                     u=float(u_mat[i, a]))
                interval = confidence_interval(winput.beta_hat, winput.u, gamma, 1.0)
                star = phi_star(winput, hp)
                t_star = minmax_objective(star, worst_case_beta(star, interval, winput, lam), winput, lam)
                t_one = minmax_objective(1.0, worst_case_beta(1.0, interval, winput, lam), winput, lam)
                assert t_star <= t_one


class TestOpeExperiment:
    def test_single_seed_gives_one_row_per_estimator(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.2)
        res = ope_mse_experiment(
            env, policy, [("bips", Weighting(kind="bips")), ("snips", Weighting(kind="snips"))],
            seeds=[5], samples_per_context=10, fit_config=LoggingFitConfig(epochs=20),
        )
        assert [r["estimator"] for r in res.rows] == ["bips", "snips"]

    def test_identical_seeds_identical_tables(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.2)
        spec = [("bips", Weighting(kind="bips")),
                ("uips", Weighting(kind="uips", hp=UipsHyperParams(lam=5, gamma=1, eta1=1, eta2=100)))]
        kwargs = dict(seeds=[3, 4], samples_per_context=20,
                      fit_config=LoggingFitConfig(epochs=40, learning_rate=2.0))
        a = ope_mse_experiment(env, policy, spec, **kwargs)
        b = ope_mse_experiment(env, policy, spec, **kwargs)
        assert a.rows == b.rows
        assert a.summary == b.summary

    def test_rows_equal_a_per_estimator_weights_loop(self):
        # the experiment takes every estimator's weights from one stream that shares pi / beta
        # and phi*'s exponentials; each row must equal that of the estimator's own weights
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.2)
        uips = [
            (f"uips[{lam},{gamma},{eta2}]", Weighting(kind="uips", hp=UipsHyperParams(lam, gamma, 1.0, eta2)))
            for lam in (0.0, 5.0) for gamma in (1.0, 400.0) for eta2 in (100.0, np.inf)
        ]
        spec = [
            ("ce", Weighting(kind="ce")), ("ips_true", Weighting(kind="ips_true")),
            ("bips", Weighting(kind="bips")), ("snips", Weighting(kind="snips")),
            ("bips_cap", Weighting(kind="bips_cap", cap=2.0)), ("minvar", Weighting(kind="minvar")),
            ("stablevar", Weighting(kind="stablevar")), ("shrinkage", Weighting(kind="shrinkage", lam=0.0)),
            ("uips_p", Weighting(kind="uips_p", hp=UipsHyperParams(gamma=1.0))),
            ("uips_o", Weighting(kind="uips_o", hp=UipsHyperParams(gamma=1.0))),
            ("dice_s", Weighting(kind="dice_s", cap=5.0)), *uips, ("bips again", Weighting(kind="bips")),
        ]
        seeds, samples, fit_config = [3, 4], 10, LoggingFitConfig(epochs=20, learning_rate=2.0)
        res = ope_mse_experiment(env, policy, spec, seeds, samples, fit_config)

        truth = true_policy_value(env, policy)
        rows = []
        for seed in seeds:
            dataset = generate_log_per_context(env, samples, make_rng(seed))
            tables = propensity_tables(dataset, fit_logging_policy(dataset, replace(fit_config, seed=seed)))
            pi_rows = policy.distribution_matrix(tables.contexts)
            for name, weighting in spec:
                w = propensity_weights(weighting, tables, pi_rows)
                est = (snips_from_weights(w, dataset.rewards) if weighting.kind == "snips"
                       else float(np.mean(w * dataset.rewards)))
                rows.append({"estimator": name, "seed": seed, "estimate": est, "squared_error": (est - truth) ** 2})
        assert res.rows == rows
        for name, _ in spec:
            errs = [r["squared_error"] for r in rows if r["estimator"] == name]
            assert res.summary[name] == {"mse": float(np.mean(errs)), "std": float(np.std(errs)), "n_seeds": 2}

    def test_flat_logging_keeps_true_propensity_mse_small(self):
        env = build_env(EnvConfig(tau=1e6, seed=0))
        policy = epsilon_greedy_policy(env, 0.2)
        res = ope_mse_experiment(
            env, policy, [("ips_true", Weighting(kind="ips_true"))], seeds=list(range(5)),
            samples_per_context=100, fit_config=LoggingFitConfig(epochs=5),
        )
        assert res.summary["ips_true"]["mse"] < 1e-2


def test_weighting_validation():
    with pytest.raises(ValueError):
        Weighting(kind="bips_cap")
    with pytest.raises(ValueError):
        Weighting(kind="uips")
    with pytest.raises(ValueError):
        Weighting(kind="nonsense")
