import math

import numpy as np
import pytest

from uips.core import LoggedDataset, SoftmaxLinearPolicy, make_rng
from uips.logging_fit import (
    FitError,
    LoggingFitConfig,
    LoggingModel,
    accumulate_grams,
    fit_logging_policy,
    uncertainties,
    uncertainty_frequency_bins,
)
from uips.synthetic import EnvConfig, build_env, generate_log, generate_log_per_context

from helpers import dense_fit_reference, uncertainty_table
from oracles import UncertaintyRecord, confidence_interval, uncertainty


def sample_from_policy(policy, pool, n, rng):
    probs = policy.distribution_matrix(pool)
    idx = rng.integers(0, pool.shape[0], n)
    cdf = np.cumsum(probs[idx], axis=1)
    actions = np.minimum((rng.random(n)[:, None] > cdf).sum(axis=1), policy.action_count - 1)
    return LoggedDataset(
        xs=pool[idx], actions=actions, rewards=np.zeros(n), action_count=policy.action_count,
        true_logging_probs=probs[idx, actions],
    )


def unit_rows(rng, n, d):
    xs = rng.standard_normal((n, d))
    return xs / np.linalg.norm(xs, axis=1, keepdims=True)


class TestFitLoggingPolicy:
    def test_recovers_a_known_policy_with_abundant_data(self):
        # moderately skewed planted scorer; 20k logged draws, 10 actions
        rng = make_rng(100)
        d, n_pool, n = 8, 200, 20_000
        true_policy = SoftmaxLinearPolicy(theta=0.4 * rng.standard_normal((10, d)), tau=1.0)
        pool = unit_rows(rng, n_pool, d)
        ds = sample_from_policy(true_policy, pool, n, rng)
        model = fit_logging_policy(ds, LoggingFitConfig(epochs=500, learning_rate=2.0, negatives=5, l2=0.0, seed=0))
        held = unit_rows(rng, 100, d)
        tv = 0.5 * np.abs(true_policy.distribution_matrix(held) - model.beta_matrix(held)).sum(axis=1)
        assert tv.mean() < 0.1

    def test_single_action_probability_is_one(self):
        rng = make_rng(101)
        ds = LoggedDataset(
            xs=rng.standard_normal((30, 4)), actions=np.zeros(30, dtype=int),
            rewards=np.zeros(30), action_count=1,
        )
        model = fit_logging_policy(ds, LoggingFitConfig(epochs=20))
        beta = model.beta_matrix(ds.xs[:5])
        for i in range(5):
            assert beta[i, 0] == 1.0

    def test_deterministic_given_seed(self):
        env = build_env(EnvConfig(dim=8, action_count=10, train_size=30, validation_size=10, test_size=10, seed=7))
        ds = generate_log(env, 500, make_rng(1))
        a = fit_logging_policy(ds, LoggingFitConfig(seed=5))
        b = fit_logging_policy(ds, LoggingFitConfig(seed=5))
        np.testing.assert_array_equal(a.policy.theta, b.policy.theta)

    def test_divergence_raises_fit_error(self):
        env = build_env(EnvConfig(dim=8, action_count=10, train_size=30, validation_size=10, test_size=10, seed=7))
        ds = generate_log(env, 500, make_rng(1))
        with pytest.raises(FitError):
            fit_logging_policy(ds, LoggingFitConfig(learning_rate=1e120, epochs=12))

    def test_diagnostics_report_score_placement(self):
        env = build_env(EnvConfig(dim=8, action_count=10, train_size=50, validation_size=10, test_size=10, seed=8))
        ds = generate_log(env, 2000, make_rng(2))
        model = fit_logging_policy(ds, LoggingFitConfig(epochs=150, learning_rate=2.0))
        frac = model.fit_diagnostics["frac_logged_above_median_score"]
        assert frac >= 0.70
        assert math.isfinite(model.fit_diagnostics["final_loss"])

    def test_empty_dataset_rejected_by_fit(self):
        empty = LoggedDataset(xs=np.zeros((0, 3)), actions=[], rewards=[], action_count=2)
        with pytest.raises(ValueError):
            fit_logging_policy(empty, LoggingFitConfig())


def _random_log(seed, n, n_contexts, dim, action_count):
    rng = make_rng(seed)
    pool = rng.standard_normal((n_contexts, dim))
    return LoggedDataset(
        xs=pool[rng.integers(0, n_contexts, n)], actions=rng.integers(0, action_count, n),
        rewards=np.zeros(n), action_count=action_count,
    )


def _desk_ope_log():
    env = build_env(EnvConfig(dim=16, action_count=50, train_size=200, validation_size=50, test_size=100, tau=0.5))
    return generate_log_per_context(env, 100, make_rng(3))


class TestFitMatchesDenseReference:
    """The sparse-cell fit reproduces the dense epoch loop bit for bit."""

    # table: whether the (distinct, action_count) score table has fewer cells than the
    # positives and negatives, so that the fit takes the sigmoid of the whole table; every
    # case runs at least 3 epochs, so that each epoch after the first resets the last one's
    # negatives
    @pytest.mark.parametrize(
        "make_log, config, table",
        [
            (_desk_ope_log, LoggingFitConfig(learning_rate=2.0, epochs=4, negatives=5, seed=3), True),
            (lambda: _random_log(20, 300, 300, 6, 10), LoggingFitConfig(epochs=8, negatives=4, seed=1), False),
            (lambda: _random_log(21, 200, 15, 5, 8), LoggingFitConfig(epochs=8, negatives=0, seed=2), True),
            (lambda: _random_log(22, 150, 20, 4, 1), LoggingFitConfig(epochs=8, negatives=5, seed=3), True),
            (lambda: _random_log(23, 150, 20, 4, 2), LoggingFitConfig(epochs=8, negatives=5, seed=4), True),
            (lambda: _random_log(24, 150, 20, 4, 3), LoggingFitConfig(epochs=8, negatives=5, seed=5), True),
            (lambda: _random_log(26, 120, 1, 6, 10), LoggingFitConfig(epochs=8, negatives=5, seed=6), True),
            (lambda: _random_log(27, 1500, 1000, 16, 200), LoggingFitConfig(epochs=4, negatives=5, seed=7), False),
            (lambda: _random_log(29, 300, 10, 14, 1), LoggingFitConfig(epochs=8, negatives=5, seed=9), True),
            (lambda: _random_log(31, 100, 10**5, 4, 6), LoggingFitConfig(epochs=3, negatives=0, seed=11), False),
            # negatives above action_count - 1: each row draws action_count - 1 negatives
            # from as many non-chosen actions, so cells repeat within a row
            (lambda: _random_log(33, 200, 10, 5, 4), LoggingFitConfig(epochs=4, negatives=9, seed=13), True),
            (lambda: _random_log(34, 80, 10**5, 5, 4), LoggingFitConfig(epochs=4, negatives=9, seed=14), False),
        ],
        ids=["desk-ope-repeated", "all-distinct", "no-negatives", "one-action", "two-actions",
             "duplicate-negatives", "one-context", "200-actions-rarely-repeated", "one-action-dim-14",
             "no-negatives-all-distinct", "repeated-negatives", "repeated-negatives-all-distinct"],
    )
    def test_theta_and_diagnostics_are_bit_identical(self, make_log, config, table):
        ds = make_log()
        k = min(config.negatives, ds.action_count - 1)
        assert (len(np.unique(ds.xs, axis=0)) * ds.action_count < len(ds) * (k + 1)) == table
        theta, diagnostics = dense_fit_reference(ds, config)
        model = fit_logging_policy(ds, config)
        np.testing.assert_array_equal(model.policy.theta, theta)
        got = model.fit_diagnostics
        assert set(got) == set(diagnostics)
        assert got["epochs"] == diagnostics["epochs"]
        assert got["frac_logged_above_median_score"] == diagnostics["frac_logged_above_median_score"]
        # the loss adds its cells over distinct contexts, in another order than the dense sum
        assert got["final_loss"] == pytest.approx(diagnostics["final_loss"], rel=1e-12)

    def test_wide_contexts_differ_only_by_rounding(self):
        # from dim 32 the bundled OpenBLAS picks a small-matrix kernel by the
        # product's size, so a distinct context's scores can round differently
        # from its rows in the dense product
        ds = _random_log(28, 300, 10, 40, 10)
        config = LoggingFitConfig(learning_rate=2.0, epochs=5, negatives=5, seed=8)
        theta, diagnostics = dense_fit_reference(ds, config)
        model = fit_logging_policy(ds, config)
        np.testing.assert_allclose(model.policy.theta, theta, rtol=0, atol=1e-12)
        assert model.fit_diagnostics["final_loss"] == pytest.approx(diagnostics["final_loss"], rel=1e-12)

    def test_nan_context_raises_fit_error(self):
        ds = _random_log(25, 50, 10, 4, 5)
        ds.xs[7, 2] = np.nan
        with pytest.raises(FitError):
            fit_logging_policy(ds, LoggingFitConfig(epochs=3))


class TestAccumulateGrams:
    def _empty_model(self, action_count=3, dim=2, tau=1.0):
        return LoggingModel(
            policy=SoftmaxLinearPolicy(theta=np.zeros((action_count, dim)), tau=tau),
            grams=np.broadcast_to(np.eye(dim), (action_count, dim, dim)).copy(),
        )

    def test_fit_returns_the_grams_of_its_log(self):
        ds = _random_log(30, 80, 20, 4, 5)
        model = fit_logging_policy(ds, LoggingFitConfig(epochs=2))
        bare = LoggingModel(policy=model.policy, grams=np.broadcast_to(np.eye(4), (5, 4, 4)))
        np.testing.assert_array_equal(model.grams, accumulate_grams(ds, bare).grams)
        assert model.fit_diagnostics["epochs"] == 2

    def test_fresh_model_grams_are_identity(self):
        model = self._empty_model()
        for m in model.grams:
            np.testing.assert_array_equal(m, np.eye(2))

    def test_single_rank_one_update(self):
        model = self._empty_model()
        ds = LoggedDataset(xs=np.array([[1.0, 0.0]]), actions=[0], rewards=[0.0], action_count=3)
        updated = accumulate_grams(ds, model)
        np.testing.assert_allclose(updated.grams[0], np.eye(2) + np.outer([1, 0], [1, 0]), atol=1e-15)
        np.testing.assert_array_equal(updated.grams[1], np.eye(2))
        np.testing.assert_array_equal(updated.grams[2], np.eye(2))

    def test_temperature_scales_the_gradient(self):
        model = self._empty_model(tau=2.0)
        ds = LoggedDataset(xs=np.array([[1.0, 0.0]]), actions=[0], rewards=[0.0], action_count=3)
        updated = accumulate_grams(ds, model)
        np.testing.assert_allclose(updated.grams[0], np.eye(2) + np.outer([0.5, 0], [0.5, 0]), atol=1e-15)

    def test_order_independent(self):
        rng = make_rng(30)
        ds = LoggedDataset(
            xs=rng.standard_normal((60, 4)), actions=rng.integers(0, 3, 60),
            rewards=np.zeros(60), action_count=3,
        )
        model = LoggingModel(
            policy=SoftmaxLinearPolicy(theta=np.zeros((3, 4))),
            grams=np.broadcast_to(np.eye(4), (3, 4, 4)).copy(),
        )
        perm = rng.permutation(60)
        a = accumulate_grams(ds, model)
        b = accumulate_grams(ds.subset(perm), model)
        np.testing.assert_allclose(a.grams, b.grams, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        model = self._empty_model(dim=5)
        ds = LoggedDataset(xs=np.ones((2, 3)), actions=[0, 1], rewards=[0, 0], action_count=3)
        with pytest.raises(ValueError):
            accumulate_grams(ds, model)


@pytest.mark.parametrize("apply", [accumulate_grams, lambda dataset, model: uncertainties(model, dataset)],
                         ids=["accumulate_grams", "uncertainties"])
@pytest.mark.parametrize("dim, action_count, last_action, what", [
    (3, 2, 1, "dimension"),
    (2, 3, 2, "action count"),
    (2, 3, 1, "action count"),
], ids=["dimension", "action-the-model-lacks", "more-actions-than-logged"])
def test_dataset_of_another_shape_than_the_model_is_refused(apply, dim, action_count, last_action, what):
    model = LoggingModel(
        policy=SoftmaxLinearPolicy(theta=np.zeros((2, 2))), grams=np.broadcast_to(np.eye(2), (2, 2, 2)),
    )
    ds = LoggedDataset(
        xs=np.ones((3, dim)), actions=[0, 1, last_action], rewards=np.zeros(3), action_count=action_count,
    )
    with pytest.raises(ValueError, match=f"dataset {what} does not match the model"):
        apply(ds, model)


class TestUncertainty:
    def _model_with_gram(self, gram, dim=2, tau=1.0):
        grams = np.broadcast_to(np.eye(dim), (2, dim, dim)).copy()
        grams[0] = gram
        return LoggingModel(policy=SoftmaxLinearPolicy(theta=np.zeros((2, dim)), tau=tau), grams=grams)

    def test_zero_context_has_zero_uncertainty(self):
        model = self._model_with_gram(np.eye(2))
        assert uncertainty(model, np.zeros(2), 0) == 0.0

    def test_identity_gram_unit_vector(self):
        model = self._model_with_gram(np.eye(2))
        assert uncertainty(model, np.array([1.0, 0.0]), 0) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_update_against_explicit_inverse(self):
        gram = np.eye(2) + np.outer([1.0, 0.0], [1.0, 0.0])
        model = self._model_with_gram(gram)
        expected = math.sqrt(np.array([1.0, 0.0]) @ np.linalg.inv(gram) @ np.array([1.0, 0.0]))
        got = uncertainty(model, np.array([1.0, 0.0]), 0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_never_increases_as_data_accumulates(self):
        rng = make_rng(31)
        model = LoggingModel(
            policy=SoftmaxLinearPolicy(theta=np.zeros((2, 3))),
            grams=np.broadcast_to(np.eye(3), (2, 3, 3)).copy(),
        )
        queries = rng.standard_normal((10, 3))
        for _ in range(15):
            ds = LoggedDataset(
                xs=rng.standard_normal((1, 3)), actions=[0], rewards=[0.0], action_count=2
            )
            before = [uncertainty(model, q, 0) for q in queries]
            model = accumulate_grams(ds, model)
            after = [uncertainty(model, q, 0) for q in queries]
            assert all(b <= a + 1e-12 for a, b in zip(before, after))

    def test_batch_matches_single_queries(self):
        rng = make_rng(32)
        ds = LoggedDataset(
            xs=rng.standard_normal((40, 3)), actions=rng.integers(0, 4, 40),
            rewards=np.zeros(40), action_count=4,
        )
        model = accumulate_grams(
            ds,
            LoggingModel(
                policy=SoftmaxLinearPolicy(theta=np.zeros((4, 3))),
                grams=np.broadcast_to(np.eye(3), (4, 3, 3)).copy(),
            ),
        )
        batch = uncertainties(model, ds)
        for i in range(0, 40, 7):
            assert batch[i] == pytest.approx(uncertainty(model, ds.xs[i], int(ds.actions[i])), abs=1e-12)

    def test_matrix_matches_scalar_reference(self):
        rng = make_rng(34)
        a_count, d, tau = 5, 3, 0.6
        # the last action is never logged, so its Gram matrix stays the identity
        ds = LoggedDataset(
            xs=rng.standard_normal((30, d)), actions=rng.integers(0, a_count - 1, 30),
            rewards=np.zeros(30), action_count=a_count,
        )
        model = accumulate_grams(
            ds,
            LoggingModel(
                policy=SoftmaxLinearPolicy(theta=rng.standard_normal((a_count, d)), tau=tau),
                grams=np.broadcast_to(np.eye(d), (a_count, d, d)).copy(),
            ),
        )
        queries = rng.standard_normal((12, d))
        matrix = uncertainty_table(model, queries)
        assert matrix.shape == (12, a_count)
        for i, x in enumerate(queries):
            for a in range(a_count):
                assert matrix[i, a] == pytest.approx(uncertainty(model, x, a), abs=1e-12)
        np.testing.assert_allclose(matrix[:, -1], np.linalg.norm(queries / tau, axis=1), rtol=0, atol=1e-12)


class TestConfidenceInterval:
    def test_hand_computed_interval(self):
        record = confidence_interval(0.3, math.log(2.0), 1.0, 1.0)
        assert record.interval_low == pytest.approx(0.15, abs=1e-12)
        assert record.interval_high == pytest.approx(0.6, abs=1e-12)

    def test_degenerate_without_uncertainty(self):
        for gamma, u in ((0.0, 1.3), (2.0, 0.0)):
            record = confidence_interval(0.42, u, gamma, 1.0)
            assert record.interval_low == record.interval_high == pytest.approx(0.42, abs=1e-15)

    def test_doubling_gamma_squares_the_width_ratio(self):
        r1 = confidence_interval(0.3, 0.7, 1.0, 1.0)
        r2 = confidence_interval(0.3, 0.7, 2.0, 1.0)
        ratio1 = r1.interval_high / r1.interval_low
        ratio2 = r2.interval_high / r2.interval_low
        assert ratio2 == pytest.approx(ratio1**2, rel=1e-12)

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            confidence_interval(0.3, 0.5, 1.0, 0.0)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            UncertaintyRecord(u=0.5, interval_low=0.4, interval_high=0.2)

    def test_true_probability_covered_under_bounded_score_error(self):
        # plant scores, perturb them by at most gamma * U, and compute eta exactly
        rng = make_rng(33)
        d, a_count, gamma = 6, 8, 1.5
        true_policy = SoftmaxLinearPolicy(theta=rng.standard_normal((a_count, d)), tau=1.0)
        pool = rng.standard_normal((40, d))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        ds = sample_from_policy(true_policy, pool, 400, rng)
        model = accumulate_grams(
            ds,
            LoggingModel(
                policy=true_policy,
                grams=np.broadcast_to(np.eye(d), (a_count, d, d)).copy(),
            ),
        )
        for x in pool[:10]:
            f_true = true_policy.theta @ x / true_policy.tau
            us = np.array([uncertainty(model, x, a) for a in range(a_count)])
            delta = gamma * us * rng.uniform(-1.0, 1.0, a_count)
            f_hat = f_true + delta
            z_true = np.exp(f_true - f_true.max()).sum() * np.exp(f_true.max())
            z_hat = np.exp(f_hat - f_hat.max()).sum() * np.exp(f_hat.max())
            eta = z_true / z_hat
            beta_true = np.exp(f_true) / z_true
            beta_hat = np.exp(f_hat) / z_hat
            for a in range(a_count):
                record = confidence_interval(float(beta_hat[a]), float(us[a]), gamma, eta)
                assert record.interval_low <= beta_true[a] <= record.interval_high


class TestFrequencyBins:
    def test_low_frequency_bin_carries_more_uncertainty(self):
        for tau, seed in ((0.4, 11), (0.6, 12), (0.8, 13)):
            env = build_env(EnvConfig(tau=tau, seed=seed))
            ds = generate_log(env, 4000, make_rng(seed))
            model = fit_logging_policy(ds, LoggingFitConfig(epochs=80, learning_rate=2.0, seed=seed))
            bins = uncertainty_frequency_bins(ds, uncertainties(model, ds), n_bins=5)
            assert bins[0]["mean_uncertainty"] > bins[-1]["mean_uncertainty"]
            assert bins[0]["max_count"] <= bins[-1]["min_count"]

    def test_bin_sample_counts_cover_dataset(self):
        env = build_env(EnvConfig(tau=0.6, seed=14))
        ds = generate_log(env, 1500, make_rng(1))
        model = fit_logging_policy(ds, LoggingFitConfig(epochs=40, seed=1))
        bins = uncertainty_frequency_bins(ds, uncertainties(model, ds), n_bins=4)
        assert sum(b["n_samples"] for b in bins) == len(ds)

    def test_one_uncertainty_per_sample_required(self):
        env = build_env(EnvConfig(dim=8, action_count=10, train_size=30, validation_size=10, test_size=10, seed=16))
        ds = generate_log(env, 200, make_rng(4))
        with pytest.raises(ValueError, match="one uncertainty per logged sample"):
            uncertainty_frequency_bins(ds, np.ones(len(ds) - 1))


def test_model_json_round_trip(tmp_path):
    env = build_env(EnvConfig(dim=8, action_count=10, train_size=30, validation_size=10, test_size=10, seed=15))
    ds = generate_log(env, 300, make_rng(3))
    model = fit_logging_policy(ds, LoggingFitConfig(epochs=30))
    path = tmp_path / "model.json"
    model.save(path)
    back = LoggingModel.load(path)
    np.testing.assert_array_equal(back.policy.theta, model.policy.theta)
    np.testing.assert_array_equal(back.grams, model.grams)
    assert back.fit_diagnostics == model.fit_diagnostics


@pytest.mark.parametrize("kind", ["policy", "logging-model", "env"])
def test_save_load_save_gives_identical_bytes(tmp_path, kind):
    env = build_env(EnvConfig(dim=5, action_count=7, train_size=20, validation_size=5, test_size=5, tau=2, seed=6))
    if kind == "env":
        artifact = env
    else:
        ds = generate_log(env, 150, make_rng(6))
        artifact = fit_logging_policy(ds, LoggingFitConfig(epochs=10))
        if kind == "policy":
            artifact = artifact.policy
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    artifact.save(first)
    type(artifact).load(first).save(second)
    assert second.read_bytes() == first.read_bytes()
