import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distribution, log_prob_grad, prob
from uips.core import LoggedDataset, SoftmaxLinearPolicy, make_rng


def random_policy(rng, action_count=4, dim=3, scale=1.0, tau=1.0):
    return SoftmaxLinearPolicy(theta=scale * rng.standard_normal((action_count, dim)), tau=tau)


class TestPolicyProb:
    def test_zero_scores_are_uniform(self):
        policy = SoftmaxLinearPolicy(theta=np.zeros((4, 3)))
        x = np.array([0.3, -1.0, 2.0])
        for a in range(4):
            assert prob(policy, x, a) == pytest.approx(0.25, abs=1e-15)

    def test_hand_computed_two_action_softmax(self):
        # scores 0 and ln 3 -> probabilities 1/4 and 3/4
        policy = SoftmaxLinearPolicy(theta=np.array([[0.0], [math.log(3.0)]]), tau=1.0)
        assert prob(policy, np.array([1.0]), 1) == pytest.approx(0.75, abs=1e-12)
        assert prob(policy, np.array([1.0]), 0) == pytest.approx(0.25, abs=1e-12)

    def test_huge_temperature_flattens(self):
        rng = make_rng(0)
        policy = SoftmaxLinearPolicy(theta=rng.standard_normal((6, 4)), tau=1e9)
        p = distribution(policy, rng.standard_normal(4))
        assert np.all(np.abs(p - 1.0 / 6.0) < 1e-6)

    @pytest.mark.parametrize("tau", [1e-308, 5e-324])
    def test_tiny_temperature_gives_finite_normalized_rows(self, tau):
        # the scores are divided by tau only after the row maximum is subtracted,
        # so the trailing actions go to -inf and get probability 0, never NaN
        rng = make_rng(1)
        policy = SoftmaxLinearPolicy(theta=rng.standard_normal((6, 4)), tau=tau)
        xs = rng.standard_normal((5, 4))
        rows = policy.distribution_matrix(xs)
        assert np.all(np.isfinite(rows))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        for x, row in zip(xs, rows):
            p = distribution(policy, x)
            assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) < 1e-12
            np.testing.assert_array_equal(p, row)

    def test_dimension_mismatch_raises(self):
        policy = SoftmaxLinearPolicy(theta=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            policy.distribution_matrix(np.zeros((1, 5)))

    def test_tiny_temperature_is_stable(self):
        policy = SoftmaxLinearPolicy(theta=np.array([[5.0], [1.0], [0.0]]), tau=1e-6)
        p = distribution(policy, np.array([1.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0, abs=1e-12)


class TestPolicyDistribution:
    def test_two_actions_zero_theta(self):
        policy = SoftmaxLinearPolicy(theta=np.zeros((2, 3)))
        np.testing.assert_allclose(distribution(policy, np.ones(3)), [0.5, 0.5], atol=1e-15)

    def test_matches_policy_prob_entrywise(self):
        rng = make_rng(1)
        for _ in range(100):
            policy = random_policy(rng, action_count=5, dim=3, scale=2.0)
            x = rng.standard_normal(3)
            p = distribution(policy, x)
            for a in range(5):
                assert p[a] == pytest.approx(prob(policy, x, a), abs=1e-15)

    def test_permuting_rows_permutes_output(self):
        rng = make_rng(2)
        policy = random_policy(rng, action_count=6, dim=4)
        x = rng.standard_normal(4)
        perm = rng.permutation(6)
        permuted = SoftmaxLinearPolicy(theta=policy.theta[perm], tau=policy.tau)
        np.testing.assert_allclose(distribution(permuted, x), distribution(policy, x)[perm], atol=1e-15)

    def test_matrix_matches_per_context(self):
        rng = make_rng(3)
        policy = random_policy(rng, action_count=5, dim=3)
        xs = rng.standard_normal((8, 3))
        mat = policy.distribution_matrix(xs)
        for i in range(8):
            np.testing.assert_allclose(mat[i], distribution(policy, xs[i]), atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=20.0))
    def test_normalized_and_positive(self, seed, tau):
        rng = make_rng(seed)
        policy = random_policy(rng, action_count=7, dim=4, scale=3.0, tau=tau)
        x = rng.standard_normal(4)
        p = distribution(policy, x)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)
        # exp underflows to 0 once a score trails the maximum by about 745
        scores = policy.theta @ x / policy.tau
        gap = scores.max() - scores
        assert np.all(p[gap <= 700] > 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_shift_invariance(self, seed):
        # adding the same vector to every score row leaves the softmax unchanged
        rng = make_rng(seed)
        policy = random_policy(rng, action_count=5, dim=3)
        shift = rng.standard_normal(3)
        shifted = SoftmaxLinearPolicy(theta=policy.theta + shift, tau=policy.tau)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(distribution(shifted, x), distribution(policy, x), atol=1e-12)


class TestLogProbGrad:
    def test_hand_computed_two_action_gradient(self):
        policy = SoftmaxLinearPolicy(theta=np.zeros((2, 1)))
        grad = log_prob_grad(policy, np.array([1.0]), 0)
        np.testing.assert_allclose(grad, [[0.5], [-0.5]], atol=1e-15)

    def test_rows_sum_to_zero(self):
        rng = make_rng(6)
        policy = random_policy(rng, action_count=5, dim=4, scale=2.0, tau=0.7)
        grad = log_prob_grad(policy, rng.standard_normal(4), 2)
        np.testing.assert_allclose(grad.sum(axis=0), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = make_rng(7)
        h = 1e-5
        for _ in range(50):
            tau = float(rng.uniform(0.5, 2.0))
            policy = random_policy(rng, action_count=4, dim=3, scale=1.0, tau=tau)
            x = rng.standard_normal(3)
            a = int(rng.integers(4))
            analytic = log_prob_grad(policy, x, a)
            fd = np.zeros_like(analytic)
            for i in range(4):
                for j in range(3):
                    for sign in (1.0, -1.0):
                        theta = policy.theta.copy()
                        theta[i, j] += sign * h
                        p = prob(SoftmaxLinearPolicy(theta=theta, tau=tau), x, a)
                        fd[i, j] += sign * math.log(p)
                    fd[i, j] /= 2 * h
            rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
            assert rel < 1e-6


class TestLoggedData:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            LoggedDataset(xs=np.array([[1.0]]), actions=[0], rewards=[1.5], action_count=1)
        with pytest.raises(ValueError):
            LoggedDataset(xs=np.array([[1.0]]), actions=[0], rewards=[0.5], action_count=1,
                          true_logging_probs=[0.0])
        with pytest.raises(ValueError, match="row 1: context is not finite"):
            LoggedDataset(xs=np.array([[1.0], [np.nan]]), actions=[0, 0], rewards=[0.5, 0.5],
                          action_count=1)

    def test_contexts_need_at_least_one_feature(self):
        # rows of zero bytes cannot be told apart as contexts
        with pytest.raises(ValueError, match="dim >= 1"):
            LoggedDataset(xs=np.zeros((3, 0)), actions=[0, 0, 0], rewards=[0, 0, 0], action_count=1)

    def test_dataset_action_bounds(self):
        with pytest.raises(ValueError):
            LoggedDataset(xs=np.ones((2, 2)), actions=[0, 5], rewards=[0, 1], action_count=3)

    def test_jsonl_round_trip(self, tmp_path):
        rng = make_rng(8)
        ds = LoggedDataset(
            xs=rng.standard_normal((9, 3)),
            actions=rng.integers(0, 4, 9),
            rewards=rng.integers(0, 2, 9).astype(float),
            action_count=4,
            true_logging_probs=rng.uniform(0.05, 1.0, 9),
        )
        path = tmp_path / "log.jsonl"
        ds.to_jsonl(path)
        back = LoggedDataset.from_jsonl(path, action_count=4)
        np.testing.assert_array_equal(back.xs, ds.xs)
        np.testing.assert_array_equal(back.actions, ds.actions)
        np.testing.assert_array_equal(back.rewards, ds.rewards)
        np.testing.assert_array_equal(back.true_logging_probs, ds.true_logging_probs)

    def test_jsonl_keys(self, tmp_path):
        ds = LoggedDataset(
            xs=np.array([[1.0, 2.0]]), actions=[1], rewards=[1.0], action_count=3,
            true_logging_probs=[0.25],
        )
        path = tmp_path / "log.jsonl"
        ds.to_jsonl(path)
        record = json.loads(path.read_text().splitlines()[0])
        assert set(record) == {"x", "a", "r", "beta_star"}

    @pytest.mark.parametrize("first, later, state", [(0.5, None, "has no"), (None, 0.5, "has a")])
    def test_jsonl_with_beta_star_on_some_records_names_the_line(self, tmp_path, first, later, state):
        def record(prob):
            row = {"x": [1.0], "a": 0, "r": 1.0}
            return json.dumps(row if prob is None else {**row, "beta_star": prob})

        path = tmp_path / "log.jsonl"
        path.write_text("\n".join([record(first), record(first), "", record(later), record(first)]) + "\n")
        with pytest.raises(ValueError, match=rf"log\.jsonl:4: record {state} beta_star, unlike line 1"):
            LoggedDataset.from_jsonl(path, action_count=2)

    def test_policy_json_round_trip(self, tmp_path):
        policy = random_policy(make_rng(9), action_count=3, dim=2, tau=0.4)
        path = tmp_path / "policy.json"
        policy.save(path)
        back = SoftmaxLinearPolicy.load(path)
        np.testing.assert_array_equal(back.theta, policy.theta)
        assert back.tau == policy.tau


class TestRng:
    def test_philox_streams_are_reproducible(self):
        a = make_rng(123).standard_normal(5)
        b = make_rng(123).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_spawned_streams_differ(self):
        children = make_rng(3).spawn(2)
        assert not np.array_equal(children[0].standard_normal(4), children[1].standard_normal(4))
