import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uips.core import SoftmaxLinearPolicy, make_rng
from uips.metrics import evaluate_policy
from uips.synthetic import Split, TabularPolicy

from oracles import evaluate_policy_loop, ndcg_at_k, precision_at_k, rank_actions, recall_at_k


class TestRankActions:
    def test_descending_with_id_tiebreak(self):
        np.testing.assert_array_equal(rank_actions(np.array([0.1, 0.5, 0.5, 0.2])), [1, 2, 3, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_to_monotone_transform(self, seed):
        rng = make_rng(seed)
        scores = rng.random(8)
        np.testing.assert_array_equal(rank_actions(scores), rank_actions(3.0 * scores + 1.0))
        np.testing.assert_array_equal(rank_actions(scores), rank_actions(np.exp(scores)))


class TestAtK:
    def test_hand_computed_example(self):
        ranked, relevant = [0, 2, 1], {0, 1}
        assert precision_at_k(ranked, relevant, 3) == pytest.approx(2.0 / 3.0)
        assert recall_at_k(ranked, relevant, 3) == pytest.approx(1.0)
        expected = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
        assert ndcg_at_k(ranked, relevant, 3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9197, abs=5e-5)

    def test_all_top_k_relevant(self):
        ranked, relevant = [3, 1, 0, 2], {3, 1}
        assert precision_at_k(ranked, relevant, 2) == 1.0
        assert recall_at_k(ranked, relevant, 2) == 1.0
        assert ndcg_at_k(ranked, relevant, 2) == 1.0

    def test_no_relevant_in_top_k(self):
        ranked, relevant = [0, 1, 2, 3], {3}
        assert precision_at_k(ranked, relevant, 2) == 0.0
        assert recall_at_k(ranked, relevant, 2) == 0.0
        assert ndcg_at_k(ranked, relevant, 2) == 0.0

    def test_k_clamped_to_action_count(self):
        ranked, relevant = [1, 0], {0}
        assert precision_at_k(ranked, relevant, 10) == pytest.approx(0.5)
        assert recall_at_k(ranked, relevant, 10) == 1.0

    def test_recall_nondecreasing_and_hits_nondecreasing_in_k(self):
        rng = make_rng(4)
        for _ in range(20):
            ranked = list(rng.permutation(10))
            relevant = set(int(a) for a in rng.choice(10, size=3, replace=False))
            recalls = [recall_at_k(ranked, relevant, k) for k in range(1, 11)]
            hits = [precision_at_k(ranked, relevant, k) * k for k in range(1, 11)]
            assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(hits, hits[1:]))

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k([0, 1], set(), 1)


class TestEvaluatePolicy:
    def _split(self, rng, n, action_count, labels):
        xs, rewards = np.empty((n, 3)), np.zeros((n, action_count))
        for i in range(n):
            rewards[i, rng.choice(action_count, size=labels, replace=False)] = 1.0
            xs[i] = rng.standard_normal(3)
        return Split(xs, rewards)

    def test_oracle_policy_scores_one(self):
        # exactly k relevant actions, each given a huge margin
        rng = make_rng(5)
        k = 3
        split = self._split(rng, 12, 10, labels=k)
        probs = np.full((12, 10), 1e-9)
        probs[split.rewards == 1.0] = 1.0 / k
        policy = TabularPolicy(contexts=split.xs, probs=probs)
        p, r, ndcg = evaluate_policy(policy, split, k)
        assert (p, r, ndcg) == (1.0, 1.0, 1.0)

    def test_uniform_scores_follow_declared_tie_order(self):
        # uniform scores rank actions 0..k-1, so the metrics are computable exactly
        rng = make_rng(6)
        split = self._split(rng, 15, 8, labels=2)
        policy = TabularPolicy(contexts=split.xs, probs=np.full((15, 8), 1.0 / 8.0))
        k = 4
        p, r, n = evaluate_policy(policy, split, k)
        hits = split.rewards[:, :k].sum(axis=1)
        expected_p = np.mean(hits / k)
        expected_r = np.mean(hits / split.rewards.sum(axis=1))
        assert p == pytest.approx(expected_p, abs=1e-12)
        assert r == pytest.approx(expected_r, abs=1e-12)

    def test_average_is_permutation_invariant(self):
        rng = make_rng(7)
        split = self._split(rng, 10, 6, labels=2)
        policy = TabularPolicy(contexts=split.xs, probs=rng.dirichlet(np.ones(6), size=10))
        order = rng.permutation(10)
        shuffled = Split(split.xs[order], split.rewards[order])
        assert evaluate_policy(policy, split, 3) == pytest.approx(
            evaluate_policy(policy, shuffled, 3), abs=1e-12
        )


class TestMatrixPathEqualsTheScalarOracle:
    """``evaluate_policy`` ranks every row at once; the oracle ranks one context at a time."""

    def _case(self, rng):
        m, action_count, dim = (int(v) for v in rng.integers(1, [30, 12, 6]))
        rewards = (rng.random((m, action_count)) < 0.3).astype(float)
        rewards[np.arange(m), rng.integers(0, action_count, size=m)] = 1.0
        split = Split(rng.standard_normal((m, dim)), rewards)
        # repeated theta rows give exactly tied probabilities
        theta = rng.standard_normal((action_count, dim))[rng.integers(0, action_count, size=action_count)]
        softmax = SoftmaxLinearPolicy(theta=theta, tau=float(rng.uniform(0.2, 2.0)))
        # probabilities on a coarse grid tie within rows too
        probs = np.round(rng.random((m, action_count)) * 4.0) + 1.0
        tabular = TabularPolicy(contexts=split.xs, probs=probs / probs.sum(axis=1, keepdims=True))
        return split, (softmax, tabular)

    def test_exactly_equal_on_random_cases_with_ties(self):
        rng = make_rng(8)
        for _ in range(150):
            split, policies = self._case(rng)
            action_count = split.rewards.shape[1]
            for policy in policies:
                for k in {1, int(rng.integers(1, action_count + 1)), action_count, action_count + 3}:
                    assert evaluate_policy(policy, split, k) == evaluate_policy_loop(policy, split, k)

    def test_returns_python_floats(self):
        split, (policy, _) = self._case(make_rng(9))
        assert all(type(v) is float for v in evaluate_policy(policy, split, 2))

    def test_k_below_one_rejected(self):
        split, (policy, _) = self._case(make_rng(10))
        with pytest.raises(ValueError):
            evaluate_policy(policy, split, 0)
