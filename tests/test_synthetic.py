import json

import numpy as np
import pytest

from uips.core import make_rng
from uips.synthetic import (
    BanditEnv,
    EnvConfig,
    Split,
    TabularPolicy,
    build_env,
    epsilon_greedy_policy,
    generate_log,
    generate_log_per_context,
    true_policy_value,
)

from helpers import dense_log_reference, one_vs_all_reference
from oracles import distribution, prob, true_policy_value_loop

SMALL = EnvConfig(dim=8, action_count=10, train_size=40, validation_size=10, test_size=20, seed=5)


class TestBuildEnv:
    def test_same_seed_gives_bit_identical_env(self, tmp_path):
        build_env(EnvConfig(seed=3)).save(tmp_path / "a.json")
        build_env(EnvConfig(seed=3)).save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_huge_temperature_gives_uniform_logging(self):
        env = build_env(EnvConfig(dim=8, action_count=12, train_size=30, validation_size=10, test_size=20, tau=1e9, seed=4))
        rng = make_rng(0)
        for _ in range(20):
            x = rng.standard_normal(8)
            x /= np.linalg.norm(x)
            p = distribution(env.logging_policy, x)
            assert np.all(np.abs(p - 1.0 / 12.0) < 1e-6)

    def test_logging_policy_ranks_relevant_actions_first(self):
        env = build_env(EnvConfig(seed=1))  # default config has zero label noise
        hits = sum(
            row[np.argmax(distribution(env.logging_policy, x))] == 1.0
            for x, row in zip(env.train.xs, env.train.rewards)
        )
        assert hits / len(env.train) >= 0.80

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            EnvConfig(action_count=3, max_labels=5)

    @pytest.mark.parametrize("field, value", [
        ("dim", 6.5), ("action_count", True), ("test_size", 0), ("min_labels", 0), ("max_labels", 2.5),
        ("label_noise", -1.0), ("label_noise", float("nan")),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EnvConfig(**{field: value})

    def test_splits_have_requested_sizes(self):
        env = build_env(SMALL)
        assert (len(env.train), len(env.validation), len(env.test)) == (40, 10, 20)

    def test_env_json_round_trip(self, tmp_path):
        env = build_env(SMALL)
        path = tmp_path / "env.json"
        env.save(path)
        BanditEnv.load(path).save(tmp_path / "back.json")
        assert (tmp_path / "back.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("config", [EnvConfig(seed=2), EnvConfig(action_count=200, train_size=400, seed=1)],
                             ids=["desk", "200-actions"])
    def test_load_reproduces_every_split_array(self, tmp_path, config):
        env = build_env(config)
        env.save(tmp_path / "env.json")
        back = BanditEnv.load(tmp_path / "env.json")
        back.save(tmp_path / "back.json")
        assert (tmp_path / "back.json").read_bytes() == (tmp_path / "env.json").read_bytes()
        for name in ("train", "validation", "test"):
            np.testing.assert_array_equal(back.split(name).xs, env.split(name).xs)
            np.testing.assert_array_equal(back.split(name).rewards, env.split(name).rewards)
        np.testing.assert_array_equal(back.logging_policy.theta, env.logging_policy.theta)
        assert back.logging_policy.tau == env.logging_policy.tau
        assert back.config == env.config

    @pytest.mark.parametrize("xs, rewards, message", [
        (np.eye(2), [[0.0, 1.0], [0.0, 0.0]], "at least one relevant action"),
        (np.eye(2), [[0.0, 1.0], [0.5, 1.0]], "entries must be 0 or 1"),
        (np.eye(2), [[0.0, 1.0]], "one row per instance"),
        (np.zeros((0, 2)), np.zeros((0, 2)), "at least one instance"),
    ], ids=["empty-relevant-row", "not-0-or-1", "row-count-mismatch", "no-instance"])
    def test_split_rejects_a_malformed_reward_table(self, xs, rewards, message):
        with pytest.raises(ValueError, match=message):
            Split(xs, np.array(rewards))

    @pytest.mark.parametrize("split, message", [
        ("train", r"train split has shape \(10, 3\), not \(action_count, dim\) = \(10, 8\)"),
        ("test", r"test split has shape \(9, 8\), not \(action_count, dim\) = \(10, 8\)"),
    ], ids=["contexts", "actions"])
    def test_env_rejects_a_split_of_another_shape(self, split, message):
        env = build_env(SMALL)
        bad = {"train": Split(env.train.xs[:, :3], env.train.rewards),
               "test": Split(env.test.xs, env.test.rewards[:, 1:])}[split]
        with pytest.raises(ValueError, match=message):
            BanditEnv(**{**vars(env), split: bad})

    def test_load_rejects_a_relevant_action_outside_the_action_range(self, tmp_path):
        path = tmp_path / "env.json"
        build_env(SMALL).save(path)
        for relevant in ([SMALL.action_count], [-1]):
            obj = json.loads(path.read_text())
            obj["test"][3]["relevant"] = relevant
            (tmp_path / "bad.json").write_text(json.dumps(obj))
            with pytest.raises(ValueError, match=r"test instance 3: relevant action outside \[0, 10\)"):
                BanditEnv.load(tmp_path / "bad.json")


class TestGenerateLog:
    def test_rewards_match_relevance_exactly(self):
        env = build_env(SMALL)
        ds = generate_log(env, 500, make_rng(1))
        by_features = {x.tobytes(): row for x, row in zip(env.train.xs, env.train.rewards)}
        for i in range(len(ds)):
            relevant = by_features[ds.xs[i].tobytes()]
            assert ds.rewards[i] == relevant[int(ds.actions[i])]

    def test_true_probs_match_logging_policy(self):
        env = build_env(SMALL)
        ds = generate_log(env, 300, make_rng(2))
        for i in range(len(ds)):
            expected = prob(env.logging_policy, ds.xs[i], int(ds.actions[i]))
            assert ds.true_logging_probs[i] == pytest.approx(expected, abs=1e-12)

    def test_near_deterministic_logging_hits_one_action(self):
        # a single-instance, single-label train split with tau ~ 0 logs one action every time
        base = build_env(EnvConfig(dim=8, action_count=10, train_size=1, validation_size=5,
                                   test_size=5, max_labels=1, seed=9))
        sharp = BanditEnv(
            train=base.train, validation=base.validation, test=base.test,
            logging_policy=type(base.logging_policy)(theta=base.logging_policy.theta, tau=1e-6),
            action_count=base.action_count, dim=base.dim,
        )
        ds = generate_log(sharp, 200, make_rng(3))
        assert len(np.unique(ds.actions)) == 1
        top = int(np.argmax(distribution(sharp.logging_policy, base.train.xs[0])))
        if base.train.rewards[0, top] == 1.0:
            assert np.all(ds.rewards == 1.0)

    def test_empirical_frequencies_match_policy(self):
        env = build_env(EnvConfig(dim=8, action_count=10, train_size=1, validation_size=5, test_size=5, seed=6))
        ds = generate_log(env, 50_000, make_rng(4))
        freq = np.bincount(ds.actions, minlength=10) / len(ds)
        p = distribution(env.logging_policy, env.train.xs[0])
        assert 0.5 * np.abs(freq - p).sum() < 0.02

    def test_per_context_protocol_counts(self):
        env = build_env(SMALL)
        ds = generate_log_per_context(env, 7, make_rng(5))
        assert len(ds) == 7 * len(env.test)
        counts = {}
        for i in range(len(ds)):
            counts[ds.xs[i].tobytes()] = counts.get(ds.xs[i].tobytes(), 0) + 1
        assert set(counts.values()) == {7}

    def test_empty_request_rejected(self):
        env = build_env(SMALL)
        with pytest.raises(ValueError):
            generate_log(env, 0, make_rng(0))

    @pytest.mark.parametrize("config", [
        SMALL,
        EnvConfig(dim=8, action_count=10, train_size=1, validation_size=5, test_size=1, seed=6),
        EnvConfig(dim=5, action_count=1, max_labels=1, train_size=7, validation_size=3, test_size=4, seed=7),
        EnvConfig(dim=16, action_count=200, train_size=30, validation_size=5, test_size=25, tau=0.1, seed=8),
    ], ids=["small", "one-context", "one-action", "200-actions-skewed"])
    @pytest.mark.parametrize("per_context", [False, True], ids=["generate_log", "generate_log_per_context"])
    def test_matches_the_dense_cumsum_reference(self, config, per_context):
        env = build_env(config)
        if per_context:
            ds = generate_log_per_context(env, 9, make_rng(11))
            actions, probs = dense_log_reference(env, make_rng(11), "test", samples_per_context=9)
        else:
            ds = generate_log(env, 700, make_rng(12))
            actions, probs = dense_log_reference(env, make_rng(12), "train", n_samples=700)
        np.testing.assert_array_equal(ds.actions, actions)
        np.testing.assert_array_equal(ds.true_logging_probs, probs)

    @pytest.mark.parametrize("cells", [1, 50, 10 * 700])
    def test_blocks_of_draws_match_the_dense_cumsum_reference(self, monkeypatch, cells):
        # 50 cells make blocks of 5 draws at 10 actions and of 1 draw at 200;
        # 10 * 700 cells hold all 700 draws at 10 actions in one block
        monkeypatch.setattr("uips.synthetic._DRAW_CELLS", cells)
        for config in (SMALL, EnvConfig(dim=16, action_count=200, train_size=30, validation_size=5,
                                        test_size=25, tau=0.1, seed=8)):
            env = build_env(config)
            ds = generate_log(env, 700, make_rng(13))
            actions, probs = dense_log_reference(env, make_rng(13), "train", n_samples=700)
            np.testing.assert_array_equal(ds.actions, actions)
            np.testing.assert_array_equal(ds.true_logging_probs, probs)


class TestEpsilonGreedy:
    def _tiny_env(self):
        split = Split(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0, 1.0, 0.0]]))
        return BanditEnv(
            train=split, validation=split, test=split,
            logging_policy=type(build_env(SMALL).logging_policy)(theta=np.zeros((4, 2))),
            action_count=4, dim=2,
        )

    def test_formula_values(self):
        env = self._tiny_env()
        policy = epsilon_greedy_policy(env, 0.2)
        x = env.test.xs[0]
        assert prob(policy, x, 1) == pytest.approx(0.8 / 2 + 0.2 / 4, abs=1e-15)  # 0.45
        assert prob(policy, x, 3) == pytest.approx(0.2 / 4, abs=1e-15)  # 0.05

    def test_epsilon_one_is_uniform(self):
        env = self._tiny_env()
        policy = epsilon_greedy_policy(env, 1.0)
        np.testing.assert_allclose(distribution(policy, env.test.xs[0]), 0.25, atol=1e-15)

    def test_epsilon_zero_single_label_is_point_mass(self):
        split = Split(np.array([[0.5, 0.5]]), np.array([[0.0, 0.0, 1.0, 0.0]]))
        env = self._tiny_env()
        env = BanditEnv(
            train=split, validation=split, test=split,
            logging_policy=env.logging_policy, action_count=4, dim=2,
        )
        policy = epsilon_greedy_policy(env, 0.0)
        np.testing.assert_allclose(distribution(policy, split.xs[0]), [0, 0, 1, 0], atol=1e-15)

    def test_policy_leaves_the_split_unchanged(self):
        env = build_env(SMALL)
        before = env.test.rewards.copy()
        epsilon_greedy_policy(env, 0.37)
        np.testing.assert_array_equal(env.test.rewards, before)

    def test_distribution_rows_normalize(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.37)
        np.testing.assert_allclose(policy.probs.sum(axis=1), 1.0, atol=1e-12)


class TestTruePolicyValue:
    def test_uniform_policy_two_labels(self):
        rng = make_rng(7)
        xs, rewards = np.empty((12, 3)), np.zeros((12, 10))
        for i in range(12):
            xs[i] = rng.standard_normal(3)
            rewards[i, rng.choice(10, 2, replace=False)] = 1.0
        split = Split(xs, rewards)
        env = BanditEnv(
            train=split, validation=split, test=split,
            logging_policy=type(build_env(SMALL).logging_policy)(theta=np.zeros((10, 3))),
            action_count=10, dim=3,
        )
        policy = TabularPolicy(contexts=xs, probs=np.full((12, 10), 0.1))
        assert true_policy_value(env, policy) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_equals_the_scalar_loop_for_epsilon_greedy_targets(self, split):
        for seed in range(6):
            env = build_env(EnvConfig(dim=5, action_count=int(7 + 9 * seed), train_size=60, validation_size=5,
                                      test_size=45, max_labels=4, seed=seed))
            for epsilon in (0.0, 0.05, 0.3, 1.0):
                policy = epsilon_greedy_policy(env, epsilon, split=split)
                exact = true_policy_value(env, policy, split=split)
                assert type(exact) is np.float64
                assert exact == true_policy_value_loop(env, policy, split=split)

    def test_greedy_policy_scores_one(self):
        env = build_env(SMALL)
        assert true_policy_value(env, epsilon_greedy_policy(env, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_to_test_order(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.3)
        order = make_rng(8).permutation(len(env.test))
        shuffled = BanditEnv(
            train=env.train, validation=env.validation,
            test=Split(env.test.xs[order], env.test.rewards[order]),
            logging_policy=env.logging_policy, action_count=env.action_count, dim=env.dim,
        )
        assert true_policy_value(shuffled, policy) == pytest.approx(true_policy_value(env, policy), abs=1e-12)

    def test_matches_monte_carlo_rollout(self):
        env = build_env(SMALL)
        policy = epsilon_greedy_policy(env, 0.25)
        exact = true_policy_value(env, policy)
        rng = make_rng(9)
        n = 40_000
        idx = rng.integers(0, len(env.test), n)
        rewards = np.empty(n)
        for j, i in enumerate(idx):
            a = int(rng.choice(env.action_count, p=distribution(policy, env.test.xs[i])))
            rewards[j] = env.test.rewards[i, a]
        se = rewards.std() / np.sqrt(n)
        assert abs(rewards.mean() - exact) < 3 * se + 1e-12


def test_skewness_increases_as_temperature_drops():
    sharp = build_env(EnvConfig(tau=0.5, seed=12))
    flat = build_env(EnvConfig(tau=2.0, seed=12))
    xs = sharp.test.xs
    max_sharp = sharp.logging_policy.distribution_matrix(xs).max(axis=1).mean()
    max_flat = flat.logging_policy.distribution_matrix(xs).max(axis=1).mean()
    assert max_sharp > max_flat


# 5 train instances with at most 3 labels each leave some of the 30 actions unlabelled
UNLABELLED_ACTIONS = EnvConfig(dim=8, action_count=30, train_size=5, seed=5)


class TestOneVsAllFit:
    """``build_env``'s in-place logistic fit equals the plain-expression loop bit for bit."""

    @pytest.mark.parametrize("config", [
        EnvConfig(seed=0),
        EnvConfig(action_count=200, train_size=400, seed=1),
        EnvConfig(label_noise=0.3, seed=2),
        EnvConfig(train_size=1, seed=3),
        EnvConfig(action_count=1, min_labels=1, max_labels=1, seed=4),
        UNLABELLED_ACTIONS,
    ], ids=["desk", "200-actions", "label-noise", "one-instance", "one-action", "unlabelled-actions"])
    def test_theta_matches_the_reference_loop(self, config):
        env = build_env(config)
        xs, y = env.train.xs, env.train.rewards
        if config is UNLABELLED_ACTIONS:
            assert (y.sum(axis=0) == 0).any()
        np.testing.assert_array_equal(env.logging_policy.theta, one_vs_all_reference(xs, y))


class TestTabularPolicy:
    def test_distribution_matrix_matches_per_row_lookup(self):
        policy = epsilon_greedy_policy(build_env(SMALL), 0.3)
        rng = make_rng(13)
        xs = policy.contexts[rng.integers(0, policy.contexts.shape[0], 60)]
        per_row = np.stack([distribution(policy, x) for x in xs])
        np.testing.assert_array_equal(policy.distribution_matrix(xs), per_row)

    def test_distribution_matrix_rejects_unknown_context(self):
        policy = epsilon_greedy_policy(build_env(SMALL), 0.3)
        xs = np.vstack([policy.contexts[:2], np.full((1, SMALL.dim), 7.0)])
        with pytest.raises(ValueError):
            policy.distribution_matrix(xs)

    def test_a_context_held_twice_is_rejected(self):
        contexts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="context twice"):
            TabularPolicy(contexts=contexts, probs=np.full((3, 4), 0.25))
