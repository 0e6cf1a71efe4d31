"""Supervise-to-bandit synthetic environment.

A multilabel ground truth is planted with a random linear scorer, a skewed
ground-truth logging policy is obtained by fitting one-vs-all logistic
scores to the train split and wrapping them in a softmax with temperature
tau, and logged datasets are drawn by sampling actions from that policy and
revealing only the chosen action's label as the reward.

Sizes default to desk scale: the same variance pathologies as the large
extreme-classification benchmarks appear already with tens of actions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from uips.core import (
    LoggedDataset, SoftmaxLinearPolicy, _integer, _json_floats, _read_json, _real, _row_keys, _write_json, make_rng,
)
from uips.logging_fit import _logistic, _logistic_descent


SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class Split:
    """The m >= 1 contexts ``xs`` (m, dim) of a split, each of finite squared norm, and their 0/1 table
    ``rewards`` (m, action_count).

    ``rewards[i, a]`` is 1 exactly when action a is relevant to context i: the
    reward a logged draw of a on i reveals. Each context has a relevant action.
    """

    xs: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        rewards = np.asarray(self.rewards, dtype=float)
        if xs.ndim != 2 or rewards.ndim != 2 or xs.shape[0] != rewards.shape[0]:
            raise ValueError(f"contexts {xs.shape} and reward table {rewards.shape} need one row per instance")
        if not len(xs):
            raise ValueError("a split needs at least one instance")
        if not np.isfinite(np.einsum("ij,ij->i", xs, xs)).all():
            raise ValueError("contexts must be finite, with a finite squared norm")
        if not ((rewards == 0.0) | (rewards == 1.0)).all():
            raise ValueError("reward table entries must be 0 or 1")
        if not rewards.any(axis=1).all():
            raise ValueError("each instance needs at least one relevant action")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "rewards", rewards)

    def __len__(self) -> int:
        return self.xs.shape[0]


@dataclass(frozen=True)
class EnvConfig:
    """Knobs for the synthetic environment.

    ``tau`` controls the skewness of the ground-truth logging policy
    (small values concentrate logging on few actions). Labels per instance
    are drawn uniformly from [min_labels, max_labels].
    """

    dim: int = 16
    action_count: int = 50
    train_size: int = 200
    validation_size: int = 50
    test_size: int = 100
    min_labels: int = 1
    max_labels: int = 3
    tau: float = 1.0
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "action_count", "train_size", "validation_size", "test_size", "min_labels", "max_labels"):
            _integer(getattr(self, name), least=1, what=name)
        if self.min_labels > self.max_labels:
            raise ValueError("need 1 <= min_labels <= max_labels")
        if self.max_labels > self.action_count:
            raise ValueError("more labels than actions")
        for name in ("tau", "label_noise"):
            _real(getattr(self, name), name)
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be finite and positive")
        if not 0 <= self.label_noise < np.inf:
            raise ValueError(f"label_noise {self.label_noise!r} is not a finite number >= 0")
        _integer(self.seed)


@dataclass
class BanditEnv:
    """Generated environment: three splits plus the logging policy."""

    train: Split
    validation: Split
    test: Split
    logging_policy: SoftmaxLinearPolicy
    action_count: int
    dim: int
    config: Optional[EnvConfig] = None

    def __post_init__(self):
        expected = (self.action_count, self.dim)
        splits = {f"{name} split": self.split(name) for name in SPLITS}
        shapes = {what: (split.rewards.shape[1], split.xs.shape[1]) for what, split in splits.items()}
        for what, shape in {"logging policy": self.logging_policy.theta.shape, **shapes}.items():
            if shape != expected:
                raise ValueError(f"{what} has shape {shape}, not (action_count, dim) = {expected}")

    def split(self, name: str) -> Split:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def save(self, path) -> None:
        def pack(split):
            return [
                {"x": x.tolist(), "relevant": np.flatnonzero(row).tolist()}
                for x, row in zip(split.xs, split.rewards)
            ]

        _write_json(path, {
            "action_count": self.action_count,
            "dim": self.dim,
            "config": asdict(self.config) if self.config is not None else None,
            **self.logging_policy._fields("logging_"),
            **{name: pack(self.split(name)) for name in SPLITS},
        })

    @classmethod
    def load(cls, path) -> "BanditEnv":
        obj = _read_json(path)
        action_count, dim = (_integer(obj[key], least=1, what=key) for key in ("action_count", "dim"))

        def unpack(name):
            rows = obj[name]
            actions = [a for r in rows for a in r["relevant"]]
            if not {int}.issuperset(map(type, actions)):
                raise ValueError(f"{name}: a relevant action is not a JSON integer")
            instance = np.repeat(np.arange(len(rows)), [len(r["relevant"]) for r in rows])
            actions = np.asarray(actions, dtype=int)
            bad = (actions < 0) | (actions >= action_count)
            if bad.any():
                raise ValueError(f"{name} instance {instance[bad.argmax()]}: relevant action outside [0, {action_count})")
            rewards = np.zeros((len(rows), action_count))
            rewards[instance, actions] = 1.0
            return Split(_json_floats([r["x"] for r in rows], 2, f"{name} contexts"), rewards)

        return cls(
            **{name: unpack(name) for name in SPLITS},
            logging_policy=SoftmaxLinearPolicy._from_fields(obj, "logging_"),
            action_count=action_count,
            dim=dim,
            config=EnvConfig(**obj["config"]) if obj.get("config") else None,
        )


def _draw_contexts(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    # unit-norm contexts keep propensity denominators bounded
    xs = rng.standard_normal((n, dim))
    return xs / np.linalg.norm(xs, axis=1, keepdims=True)


def _plant_labels(
    rng: np.random.Generator,
    xs: np.ndarray,
    scorer: np.ndarray,
    min_labels: int,
    max_labels: int,
    noise: float,
) -> np.ndarray:
    """The 0/1 reward table that marks each context's k top-scoring actions relevant."""
    scores = xs @ scorer.T
    if noise > 0:
        # a huge noise overflows to +-inf, whose scores still rank
        with np.errstate(over="ignore"):
            scores = scores + noise * rng.standard_normal(scores.shape)
    ks = rng.integers(min_labels, max_labels + 1, size=xs.shape[0])
    table = np.zeros(scores.shape)
    for row, k, out in zip(scores, ks, table):
        out[np.argpartition(-row, int(k) - 1)[: int(k)]] = 1.0
    return table


def build_env(config: EnvConfig) -> BanditEnv:
    """Generate contexts, plant labels, and fit the ground-truth logging policy.

    The logging scores come from a one-vs-all logistic fit on the train
    split (so logging favors genuinely relevant actions), 400 full-batch
    steps of :func:`uips.logging_fit._logistic_descent`, then get wrapped
    in a softmax with temperature ``config.tau``. Deterministic per seed.
    """
    rng = make_rng(config.seed)
    scorer = rng.standard_normal((config.action_count, config.dim))

    splits = {}
    for name, size in zip(SPLITS, (config.train_size, config.validation_size, config.test_size)):
        xs = _draw_contexts(rng, size, config.dim)
        rewards = _plant_labels(rng, xs, scorer, config.min_labels, config.max_labels, config.label_noise)
        splits[name] = Split(xs, rewards)

    train = splits["train"]
    labelled = np.nonzero(train.rewards)
    labels = train.rewards[labelled]

    def fill(neg_scores):
        # the loss derivative p - y, in place on the scores
        _logistic(neg_scores, out=neg_scores)
        neg_scores[labelled] -= labels
        return neg_scores

    theta_star, _ = _logistic_descent(train.xs, train.xs, config.action_count, fill, steps=400, lr=2.0, l2=1e-3)
    return BanditEnv(
        **splits,
        logging_policy=SoftmaxLinearPolicy(theta=theta_star, tau=config.tau),
        action_count=config.action_count,
        dim=config.dim,
        config=config,
    )


#: The most (draw, action) cells one block of :func:`_draw_log` compares: 2**20
#: cells are 8 MB of cumulative probabilities.
_DRAW_CELLS = 2**20


def _draw_log(env: BanditEnv, split: str, rng: np.random.Generator, pick_instances) -> LoggedDataset:
    """Log the split's instances ``pick_instances(len(split))``, picked before the
    actions are drawn from the logging policy by inverse-CDF draws.

    The cumulative sums run once over the split's rows, a row's cumulative
    sum being independent of the other rows. A draw's action counts the
    actions whose cumulative probability is below its uniform draw; the
    counts run over blocks of draws of at most ``_DRAW_CELLS`` (draw,
    action) cells, so no (n, action_count) array is built."""
    data = env.split(split)
    probs_all = env.logging_policy.distribution_matrix(data.xs)
    cdf = np.cumsum(probs_all, axis=1)

    idx = pick_instances(len(data))
    u = rng.random(len(idx))
    actions = np.empty(len(idx), dtype=int)
    block = max(1, _DRAW_CELLS // env.action_count)
    for start in range(0, len(idx), block):
        rows = slice(start, start + block)
        actions[rows] = (u[rows, None] > cdf[idx[rows]]).sum(axis=1)
    np.minimum(actions, env.action_count - 1, out=actions)
    return LoggedDataset(
        xs=data.xs[idx],
        actions=actions,
        rewards=data.rewards[idx, actions],
        action_count=env.action_count,
        true_logging_probs=probs_all[idx, actions],
    )


def generate_log(env: BanditEnv, n_samples: int, rng: np.random.Generator) -> LoggedDataset:
    """Draw a logged dataset from the environment's logging policy.

    Each record draws an instance uniformly from the train split, samples an
    action from the logging policy, and sets reward = 1 iff the action is
    one of the instance's relevant actions. The true logging probability of
    the chosen action is stored alongside.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return _draw_log(env, "train", rng, lambda count: rng.integers(0, count, size=n_samples))


def generate_log_per_context(env: BanditEnv, samples_per_context: int, rng: np.random.Generator) -> LoggedDataset:
    """Logged dataset with exactly ``samples_per_context`` draws per test instance.

    This is the off-policy-evaluation protocol: every context of the test
    split appears the same number of times, actions come from the logging
    policy.
    """
    if samples_per_context < 1:
        raise ValueError("samples_per_context must be >= 1")
    return _draw_log(env, "test", rng, lambda count: np.repeat(np.arange(count), samples_per_context))


@dataclass
class TabularPolicy:
    """Context-indexed action distribution, looked up by exact context match.

    A context matches the distinct table context equal to it byte for byte,
    found by binary search.
    """

    contexts: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.contexts = np.asarray(self.contexts, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.contexts.shape[0] != self.probs.shape[0]:
            raise ValueError("one probability row per context required")
        keys = _row_keys(self.contexts)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        if (self._keys[1:] == self._keys[:-1]).any():
            raise ValueError("the table holds a context twice")

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        """The table row of each context of the 2-D ``xs``."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape[1:] != self.contexts.shape[1:]:
            raise ValueError("context not covered by this table")
        keys = _row_keys(xs)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        if not (self._keys[at] == keys).all():
            raise ValueError("context not covered by this table")
        return self._order[at]

    def distribution_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Distribution rows for a batch of contexts."""
        return self.probs[self._rows(xs)]


def epsilon_greedy_policy(env: BanditEnv, epsilon: float, split: str = "test") -> TabularPolicy:
    """Evaluation policy (1-eps)/|M_x| on the relevant set plus eps/|A| everywhere."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    data = env.split(split)
    probs = data.rewards.copy()
    # every relevant set is non-empty, so no row sum is 0
    probs *= (1.0 - epsilon) / probs.sum(axis=1, keepdims=True)
    probs += epsilon / env.action_count
    return TabularPolicy(contexts=data.xs, probs=probs)


def true_policy_value(env: BanditEnv, policy, split: str = "test") -> np.float64:
    """Exact expected reward of ``policy`` on the split: no sampling involved.

    Each row adds its relevant actions' probabilities in action order, then
    the rows add in order (``np.cumsum``), the order of a scalar loop.
    """
    data = env.split(split)
    per_row = np.cumsum(policy.distribution_matrix(data.xs) * data.rewards, axis=1)[:, -1]
    return np.cumsum(per_row)[-1] / len(data)
