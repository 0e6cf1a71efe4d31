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

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from uips.core import LoggedDataset, SoftmaxLinearPolicy, make_rng


@dataclass(frozen=True)
class MultilabelInstance:
    """A context plus the set of actions with a positive label."""

    features: np.ndarray
    relevant_actions: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "relevant_actions", frozenset(int(a) for a in self.relevant_actions))
        if not self.relevant_actions:
            raise ValueError("each instance needs at least one relevant action")


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
        if min(self.dim, self.action_count, self.train_size, self.validation_size, self.test_size) <= 0:
            raise ValueError("all sizes must be positive")
        if not 1 <= self.min_labels <= self.max_labels:
            raise ValueError("need 1 <= min_labels <= max_labels")
        if self.max_labels > self.action_count:
            raise ValueError("more labels than actions")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    @classmethod
    def from_dict(cls, obj: dict) -> "EnvConfig":
        return cls(**obj)


@dataclass
class BanditEnv:
    """Generated environment: three instance splits plus the logging policy."""

    train: list[MultilabelInstance]
    validation: list[MultilabelInstance]
    test: list[MultilabelInstance]
    logging_policy: SoftmaxLinearPolicy
    action_count: int
    dim: int
    config: Optional[EnvConfig] = None

    def split(self, name: str) -> list[MultilabelInstance]:
        if name not in ("train", "validation", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def to_json(self) -> str:
        def pack(instances):
            return [
                {
                    "x": [float(v) for v in inst.features],
                    "relevant": sorted(inst.relevant_actions),
                }
                for inst in instances
            ]

        obj = {
            "action_count": self.action_count,
            "dim": self.dim,
            "config": asdict(self.config) if self.config is not None else None,
            "logging_theta": [[float(v) for v in row] for row in self.logging_policy.theta],
            "logging_tau": float(self.logging_policy.tau),
            "train": pack(self.train),
            "validation": pack(self.validation),
            "test": pack(self.test),
        }
        return json.dumps(obj, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "BanditEnv":
        obj = json.loads(text)

        def unpack(rows):
            return [
                MultilabelInstance(np.asarray(r["x"], dtype=float), frozenset(r["relevant"]))
                for r in rows
            ]

        return cls(
            train=unpack(obj["train"]),
            validation=unpack(obj["validation"]),
            test=unpack(obj["test"]),
            logging_policy=SoftmaxLinearPolicy(
                theta=np.asarray(obj["logging_theta"], dtype=float),
                tau=float(obj["logging_tau"]),
            ),
            action_count=int(obj["action_count"]),
            dim=int(obj["dim"]),
            config=EnvConfig.from_dict(obj["config"]) if obj.get("config") else None,
        )

    @classmethod
    def load(cls, path) -> "BanditEnv":
        with open(path) as fh:
            return cls.from_json(fh.read())


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
) -> list[frozenset[int]]:
    scores = xs @ scorer.T
    if noise > 0:
        scores = scores + noise * rng.standard_normal(scores.shape)
    ks = rng.integers(min_labels, max_labels + 1, size=xs.shape[0])
    out = []
    for row, k in zip(scores, ks):
        top = np.argpartition(-row, int(k) - 1)[: int(k)]
        out.append(frozenset(int(a) for a in top))
    return out


def _split_table(instances: list[MultilabelInstance], action_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The contexts (m, dim) of ``instances`` and their 0/1 reward table (m, action_count).

    Entry (i, a) is 1 exactly when action a is relevant to instance i: the
    reward a logged draw of action a on instance i reveals.
    """
    xs = np.stack([inst.features for inst in instances])
    table = np.zeros((len(instances), action_count))
    for i, inst in enumerate(instances):
        table[i, list(inst.relevant_actions)] = 1.0
    return xs, table


def _fit_one_vs_all_logistic(
    xs: np.ndarray,
    y: np.ndarray,
    lr: float = 2.0,
    iters: int = 400,
    l2: float = 1e-3,
) -> np.ndarray:
    """Full-batch logistic regression scores, one binary problem per column of ``y``."""
    n, d = xs.shape
    theta = np.zeros((y.shape[1], d))
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(xs @ theta.T)))
        grad = (p - y).T @ xs / n + l2 * theta
        theta -= lr * grad
    return theta


def build_env(config: EnvConfig) -> BanditEnv:
    """Generate contexts, plant labels, and fit the ground-truth logging policy.

    The logging scores come from a one-vs-all logistic fit on the train
    split (so logging favors genuinely relevant actions), then get wrapped
    in a softmax with temperature ``config.tau``. Deterministic per seed.
    """
    rng = make_rng(config.seed)
    scorer = rng.standard_normal((config.action_count, config.dim))

    splits = {}
    for name, size in (
        ("train", config.train_size),
        ("validation", config.validation_size),
        ("test", config.test_size),
    ):
        xs = _draw_contexts(rng, size, config.dim)
        labels = _plant_labels(rng, xs, scorer, config.min_labels, config.max_labels, config.label_noise)
        splits[name] = [MultilabelInstance(x, rel) for x, rel in zip(xs, labels)]

    theta_star = _fit_one_vs_all_logistic(*_split_table(splits["train"], config.action_count))
    logging_policy = SoftmaxLinearPolicy(theta=theta_star, tau=config.tau)

    return BanditEnv(
        train=splits["train"],
        validation=splits["validation"],
        test=splits["test"],
        logging_policy=logging_policy,
        action_count=config.action_count,
        dim=config.dim,
        config=config,
    )


def _draw_log(env: BanditEnv, split: str, rng: np.random.Generator, pick_instances) -> LoggedDataset:
    """Log the split's instances ``pick_instances(len(split))``, picked before the
    actions are drawn from the logging policy by one vectorized inverse-CDF draw."""
    instances = env.split(split)
    if not instances:
        raise ValueError(f"empty {split} split")
    xs_all, table = _split_table(instances, env.action_count)
    probs_all = env.logging_policy.distribution_matrix(xs_all)

    idx = pick_instances(len(instances))
    cdf = np.cumsum(probs_all[idx], axis=1)
    u = rng.random(len(idx))
    actions = np.minimum((u[:, None] > cdf).sum(axis=1), env.action_count - 1)
    return LoggedDataset(
        xs=xs_all[idx],
        actions=actions,
        rewards=table[idx, actions],
        action_count=env.action_count,
        true_logging_probs=probs_all[idx, actions],
    )


def generate_log(
    env: BanditEnv,
    n_samples: int,
    rng: np.random.Generator,
    split: str = "train",
) -> LoggedDataset:
    """Draw a logged dataset from the environment's logging policy.

    Each record draws an instance uniformly from the split, samples an
    action from the logging policy, and sets reward = 1 iff the action is
    one of the instance's relevant actions. The true logging probability of
    the chosen action is stored alongside.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return _draw_log(env, split, rng, lambda count: rng.integers(0, count, size=n_samples))


def generate_log_per_context(
    env: BanditEnv,
    samples_per_context: int,
    rng: np.random.Generator,
    split: str = "test",
) -> LoggedDataset:
    """Logged dataset with exactly ``samples_per_context`` draws per instance.

    This is the off-policy-evaluation protocol: every context of the split
    appears the same number of times, actions come from the logging policy.
    """
    if samples_per_context < 1:
        raise ValueError("samples_per_context must be >= 1")
    return _draw_log(
        env, split, rng, lambda count: np.repeat(np.arange(count), samples_per_context)
    )


@dataclass
class TabularPolicy:
    """Context-indexed action distribution, looked up by exact context match.

    This is the package's one exact-context index; ``TabularImputation``
    looks its reward rows up through it.
    """

    contexts: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.contexts = np.asarray(self.contexts, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.contexts.shape[0] != self.probs.shape[0]:
            raise ValueError("one probability row per context required")
        self._index = {self.contexts[i].tobytes(): i for i in range(self.contexts.shape[0])}

    @property
    def action_count(self) -> int:
        return self.probs.shape[1]

    def _id(self, x: np.ndarray) -> int:
        try:
            return self._index[np.asarray(x, dtype=float).tobytes()]
        except KeyError:
            raise ValueError("context not covered by this table") from None

    def distribution(self, x: np.ndarray) -> np.ndarray:
        return self.probs[self._id(x)]

    def distribution_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Distribution rows for a batch of contexts, one lookup per row."""
        xs = np.asarray(xs, dtype=float)
        return self.probs[np.array([self._id(x) for x in xs], dtype=np.intp)]

    def prob(self, x: np.ndarray, action: int) -> float:
        return float(self.probs[self._id(x), action])


def epsilon_greedy_policy(env: BanditEnv, epsilon: float, split: str = "test") -> TabularPolicy:
    """Evaluation policy (1-eps)/|M_x| on the relevant set plus eps/|A| everywhere."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    xs, probs = _split_table(env.split(split), env.action_count)
    # every relevant set is non-empty, so no row sum is 0
    probs *= (1.0 - epsilon) / probs.sum(axis=1, keepdims=True)
    probs += epsilon / env.action_count
    return TabularPolicy(contexts=xs, probs=probs)


def true_policy_value(env: BanditEnv, policy, split: str = "test") -> float:
    """Exact expected reward of ``policy`` on the split: no sampling involved."""
    instances = env.split(split)
    total = 0.0
    for inst in instances:
        p = policy.distribution(inst.features)
        total += sum(p[a] for a in inst.relevant_actions)
    return total / len(instances)
