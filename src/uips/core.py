"""Core bandit-feedback types and the softmax-linear policy family.

Policies are immutable values: every operation is a pure function of the
policy, a context and (where sampling is involved) an explicit RNG state.
Randomness everywhere in the package goes through :func:`make_rng`, which
wraps numpy's Philox counter-based bit generator so that runs are
reproducible bit-for-bit across platforms and can be split into
independent per-seed streams.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Floor on an estimated logging probability where it is a denominator.
BETA_FLOOR = 1e-8
#: Floor on a target probability in the minvar and stablevar scores.
PI_FLOOR = 1e-12
#: Floor that keeps a sum used as a denominator, or a log argument, positive.
TINY = 1e-300


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox 4x64).

    Philox is a keyed counter-based RNG: the stream is a pure function of
    (key, counter), so identical seeds give identical draws on every
    platform, and independent child streams can be produced with
    ``rng.spawn(n)``.
    """
    return np.random.Generator(np.random.Philox(seed))


def _first_invalid_row(xs, actions, rewards, action_count, true_logging_probs) -> Optional[tuple]:
    """The first row of a logged dataset that breaks an invariant, and why; or None."""
    p = true_logging_probs
    checks = [
        (~np.isfinite(xs).all(axis=1), "context is not finite"),
        ((actions < 0) | (actions >= action_count), f"action outside [0, {action_count})"),
        (~((rewards >= 0.0) & (rewards <= 1.0)), "reward outside [0, 1]"),
        (np.zeros(len(xs), bool) if p is None else ~((p > 0.0) & (p <= 1.0)),
         "true logging probability outside (0, 1]"),
    ]
    found = [(int(bad.argmax()), reason) for bad, reason in checks if bad.any()]
    return min(found) if found else None


@dataclass
class LoggedDataset:
    """Column-major view of a logged dataset.

    ``xs`` has shape (n, dim), ``actions`` and ``rewards`` have shape (n,),
    and ``true_logging_probs`` is either None or shape (n,). Construction
    rejects non-finite contexts, actions outside ``[0, action_count)``,
    rewards outside [0, 1] and true logging probabilities outside (0, 1].
    """

    xs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    action_count: int
    true_logging_probs: Optional[np.ndarray] = None

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.actions = np.asarray(self.actions, dtype=int)
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.xs.ndim != 2:
            raise ValueError("xs must have shape (n, dim)")
        n = self.xs.shape[0]
        if self.actions.shape != (n,) or self.rewards.shape != (n,):
            raise ValueError("actions/rewards must match the number of contexts")
        if self.true_logging_probs is not None:
            self.true_logging_probs = np.asarray(self.true_logging_probs, dtype=float)
            if self.true_logging_probs.shape != (n,):
                raise ValueError("true_logging_probs must match the number of samples")
        bad = _first_invalid_row(
            self.xs, self.actions, self.rewards, self.action_count, self.true_logging_probs
        )
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def subset(self, indices: np.ndarray) -> "LoggedDataset":
        """The rows at ``indices``; they are valid already, so no check runs again."""
        probs = self.true_logging_probs
        out = object.__new__(LoggedDataset)
        out.__dict__.update(
            xs=self.xs[indices],
            actions=self.actions[indices],
            rewards=self.rewards[indices],
            action_count=self.action_count,
            true_logging_probs=None if probs is None else probs[indices],
        )
        return out

    def to_jsonl(self, path) -> None:
        """One JSON object per line with keys x, a, r and optional beta_star."""
        with open(path, "w") as fh:
            probs = self.true_logging_probs
            for i in range(len(self)):
                record = {
                    "x": [float(v) for v in self.xs[i]],
                    "a": int(self.actions[i]),
                    "r": float(self.rewards[i]),
                }
                if probs is not None:
                    record["beta_star"] = float(probs[i])
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path, action_count: int) -> "LoggedDataset":
        """Read :meth:`to_jsonl` output; blank lines are skipped.

        A record that is not JSON, lacks a key, has a context of another
        length or holds an invalid value raises ``ValueError`` naming the
        file and the record's 1-based line.
        """
        xs, actions, rewards, probs, lines = [], [], [], [], []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    x = np.asarray(record["x"], dtype=float)
                    if x.ndim != 1 or (xs and x.shape != xs[0].shape):
                        raise ValueError(f"context has shape {x.shape}")
                    actions.append(operator.index(record["a"]))
                    rewards.append(float(record["r"]))
                    prob = record.get("beta_star")
                    probs.append(None if prob is None else float(prob))
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from None
                xs.append(x)
                lines.append(lineno)
        if not xs:
            raise ValueError(f"{path}: no records")
        has_prob = all(p is not None for p in probs)
        columns = dict(
            xs=np.stack(xs),
            actions=np.asarray(actions, dtype=int),
            rewards=np.asarray(rewards, dtype=float),
            action_count=action_count,
            true_logging_probs=np.asarray(probs, dtype=float) if has_prob else None,
        )
        bad = _first_invalid_row(**columns)
        if bad is not None:
            raise ValueError(f"{path}:{lines[bad[0]]}: {bad[1]}")
        return cls(**columns)


@dataclass(frozen=True)
class SoftmaxLinearPolicy:
    """Stochastic policy with pi(a|x) proportional to exp(x . theta_a / tau).

    ``theta`` has shape (action_count, dim); ``tau`` > 0 controls skewness
    (small tau concentrates mass on the top-scoring action). Probabilities
    are computed with max-score subtraction so extreme tau never overflows.
    An action whose score trails the maximum by more than about 745 gets
    probability exactly 0.0, because its exponential underflows; within 700
    of the maximum every probability is positive.
    The policy itself is exactly normalized; flooring of probabilities only
    happens downstream where they appear as denominators.
    """

    theta: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2:
            raise ValueError("theta must have shape (action_count, dim)")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "theta", theta)

    @property
    def action_count(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def _check_context(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"context has length {x.shape}, expected ({self.dim},)")
        return x

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Pre-softmax scores x . theta_a / tau for every action."""
        return self.theta @ self._check_context(x) / self.tau

    def distribution(self, x: np.ndarray) -> np.ndarray:
        """Probability vector over actions; sums to 1 within 1e-12."""
        s = self.scores(x)
        s = s - s.max()
        e = np.exp(s)
        return e / e.sum()

    def distribution_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Row-wise distributions for a batch of contexts, shape (n, actions)."""
        s = xs @ self.theta.T / self.tau
        s -= s.max(axis=1, keepdims=True)
        e = np.exp(s)
        return e / e.sum(axis=1, keepdims=True)

    def prob(self, x: np.ndarray, action: int) -> float:
        if not 0 <= action < self.action_count:
            raise ValueError(f"action {action} out of range [0, {self.action_count})")
        return float(self.distribution(x)[action])

    def sample_action(self, x: np.ndarray, rng: np.random.Generator) -> int:
        p = self.distribution(x)
        return int(rng.choice(self.action_count, p=p))

    def log_prob_grad(self, x: np.ndarray, action: int) -> np.ndarray:
        """Gradient of log pi(action|x) with respect to theta.

        Row a' equals x/tau * (1{a'==action} - pi(a'|x)); rows sum to zero.
        """
        if not 0 <= action < self.action_count:
            raise ValueError(f"action {action} out of range [0, {self.action_count})")
        x = self._check_context(x)
        p = self.distribution(x)
        coeff = -p
        coeff[action] += 1.0
        return np.outer(coeff, x / self.tau)

    def to_json(self) -> str:
        return json.dumps(
            {"theta": [[float(v) for v in row] for row in self.theta], "tau": float(self.tau)},
            sort_keys=True,
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "SoftmaxLinearPolicy":
        obj = json.loads(text)
        return cls(theta=np.asarray(obj["theta"], dtype=float), tau=float(obj["tau"]))

    @classmethod
    def load(cls, path) -> "SoftmaxLinearPolicy":
        with open(path) as fh:
            return cls.from_json(fh.read())

    @classmethod
    def uniform(cls, action_count: int, dim: int, tau: float = 1.0) -> "SoftmaxLinearPolicy":
        return cls(theta=np.zeros((action_count, dim)), tau=tau)

