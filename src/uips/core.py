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
import numbers
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


def _integer(value, least: int = 0, what: str = "seed") -> int:
    """``value`` as an integer >= ``least``; anything else is a ValueError naming ``what``.

    The test is ``operator.index``, so a float is refused even when whole;
    so is a ``bool``, which JSON writes as ``true`` or ``false``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if number < least:
        raise ValueError(f"{what} {value!r} is below {least}")
    return number


def _real(value, what: str):
    """``value`` when it is a real number; anything else, a ``bool`` or a string included, is a
    ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} {value!r} is not a number")
    return value


def _json_line(obj) -> str:
    """``obj`` as one line of strict JSON with sorted keys: the format of every artifact
    file. A non-finite float is a ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path, obj, indent=None) -> None:
    """``obj`` as strict JSON with sorted keys and a final newline: on one line, the format
    of every artifact file, or indented by ``indent`` spaces, the format of the reports.
    A non-finite float is a ValueError."""
    text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _json_floats(value, ndim: int, what: str) -> np.ndarray:
    """The JSON number (``ndim`` 0) or ``ndim`` nested lists of numbers ``value`` as floats. Unlike
    ``np.asarray``, it refuses "0.5", true and null, as :meth:`LoggedDataset.from_jsonl` does."""
    cells = np.asarray(value, dtype=object)
    if cells.ndim != ndim or not {int, float}.issuperset(map(type, cells.flat)):
        raise ValueError(f"{what}: not {f'a {ndim}-d array of numbers' if ndim else 'a number'}")
    return cells.astype(float)


def _row_keys(xs: np.ndarray) -> np.ndarray:
    """Each row of the 2-D ``xs`` as one byte string: two rows are the same context when
    their keys are equal. Keys sort several times faster than ``np.unique(xs, axis=0)``."""
    xs = np.ascontiguousarray(xs)
    return xs.view(np.dtype((np.void, xs.dtype.itemsize * xs.shape[1]))).reshape(-1)


def _product_contexts(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows ``ux`` of ``xs``, whose product with a matrix stands in for that
    of ``xs``, and per row of ``xs`` the index of its row in ``ux``.

    Row ``context[i]`` of the product with ``ux`` equals row i of the product with ``xs``
    bit for bit wherever BLAS computes a row independently of the others. numpy sends a
    product with one row to gemv, which rounds differently from gemm, so a single
    distinct context of several rows is padded to two rows.
    """
    _, first, context = np.unique(_row_keys(xs), return_index=True, return_inverse=True)
    return _padded(xs[first], len(xs)), context.reshape(-1)


def _padded(ux: np.ndarray, n: int) -> np.ndarray:
    """``ux`` with its one row repeated when it stands in for ``n`` > 1 rows: the pad rule
    of :func:`_product_contexts`."""
    return np.concatenate([ux, ux]) if len(ux) == 1 and n > 1 else ux


def _first_invalid_row(xs, actions, rewards, action_count, true_logging_probs) -> Optional[tuple]:
    """The first row of a logged dataset that breaks an invariant, and why; or None."""
    p = true_logging_probs
    # the running total of squared norms bounds every Gram entry of every action. A NaN, an
    # infinity or an entry past about 1.3e154 leaves it not finite at its row, and so do two
    # rows of 1.2e154; einsum, unlike x * x, warns of none of them
    with np.errstate(over="ignore"):
        norms_total = np.cumsum(np.einsum("ij,ij->i", xs, xs))
    checks = [
        (~np.isfinite(norms_total),
         "context is not finite or the running total of squared context norms overflows"),
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
    rejects a context whose squared norm, added to those of the rows before
    it, is not finite, actions outside
    ``[0, action_count)``, rewards outside [0, 1] and true logging
    probabilities outside (0, 1].
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
        if self.xs.ndim != 2 or self.xs.shape[1] == 0:
            raise ValueError("xs must have shape (n, dim) with dim >= 1")
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
        """The rows at ``indices``."""
        probs = self.true_logging_probs
        return LoggedDataset(
            xs=self.xs[indices],
            actions=self.actions[indices],
            rewards=self.rewards[indices],
            action_count=self.action_count,
            true_logging_probs=None if probs is None else probs[indices],
        )

    def to_jsonl(self, path) -> None:
        """One JSON object per line with keys x, a, r and optional beta_star."""
        columns = {"x": self.xs.tolist(), "a": self.actions.tolist(), "r": self.rewards.tolist()}
        if self.true_logging_probs is not None:
            columns["beta_star"] = self.true_logging_probs.tolist()
        with open(path, "w") as fh:
            fh.writelines(_json_line(dict(zip(columns, row))) for row in zip(*columns.values()))

    @classmethod
    def from_jsonl(cls, path, action_count: int) -> "LoggedDataset":
        """Read :meth:`to_jsonl` output; blank lines are skipped.

        A record that is not JSON, lacks a key, has a context of another
        length, carries ``beta_star`` where the first record does not (or the
        reverse), holds a string or boolean where a number belongs, an integer
        numpy cannot hold or an invalid value raises ``ValueError`` naming the
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
                    x, a, r, prob = record["x"], record["a"], record["r"], record.get("beta_star")
                    # float() would take "1" and true, operator.index() true: test the JSON types
                    numbers = [*x, r] if prob is None else [*x, r, prob]
                    kinds = set(map(type, numbers))
                    if type(x) is not list or type(a) is not int or not {int, float}.issuperset(kinds):
                        raise TypeError("x must be a list of numbers, r and beta_star numbers and a an integer")
                    if xs and len(x) != len(xs[0]):
                        raise ValueError(f"context has length {len(x)}")
                    # json keeps integers exact; numpy overflows on one past int64 (a) or the float range
                    np.int64(a)
                    if int in kinds:
                        np.asarray(numbers, dtype=float)
                    actions.append(a)
                    rewards.append(float(r))
                    probs.append(None if prob is None else float(prob))
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from None
                xs.append(x)
                lines.append(lineno)
        if not xs:
            raise ValueError(f"{path}: no records")
        has_prob = probs[0] is not None
        for lineno, prob in zip(lines, probs):
            if (prob is not None) != has_prob:
                state = "has no" if has_prob else "has a"
                raise ValueError(f"{path}:{lineno}: record {state} beta_star, unlike line {lines[0]}")
        columns = dict(
            xs=np.asarray(xs, dtype=float),
            actions=np.asarray(actions, dtype=int),
            rewards=np.asarray(rewards, dtype=float),
            action_count=action_count,
            true_logging_probs=np.asarray(probs, dtype=float) if has_prob else None,
        )
        bad = _first_invalid_row(**columns)
        if bad is not None:
            raise ValueError(f"{path}:{lines[bad[0]]}: {bad[1]}")
        return cls(**columns)


def _softmax(s: np.ndarray, tau: float) -> np.ndarray:
    """The softmax of the scores ``s`` / ``tau`` along the last axis, in place on ``s``.

    The maximum is subtracted before the division by ``tau``, so a tiny ``tau`` sends
    the trailing scores to -inf, whose exponential is 0, and never makes inf - inf. The
    division by a temperature of 1 is exact, so it is skipped. A stack of score tables
    gives each table the bits it would get alone.
    """
    s -= s.max(axis=-1, keepdims=True)
    if tau != 1.0:
        with np.errstate(over="ignore"):
            s /= tau
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


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
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite")
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be finite and positive")
        object.__setattr__(self, "theta", theta)

    @property
    def action_count(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def distribution_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Row-wise distributions for a batch of contexts, shape (n, actions).

        Every step after the scores product runs in place on its one buffer,
        in :func:`_softmax`.
        """
        return _softmax(xs @ self.theta.T, self.tau)

    def _fields(self, prefix: str = "") -> dict:
        """The JSON form of this policy, its theta and tau, with keys under ``prefix``."""
        return {prefix + "theta": self.theta.tolist(), prefix + "tau": float(self.tau)}

    @classmethod
    def _from_fields(cls, obj: dict, prefix: str = "") -> "SoftmaxLinearPolicy":
        theta = _json_floats(obj[prefix + "theta"], 2, prefix + "theta")
        return cls(theta=theta, tau=float(_json_floats(obj[prefix + "tau"], 0, prefix + "tau")))

    def save(self, path) -> None:
        _write_json(path, self._fields())

    @classmethod
    def load(cls, path) -> "SoftmaxLinearPolicy":
        return cls._from_fields(_read_json(path))
