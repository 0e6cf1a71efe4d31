"""Estimating the logging policy and quantifying its uncertainty.

The logging model is a softmax-linear scorer fit by gradient descent on a
binary objective: every logged (x, a) is a positive, and k uniformly
sampled non-chosen actions per positive act as negatives. Uncertainty of
the fitted score for a pair (x, a) is the ellipsoid half-width
sqrt(g' M_a^{-1} g) where g = x/tau is the score gradient and M_a is an
identity-initialized Gram matrix accumulated over the logged samples of
action a. Low-support actions accumulate little mass in their Gram matrix
and therefore carry high uncertainty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from uips.core import TINY, LoggedDataset, SoftmaxLinearPolicy, make_rng


class FitError(RuntimeError):
    """Raised when the logging fit diverges to non-finite parameters."""


@dataclass(frozen=True)
class LoggingFitConfig:
    """Hyper-parameters of the logging fit.

    ``negatives`` is the number of non-chosen actions sampled per positive;
    the fit is deterministic given ``seed``.
    """

    learning_rate: float = 0.5
    epochs: int = 60
    negatives: int = 5
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs <= 0 or self.negatives < 0:
            raise ValueError("learning_rate/epochs must be positive, negatives >= 0")

    @classmethod
    def from_dict(cls, obj: dict) -> "LoggingFitConfig":
        return cls(**obj)


@dataclass
class LoggingModel:
    """Fitted logging policy plus per-action Gram matrices for uncertainty.

    ``grams`` has shape (action_count, d, d); each matrix starts at identity
    and is symmetric positive-definite by construction.
    """

    policy: SoftmaxLinearPolicy
    grams: np.ndarray
    fit_diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grams = np.asarray(self.grams, dtype=float)
        a, d = self.policy.action_count, self.policy.dim
        if self.grams.shape != (a, d, d):
            raise ValueError(f"grams must have shape ({a}, {d}, {d})")
        self._chol = None

    def beta_hat(self, x: np.ndarray, action: int) -> float:
        return self.policy.prob(x, action)

    def beta_matrix(self, xs: np.ndarray) -> np.ndarray:
        return self.policy.distribution_matrix(xs)

    def _cholesky(self):
        if self._chol is None:
            self._chol = [cho_factor(m, lower=True) for m in self.grams]
        return self._chol

    def to_json(self) -> str:
        obj = {
            "theta": [[float(v) for v in row] for row in self.policy.theta],
            "tau": float(self.policy.tau),
            "grams": [[[float(v) for v in row] for row in m] for m in self.grams],
            "fit_diagnostics": self.fit_diagnostics,
        }
        return json.dumps(obj, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "LoggingModel":
        obj = json.loads(text)
        return cls(
            policy=SoftmaxLinearPolicy(
                theta=np.asarray(obj["theta"], dtype=float), tau=float(obj["tau"])
            ),
            grams=np.asarray(obj["grams"], dtype=float),
            fit_diagnostics=obj.get("fit_diagnostics", {}),
        )

    @classmethod
    def load(cls, path) -> "LoggingModel":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / (1.0 + np.exp(-scores))


def fit_logging_policy(dataset: LoggedDataset, config: LoggingFitConfig) -> LoggingModel:
    """Fit softmax-linear logging scores from logged actions alone.

    Positives are the logged pairs; per positive, ``config.negatives``
    non-chosen actions are resampled each epoch. Scores use tau = 1 (any
    temperature of the true logging policy is absorbed into the learned
    parameters). Gram matrices are initialized to identity; call
    :func:`accumulate_grams` to add the data mass.

    Each epoch evaluates the sigmoid only at the cells that carry gradient:
    the n positives and the n * negatives sampled cells; every other cell of
    the (n, action_count) loss derivative is exactly zero. The scores and
    the gradient remain two dense matrix products, which fixes their
    summation order, and the loss is evaluated once, for the last epoch.
    ``theta``, the diagnostics and the RNG stream are therefore bit-identical
    to a fit that evaluates every cell every epoch
    (``tests/helpers.dense_fit_reference``).
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit a logging policy on an empty dataset")
    rng = make_rng(config.seed)
    n, d = dataset.xs.shape
    a_count = dataset.action_count
    theta = np.zeros((a_count, d))
    xs = dataset.xs
    acts = dataset.actions

    pos_flat = np.arange(n) * a_count + acts
    row_start = np.arange(n)[:, None] * a_count
    k = min(config.negatives, a_count - 1)
    flat = np.empty(0, dtype=np.intp)
    scores = np.empty((n, a_count))
    cell_scores = scores.reshape(-1)
    dloss = np.empty(n * a_count)
    for _ in range(config.epochs):
        np.matmul(xs, theta.T, out=scores)
        dloss.fill(0.0)
        if k > 0:
            # negatives are uniform over non-chosen actions; a cell drawn c times
            # carries c * sigmoid(score), exactly as the dense count product did
            negs = rng.integers(0, a_count - 1, size=(n, k))
            negs += negs >= acts[:, None]
            flat = (negs + row_start).ravel()
            np.add.at(dloss, flat, 1.0)
            dloss[flat] *= _sigmoid(cell_scores[flat])
        dloss[pos_flat] = _sigmoid(cell_scores[pos_flat]) - 1.0
        grad = dloss.reshape(n, a_count).T @ xs / n + config.l2 * theta
        theta_last = theta
        with np.errstate(over="ignore", invalid="ignore"):
            theta = theta - config.learning_rate * grad
        if not np.all(np.isfinite(theta)):
            raise FitError("logging fit diverged to non-finite parameters")

    # the loss of the last epoch, at its pre-step parameters and negatives
    p = _sigmoid(xs @ theta_last.T)
    neg_counts = np.bincount(flat, minlength=n * a_count).reshape(n, a_count).astype(float)
    loss = float(
        np.mean(-np.log(np.maximum(p[np.arange(n), acts], TINY)))
        + np.sum(-neg_counts * np.log(np.maximum(1.0 - p, TINY))) / n
    )
    if not np.isfinite(loss):
        raise FitError(f"logging fit loss is not finite: {loss}")

    policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
    scores = xs @ theta.T
    median = np.median(scores, axis=1)
    frac_above = float(np.mean(scores[np.arange(n), acts] > median))
    diagnostics = {
        "final_loss": loss,
        "epochs": config.epochs,
        "frac_logged_above_median_score": frac_above,
    }
    grams = np.broadcast_to(np.eye(d), (a_count, d, d)).copy()
    return LoggingModel(policy=policy, grams=grams, fit_diagnostics=diagnostics)


def accumulate_grams(dataset: LoggedDataset, model: LoggingModel) -> LoggingModel:
    """Add each sample's score-gradient outer product to its action's Gram matrix.

    The score gradient of a softmax-linear model with respect to the logged
    action's parameter row is x/tau, so the update is rank one per sample
    and order-independent up to floating-point roundoff.
    """
    if dataset.dim != model.policy.dim:
        raise ValueError("dataset dimension does not match the model")
    if dataset.action_count != model.policy.action_count:
        raise ValueError("dataset action count does not match the model")
    grams = model.grams.copy()
    g = dataset.xs / model.policy.tau
    for a in range(model.policy.action_count):
        rows = g[dataset.actions == a]
        if rows.size:
            grams[a] += rows.T @ rows
    return LoggingModel(policy=model.policy, grams=grams, fit_diagnostics=dict(model.fit_diagnostics))


def uncertainty(model: LoggingModel, x: np.ndarray, action: int) -> float:
    """Ellipsoid half-width sqrt(g' M_a^{-1} g) with g = x/tau.

    Solved through the Cholesky factor of the Gram matrix; no explicit
    inverse is formed. Identity initialization keeps every solve well posed.
    """
    if not 0 <= action < model.policy.action_count:
        raise ValueError("action out of range")
    g = np.asarray(x, dtype=float) / model.policy.tau
    if g.shape != (model.policy.dim,):
        raise ValueError("context length does not match the model")
    sol = cho_solve(model._cholesky()[action], g)
    return float(np.sqrt(max(g @ sol, 0.0)))


def uncertainties(model: LoggingModel, dataset: LoggedDataset) -> np.ndarray:
    """Per-sample uncertainties for the logged (x, a) pairs."""
    if dataset.dim != model.policy.dim:
        raise ValueError("dataset dimension does not match the model")
    out = np.empty(len(dataset))
    chol = model._cholesky()
    g = dataset.xs / model.policy.tau
    for a in np.unique(dataset.actions):
        mask = dataset.actions == a
        sol = cho_solve(chol[int(a)], g[mask].T)
        out[mask] = np.sqrt(np.maximum(np.einsum("nd,dn->n", g[mask], sol), 0.0))
    return out


def uncertainty_matrix(model: LoggingModel, xs: np.ndarray) -> np.ndarray:
    """Uncertainty of every (context, action) pair, shape (n, action_count)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.policy.dim:
        raise ValueError("contexts must have shape (n, dim) matching the model")
    g = xs / model.policy.tau
    out = np.empty((xs.shape[0], model.policy.action_count))
    for a, factor in enumerate(model._cholesky()):
        sol = cho_solve(factor, g.T)
        out[:, a] = np.sqrt(np.maximum(np.einsum("nd,dn->n", g, sol), 0.0))
    return out


@dataclass(frozen=True)
class UncertaintyRecord:
    """Uncertainty plus the induced confidence interval on the logging probability."""

    u: float
    interval_low: float
    interval_high: float

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("uncertainty must be nonnegative")
        if not 0 < self.interval_low <= self.interval_high:
            raise ValueError("interval must satisfy 0 < low <= high")


def confidence_interval(beta_hat: float, u: float, gamma: float, eta: float) -> UncertaintyRecord:
    """Interval [exp(-gamma*u) * beta_hat / eta, exp(gamma*u) * beta_hat / eta].

    A score error bounded by gamma*u translates into this multiplicative
    interval for the true logging probability, where eta is the ratio of the
    true to the estimated softmax normalizer. eta is unknown during real
    estimation and is treated as a hyper-parameter; in synthetic oracle
    checks it can be computed exactly.
    """
    if not 0.0 < beta_hat <= 1.0:
        raise ValueError("beta_hat must lie in (0, 1]")
    if u < 0:
        raise ValueError("u must be nonnegative")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if eta <= 0:
        raise ValueError("eta must be positive")
    width = np.exp(gamma * u)
    return UncertaintyRecord(
        u=u,
        interval_low=float(beta_hat / (width * eta)),
        interval_high=float(beta_hat * width / eta),
    )


def uncertainty_frequency_bins(
    dataset: LoggedDataset, model: LoggingModel, n_bins: int = 5
) -> list[dict]:
    """Mean per-sample uncertainty, binned by the logged frequency of the action.

    Bins are equal-width in log-frequency rank: actions are sorted by their
    count in the log and split into ``n_bins`` groups of (near-)equal size,
    lowest-frequency group first. Skewed logging shows the signature trend
    of the lowest-frequency bin carrying the highest mean uncertainty.
    """
    us = uncertainties(model, dataset)
    counts = np.bincount(dataset.actions, minlength=dataset.action_count)
    logged_actions = np.flatnonzero(counts)
    order = logged_actions[np.argsort(counts[logged_actions], kind="stable")]
    n_bins = min(n_bins, len(order))
    groups = np.array_split(order, n_bins)
    bin_of_action = np.zeros(dataset.action_count, dtype=int)
    for b, group in enumerate(groups):
        bin_of_action[group] = b
    sample_bins = bin_of_action[dataset.actions]
    out = []
    for b, group in enumerate(groups):
        mask = sample_bins == b
        out.append(
            {
                "bin": b,
                "actions": [int(a) for a in group],
                "min_count": int(counts[group].min()),
                "max_count": int(counts[group].max()),
                "n_samples": int(mask.sum()),
                "mean_uncertainty": float(us[mask].mean()),
            }
        )
    return out
