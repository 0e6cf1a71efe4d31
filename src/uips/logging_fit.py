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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from uips.core import (
    TINY, LoggedDataset, SoftmaxLinearPolicy, _integer, _json_floats, _product_contexts, _read_json, _real, _write_json,
    make_rng,
)

#: The default number of frequency bins of :func:`uncertainty_frequency_bins` and of
#: ``inspect.n_bins``.
N_BINS = 5


#: The most (row, action) cells of the logging fit's loss derivative whose negatives and
#: positives its fill writes as one block: 2**16 cells are 512 KB, so that the reset, the
#: adds and the positives' writes of a block hit cache.
_FILL_BLOCK_CELLS = 2**16

#: The most negatives per row whose sigmoids the logging fit's fill adds directly. From
#: 0.0, c sequential adds of a double s round as the one product c * s for c <= 5: 2s and
#: 4s are exact, fl(3s) + s is 4s, and 3s and 5s each round once. Six adds can differ
#: from 6s.
_DIRECT_ADDS = 5


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
        for name in ("learning_rate", "l2"):
            _real(getattr(self, name), name)
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        _integer(self.epochs, least=1, what="epochs")
        _integer(self.negatives, what="negatives")
        # written so that NaN fails; -0.0 passes
        if not self.l2 >= 0:
            raise ValueError(f"l2 {self.l2!r} is not a number >= 0")
        _integer(self.seed)


@dataclass
class LoggingModel:
    """Fitted logging policy plus per-action Gram matrices for uncertainty.

    ``grams`` has shape (action_count, d, d) and is finite; each matrix starts at identity
    and is symmetric positive-definite by construction, which :meth:`load` checks. Any
    policy temperature is accepted here, but :meth:`load` refuses a tau other than 1.0,
    the one :func:`fit_logging_policy` writes.
    """

    policy: SoftmaxLinearPolicy
    grams: np.ndarray
    fit_diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grams = np.asarray(self.grams, dtype=float)
        a, d = self.policy.action_count, self.policy.dim
        if self.grams.shape != (a, d, d):
            raise ValueError(f"grams must have shape ({a}, {d}, {d})")
        if not np.isfinite(self.grams).all():
            raise ValueError("grams must be finite")

    def beta_matrix(self, xs: np.ndarray) -> np.ndarray:
        return self.policy.distribution_matrix(xs)

    def save(self, path) -> None:
        _write_json(
            path,
            {**self.policy._fields(), "grams": self.grams.tolist(), "fit_diagnostics": self.fit_diagnostics},
        )

    @classmethod
    def load(cls, path) -> "LoggingModel":
        obj = _read_json(path)
        model = cls(
            policy=SoftmaxLinearPolicy._from_fields(obj),
            grams=_json_floats(obj["grams"], 3, "grams"),
            fit_diagnostics=obj.get("fit_diagnostics", {}),
        )
        if model.policy.tau != 1.0:
            raise ValueError(f"tau {model.policy.tau!r} is not 1.0, the temperature of a fitted logging model")
        for a, gram in enumerate(model.grams):
            try:
                np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                raise ValueError(f"the Gram matrix of action {a} is not positive-definite") from None
        return model


def _logistic(neg_scores: np.ndarray, out=None) -> np.ndarray:
    """The sigmoid ``1 / (1 + exp(-s))`` of the scores s whose negations are ``neg_scores``;
    in place when ``out`` is ``neg_scores``."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(neg_scores, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _logistic_descent(score_rows, xs, action_count: int, fill, steps: int, lr: float, l2: float):
    """Gradient descent on the logistic scores ``x . theta_a`` of ``action_count`` actions,
    from theta = 0: the one step loop of both logistic fits of the package.

    Each step writes the negated scores of ``score_rows`` into one buffer and passes it to
    ``fill``, which returns the loss derivative G, one row per row of ``xs``; then
    ``theta <- theta - lr * (G' xs / n + l2 * theta)``. The loop keeps ``-theta``, so the
    scores product yields the negated scores directly; every sign flip is exact, so theta
    is bit-identical to the plain expressions. The scores, gradient and decay buffers are
    allocated once. Returns theta and the last step's negated scores, as ``fill`` left
    them; raises :class:`FitError` as soon as theta is not finite.
    """
    n, d = xs.shape
    neg_theta = np.zeros((action_count, d))
    scores = np.empty((len(score_rows), action_count))
    grad = np.empty_like(neg_theta)
    decay = np.empty_like(neg_theta)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            np.matmul(score_rows, neg_theta.T, out=scores)
            np.matmul(fill(scores).T, xs, out=grad)
            grad /= n
            grad -= np.multiply(neg_theta, l2, out=decay)
            grad *= lr
            neg_theta += grad
            if not np.isfinite(neg_theta).all():
                raise FitError("logging fit diverged to non-finite parameters")
    return -neg_theta, scores


def fit_logging_policy(dataset: LoggedDataset, config: LoggingFitConfig) -> LoggingModel:
    """Fit softmax-linear logging scores from logged actions alone.

    Positives are the logged pairs; per positive, ``config.negatives``
    non-chosen actions are resampled each epoch. Scores use tau = 1 (any
    temperature of the true logging policy is absorbed into the learned
    parameters). The returned model is finished: as its last step the fit
    passes identity Gram matrices through :func:`accumulate_grams` on the
    same log, so they hold the data mass the uncertainties read.

    Each epoch is a step of :func:`_logistic_descent`, the descent that also fits the
    environment's logging policy. It computes the scores on the distinct contexts only, a
    (distinct, action_count) product, and gathers through a context index
    the sigmoids of the cells that carry gradient: the n positives and the
    n * negatives sampled cells. When the score table has fewer cells than
    that, the sigmoid is taken once on the whole table and gathered from it;
    it is elementwise, so either way a cell gets the same bits. Every other
    cell of the (n, action_count) loss derivative ``dloss`` is exactly zero:
    each epoch overwrites the positives and resets only the last epoch's
    negatives, which are never positives. A negative cell drawn c times must
    hold c times its sigmoid, as the dense count product does. With at most
    ``_DIRECT_ADDS`` (5) negatives per row the fill adds the sigmoid to the
    reset cell once per draw, in one scattered add, which rounds as that
    product does (the constant gives the argument); with more it counts the
    draws and scales each cell by its sigmoid. The RNG draw and the sigmoid
    gathers run once per epoch; the reset, the adds and the positives' writes
    then run over blocks of rows of at most ``_FILL_BLOCK_CELLS`` cells, so
    that each block's scatters hit cache. Before the first epoch each draw's
    last cell is its row's first cell, so the first reset writes only zeros of
    the block's own rows. The gradient stays one dense product of ``dloss``
    with the contexts of all n rows, which fixes its summation
    order; ``dloss`` is the fit's one (n, action_count) buffer. The loss is
    evaluated once, for the last epoch, after ``dloss`` is freed, from that
    epoch's scores and a (distinct, action_count) table of the negatives'
    counts. ``theta``, ``epochs``, ``frac_logged_above_median_score`` and
    the RNG stream are bit-identical to a fit that evaluates every cell of
    every row every epoch (``tests/helpers.dense_fit_reference``) wherever
    BLAS computes a row of a product independently of the other rows (the
    rows that :func:`uips.core._product_contexts` picks keep it so);
    ``final_loss`` adds its cells in another order and differs by rounding.
    From ``dim`` 32 the bundled OpenBLAS picks a small-matrix kernel by the
    product's size; there ``theta`` too differs from the dense loop by
    rounding only.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit a logging policy on an empty dataset")
    rng = make_rng(config.seed)
    n, d = dataset.xs.shape
    a_count = dataset.action_count
    xs = dataset.xs
    acts = dataset.actions
    ux, context = _product_contexts(xs)

    row_start = np.arange(n) * a_count
    context_start = context * a_count
    pos_flat = row_start + acts
    pos_cell = context_start + acts
    k = min(config.negatives, a_count - 1)
    # one entry per negative, row-major over (row, draw); allocated once
    neg_acts = np.repeat(acts, k)
    neg_row_start = np.repeat(row_start, k)
    neg_context_start = np.repeat(context_start, k)
    shifted = np.empty(n * k, dtype=bool)
    # each draw's own row start, so that the first epoch's reset writes only cells of the
    # block's own rows, which are still zero
    flat = neg_row_start.copy()
    neg_cells = np.empty(n * k, dtype=np.intp)
    neg_sigma = np.empty(n * k)
    pos_dloss = np.empty(n)
    sigma_table = np.empty((len(ux), a_count)) if len(ux) * a_count < n * (k + 1) else None
    dloss = np.zeros(n * a_count)
    block = max(1, _FILL_BLOCK_CELLS // a_count)
    # (rows, negatives) of each block of rows
    blocks = [(slice(r, r + block), slice(r * k, (r + block) * k)) for r in range(0, n, block)]

    def sigmoids(neg_scores, cells, out):
        if sigma_table is None:
            return _logistic(np.take(neg_scores, cells, out=out), out=out)
        return np.take(sigma_table, cells, out=out)

    def fill(neg_scores):
        if sigma_table is not None:
            _logistic(neg_scores, out=sigma_table)
        if k > 0:
            # negatives are uniform over non-chosen actions
            negs = rng.integers(0, a_count - 1, size=n * k)
            negs += np.greater_equal(negs, neg_acts, out=shifted)
            np.add(negs, neg_context_start, out=neg_cells)
            sigmoids(neg_scores, neg_cells, neg_sigma)
        np.subtract(sigmoids(neg_scores, pos_cell, pos_dloss), 1.0, out=pos_dloss)
        for rows, draws in blocks:
            if k > 0:
                block_flat = flat[draws]
                # the last epoch's negatives are the only nonzero cells besides the
                # positives, which this epoch overwrites and which no negative ever is
                dloss[block_flat] = 0.0
                np.add(negs[draws], neg_row_start[draws], out=block_flat)
                # a cell drawn c times must hold the dense count product c * sigmoid: up to
                # _DIRECT_ADDS draws per row, c adds from 0.0 round as it does; beyond,
                # np.add.at counts c exactly and dloss[block_flat] *= gathers before it
                # writes, so every repeated write of a cell stores that same product
                if k <= _DIRECT_ADDS:
                    np.add.at(dloss, block_flat, neg_sigma[draws])
                else:
                    np.add.at(dloss, block_flat, 1.0)
                    dloss[block_flat] *= neg_sigma[draws]
            dloss[pos_flat[rows]] = pos_dloss[rows]
        return dloss.reshape(n, a_count)

    theta, neg_scores = _logistic_descent(ux, xs, a_count, fill, config.epochs, config.learning_rate, config.l2)
    del dloss

    # the loss of the last epoch, from its scores at the pre-step parameters and its negatives
    p = _logistic(neg_scores, out=neg_scores)
    neg_counts = np.bincount(neg_cells, minlength=p.size).reshape(p.shape)
    loss = float(
        np.mean(-np.log(np.maximum(p[context, acts], TINY)))
        + np.sum(-neg_counts * np.log(np.maximum(1.0 - p, TINY))) / n
    )
    if not np.isfinite(loss):
        raise FitError(f"logging fit loss is not finite: {loss}")

    policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
    scores = ux @ theta.T
    median = np.median(scores, axis=1)
    frac_above = float(np.mean(scores[context, acts] > median[context]))
    diagnostics = {
        "final_loss": loss,
        "epochs": config.epochs,
        "frac_logged_above_median_score": frac_above,
    }
    grams = np.broadcast_to(np.eye(d), (a_count, d, d))
    return accumulate_grams(dataset, LoggingModel(policy=policy, grams=grams, fit_diagnostics=diagnostics))


def _check_matches(dataset: LoggedDataset, model: LoggingModel) -> None:
    """Refuse a dataset of another dimension or action count than the model's."""
    if dataset.dim != model.policy.dim:
        raise ValueError("dataset dimension does not match the model")
    if dataset.action_count != model.policy.action_count:
        raise ValueError("dataset action count does not match the model")


def accumulate_grams(dataset: LoggedDataset, model: LoggingModel) -> LoggingModel:
    """Add each sample's score-gradient outer product to its action's Gram matrix.

    The score gradient of a softmax-linear model with respect to the logged
    action's parameter row is x/tau, so the update is rank one per sample
    and order-independent up to floating-point roundoff.
    """
    _check_matches(dataset, model)
    grams = model.grams.copy()
    g = dataset.xs / model.policy.tau
    for a, idx in _action_groups(dataset.actions, model.policy.action_count):
        rows = g[idx]
        grams[a] += rows.T @ rows
    return LoggingModel(policy=model.policy, grams=grams, fit_diagnostics=dict(model.fit_diagnostics))


def uncertainties(model: LoggingModel, dataset: LoggedDataset) -> np.ndarray:
    """Per-sample uncertainties sqrt(g' M_a^{-1} g), g = x/tau, of the logged (x, a) pairs."""
    _check_matches(dataset, model)
    out = np.empty(len(dataset))
    g = dataset.xs / model.policy.tau
    for a, idx in _action_groups(dataset.actions, model.policy.action_count):
        rows = g[idx]
        sol = cho_solve(cho_factor(model.grams[a], lower=True), rows.T)
        out[idx] = np.sqrt(np.maximum(np.einsum("nd,dn->n", rows, sol), 0.0))
    return out


def _action_groups(actions: np.ndarray, action_count: int):
    """Each logged action and the indices of its samples, in sample order.

    One stable sort groups the samples, so an action's indices select the
    same rows in the same order as the mask ``actions == a``.
    """
    order = np.argsort(actions, kind="stable")
    bounds = np.searchsorted(actions[order], np.arange(action_count + 1))
    for a in np.flatnonzero(np.diff(bounds)):
        yield a, order[bounds[a]:bounds[a + 1]]


def uncertainty_frequency_bins(
    dataset: LoggedDataset, us: np.ndarray, n_bins: int = N_BINS
) -> list[dict]:
    """Mean per-sample uncertainty ``us``, binned by the logged frequency of the action.

    ``us`` holds one uncertainty per logged sample, as ``uncertainties(model,
    dataset)`` returns. Bins are equal-width in log-frequency rank: actions
    are sorted by their count in the log and split into ``n_bins`` groups of
    (near-)equal size, lowest-frequency group first. Skewed logging shows
    the signature trend of the lowest-frequency bin carrying the highest
    mean uncertainty.
    """
    us = np.asarray(us, dtype=float)
    if us.shape != (len(dataset),):
        raise ValueError("one uncertainty per logged sample required")
    counts = np.bincount(dataset.actions, minlength=dataset.action_count)
    logged_actions = np.flatnonzero(counts)
    order = logged_actions[np.argsort(counts[logged_actions], kind="stable")]
    n_bins = min(n_bins, len(order))
    out = []
    for b, group in enumerate(np.array_split(order, n_bins)):
        mask = np.isin(dataset.actions, group)
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
