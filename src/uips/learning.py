"""REINFORCE policy optimization under a chosen propensity weighting.

The training loop is plain minibatch SGD ascent on the weighted objective:
the propensity tables of the logged dataset (the logging model's
``beta_hat``, uncertainties, count propensities) are computed once up
front, the weight of each sample is recomputed from the current policy at
every step, and the weight is treated as a constant (stop-gradient) inside
the step, so the per-step gradient is the log-trick gradient of the
weighted sample mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from uips.core import TINY, LoggedDataset, SoftmaxLinearPolicy, _integer, make_rng
from uips.estimators import (
    MODEL_FREE_KINDS,
    PropensityTables,
    Weighting,
    propensity_tables,
    propensity_weights,
)
from uips.logging_fit import LoggingFitConfig, LoggingModel, accumulate_grams, fit_logging_policy
from uips.metrics import evaluate_policy
from uips.synthetic import BanditEnv


@dataclass(frozen=True)
class TrainConfig:
    """REINFORCE training knobs; deterministic given ``seed``."""

    learning_rate: float = 0.5
    epochs: int = 40
    batch_size: int = 500
    weighting: Weighting = field(default_factory=lambda: Weighting(kind="bips"))
    seed: int = 0
    eval_every: int = 1
    k_eval: int = 5

    def __post_init__(self):
        # zero learning rate is allowed: it turns training into a no-op probe
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be nonnegative")
        for name in ("epochs", "batch_size", "eval_every", "k_eval"):
            _integer(getattr(self, name), least=1, what=name)
        _integer(self.seed)


@dataclass
class TrainTrace:
    """Per-epoch training diagnostics; one record per epoch."""

    records: list[dict] = field(default_factory=list)

    #: The header of :meth:`to_csv_rows`.
    COLUMNS = ("epoch", "value", "p_at_k", "r_at_k", "ndcg_at_k", "grad_norm", "max_weight")

    def to_csv_rows(self) -> list[tuple]:
        return [tuple(r.get(c) for c in self.COLUMNS) for r in self.records]


def _weights(weighting: Weighting, tables: PropensityTables) -> np.ndarray:
    """Per-sample weights of the target policy of ``tables``.

    snips weights are rescaled to sum to the sample count, so that the mean
    of w * r is the self-normalized estimate.
    """
    w = propensity_weights(weighting, tables)
    if weighting.kind == "snips":
        w = w / max(w.sum(), TINY) * len(w)
    return w


def _mean_value(weighting: Weighting, w: np.ndarray, rewards: np.ndarray) -> float:
    coeff = w * rewards
    if weighting.kind == "snips":
        return float(coeff.sum() / max(w.sum(), TINY))
    return float(coeff.mean())


def _log_trick_gradient(
    policy: SoftmaxLinearPolicy, xs: np.ndarray, actions: np.ndarray, pi_all: np.ndarray,
    coeff: np.ndarray,
) -> np.ndarray:
    """(1/B) sum_n coeff_n grad log pi(a_n|x_n) over the B rows ``xs``.

    ``pi_all`` holds the policy's rows over ``xs``; it is overwritten with
    the coefficients (1{a == a_n} - pi(a|x_n)) * coeff_n. Off the logged
    actions that is pi * -coeff_n, which equals -pi * coeff_n exactly.
    """
    rows = np.arange(len(actions))
    pi_logged = pi_all[rows, actions]
    c = np.multiply(pi_all, -coeff[:, None], out=pi_all)
    c[rows, actions] = (1.0 - pi_logged) * coeff
    return c.T @ xs / (policy.tau * len(actions))


def _step_gradient(
    policy: SoftmaxLinearPolicy,
    xs: np.ndarray,
    rewards: np.ndarray,
    weighting: Weighting,
    tables: PropensityTables,
    idx: np.ndarray,
) -> np.ndarray:
    """One step's gradient over the samples ``idx`` of ``tables``.

    ``tables`` are the propensity tables, without a target, of the dataset
    whose rows ``idx`` hold the contexts ``xs`` and rewards ``rewards``.
    """
    pi_all = policy.distribution_matrix(xs)
    batch_tables = tables.select(idx, pi_all)
    w = _weights(weighting, batch_tables)
    return _log_trick_gradient(policy, xs, batch_tables.actions, pi_all, w * rewards)


def weighted_gradient(
    policy: SoftmaxLinearPolicy,
    batch: LoggedDataset,
    model: Optional[LoggingModel],
    weighting: Weighting,
    tables: Optional[PropensityTables] = None,
) -> np.ndarray:
    """Log-trick gradient of the weighted value estimate over the batch.

    Returns (1/B) sum_n w_n r_n grad log pi(a_n|x_n) as a matrix shaped like
    ``policy.theta``. The weight is recomputed from the current policy but
    not differentiated through. ``tables`` are the batch's propensity
    tables without a target; they are computed from the batch unless
    passed, so count propensities for dice_s are then the batch's own.
    This is one step of :func:`train_epochs` on the whole batch.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    tables = tables or propensity_tables(batch, None, model, (weighting.kind,))
    return _step_gradient(policy, batch.xs, batch.rewards, weighting, tables, np.arange(len(batch)))


def dr_gradient(
    policy: SoftmaxLinearPolicy,
    batch: LoggedDataset,
    model: Optional[LoggingModel],
    imputation,
    weighting: Weighting,
    tables: Optional[PropensityTables] = None,
) -> np.ndarray:
    """Gradient of the doubly robust objective.

    The direct-method term sums pi(a|x) * imputed reward over every action
    of each context; the correction term weights the imputation residual of
    the logged action with the selected propensity weighting.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    pi_all = policy.distribution_matrix(batch.xs)
    eta_all = imputation.predict_matrix(batch.xs, batch.action_count)
    # sum_a pi_a eta_a grad log pi_a collapses to coefficients pi_a' (eta_a' - v)
    v = np.sum(pi_all * eta_all, axis=1, keepdims=True)
    c_dm = pi_all * (eta_all - v)

    tables = tables or propensity_tables(batch, None, model, (weighting.kind,))
    w = _weights(weighting, tables.with_target(pi_all))
    residual = batch.rewards - eta_all[np.arange(len(batch)), batch.actions]
    correction = _log_trick_gradient(policy, batch.xs, batch.actions, pi_all, w * residual)
    return c_dm.T @ batch.xs / (policy.tau * len(batch)) + correction


def true_gradient_norm(
    policy: SoftmaxLinearPolicy, pool: LoggedDataset, pi_all: Optional[np.ndarray] = None
) -> float:
    """Frobenius norm of the exact-propensity REINFORCE gradient over the pool.

    ``pi_all``, the policy's rows for the pool, is computed unless passed
    in; a passed array is left unchanged.
    """
    if pool.true_logging_probs is None:
        raise ValueError("pool carries no true logging probabilities")
    pi_all = policy.distribution_matrix(pool.xs) if pi_all is None else pi_all.copy()
    ips_true = Weighting(kind="ips_true")
    w = _weights(ips_true, propensity_tables(pool, None, None, (ips_true.kind,)).with_target(pi_all))
    grad = _log_trick_gradient(policy, pool.xs, pool.actions, pi_all, w * pool.rewards)
    return float(np.linalg.norm(grad))


def train_epochs(
    dataset: LoggedDataset, tables: PropensityTables, config: TrainConfig
) -> Iterator[SoftmaxLinearPolicy]:
    """Minibatch REINFORCE ascent under the configured weighting, one epoch per yield.

    This is the one step loop; :func:`train` and :func:`train_policy` both
    run it, and it yields the policy after each epoch. ``tables`` are the
    propensity tables of ``dataset`` without a target, holding at least
    what the configured weighting reads.

    Each step works on the batch's index array: it gathers the batch's
    contexts, rewards and table columns, computes one softmax over the
    batch and turns that buffer into the gradient's coefficients in place.

    The policy depends only on the steps. Whatever a caller computes from
    the yielded policies, such as a trace, is diagnostic and cannot change it.
    """
    rng = make_rng(config.seed)
    theta = np.zeros((dataset.action_count, dataset.dim))
    policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
    xs, rewards, n = dataset.xs, dataset.rewards, len(dataset)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grad = _step_gradient(policy, xs.take(idx, axis=0), rewards[idx], config.weighting, tables, idx)
            with np.errstate(over="ignore", invalid="ignore"):
                theta = theta + config.learning_rate * grad
            if not np.all(np.isfinite(theta)):
                raise RuntimeError(
                    f"training diverged to non-finite parameters at epoch {epoch}"
                )
            policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
        yield policy


def train_policy(
    dataset: LoggedDataset, tables: PropensityTables, config: TrainConfig
) -> SoftmaxLinearPolicy:
    """The policy of the last epoch of :func:`train_epochs`, without a trace."""
    for policy in train_epochs(dataset, tables, config):
        pass
    return policy


def train(
    dataset: LoggedDataset,
    model: Optional[LoggingModel],
    config: TrainConfig,
    env: Optional[BanditEnv] = None,
) -> tuple[SoftmaxLinearPolicy, TrainTrace]:
    """Minibatch REINFORCE ascent under the configured weighting, with a trace.

    Builds the propensity tables of ``dataset`` once, runs the step loop of
    :func:`train_epochs` on them and records one :class:`TrainTrace` entry
    per epoch. A weighting that reads a logging model, given no ``model``,
    fits one with the default :class:`LoggingFitConfig` seeded with
    ``config.seed``. Passing the environment adds validation ranking
    metrics to the trace.

    The trace is diagnostic only: the policy does not depend on it, and is
    the one :func:`train_policy` returns on the same tables.
    """
    if model is None and config.weighting.kind not in MODEL_FREE_KINDS:
        model = accumulate_grams(dataset, fit_logging_policy(dataset, LoggingFitConfig(seed=config.seed)))
    tables = propensity_tables(dataset, None, model, (config.weighting.kind,))
    validation = env.validation if env is not None else None
    trace = TrainTrace()
    for epoch, policy in enumerate(train_epochs(dataset, tables, config), start=1):
        record = {"epoch": epoch}
        pi_all = policy.distribution_matrix(dataset.xs)
        w = _weights(config.weighting, tables.with_target(pi_all))
        record["value"] = _mean_value(config.weighting, w, dataset.rewards)
        record["max_weight"] = float(w.max())
        if validation is not None and epoch % config.eval_every == 0:
            p, r, ndcg = evaluate_policy(policy, validation, config.k_eval)
            record.update({"p_at_k": p, "r_at_k": r, "ndcg_at_k": ndcg})
        else:
            record.update({"p_at_k": None, "r_at_k": None, "ndcg_at_k": None})
        record["grad_norm"] = (
            true_gradient_norm(policy, dataset, pi_all)
            if dataset.true_logging_probs is not None else None
        )
        trace.records.append(record)

    return policy, trace
