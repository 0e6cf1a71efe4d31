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


def _log_trick_gradient(tables: PropensityTables, coeff: np.ndarray, tau: float) -> np.ndarray:
    """(1/B) sum_n coeff_n grad log pi(a_n|x_n) over the B cells of ``tables``.

    ``tables`` carry a target. grad log pi(a|x) is (onehot(a) - pi(.|x)) x /
    tau, so the sum runs over the m row contexts: the (m, A) coefficient
    table G holds -pi times the sum of ``coeff`` over each context's samples
    plus the sum of ``coeff`` on each logged cell, and the gradient is
    G.T @ contexts / (tau B). On rows that repeat contexts this adds the
    same terms as the dense ((onehot - pi) * coeff).T @ xs in another order.
    """
    m, action_count = tables.pi_rows.shape
    g = tables.pi_rows * -np.bincount(tables.rows, coeff, minlength=m)[:, None]
    # B scattered adds; a bincount over all m * A cells costs several times more at 200 actions
    np.add.at(g.reshape(-1), tables.rows * action_count + tables.actions, coeff)
    return g.T @ tables.contexts / (tau * len(coeff))


def _step_gradient(
    policy: SoftmaxLinearPolicy, rewards: np.ndarray, weighting: Weighting, tables: PropensityTables
) -> np.ndarray:
    """One step's gradient over the samples of ``tables``, which have no target, with
    rewards ``rewards``: one softmax over the row contexts, the weights, and the
    coefficient table of :func:`_log_trick_gradient`."""
    tables = tables.with_target(policy.distribution_matrix(tables.contexts))
    w = _weights(weighting, tables)
    return _log_trick_gradient(tables, w * rewards, policy.tau)


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
    return _step_gradient(policy, batch.rewards, weighting, tables)


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
    the logged action with the selected propensity weighting. Both run on
    the batch's distinct contexts, the rows of its propensity tables.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    tables = tables or propensity_tables(batch, None, model, (weighting.kind,))
    tables = tables.with_target(policy.distribution_matrix(tables.contexts))
    pi_u = tables.pi_rows
    eta_u = imputation.predict_matrix(tables.contexts, batch.action_count)
    # sum_a pi_a eta_a grad log pi_a collapses to coefficients pi_a' (eta_a' - v),
    # once per sample of the context
    v = np.sum(pi_u * eta_u, axis=1, keepdims=True)
    c_dm = pi_u * (eta_u - v) * np.bincount(tables.rows, minlength=len(pi_u))[:, None]

    w = _weights(weighting, tables)
    residual = batch.rewards - eta_u[tables.rows, tables.actions]
    correction = _log_trick_gradient(tables, w * residual, policy.tau)
    return c_dm.T @ tables.contexts / (policy.tau * len(batch)) + correction


def true_gradient_norm(
    policy: SoftmaxLinearPolicy, pool: LoggedDataset, tables: Optional[PropensityTables] = None
) -> float:
    """Frobenius norm of the exact-propensity REINFORCE gradient over the pool.

    ``tables``, the pool's propensity tables with ``policy`` as the target,
    are computed unless passed in; passed tables are left unchanged.
    """
    if pool.true_logging_probs is None:
        raise ValueError("pool carries no true logging probabilities")
    ips_true = Weighting(kind="ips_true")
    tables = tables or propensity_tables(pool, policy, None, (ips_true.kind,))
    w = _weights(ips_true, tables)
    return float(np.linalg.norm(_log_trick_gradient(tables, w * pool.rewards, policy.tau)))


def train_epochs(
    dataset: LoggedDataset, tables: PropensityTables, config: TrainConfig
) -> Iterator[SoftmaxLinearPolicy]:
    """Minibatch REINFORCE ascent under the configured weighting, one epoch per yield.

    This is the one step loop; :func:`train` and :func:`train_policy` both
    run it, and it yields the policy after each epoch. ``tables`` are the
    propensity tables of ``dataset`` without a target, holding at least
    what the configured weighting reads.

    Each step works on the batch's distinct contexts: :meth:`PropensityTables.select`
    gathers the batch's table columns and numbers its contexts through the
    dataset's context index, one softmax runs over those m_b <= B contexts,
    and the gradient is the (m_b, A) coefficient table of
    :func:`_log_trick_gradient` times the contexts. The selected
    probabilities ``pi_sel``, and so the weights, equal those of a softmax
    over the batch's rows bit for bit while ``dim`` is below 32; the
    gradient adds the rows' terms per context first and differs from the
    row-by-row sum by rounding.

    The policy depends only on the steps. Whatever a caller computes from
    the yielded policies, such as a trace, is diagnostic and cannot change it.
    """
    rng = make_rng(config.seed)
    theta = np.zeros((dataset.action_count, dataset.dim))
    policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
    rewards, n = dataset.rewards, len(dataset)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grad = _step_gradient(policy, rewards[idx], config.weighting, tables.select(idx))
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
    the one :func:`train_policy` returns on the same tables. Each epoch's
    record reads the m distinct contexts of the log: one (m, A) softmax
    serves the value, the largest weight and the true-gradient norm.
    """
    if model is None and config.weighting.kind not in MODEL_FREE_KINDS:
        model = accumulate_grams(dataset, fit_logging_policy(dataset, LoggingFitConfig(seed=config.seed)))
    tables = propensity_tables(dataset, None, model, (config.weighting.kind,))
    validation = env.validation if env is not None else None
    trace = TrainTrace()
    for epoch, policy in enumerate(train_epochs(dataset, tables, config), start=1):
        record = {"epoch": epoch}
        target = tables.with_target(policy.distribution_matrix(tables.contexts))
        w = _weights(config.weighting, target)
        record["value"] = _mean_value(config.weighting, w, dataset.rewards)
        record["max_weight"] = float(w.max())
        if validation is not None and epoch % config.eval_every == 0:
            p, r, ndcg = evaluate_policy(policy, validation, config.k_eval)
            record.update({"p_at_k": p, "r_at_k": r, "ndcg_at_k": ndcg})
        else:
            record.update({"p_at_k": None, "r_at_k": None, "ndcg_at_k": None})
        record["grad_norm"] = (
            true_gradient_norm(policy, dataset, target)
            if dataset.true_logging_probs is not None else None
        )
        trace.records.append(record)

    return policy, trace
