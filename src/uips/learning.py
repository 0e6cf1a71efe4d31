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

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Union

import numpy as np

from uips.core import TINY, LoggedDataset, SoftmaxLinearPolicy, make_rng
from uips.estimators import (
    MODEL_FREE_KINDS,
    PropensityTables,
    Weighting,
    propensity_tables,
    propensity_weights,
)
from uips.logging_fit import LoggingFitConfig, LoggingModel, accumulate_grams, fit_logging_policy
from uips.metrics import evaluate_policy
from uips.synthetic import BanditEnv, generate_log


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
    n_logged: int = 5000
    refit_logging_per_epoch: bool = False
    logging_fit: Optional[LoggingFitConfig] = None

    def __post_init__(self):
        # zero learning rate is allowed: it turns training into a no-op probe
        if self.learning_rate < 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning_rate must be nonnegative, epochs/batch_size positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")


@dataclass
class TrainTrace:
    """Per-epoch training diagnostics; one record per epoch."""

    records: list[dict] = field(default_factory=list)

    def to_csv_rows(self) -> list[tuple]:
        cols = ("epoch", "value", "p_at_k", "r_at_k", "ndcg_at_k", "grad_norm", "max_weight")
        return [tuple(r.get(c) for c in cols) for r in self.records]


def _weights(weighting: Weighting, tables: PropensityTables, pi_all: np.ndarray) -> np.ndarray:
    """Per-sample weights of the policy whose rows over the samples are ``pi_all``.

    snips weights are rescaled to sum to the sample count, so that the mean
    of w * r is the self-normalized estimate.
    """
    w = propensity_weights(weighting, tables.with_target(pi_all))
    if weighting.kind == "snips":
        w = w / max(w.sum(), TINY) * len(w)
    return w


def _mean_value(weighting: Weighting, w: np.ndarray, rewards: np.ndarray) -> float:
    coeff = w * rewards
    if weighting.kind == "snips":
        return float(coeff.sum() / max(w.sum(), TINY))
    return float(coeff.mean())


def _log_trick_gradient(
    policy: SoftmaxLinearPolicy, batch: LoggedDataset, pi_all: np.ndarray, coeff: np.ndarray
) -> np.ndarray:
    """(1/B) sum_n coeff_n grad log pi(a_n|x_n), given the rows ``pi_all``."""
    onehot_minus_pi = -pi_all
    onehot_minus_pi[np.arange(len(batch)), batch.actions] += 1.0
    c = onehot_minus_pi * coeff[:, None]
    return c.T @ batch.xs / (policy.tau * len(batch))


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
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    pi_all = policy.distribution_matrix(batch.xs)
    tables = tables or propensity_tables(batch, None, model, (weighting.kind,))
    w = _weights(weighting, tables, pi_all)
    return _log_trick_gradient(policy, batch, pi_all, w * batch.rewards)


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
    w = _weights(weighting, tables, pi_all)
    residual = batch.rewards - eta_all[np.arange(len(batch)), batch.actions]
    correction = _log_trick_gradient(policy, batch, pi_all, w * residual)
    return c_dm.T @ batch.xs / (policy.tau * len(batch)) + correction


def estimate_value(
    policy: SoftmaxLinearPolicy,
    dataset: LoggedDataset,
    model: Optional[LoggingModel],
    weighting: Weighting,
    tables: Optional[PropensityTables] = None,
) -> float:
    """Weighted value estimate of the current policy on the full dataset."""
    pi_all = policy.distribution_matrix(dataset.xs)
    tables = tables or propensity_tables(dataset, None, model, (weighting.kind,))
    return _mean_value(weighting, _weights(weighting, tables, pi_all), dataset.rewards)


def true_gradient_norm(
    policy: SoftmaxLinearPolicy, pool: LoggedDataset, pi_all: Optional[np.ndarray] = None
) -> float:
    """Frobenius norm of the exact-propensity REINFORCE gradient over the pool.

    ``pi_all``, the policy's rows for the pool, is computed unless passed in.
    """
    if pool.true_logging_probs is None:
        raise ValueError("pool carries no true logging probabilities")
    if pi_all is None:
        pi_all = policy.distribution_matrix(pool.xs)
    ips_true = Weighting(kind="ips_true")
    w = _weights(ips_true, propensity_tables(pool, None, None, (ips_true.kind,)), pi_all)
    return float(np.linalg.norm(_log_trick_gradient(policy, pool, pi_all, w * pool.rewards)))


@dataclass(frozen=True)
class EpochState:
    """The step loop after one epoch: the policy and what its steps used."""

    epoch: int
    policy: SoftmaxLinearPolicy
    dataset: LoggedDataset
    model: Optional[LoggingModel]
    tables: PropensityTables


def train_epochs(
    source: Union[BanditEnv, LoggedDataset],
    model: Optional[LoggingModel],
    config: TrainConfig,
) -> Iterator[EpochState]:
    """Minibatch REINFORCE ascent under the configured weighting, one epoch per yield.

    This is the one step loop; :func:`train` and :func:`train_policy` both
    run it. ``source`` is either a logged dataset or an environment (in
    which case ``config.n_logged`` samples are drawn first). The dataset's
    propensity tables are computed once before the loop, and each step
    selects its batch from them; set ``refit_logging_per_epoch`` to refit
    the logging model, and recompute the tables, at every epoch instead.

    The policy depends only on the steps. Whatever a caller computes from
    the yielded states, such as a trace, is diagnostic and cannot change it.
    """
    rng = make_rng(config.seed)
    if isinstance(source, BanditEnv):
        dataset = generate_log(source, config.n_logged, rng)
    else:
        dataset = source

    kinds = (config.weighting.kind,)
    fit_cfg = config.logging_fit or LoggingFitConfig(seed=config.seed)
    needs_model = config.weighting.kind not in MODEL_FREE_KINDS
    if model is None and needs_model:
        model = accumulate_grams(dataset, fit_logging_policy(dataset, fit_cfg))
    tables = propensity_tables(dataset, None, model, kinds)

    theta = np.zeros((dataset.action_count, dataset.dim))
    policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
    n = len(dataset)

    for epoch in range(1, config.epochs + 1):
        if config.refit_logging_per_epoch and needs_model:
            model = accumulate_grams(
                dataset, fit_logging_policy(dataset, replace(fit_cfg, seed=fit_cfg.seed + epoch))
            )
            tables = propensity_tables(dataset, None, model, kinds)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            grad = weighted_gradient(
                policy, dataset.subset(batch_idx), model, config.weighting,
                tables=tables.select(batch_idx),
            )
            with np.errstate(over="ignore", invalid="ignore"):
                theta = theta + config.learning_rate * grad
            if not np.all(np.isfinite(theta)):
                raise RuntimeError(
                    f"training diverged to non-finite parameters at epoch {epoch}"
                )
            policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
        yield EpochState(epoch, policy, dataset, model, tables)


def train_policy(
    source: Union[BanditEnv, LoggedDataset],
    model: Optional[LoggingModel],
    config: TrainConfig,
) -> SoftmaxLinearPolicy:
    """The policy :func:`train` returns, without computing its trace."""
    for state in train_epochs(source, model, config):
        pass
    return state.policy


def train(
    source: Union[BanditEnv, LoggedDataset],
    model: Optional[LoggingModel],
    config: TrainConfig,
    env: Optional[BanditEnv] = None,
) -> tuple[SoftmaxLinearPolicy, TrainTrace]:
    """Minibatch REINFORCE ascent under the configured weighting, with a trace.

    Runs the step loop of :func:`train_epochs` and records one
    :class:`TrainTrace` entry per epoch. Passing the environment, as
    ``source`` or ``env``, adds validation ranking metrics to the trace.

    The trace is diagnostic only: the policy does not depend on it, and is
    the one :func:`train_policy` returns for the same arguments.
    """
    if isinstance(source, BanditEnv):
        env = env or source
    val_instances = env.validation if env is not None else None
    trace = TrainTrace()
    for state in train_epochs(source, model, config):
        policy, dataset = state.policy, state.dataset
        record = {"epoch": state.epoch}
        pi_all = policy.distribution_matrix(dataset.xs)
        w = _weights(config.weighting, state.tables, pi_all)
        record["value"] = _mean_value(config.weighting, w, dataset.rewards)
        record["max_weight"] = float(w.max())
        if val_instances is not None and state.epoch % config.eval_every == 0:
            p, r, ndcg = evaluate_policy(policy, val_instances, config.k_eval)
            record.update({"p_at_k": p, "r_at_k": r, "ndcg_at_k": ndcg})
        else:
            record.update({"p_at_k": None, "r_at_k": None, "ndcg_at_k": None})
        record["grad_norm"] = (
            true_gradient_norm(policy, dataset, pi_all)
            if dataset.true_logging_probs is not None else None
        )
        trace.records.append(record)

    return state.policy, trace
