"""REINFORCE policy optimization under a chosen propensity weighting.

The training loop is plain minibatch SGD ascent on the weighted objective:
uncertainties and the logging model's ``beta_hat`` rows are computed once
up front, the shrink weight of each sample is recomputed from the current
policy at every step, and the weight is treated as a constant
(stop-gradient) inside the step, so the per-step gradient is the log-trick
gradient of the weighted sample mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Union

import numpy as np

from uips.core import LoggedDataset, SoftmaxLinearPolicy, make_rng
from uips.estimators import Weighting, shrink_factors
from uips.logging_fit import LoggingFitConfig, LoggingModel, accumulate_grams, fit_logging_policy, uncertainties
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

    def column(self, name: str) -> list:
        return [r[name] for r in self.records]

    def to_csv_rows(self) -> list[tuple]:
        cols = ("epoch", "value", "p_at_k", "r_at_k", "ndcg_at_k", "grad_norm", "max_weight")
        return [tuple(r.get(c) for c in cols) for r in self.records]


def _empirical_propensities(dataset: LoggedDataset) -> np.ndarray:
    """Per-sample count propensities N(x, a) / N(x), grouping contexts by bytes."""
    groups: dict[bytes, list[int]] = {}
    for i in range(len(dataset)):
        groups.setdefault(dataset.xs[i].tobytes(), []).append(i)
    emp = np.empty(len(dataset))
    for idx in groups.values():
        acts = dataset.actions[idx]
        counts = np.bincount(acts, minlength=dataset.action_count)
        emp[idx] = counts[acts] / len(idx)
    return emp


def _sample_coefficients(
    policy: SoftmaxLinearPolicy,
    batch: LoggedDataset,
    model: Optional[LoggingModel],
    weighting: Weighting,
    us: Optional[np.ndarray],
    emp: Optional[np.ndarray],
    pi_all: Optional[np.ndarray] = None,
    beta_all: Optional[np.ndarray] = None,
    beta_sel: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample weights w, target distribution rows, and w * r coefficients.

    ``pi_all``, ``beta_all`` (the logging model's rows) and ``beta_sel``
    (their logged-action column, before flooring) are computed from the
    batch unless passed in.
    """
    if pi_all is None:
        pi_all = policy.distribution_matrix(batch.xs)
    n = np.arange(len(batch))
    pi_sel = pi_all[n, batch.actions]
    kind = weighting.kind
    if kind == "ce":
        w = np.ones(len(batch))
    elif kind == "ips_true":
        if batch.true_logging_probs is None:
            raise ValueError("ips_true weighting needs true logging probabilities")
        w = pi_sel / batch.true_logging_probs
    elif kind == "dice_s":
        if emp is None:
            emp = _empirical_propensities(batch)
        cap = weighting.cap if weighting.cap else np.inf
        w = np.minimum(cap, pi_sel / emp)
    else:
        if model is None:
            raise ValueError(f"{kind} weighting needs a logging model")
        if kind in ("uips", "uips_p", "uips_o") and us is None:
            us = uncertainties(model, batch)
        beta_floor = weighting.hp.beta_floor if weighting.hp is not None else 1e-8
        if beta_sel is None:
            if beta_all is None:
                beta_all = model.beta_matrix(batch.xs)
            beta_sel = beta_all[n, batch.actions]
        beta_sel = np.maximum(beta_sel, beta_floor)
        ratio = pi_sel / beta_sel
        if kind == "bips":
            w = ratio
        elif kind == "bips_cap":
            w = np.minimum(weighting.cap, ratio)
        elif kind == "snips":
            w = ratio / max(ratio.sum(), 1e-300) * len(batch)
        else:
            phi = shrink_factors(
                kind, pi_sel, beta_sel, actions=batch.actions, us=us,
                pi_all=pi_all, beta_all=beta_all, lam=weighting.lam, hp=weighting.hp,
                beta_floor=beta_floor,
            )
            w = ratio * phi
    return w, pi_all, w * batch.rewards


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
    us: Optional[np.ndarray] = None,
    emp: Optional[np.ndarray] = None,
    beta_all: Optional[np.ndarray] = None,
    beta_sel: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Log-trick gradient of the weighted value estimate over the batch.

    Returns (1/B) sum_n w_n r_n grad log pi(a_n|x_n) as a matrix shaped like
    ``policy.theta``. The weight is recomputed from the current policy but
    not differentiated through. Count propensities for dice_s are computed
    over the batch unless precomputed full-log values are passed via ``emp``;
    likewise ``beta_hat`` unless its rows or selected column are passed.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    _, pi_all, coeff = _sample_coefficients(
        policy, batch, model, weighting, us, emp, beta_all=beta_all, beta_sel=beta_sel
    )
    return _log_trick_gradient(policy, batch, pi_all, coeff)


def dr_gradient(
    policy: SoftmaxLinearPolicy,
    batch: LoggedDataset,
    model: LoggingModel,
    imputation,
    weighting: Weighting,
    us: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of the doubly robust objective.

    The direct-method term sums pi(a|x) * imputed reward over every action
    of each context; the correction term weights the imputation residual of
    the logged action with the selected propensity weighting.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    pi_all = policy.distribution_matrix(batch.xs)
    n = np.arange(len(batch))
    eta_all = np.array(
        [[imputation.predict(batch.xs[i], a) for a in range(batch.action_count)] for i in range(len(batch))]
    )
    # sum_a pi_a eta_a grad log pi_a collapses to coefficients pi_a' (eta_a' - v)
    v = np.sum(pi_all * eta_all, axis=1, keepdims=True)
    c_dm = pi_all * (eta_all - v)

    w, _, _ = _sample_coefficients(policy, batch, model, weighting, us, None, pi_all=pi_all)
    residual = batch.rewards - eta_all[n, batch.actions]
    onehot_minus_pi = -pi_all
    onehot_minus_pi[n, batch.actions] += 1.0
    c_cor = onehot_minus_pi * (w * residual)[:, None]
    return (c_dm + c_cor).T @ batch.xs / (policy.tau * len(batch))


def estimate_value(
    policy: SoftmaxLinearPolicy,
    dataset: LoggedDataset,
    model: Optional[LoggingModel],
    weighting: Weighting,
    us: Optional[np.ndarray] = None,
    emp: Optional[np.ndarray] = None,
) -> float:
    """Weighted value estimate of the current policy on the full dataset."""
    w, _, coeff = _sample_coefficients(policy, dataset, model, weighting, us, emp)
    if weighting.kind == "snips":
        return float(coeff.sum() / max(w.sum(), 1e-300))
    return float(coeff.mean())


def true_gradient_norm(
    policy: SoftmaxLinearPolicy, pool: LoggedDataset, pi_all: Optional[np.ndarray] = None
) -> float:
    """Frobenius norm of the exact-propensity REINFORCE gradient over the pool.

    ``pi_all``, the policy's rows for the pool, is computed unless passed in.
    """
    if pool.true_logging_probs is None:
        raise ValueError("pool carries no true logging probabilities")
    _, pi_all, coeff = _sample_coefficients(
        policy, pool, None, Weighting(kind="ips_true"), None, None, pi_all=pi_all
    )
    return float(np.linalg.norm(_log_trick_gradient(policy, pool, pi_all, coeff)))


@dataclass(frozen=True)
class EpochState:
    """The step loop after one epoch: the policy and what its steps used."""

    epoch: int
    policy: SoftmaxLinearPolicy
    dataset: LoggedDataset
    model: Optional[LoggingModel]
    us: Optional[np.ndarray]
    emp: Optional[np.ndarray]
    beta_all: Optional[np.ndarray]
    beta_sel: Optional[np.ndarray]


def _logging_rows(
    model: LoggingModel, dataset: LoggedDataset, kind: str
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """The logging model's ``(beta_all, beta_sel)`` over the dataset, one of them None.

    minvar and stablevar normalise over every action, so they keep the full
    (n, actions) rows; every other kind keeps only the logged-action column.
    """
    beta_all = model.beta_matrix(dataset.xs)
    if kind in ("minvar", "stablevar"):
        return beta_all, None
    return None, beta_all[np.arange(len(dataset)), dataset.actions]


def train_epochs(
    source: Union[BanditEnv, LoggedDataset],
    model: Optional[LoggingModel],
    config: TrainConfig,
) -> Iterator[EpochState]:
    """Minibatch REINFORCE ascent under the configured weighting, one epoch per yield.

    This is the one step loop; :func:`train` and :func:`train_policy` both
    run it. ``source`` is either a logged dataset or an environment (in
    which case ``config.n_logged`` samples are drawn first). Uncertainties
    and the logging model's ``beta_hat`` rows are computed once before the
    loop, and each step indexes its batch from them; set
    ``refit_logging_per_epoch`` to refit the logging model, and recompute
    both, at every epoch instead.

    The policy depends only on the steps. Whatever a caller computes from
    the yielded states, such as a trace, is diagnostic and cannot change it.
    """
    rng = make_rng(config.seed)
    if isinstance(source, BanditEnv):
        dataset = generate_log(source, config.n_logged, rng)
    else:
        dataset = source

    kind = config.weighting.kind
    fit_cfg = config.logging_fit or LoggingFitConfig(seed=config.seed)
    needs_model = kind not in ("ce", "ips_true", "dice_s")
    if model is None and needs_model:
        model = accumulate_grams(dataset, fit_logging_policy(dataset, fit_cfg))

    needs_us = kind in ("uips", "uips_p", "uips_o")
    us = uncertainties(model, dataset) if needs_us else None
    emp = _empirical_propensities(dataset) if kind == "dice_s" else None
    beta_all, beta_sel = _logging_rows(model, dataset, kind) if needs_model else (None, None)

    theta = np.zeros((dataset.action_count, dataset.dim))
    policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
    n = len(dataset)

    for epoch in range(1, config.epochs + 1):
        if config.refit_logging_per_epoch and needs_model:
            model = accumulate_grams(
                dataset, fit_logging_policy(dataset, replace(fit_cfg, seed=fit_cfg.seed + epoch))
            )
            us = uncertainties(model, dataset) if needs_us else None
            beta_all, beta_sel = _logging_rows(model, dataset, kind)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch = dataset.subset(batch_idx)
            grad = weighted_gradient(
                policy, batch, model, config.weighting,
                us[batch_idx] if us is not None else None,
                emp[batch_idx] if emp is not None else None,
                beta_all=beta_all[batch_idx] if beta_all is not None else None,
                beta_sel=beta_sel[batch_idx] if beta_sel is not None else None,
            )
            with np.errstate(over="ignore", invalid="ignore"):
                theta = theta + config.learning_rate * grad
            if not np.all(np.isfinite(theta)):
                raise RuntimeError(
                    f"training diverged to non-finite parameters at epoch {epoch}"
                )
            policy = SoftmaxLinearPolicy(theta=theta, tau=1.0)
        yield EpochState(epoch, policy, dataset, model, us, emp, beta_all, beta_sel)


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
    :class:`TrainTrace` entry per epoch. ``source`` is either a logged
    dataset or an environment (in which case ``config.n_logged`` samples are
    drawn first). Passing the environment adds validation ranking metrics
    to the trace.

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
        w, pi_all, coeff = _sample_coefficients(
            policy, dataset, state.model, config.weighting, state.us, state.emp,
            beta_all=state.beta_all, beta_sel=state.beta_sel,
        )
        if config.weighting.kind == "snips":
            record["value"] = float(coeff.sum() / max(w.sum(), 1e-300))
        else:
            record["value"] = float(coeff.mean())
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
