"""REINFORCE policy optimization under a chosen propensity weighting.

The training loop is plain minibatch SGD ascent on the weighted objective:
the propensity tables of the logged dataset (the logging model's
``beta_hat``, uncertainties, count propensities) are computed once up
front, since they describe the log and not the policy; the weight of each
sample is recomputed from the current policy at every step, and the weight
is treated as a constant (stop-gradient) inside the step, so the per-step
gradient is the log-trick gradient of the weighted sample mean.

One step loop, :func:`train_epochs`, trains a stack of configs that share
their seed, epochs and batch size, such as the grid points of a sweep:
each step draws one minibatch, runs one softmax and one gradient product
for the whole stack, and gives each policy the bits it would get trained
alone. A single training run is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from uips.core import TINY, LoggedDataset, SoftmaxLinearPolicy, _integer, _real, _softmax, make_rng
from uips.estimators import (
    MODEL_FREE_KINDS,
    PARAMETERS,
    PropensityTables,
    Weighting,
    propensity_tables,
    propensity_weights,
)
from uips.logging_fit import LoggingFitConfig, LoggingModel, fit_logging_policy
from uips.metrics import evaluate_policy
from uips.synthetic import BanditEnv

#: The most (policy, sample, action) cells one stacked training step holds: 2**21
#: cells are 16 MB per float64 buffer. Larger stacks of configs run as several.
_STACK_CELLS = 2**21


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
        if not _real(self.learning_rate, "learning_rate") >= 0:
            raise ValueError("learning_rate must be nonnegative")
        for name in ("epochs", "batch_size", "eval_every", "k_eval"):
            _integer(getattr(self, name), least=1, what=name)
        _integer(self.seed)


def _weights(weighting: Weighting, tables: PropensityTables, pi_rows: np.ndarray) -> np.ndarray:
    """Per-sample weights of the target policy whose probabilities on the rows of
    ``tables`` are ``pi_rows``.

    snips weights are rescaled to sum to the sample count, so that the mean
    of w * r is the self-normalized estimate.
    """
    w = propensity_weights(weighting, tables, pi_rows)
    if weighting.kind == "snips":
        w = w / max(w.sum(), TINY) * len(w)
    return w


def _log_trick_gradient(
    tables: PropensityTables, coeff: np.ndarray, pi: np.ndarray, tau: float
) -> np.ndarray:
    """(1/B) sum_n coeff[g, n] grad log pi_g(a_n|x_n) over the B cells of ``tables``,
    for each policy g of a stack of G, shaped (G, action_count, dim).

    ``coeff`` is (G, B). ``pi`` (G, m, A) holds the policies' probabilities
    on the m row contexts of ``tables``; it must be C-contiguous, and it is
    overwritten with the coefficient tables. grad log pi(a|x) is
    (onehot(a) - pi(.|x)) x / tau, so the sum runs over the row contexts:
    policy g's (m, A) table holds -pi_g times the sum of ``coeff[g]`` over
    each context's samples plus the sum of ``coeff[g]`` on each logged cell,
    and its gradient is that table's transpose times the contexts, over
    (tau B). One bincount and one np.add.at fill every table, policy g's
    cells offset by g m rows, so each table adds its terms in the order it
    would alone. On rows that repeat contexts this adds the same terms as
    the dense ((onehot - pi) * coeff).T @ xs in another order.
    """
    stack, m, action_count = pi.shape
    cells = tables.rows + m * np.arange(stack)[:, None]
    sums = np.bincount(cells.ravel(), coeff.ravel(), minlength=stack * m)
    np.multiply(pi, -sums.reshape(stack, m, 1), out=pi)
    # G B scattered adds; a bincount over all G m A cells costs several times more at 200 actions
    np.add.at(pi.reshape(-1), (cells * action_count + tables.actions).ravel(), coeff.ravel())
    return np.matmul(pi.transpose(0, 2, 1), tables.contexts) / (tau * coeff.shape[1])


def _step_gradient(
    theta: np.ndarray,
    tables: PropensityTables,
    rewards: np.ndarray,
    weightings: Sequence[Weighting],
    tau: float = 1.0,
) -> np.ndarray:
    """One step's gradients for the stack of G policies ``theta`` (G, A, dim), the
    g-th under ``weightings[g]``, over the samples of ``tables`` with rewards
    ``rewards``.

    One softmax runs over the row contexts for the whole stack, then each
    point's weight rule, then one stacked :func:`_log_trick_gradient`, which
    takes over the softmax buffer: no probability is read after the weights.
    """
    pi = _softmax(np.matmul(tables.contexts, theta.transpose(0, 2, 1)), tau)
    coeff = np.empty((len(weightings), len(rewards)))
    for g, weighting in enumerate(weightings):
        coeff[g] = _weights(weighting, tables, pi[g]) * rewards
    return _log_trick_gradient(tables, coeff, pi, tau)


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
    tables; they are computed from the batch unless passed, so count
    propensities for dice_s are then the batch's own. This is one step of
    :func:`train_epochs` on the whole batch, for a stack of one policy.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    tables = tables or propensity_tables(batch, model)
    return _step_gradient(policy.theta[None], tables, batch.rewards, [weighting], policy.tau)[0]


def dr_gradient(
    policy: SoftmaxLinearPolicy,
    batch: LoggedDataset,
    model: Optional[LoggingModel],
    imputation,
    weighting: Weighting,
) -> np.ndarray:
    """Gradient of the doubly robust objective.

    The direct-method term sums pi(a|x) * imputed reward over every action
    of each context; the correction term weights the imputation residual of
    the logged action with the selected propensity weighting. Both run on
    the batch's distinct contexts, the rows of its propensity tables.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    tables = propensity_tables(batch, model)
    pi_u = policy.distribution_matrix(tables.contexts)
    eta_u = imputation.predict_matrix(tables.contexts, batch.action_count)
    # sum_a pi_a eta_a grad log pi_a collapses to coefficients pi_a' (eta_a' - v),
    # once per sample of the context
    v = np.sum(pi_u * eta_u, axis=1, keepdims=True)
    c_dm = pi_u * (eta_u - v) * np.bincount(tables.rows, minlength=len(pi_u))[:, None]

    w = _weights(weighting, tables, pi_u)
    residual = batch.rewards - eta_u[tables.rows, tables.actions]
    # pi_u is not read again: the correction's coefficient table takes it over
    correction = _log_trick_gradient(tables, (w * residual)[None], pi_u[None], policy.tau)[0]
    return c_dm.T @ tables.contexts / (policy.tau * len(batch)) + correction


def true_gradient_norm(
    policy: SoftmaxLinearPolicy,
    pool: LoggedDataset,
    tables: Optional[PropensityTables] = None,
    pi_rows: Optional[np.ndarray] = None,
) -> float:
    """Frobenius norm of the exact-propensity REINFORCE gradient over the pool.

    ``tables``, the pool's propensity tables, and ``pi_rows``, the policy's
    probabilities on their rows, are computed unless passed in; passed rows
    are left unchanged.
    """
    if pool.true_logging_probs is None:
        raise ValueError("pool carries no true logging probabilities")
    tables = tables or propensity_tables(pool, None)
    if pi_rows is None:
        pi_rows = policy.distribution_matrix(tables.contexts)
    coeff = (_weights(Weighting(kind="ips_true"), tables, pi_rows) * pool.rewards)[None]
    return float(np.linalg.norm(_log_trick_gradient(tables, coeff, pi_rows[None].copy(), policy.tau)))


def _describe(weighting: Weighting, learning_rate: float) -> str:
    """A grid point's hyper-parameters, as the sweep leaderboard names them: the
    learning rate, then the parameters its kind reads."""
    source = weighting.hp or weighting
    params = ";".join(f"{name}={getattr(source, name)}" for name in PARAMETERS[weighting.kind])
    return f"lr={learning_rate}|{params}" if params else f"lr={learning_rate}"


def train_epochs(
    dataset: LoggedDataset, tables: PropensityTables, configs: Sequence[TrainConfig]
) -> Iterator[list[SoftmaxLinearPolicy]]:
    """Minibatch REINFORCE ascent for a stack of configs, one epoch per yield.

    This is the one step loop; :func:`train` runs it on one config and
    :func:`train_policies` on many, and it yields the policy of every
    config after each epoch, in the order of ``configs``. The configs must
    share ``seed``, ``epochs`` and ``batch_size``, so that every policy
    sees the same minibatches; they may differ in weighting and learning
    rate. ``tables`` are the propensity tables of ``dataset``, built with a
    logging model unless no configured weighting reads one.

    Each step draws its batch once for the whole stack and works on the
    batch's distinct contexts: :meth:`PropensityTables.select` gathers the
    batch's table columns and numbers its contexts through the dataset's
    context index, one softmax runs over those m_b <= B contexts for a
    stack of policies at once, each policy computes its own weights, and
    one stacked :func:`_log_trick_gradient` gives every gradient. A stack
    holds at most ``_STACK_CELLS`` (policy, sample, action) cells; more
    configs run as several stacks on the same batches. Each policy gets
    the bits it would get trained alone. The selected probabilities, and
    so the weights, equal those of a softmax over the
    batch's rows bit for bit while ``dim`` is below 32; the gradient adds
    the rows' terms per context first and differs from the row-by-row sum
    by rounding.

    If any policy's parameters stop being finite, the loop raises
    RuntimeError naming the epoch and that policy's weighting and learning
    rate.

    The policies depend only on the steps. Whatever a caller computes from
    the yielded policies, such as a trace, is diagnostic and cannot change them.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("no training configs")
    first = configs[0]
    if any((c.seed, c.epochs, c.batch_size) != (first.seed, first.epochs, first.batch_size) for c in configs):
        raise ValueError("stacked training configs must share seed, epochs and batch_size")
    rng = make_rng(first.seed)
    rewards, n, batch_size = dataset.rewards, len(dataset), first.batch_size
    size = max(1, _STACK_CELLS // (min(batch_size, n) * dataset.action_count))
    stacks = [configs[start : start + size] for start in range(0, len(configs), size)]
    thetas = [np.zeros((len(stack), dataset.action_count, dataset.dim)) for stack in stacks]
    rates = [np.array([c.learning_rate for c in stack], dtype=float)[:, None, None] for stack in stacks]
    weightings = [[c.weighting for c in stack] for stack in stacks]

    for epoch in range(1, first.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch, batch_rewards = tables.select(idx), rewards[idx]
            for k, stack in enumerate(stacks):
                grad = _step_gradient(thetas[k], batch, batch_rewards, weightings[k])
                with np.errstate(over="ignore", invalid="ignore"):
                    thetas[k] = thetas[k] + rates[k] * grad
                finite = np.isfinite(thetas[k]).all(axis=(1, 2))
                if not finite.all():
                    bad = stack[int(finite.argmin())]
                    raise RuntimeError(
                        f"training diverged to non-finite parameters at epoch {epoch}, "
                        f"{bad.weighting.kind} at {_describe(bad.weighting, bad.learning_rate)}"
                    )
        yield [SoftmaxLinearPolicy(theta=theta, tau=1.0) for stacked in thetas for theta in stacked]


def train_policies(
    dataset: LoggedDataset, tables: PropensityTables, configs: Sequence[TrainConfig]
) -> list[SoftmaxLinearPolicy]:
    """The last-epoch policy of every config of :func:`train_epochs`, in order,
    without a trace."""
    for policies in train_epochs(dataset, tables, configs):
        pass
    return policies


def train(
    dataset: LoggedDataset,
    model: Optional[LoggingModel],
    config: TrainConfig,
    env: Optional[BanditEnv] = None,
) -> tuple[SoftmaxLinearPolicy, list[dict]]:
    """Minibatch REINFORCE ascent under the configured weighting, with a trace.

    Builds the propensity tables of ``dataset`` once, runs the step loop of
    :func:`train_epochs` on them and returns the last policy and the trace,
    one dict per epoch. A weighting that reads a logging model, given no
    ``model``, fits one with the default :class:`LoggingFitConfig` seeded
    with ``config.seed``. Passing the environment adds validation ranking
    metrics to the trace.

    The trace is diagnostic only: the policy does not depend on it, and is
    the one :func:`train_policies` returns for ``[config]`` on the same
    tables. Each epoch's record reads the m distinct contexts of the log:
    one (m, A) softmax serves the value, the largest weight and the
    true-gradient norm.
    """
    if model is None and config.weighting.kind not in MODEL_FREE_KINDS:
        model = fit_logging_policy(dataset, LoggingFitConfig(seed=config.seed))
    tables = propensity_tables(dataset, model)
    validation = env.validation if env is not None else None
    trace = []
    for epoch, (policy,) in enumerate(train_epochs(dataset, tables, [config]), start=1):
        record = {"epoch": epoch}
        pi_rows = policy.distribution_matrix(tables.contexts)
        w = _weights(config.weighting, tables, pi_rows)
        record["value"] = float(np.mean(w * dataset.rewards))
        record["max_weight"] = float(w.max())
        if validation is not None and epoch % config.eval_every == 0:
            p, r, ndcg = evaluate_policy(policy, validation, config.k_eval)
            record.update({"p_at_k": p, "r_at_k": r, "ndcg_at_k": ndcg})
        else:
            record.update({"p_at_k": None, "r_at_k": None, "ndcg_at_k": None})
        record["grad_norm"] = (
            true_gradient_norm(policy, dataset, tables, pi_rows)
            if dataset.true_logging_probs is not None else None
        )
        trace.append(record)

    return policy, trace
