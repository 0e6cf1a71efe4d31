"""Policy-value estimators from logged bandit feedback.

Every propensity-style estimator is a sample mean of per-record terms
w_n * r_n, where w_n = (pi / beta) * phi combines the target/logging
probability ratio with a method-specific factor phi.
:func:`each_propensity_weights` is the one place that turns a list of
:class:`Weighting` into these weights, and :func:`propensity_weights`
calls it on a list of one. It reads a :class:`PropensityTables`, which
:func:`propensity_tables` fills once per (dataset, logging model), and
the target policy's probabilities on the tables' distinct contexts. On
environments small enough to enumerate every (context, action) outcome of
one logged draw, the exact bias, variance and mean squared error of these
estimators are computed in closed form rather than by Monte Carlo, from
the same tables built over a log that holds every cell of the (context,
action) grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from uips.core import BETA_FLOOR, PI_FLOOR, LoggedDataset, _padded, _product_contexts, _real, make_rng
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    fit_logging_policy,
    uncertainties,
)
from uips.synthetic import BanditEnv, generate_log_per_context, true_policy_value
from uips.weights import UipsHyperParams, _exponentials, _phi_star

#: The hyper-parameters each weighting kind reads, the uips family's from ``hp`` and the
#: others' from the :class:`Weighting` field of that name.
PARAMETERS = {
    "ips_true": (), "bips": (), "bips_cap": ("cap",), "snips": (), "minvar": (), "stablevar": (),
    "shrinkage": ("lam",), "uips": ("lam", "gamma", "eta1", "eta2"), "uips_p": ("gamma",),
    "uips_o": ("gamma",), "dice_s": ("cap",), "ce": (),
}
#: Kinds that read no logging model.
MODEL_FREE_KINDS = ("ce", "ips_true", "dice_s")
#: Kinds that read the logging model's uncertainties.
UIPS_KINDS = ("uips", "uips_p", "uips_o")


@dataclass(frozen=True)
class Weighting:
    """A propensity weighting rule plus its parameters.

    A kind sets the fields it reads (:data:`PARAMETERS`) and no other:
    ``cap`` for bips_cap and dice_s, ``lam`` for shrinkage, ``hp`` for the
    uips family. The extra kind ``ce`` is a training-only baseline: plain
    reward-weighted likelihood with no propensity correction.
    """

    kind: str
    cap: Optional[float] = None
    lam: Optional[float] = None
    hp: Optional[UipsHyperParams] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in PARAMETERS:
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        reads = ("hp",) if self.kind in UIPS_KINDS else PARAMETERS[self.kind]
        for name in ("cap", "lam", "hp"):
            if (getattr(self, name) is None) == (name in reads):
                raise ValueError(f"{self.kind} {'needs' if name in reads else 'reads no'} {name}")
        for name in ("cap", "lam"):
            if getattr(self, name) is not None:
                _real(getattr(self, name), name)
        # written so that NaN fails each check; an infinite cap means no cap
        if not (self.cap is None or self.cap > 0):
            raise ValueError(f"{self.kind} needs a positive cap")
        if not (self.lam is None or 0 <= self.lam < np.inf):
            raise ValueError(f"{self.kind} needs a finite nonnegative lam")

    @classmethod
    def from_dict(cls, obj: dict) -> "Weighting":
        """The weighting of a JSON object; an ``hp`` field its kind does not read is a ValueError.

        A partial ``hp`` takes its missing fields from the :class:`UipsHyperParams`
        defaults, as ``ope.uips_hp`` and ``inspect.uips_hp`` do.
        """
        obj = dict(obj)
        hp = obj.pop("hp", None)
        kind = obj.get("kind")
        if hp is not None and kind in UIPS_KINDS:
            unread = sorted(set(hp) - set(PARAMETERS[kind]))
            if unread:
                raise ValueError(f"{kind} reads no {', '.join(unread)}")
        return cls(hp=None if hp is None else UipsHyperParams(**hp), **obj)


@dataclass
class EstimateReport:
    """Estimate plus the per-sample weights and weight diagnostics."""

    value: float
    per_sample_weights: np.ndarray
    diagnostics: dict = field(default_factory=dict)


class ConstantImputation:
    """Reward model that predicts the same value everywhere."""

    def __init__(self, value: float):
        if not 0.0 <= value <= 1.0:
            raise ValueError("imputed rewards must lie in [0, 1]")
        self.value = float(value)

    def predict_matrix(self, xs: np.ndarray, action_count: int) -> np.ndarray:
        return np.full((xs.shape[0], action_count), self.value)


@dataclass(frozen=True)
class PropensityTables:
    """What a log and its logging model say about n selected (context, action) cells.

    Cell i is action ``actions[i]`` of row ``rows[i]``. A row is one
    distinct context of the log: ``contexts`` holds them, padded as
    :func:`uips.core._product_contexts` pads, and ``rows`` is the samples'
    context index. ``beta_rows`` holds the logging model's probabilities on
    the rows, and ``beta_sel`` each cell's, floored at ``BETA_FLOOR``.
    ``us`` holds the cells' uncertainties and ``counts`` their count
    propensities N(x, a) / N(x). The three logging-model tables are None
    when there is no model, ``true_probs`` when the log has no true
    propensities. No table depends on a target policy.
    """

    rows: np.ndarray
    actions: np.ndarray
    contexts: Optional[np.ndarray] = None
    true_probs: Optional[np.ndarray] = None
    beta_sel: Optional[np.ndarray] = None
    beta_rows: Optional[np.ndarray] = None
    us: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None

    def select(self, idx: np.ndarray) -> "PropensityTables":
        """The tables of the samples ``idx`` of a dataset.

        Their rows are the distinct contexts of those samples, in the order
        of these tables' rows. The contexts are marked in a boolean mask and
        numbered by its running sum, which costs O(m) for m rows here and
        sorts nothing.
        """
        context = self.rows[idx]
        mark = np.zeros(len(self.contexts), dtype=bool)
        mark[context] = True
        ids = _padded(np.flatnonzero(mark), len(idx))

        def take(table, at=idx):
            return None if table is None else table[at]

        return PropensityTables(
            rows=(np.cumsum(mark) - 1)[context], actions=self.actions[idx], contexts=self.contexts[ids],
            true_probs=take(self.true_probs), beta_sel=take(self.beta_sel),
            beta_rows=take(self.beta_rows, ids), us=take(self.us), counts=take(self.counts),
        )


def propensity_tables(dataset: LoggedDataset, model: Optional[LoggingModel]) -> PropensityTables:
    """Every table of ``dataset`` that its inputs allow.

    ``model`` is the logging model, or None for a weighting that reads
    none; :func:`propensity_weights` refuses a weighting whose table is
    missing.

    The row tables hold the distinct contexts of the dataset (the rows of
    :func:`uips.core._product_contexts`): the logging model's softmax runs
    once per distinct context, and ``beta_sel`` gathers one cell per
    sample. No table has a row per sample and action. The rows equal those
    of ``model.beta_matrix(dataset.xs)`` bit for bit while ``dim`` is below
    32; from there the bundled OpenBLAS picks its kernel by the product's
    size, and they differ by rounding. The same holds for a target policy's
    ``distribution_matrix`` on ``contexts``. The count propensities tally
    the samples per context and per (context, action) pair, where two
    samples share a context when their rows are equal byte for byte.
    """
    ux, context = _product_contexts(dataset.xs)
    pair = context * dataset.action_count + dataset.actions
    counts = np.bincount(pair)[pair] / np.bincount(context)[context]
    beta_sel = beta_rows = us = None
    if model is not None:
        beta_rows = model.beta_matrix(ux)
        beta_sel = np.maximum(beta_rows[context, dataset.actions], BETA_FLOOR)
        us = uncertainties(model, dataset)
    return PropensityTables(
        rows=context, actions=dataset.actions, contexts=ux, true_probs=dataset.true_logging_probs,
        beta_sel=beta_sel, beta_rows=beta_rows, us=us, counts=counts,
    )


def propensity_weights(weighting: Weighting, tables: PropensityTables, pi_rows: np.ndarray) -> np.ndarray:
    """Per-cell weights w = (pi / beta) * phi under ``weighting``.

    pi is the cell's entry of ``pi_rows``, the target policy's probabilities
    on ``tables.contexts``. beta is the true logging probability for
    ips_true, the count propensity for dice_s and the floored estimate
    otherwise. phi is 1 except for minvar and stablevar, which normalize a
    score h over every action of the context (h = beta/pi^2 and h =
    sqrt(beta)/pi respectively), shrinkage, lam / (lam + (pi/beta)^2), which
    is phi* at u = 0 and eta1 = eta2 = 1, and
    the uips family: the minimax weight or its uncertainty-only variants
    exp(-gamma u) and exp(gamma u) (a uips_o weight that overflows is the
    largest float, or 0 where pi is 0). bips_cap and dice_s clip the weight
    at ``cap``; ce weights every sample 1. snips weights are the bips
    weights: self-normalization is the caller's aggregation. This is
    :func:`each_propensity_weights` on a list of one.
    """
    return next(each_propensity_weights([weighting], tables, pi_rows))


def each_propensity_weights(
    weightings: Sequence[Weighting], tables: PropensityTables, pi_rows: np.ndarray
) -> Iterator[np.ndarray]:
    """The :func:`propensity_weights` of each of ``weightings`` in turn, on one set of tables.

    The cells' pi and the ratio pi / beta are taken once for all of them, and
    the terms of phi* that depend on gamma * u once per distinct gamma, which
    is sound because the tables hold one uncertainty column; each weight
    vector keeps the bits of its own call. One vector is made per step, so a
    stream of G weightings never holds a (G, n) stack.
    """
    t = tables
    pi_sel = pi_rows[t.rows, t.actions]
    ratio = None if t.beta_sel is None else pi_sel / t.beta_sel
    terms = {}
    for weighting in weightings:
        kind, hp = weighting.kind, weighting.hp
        if kind == "ce":
            yield np.ones(len(t.actions))
        elif kind == "ips_true":
            if t.true_probs is None:
                raise ValueError("ips_true weighting needs true logging probabilities")
            yield pi_sel / t.true_probs
        elif kind == "dice_s":
            yield np.minimum(weighting.cap, pi_sel / t.counts)
        elif ratio is None:
            raise ValueError(f"{kind} weighting needs a logging model")
        elif kind in ("bips", "snips"):
            # a copy, so that a caller who writes into it leaves the other weightings' ratio intact
            yield ratio.copy()
        elif kind == "bips_cap":
            yield np.minimum(weighting.cap, ratio)
        elif kind in ("minvar", "stablevar"):
            pi_f = np.maximum(pi_rows, PI_FLOOR)
            h = t.beta_rows / pi_f**2 if kind == "minvar" else np.sqrt(t.beta_rows) / pi_f
            yield ratio * (h / h.sum(axis=1, keepdims=True))[t.rows, t.actions]
        elif kind in ("shrinkage", "uips"):
            if kind == "shrinkage":
                # the shrinkage rule lam / (lam + ratio^2) is phi* at u = 0 and eta1 = eta2 = 1
                hp = UipsHyperParams(lam=weighting.lam, gamma=0.0, eta1=1.0, eta2=1.0)
            if hp.gamma not in terms:
                terms[hp.gamma] = _exponentials(hp.gamma * t.us)
            yield ratio * _phi_star(ratio, terms[hp.gamma], hp)[0]
        elif kind == "uips_p":
            # uips_p and uips_o take their own exponentials: above gamma u = 700 the shared
            # terms are rescaled
            yield ratio * np.exp(-hp.gamma * t.us)
        else:
            # e^{gamma u} overflows above gamma u ~ 709.78
            with np.errstate(over="ignore", invalid="ignore"):
                w = ratio * np.exp(hp.gamma * t.us)
            yield np.minimum(np.where(ratio > 0, w, 0.0), np.finfo(float).max)


def snips_from_weights(weights: np.ndarray, rewards: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        raise ValueError("sum of propensity weights is zero")
    return float((weights * rewards).sum() / total)


def _value(weighting: Weighting, weights: np.ndarray, rewards: np.ndarray) -> float:
    if weighting.kind == "snips":
        return snips_from_weights(weights, rewards)
    return float(np.mean(weights * rewards))


def estimate(
    dataset: LoggedDataset, policy, model: Optional[LoggingModel], weighting: Weighting
) -> EstimateReport:
    """Value of ``policy`` on ``dataset`` under ``weighting``, with its weights.

    The value is the mean of w * r, or sum(w r) / sum(w) for snips. ``model``
    may be None for the kinds that need no logging model.
    """
    tables = propensity_tables(dataset, model)
    w = propensity_weights(weighting, tables, policy.distribution_matrix(tables.contexts))
    wsum = w.sum()
    diagnostics = {
        "effective_sample_size": float(wsum**2 / (w @ w)) if wsum > 0 else 0.0,
        "max_weight": float(w.max()),
    }
    return EstimateReport(
        value=_value(weighting, w, dataset.rewards), per_sample_weights=w, diagnostics=diagnostics
    )


def exact_bias_variance(
    env: BanditEnv,
    policy,
    model: Optional[LoggingModel],
    weighting: Weighting,
    n_logged: int,
    max_outcomes: int = 10_000,
) -> tuple[float, float, float]:
    """Exact bias/variance/MSE of a per-sample-mean estimator.

    Enumerates the distribution of a single logged draw (uniform context
    from the train split, as :func:`uips.synthetic.generate_log` draws it,
    action from the true logging policy), computes the estimator's per-draw
    term t(x, a) for every outcome, and uses independence across the
    ``n_logged`` draws: the estimator's expectation is E[t] and its
    variance is Var(t)/n_logged. The terms are the weights
    :func:`estimate` would give a log that holds every (context, action)
    cell of the train split once, in context-major order: the same
    :func:`propensity_tables` and :func:`propensity_weights`. Only ips_true
    reads the true logging probabilities, and a cell where one is 0 is a
    ValueError there.
    """
    xs, rewards = env.train.xs, env.train.rewards
    if rewards.size > max_outcomes:
        raise ValueError("environment too large to enumerate")
    if weighting.kind in ("snips", "dice_s"):
        raise ValueError(f"{weighting.kind} is not a per-sample mean; no exact enumeration")
    beta_star = env.logging_policy.distribution_matrix(xs)
    n_contexts, a_count = rewards.shape
    cells = LoggedDataset(
        xs=np.repeat(xs, a_count, axis=0), actions=np.tile(np.arange(a_count), n_contexts),
        rewards=rewards.ravel(), action_count=a_count,
        true_logging_probs=beta_star.ravel() if weighting.kind == "ips_true" else None,
    )
    tables = propensity_tables(cells, model)
    pi_rows = policy.distribution_matrix(tables.contexts)
    t = propensity_weights(weighting, tables, pi_rows).reshape(rewards.shape) * rewards

    p_outcome = beta_star / n_contexts
    e_t = float((p_outcome * t).sum())
    e_t2 = float((p_outcome * t * t).sum())
    bias = e_t - float(true_policy_value(env, policy, "train"))
    variance = (e_t2 - e_t**2) / n_logged
    return bias, variance, bias**2 + variance


@dataclass
class OpeResult:
    """Per-seed estimates and squared errors for a set of estimators."""

    true_value: float
    rows: list[dict]
    summary: dict

    #: The header of :meth:`to_csv_rows`.
    COLUMNS = ("estimator", "seed", "estimate", "squared_error")

    def to_csv_rows(self) -> list[tuple]:
        return [tuple(r[c] for c in self.COLUMNS) for r in self.rows]


def ope_mse_experiment(
    env: BanditEnv,
    target_policy,
    estimators: Sequence[tuple[str, Weighting]],
    seeds: Sequence[int],
    samples_per_context: int,
    fit_config: LoggingFitConfig,
) -> OpeResult:
    """Monte-Carlo table of estimator MSE against the exact policy value on the test split.

    Per seed: regenerate the logged dataset (``samples_per_context`` draws
    per test context), refit the logging model by ``fit_config`` reseeded
    with the seed, and evaluate every estimator. The result is
    deterministic in the seed list, regardless of evaluation order.
    """
    truth = true_policy_value(env, target_policy)
    rows = []
    for seed in seeds:
        rng = make_rng(seed)
        dataset = generate_log_per_context(env, samples_per_context, rng)
        model = fit_logging_policy(dataset, replace(fit_config, seed=seed))
        tables = propensity_tables(dataset, model)
        pi_rows = target_policy.distribution_matrix(tables.contexts)
        stream = each_propensity_weights([weighting for _, weighting in estimators], tables, pi_rows)
        for (name, weighting), w in zip(estimators, stream):
            est = _value(weighting, w, dataset.rewards)
            rows.append(
                {
                    "estimator": name,
                    "seed": int(seed),
                    "estimate": est,
                    "squared_error": (est - truth) ** 2,
                }
            )
    errors = {name: [] for name, _ in estimators}
    for r in rows:
        errors[r["estimator"]].append(r["squared_error"])
    summary = {
        name: {"mse": float(np.mean(errs)), "std": float(np.std(errs)), "n_seeds": len(errs)}
        for name, errs in errors.items()
    }
    return OpeResult(true_value=truth, rows=rows, summary=summary)
