"""Policy-value estimators from logged bandit feedback.

Every propensity-style estimator is a sample mean of per-record terms
w_n * r_n, where w_n = (pi / beta) * phi combines the target/logging
probability ratio with a method-specific factor phi. :func:`propensity_weights`
is the one place that turns a :class:`Weighting` into these weights. It
reads a :class:`PropensityTables`, which :func:`propensity_tables` fills
once per (dataset, target policy, logging model). On environments small
enough to enumerate every (context, action) outcome of one logged draw, the
exact bias, variance and mean squared error of these estimators are
computed in closed form rather than by Monte Carlo: there the tables hold
every cell of the (context, action) grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from uips.core import BETA_FLOOR, PI_FLOOR, LoggedDataset, make_rng
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    accumulate_grams,
    fit_logging_policy,
    uncertainties,
    uncertainty_matrix,
)
from uips.synthetic import (
    BanditEnv,
    TabularPolicy,
    _split_table,
    generate_log_per_context,
    true_policy_value,
)
from uips.weights import UipsHyperParams, phi_star_vector

WEIGHT_KINDS = (
    "ips_true",
    "bips",
    "bips_cap",
    "snips",
    "minvar",
    "stablevar",
    "shrinkage",
    "uips",
    "uips_p",
    "uips_o",
    "dice_s",
)
#: Kinds that read no logging model.
MODEL_FREE_KINDS = ("ce", "ips_true", "dice_s")
#: Kinds that normalize a score over every action of the context.
ROW_KINDS = ("minvar", "stablevar")
#: Kinds that read the logging model's uncertainties.
UIPS_KINDS = ("uips", "uips_p", "uips_o")


@dataclass(frozen=True)
class Weighting:
    """A propensity weighting rule plus its parameters.

    ``cap`` applies to bips_cap and dice_s, ``lam`` to shrinkage, and ``hp``
    to the uips family (uips_p / uips_o only use gamma). The extra kind
    ``ce`` is a training-only baseline: plain reward-weighted likelihood
    with no propensity correction.
    """

    kind: str
    cap: Optional[float] = None
    lam: Optional[float] = None
    hp: Optional[UipsHyperParams] = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS and self.kind != "ce":
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if self.kind in ("bips_cap", "dice_s") and (self.cap is None or self.cap <= 0):
            raise ValueError(f"{self.kind} needs a positive cap")
        if self.kind == "shrinkage" and (self.lam is None or self.lam < 0):
            raise ValueError("shrinkage needs a nonnegative lam")
        if self.kind in UIPS_KINDS and self.hp is None:
            raise ValueError(f"{self.kind} needs hyper-parameters")

    @classmethod
    def from_dict(cls, obj: dict) -> "Weighting":
        obj = dict(obj)
        hp = obj.pop("hp", None)
        return cls(hp=UipsHyperParams.from_dict(hp) if hp else None, **obj)


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

    def predict(self, x, action) -> float:
        return self.value

    def predict_matrix(self, xs: np.ndarray, action_count: int) -> np.ndarray:
        return np.full((xs.shape[0], action_count), self.value)


class TabularImputation:
    """Reward model backed by an exact-match context table."""

    def __init__(self, contexts: np.ndarray, table: np.ndarray):
        # reward rows share the tabular policy's exact-context lookup
        self.lookup = TabularPolicy(contexts=contexts, probs=table)
        if self.lookup.probs.min() < 0 or self.lookup.probs.max() > 1:
            raise ValueError("imputed rewards must lie in [0, 1]")

    @classmethod
    def from_env(cls, env: BanditEnv, split: str = "test") -> "TabularImputation":
        """The oracle imputation: the split's true 0/1 reward table."""
        return cls(*_split_table(env.split(split), env.action_count))

    def predict(self, x, action) -> float:
        return self.lookup.prob(x, action)

    def predict_matrix(self, xs: np.ndarray, action_count: int) -> np.ndarray:
        return self.lookup.distribution_matrix(xs)


@dataclass(frozen=True)
class PropensityTables:
    """What the weighting rules read, for n selected (context, action) cells.

    Cell i is action ``actions[i]`` of row ``rows[i]`` of the row tables
    ``pi_rows`` (target policy) and ``beta_rows`` (logging model): sample i
    of a logged dataset, or one pair of an enumerated split. ``beta_sel`` is
    the logging model's probability of each cell floored at ``BETA_FLOOR``.
    A table no requested rule reads is None: ``beta_rows`` is kept for
    minvar and stablevar, ``us`` (uncertainties) for the uips family and
    ``counts`` (count propensities) for dice_s. :meth:`with_target` sets the
    target part, ``pi_rows`` and its selected column ``pi_sel``.
    """

    rows: np.ndarray
    actions: np.ndarray
    true_probs: Optional[np.ndarray] = None
    beta_sel: Optional[np.ndarray] = None
    beta_rows: Optional[np.ndarray] = None
    us: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    pi_rows: Optional[np.ndarray] = None
    pi_sel: Optional[np.ndarray] = None

    def with_target(self, pi_rows: np.ndarray) -> "PropensityTables":
        """These tables for the target policy whose rows are ``pi_rows``."""
        return replace(self, pi_rows=pi_rows, pi_sel=pi_rows[self.rows, self.actions])

    def select(self, idx: np.ndarray) -> "PropensityTables":
        """The tables of the samples ``idx`` of a dataset, without a target."""

        def take(table):
            return None if table is None else table[idx]

        return PropensityTables(
            rows=np.arange(len(idx)), actions=self.actions[idx], true_probs=take(self.true_probs),
            beta_sel=take(self.beta_sel), beta_rows=take(self.beta_rows), us=take(self.us),
            counts=take(self.counts),
        )


def count_propensities(dataset: LoggedDataset) -> np.ndarray:
    """Per-sample count propensity N(x, a) / N(x) of the logged pair.

    Two samples share a context when their rows are equal entry by entry.
    """
    _, context = np.unique(dataset.xs, axis=0, return_inverse=True)
    pairs = context * dataset.action_count + dataset.actions
    _, pair, pair_counts = np.unique(pairs, return_inverse=True, return_counts=True)
    return pair_counts[pair] / np.bincount(context)[context]


def propensity_tables(
    dataset: LoggedDataset, policy, model: Optional[LoggingModel], kinds: Sequence[str]
) -> PropensityTables:
    """The tables of ``dataset`` that the weighting ``kinds`` read.

    ``policy`` is the target policy, or None to leave the target for
    :meth:`PropensityTables.with_target`. ``model`` is read only when some
    kind needs a logging model.
    """
    kinds = set(kinds)
    n = np.arange(len(dataset))
    beta_sel = beta_rows = us = counts = None
    model_kinds = kinds - set(MODEL_FREE_KINDS)
    if model_kinds:
        if model is None:
            raise ValueError(f"{', '.join(sorted(model_kinds))} weighting needs a logging model")
        beta = model.beta_matrix(dataset.xs)
        beta_sel = np.maximum(beta[n, dataset.actions], BETA_FLOOR)
        if kinds & set(ROW_KINDS):
            beta_rows = beta
        if kinds & set(UIPS_KINDS):
            us = uncertainties(model, dataset)
    if "dice_s" in kinds:
        counts = count_propensities(dataset)
    tables = PropensityTables(
        rows=n, actions=dataset.actions, true_probs=dataset.true_logging_probs,
        beta_sel=beta_sel, beta_rows=beta_rows, us=us, counts=counts,
    )
    return tables if policy is None else tables.with_target(policy.distribution_matrix(dataset.xs))


def propensity_weights(weighting: Weighting, tables: PropensityTables) -> np.ndarray:
    """Per-cell weights w = (pi / beta) * phi under ``weighting``.

    beta is the true logging probability for ips_true, the count propensity
    for dice_s and the floored estimate otherwise. phi is 1 except for
    minvar and stablevar, which normalize a score h over every action of the
    context (h = beta/pi^2 and h = sqrt(beta)/pi respectively), shrinkage,
    lam / (lam + (pi/beta)^2), and the uips family: the minimax weight or its
    uncertainty-only variants exp(-gamma u) and exp(gamma u) (a uips_o weight
    that overflows is the largest float, or 0 where pi is 0). bips_cap and
    dice_s clip the weight at ``cap``; ce weights every sample 1. snips
    weights are the bips weights: self-normalization is the caller's
    aggregation.
    """
    kind, t = weighting.kind, tables
    if kind == "ce":
        return np.ones(len(t.actions))
    if kind == "ips_true":
        if t.true_probs is None:
            raise ValueError("ips_true weighting needs true logging probabilities")
        return t.pi_sel / t.true_probs
    if kind == "dice_s":
        return np.minimum(weighting.cap, t.pi_sel / t.counts)
    if t.beta_sel is None:
        raise ValueError(f"{kind} weighting needs a logging model")
    ratio = t.pi_sel / t.beta_sel
    if kind in ("bips", "snips"):
        return ratio
    if kind == "bips_cap":
        return np.minimum(weighting.cap, ratio)
    if kind in ROW_KINDS:
        pi_f = np.maximum(t.pi_rows, PI_FLOOR)
        h = t.beta_rows / pi_f**2 if kind == "minvar" else np.sqrt(t.beta_rows) / pi_f
        phi = (h / h.sum(axis=1, keepdims=True))[t.rows, t.actions]
    elif kind == "shrinkage":
        denom = weighting.lam + ratio**2
        # lam = 0 makes 0/0 at ratio = 0, where the weight ratio * phi is 0 anyway
        phi = np.divide(weighting.lam, denom, out=np.zeros_like(ratio), where=denom > 0)
    elif kind == "uips":
        phi = phi_star_vector(t.pi_sel, t.beta_sel, t.us, weighting.hp)
    elif kind == "uips_p":
        phi = np.exp(-weighting.hp.gamma * t.us)
    else:
        # e^{gamma u} overflows above gamma u ~ 709.78
        with np.errstate(over="ignore", invalid="ignore"):
            w = ratio * np.exp(weighting.hp.gamma * t.us)
        return np.minimum(np.where(ratio > 0, w, 0.0), np.finfo(float).max)
    return ratio * phi


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
    w = propensity_weights(weighting, propensity_tables(dataset, policy, model, (weighting.kind,)))
    wsum = w.sum()
    diagnostics = {
        "effective_sample_size": float(wsum**2 / (w @ w)) if wsum > 0 else 0.0,
        "max_weight": float(w.max()),
    }
    return EstimateReport(
        value=_value(weighting, w, dataset.rewards), per_sample_weights=w, diagnostics=diagnostics
    )


def v_dm(dataset: LoggedDataset, policy, imputation) -> float:
    """Direct method: mean over contexts of sum_a pi(a|x) * imputed reward."""
    pi = policy.distribution_matrix(dataset.xs)
    eta = imputation.predict_matrix(dataset.xs, dataset.action_count)
    return float(np.mean(np.sum(pi * eta, axis=1)))


def v_dr(
    dataset: LoggedDataset,
    policy,
    model: Optional[LoggingModel],
    imputation,
    weighting: Weighting,
) -> float:
    """Direct method plus a ``weighting``-weighted residual correction."""
    tables = propensity_tables(dataset, policy, model, (weighting.kind,))
    eta = imputation.predict_matrix(dataset.xs, dataset.action_count)
    dm = np.mean(np.sum(tables.pi_rows * eta, axis=1))
    residual = dataset.rewards - eta[tables.rows, tables.actions]
    return float(dm + np.mean(propensity_weights(weighting, tables) * residual))


def _enumeration_tables(env: BanditEnv, policy, model: Optional[LoggingModel], split: str):
    xs, rewards = _split_table(env.split(split), env.action_count)
    beta_star = env.logging_policy.distribution_matrix(xs)
    pi = policy.distribution_matrix(xs)
    beta_hat = None if model is None else np.maximum(model.beta_matrix(xs), BETA_FLOOR)
    return xs, rewards, beta_star, pi, beta_hat


def exact_bias_variance(
    env: BanditEnv,
    policy,
    model: Optional[LoggingModel],
    estimator_kind: str,
    n_logged: int,
    split: str = "train",
    lam: Optional[float] = None,
    hp: Optional[UipsHyperParams] = None,
    cap: Optional[float] = None,
    max_outcomes: int = 10_000,
) -> tuple[float, float, float]:
    """Exact bias/variance/MSE of a per-sample-mean estimator.

    Enumerates the distribution of a single logged draw (uniform context
    from the split, action from the true logging policy), computes the
    estimator's per-draw term t(x, a) for every outcome, and uses
    independence across the ``n_logged`` draws: the estimator's expectation
    is E[t] and its variance is Var(t)/n_logged. The terms come from
    :func:`propensity_weights` with every (context, action) cell selected.
    """
    instances = env.split(split)
    if len(instances) * env.action_count > max_outcomes:
        raise ValueError("environment too large to enumerate")
    if estimator_kind in ("snips", "dice_s"):
        raise ValueError(f"{estimator_kind} is not a per-sample mean; no exact enumeration")
    weighting = Weighting(kind=estimator_kind, cap=cap, lam=lam, hp=hp)
    xs, rewards, beta_star, pi, beta_hat = _enumeration_tables(env, policy, model, split)
    rows, actions = np.divmod(np.arange(pi.size), pi.shape[1])
    tables = PropensityTables(
        rows=rows, actions=actions, true_probs=beta_star.ravel(),
        beta_sel=None if beta_hat is None else beta_hat.ravel(), beta_rows=beta_hat,
        us=uncertainty_matrix(model, xs).ravel() if estimator_kind in UIPS_KINDS else None,
    )
    t = propensity_weights(weighting, tables.with_target(pi)).reshape(pi.shape) * rewards

    p_outcome = beta_star / len(instances)
    e_t = float((p_outcome * t).sum())
    e_t2 = float((p_outcome * t * t).sum())
    true_value = float(np.mean(np.sum(pi * rewards, axis=1)))
    bias = e_t - true_value
    variance = (e_t2 - e_t**2) / n_logged
    return bias, variance, bias**2 + variance


def mse_upper_bound(
    env: BanditEnv,
    policy,
    model: LoggingModel,
    phi_table: np.ndarray,
    n_logged: int,
    split: str = "train",
) -> float:
    """Bias-variance bound on the MSE of a phi-reweighted estimator.

    Squared bias is bounded through Cauchy-Schwarz by
    E_pi[r^2 pi/beta_star] * E_beta_star[(beta_star phi / beta_hat - 1)^2],
    and variance by E_beta_star[(pi phi r / beta_hat)^2] / n_logged. The
    bound holds for any per-pair phi table.
    """
    xs, rewards, beta_star, pi, beta_hat = _enumeration_tables(env, policy, model, split)
    n_ctx = xs.shape[0]
    lam_true = float((pi * rewards**2 * (pi / beta_star)).sum() / n_ctx)
    delta = beta_star * phi_table / beta_hat - 1.0
    bias_sq = lam_true * float((beta_star * delta**2).sum() / n_ctx)
    var_term = float((beta_star * (pi / beta_hat * phi_table * rewards) ** 2).sum() / n_ctx) / n_logged
    return bias_sq + var_term


@dataclass
class OpeResult:
    """Per-seed estimates and squared errors for a set of estimators."""

    true_value: float
    rows: list[dict]
    summary: dict

    def to_csv_rows(self) -> list[tuple]:
        return [
            (r["estimator"], r["seed"], r["estimate"], r["squared_error"]) for r in self.rows
        ]


def ope_mse_experiment(
    env: BanditEnv,
    target_policy,
    estimators: Sequence[tuple[str, Weighting]],
    seeds: Sequence[int],
    samples_per_context: int,
    fit_config: Optional[LoggingFitConfig] = None,
    split: str = "test",
) -> OpeResult:
    """Monte-Carlo table of estimator MSE against the exact policy value.

    Per seed: regenerate the logged dataset (``samples_per_context`` draws
    per context of the split), refit the logging model, and evaluate every
    estimator. The result is deterministic in the seed list, regardless of
    evaluation order.
    """
    fit_config = fit_config or LoggingFitConfig()
    kinds = [weighting.kind for _, weighting in estimators]
    truth = true_policy_value(env, target_policy, split=split)
    rows = []
    for seed in seeds:
        rng = make_rng(seed)
        dataset = generate_log_per_context(env, samples_per_context, rng, split=split)
        model = accumulate_grams(dataset, fit_logging_policy(dataset, replace(fit_config, seed=seed)))
        tables = propensity_tables(dataset, target_policy, model, kinds)
        for name, weighting in estimators:
            est = _value(weighting, propensity_weights(weighting, tables), dataset.rewards)
            rows.append(
                {
                    "estimator": name,
                    "seed": int(seed),
                    "estimate": est,
                    "squared_error": (est - truth) ** 2,
                }
            )
    summary = {}
    for name, _ in estimators:
        errs = [r["squared_error"] for r in rows if r["estimator"] == name]
        summary[name] = {
            "mse": float(np.mean(errs)),
            "std": float(np.std(errs)),
            "n_seeds": len(errs),
        }
    return OpeResult(true_value=truth, rows=rows, summary=summary)
