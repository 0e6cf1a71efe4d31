"""Policy-value estimators from logged bandit feedback.

All propensity-style estimators are sample means of per-record terms
w_n * r_n where w_n combines the target/logging probability ratio with a
method-specific shrink factor phi. On environments small enough to
enumerate every (context, action) outcome of one logged draw, the exact
bias, variance and mean squared error of these estimators are computed in
closed form rather than by Monte Carlo, which turns the bias/variance
identities into exact tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from uips.core import LoggedDataset, make_rng, policy_matrix
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    accumulate_grams,
    fit_logging_policy,
    uncertainties,
    uncertainty_matrix,
)
from uips.synthetic import BanditEnv, generate_log_per_context, true_policy_value
from uips.weights import UipsHyperParams, phi_star_vector

PI_FLOOR = 1e-12

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
        if self.kind in ("uips", "uips_p", "uips_o") and self.hp is None:
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
        self.contexts = np.asarray(contexts, dtype=float)
        self.table = np.asarray(table, dtype=float)
        if self.table.min() < 0 or self.table.max() > 1:
            raise ValueError("imputed rewards must lie in [0, 1]")
        self._index = {self.contexts[i].tobytes(): i for i in range(self.contexts.shape[0])}

    @classmethod
    def from_env(cls, env: BanditEnv, split: str = "test") -> "TabularImputation":
        """The oracle imputation: the split's true 0/1 reward table."""
        instances = env.split(split)
        xs = np.stack([inst.features for inst in instances])
        table = np.zeros((len(instances), env.action_count))
        for i, inst in enumerate(instances):
            table[i, sorted(inst.relevant_actions)] = 1.0
        return cls(xs, table)

    def _row(self, x) -> np.ndarray:
        key = np.asarray(x, dtype=float).tobytes()
        try:
            return self.table[self._index[key]]
        except KeyError:
            raise ValueError("context not covered by this imputation") from None

    def predict(self, x, action) -> float:
        return float(self._row(x)[action])

    def predict_matrix(self, xs: np.ndarray, action_count: int) -> np.ndarray:
        return np.stack([self._row(x) for x in xs])


def imputation_matrix(imputation, xs: np.ndarray, action_count: int) -> np.ndarray:
    batched = getattr(imputation, "predict_matrix", None)
    if batched is not None:
        return batched(xs, action_count)
    return np.array([[imputation.predict(x, a) for a in range(action_count)] for x in xs])


def _pi_selected(policy, dataset: LoggedDataset) -> np.ndarray:
    return policy_matrix(policy, dataset.xs)[np.arange(len(dataset)), dataset.actions]


def shrink_factors(
    kind: str,
    pi_sel: np.ndarray,
    beta_sel: np.ndarray,
    actions: Optional[np.ndarray] = None,
    us: Optional[np.ndarray] = None,
    pi_all: Optional[np.ndarray] = None,
    beta_all: Optional[np.ndarray] = None,
    lam: Optional[float] = None,
    hp: Optional[UipsHyperParams] = None,
    beta_floor: float = 1e-8,
) -> np.ndarray:
    """Per-sample phi for the reweighting family.

    minvar and stablevar normalize a per-action score h over all actions of
    the sample's context (h = beta/pi^2 and h = sqrt(beta)/pi respectively),
    so they need ``actions`` plus the full distributions; shrinkage uses
    lam / (lam + (pi/beta)^2); the uips family uses the minimax weight or
    its uncertainty-only variants.
    """
    if kind in ("minvar", "stablevar"):
        if pi_all is None or beta_all is None or actions is None:
            raise ValueError(f"{kind} needs full action distributions and the logged actions")
        pi_f = np.maximum(pi_all, PI_FLOOR)
        h = beta_all / pi_f**2 if kind == "minvar" else np.sqrt(beta_all) / pi_f
        phi_all = h / h.sum(axis=1, keepdims=True)
        return phi_all[np.arange(len(pi_sel)), actions]
    if kind == "shrinkage":
        ratio = pi_sel / np.maximum(beta_sel, beta_floor)
        return lam / (lam + ratio**2)
    if kind == "uips":
        return phi_star_vector(pi_sel, beta_sel, us, hp)
    if kind == "uips_p":
        return np.exp(-hp.gamma * us)
    if kind == "uips_o":
        return np.exp(hp.gamma * us)
    raise ValueError(f"unknown reweighting kind {kind!r}")


def v_ips(dataset: LoggedDataset, policy) -> float:
    """Mean of (pi/beta_true) * r; needs the true logging probabilities."""
    if dataset.true_logging_probs is None:
        raise ValueError("dataset carries no true logging probabilities")
    w = _pi_selected(policy, dataset) / dataset.true_logging_probs
    return float(np.mean(w * dataset.rewards))


def v_bips(dataset: LoggedDataset, policy, model: LoggingModel, beta_floor: float = 1e-8) -> float:
    """Mean of (pi/beta_hat) * r with the estimated propensity floored."""
    beta = model.beta_matrix(dataset.xs)[np.arange(len(dataset)), dataset.actions]
    w = _pi_selected(policy, dataset) / np.maximum(beta, beta_floor)
    return float(np.mean(w * dataset.rewards))


def v_bips_cap(
    dataset: LoggedDataset, policy, model: LoggingModel, cap: float, beta_floor: float = 1e-8
) -> float:
    """bips with the propensity ratio clipped at ``cap`` to control variance."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    beta = model.beta_matrix(dataset.xs)[np.arange(len(dataset)), dataset.actions]
    w = np.minimum(cap, _pi_selected(policy, dataset) / np.maximum(beta, beta_floor))
    return float(np.mean(w * dataset.rewards))


def v_snips(dataset: LoggedDataset, policy, model: LoggingModel, beta_floor: float = 1e-8) -> float:
    """Self-normalized variant: sum(w r) / sum(w)."""
    beta = model.beta_matrix(dataset.xs)[np.arange(len(dataset)), dataset.actions]
    w = _pi_selected(policy, dataset) / np.maximum(beta, beta_floor)
    total = w.sum()
    if total <= 0:
        raise ValueError("sum of propensity weights is zero")
    return float((w * dataset.rewards).sum() / total)


def snips_from_weights(weights: np.ndarray, rewards: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        raise ValueError("sum of propensity weights is zero")
    return float((weights * rewards).sum() / total)


def reweighted_value(
    dataset: LoggedDataset,
    policy,
    model: LoggingModel,
    kind: str,
    lam: Optional[float] = None,
    hp: Optional[UipsHyperParams] = None,
    us: Optional[np.ndarray] = None,
    beta_floor: float = 1e-8,
) -> EstimateReport:
    """Mean of (pi/beta_hat) * phi * r with phi per the requested rule.

    ``us`` may carry precomputed per-sample uncertainties; otherwise they
    are derived from the model grams when the rule needs them.
    """
    n = np.arange(len(dataset))
    pi_all = policy_matrix(policy, dataset.xs)
    beta_all = model.beta_matrix(dataset.xs)
    pi_sel = pi_all[n, dataset.actions]
    beta_sel = np.maximum(beta_all[n, dataset.actions], beta_floor)
    if kind in ("uips", "uips_p", "uips_o") and us is None:
        us = uncertainties(model, dataset)
    phi = shrink_factors(
        kind, pi_sel, beta_sel, actions=dataset.actions, us=us,
        pi_all=pi_all, beta_all=beta_all, lam=lam, hp=hp, beta_floor=beta_floor,
    )
    w = pi_sel / beta_sel * phi
    value = float(np.mean(w * dataset.rewards))
    wsum = w.sum()
    diagnostics = {
        "effective_sample_size": float(wsum**2 / (w @ w)) if wsum > 0 else 0.0,
        "max_weight": float(w.max()),
    }
    return EstimateReport(value=value, per_sample_weights=w, diagnostics=diagnostics)


def v_dm(dataset_or_contexts, policy, imputation, action_count: Optional[int] = None) -> float:
    """Direct method: mean over contexts of sum_a pi(a|x) * imputed reward."""
    if isinstance(dataset_or_contexts, LoggedDataset):
        xs = dataset_or_contexts.xs
        action_count = dataset_or_contexts.action_count
    else:
        xs = np.asarray(dataset_or_contexts, dtype=float)
        if action_count is None:
            raise ValueError("action_count required when passing raw contexts")
    pi = policy_matrix(policy, xs)
    eta = imputation_matrix(imputation, xs, action_count)
    return float(np.mean(np.sum(pi * eta, axis=1)))


def v_dr(
    dataset: LoggedDataset,
    policy,
    model: LoggingModel,
    imputation,
    weight_kind: str = "bips",
    lam: Optional[float] = None,
    hp: Optional[UipsHyperParams] = None,
    beta_floor: float = 1e-8,
) -> float:
    """Direct method plus a propensity-weighted residual correction.

    ``weight_kind`` selects the correction weighting: plain bips or one of
    the shrink rules (minvar, shrinkage, uips).
    """
    n = np.arange(len(dataset))
    pi_all = policy_matrix(policy, dataset.xs)
    beta_all = model.beta_matrix(dataset.xs)
    pi_sel = pi_all[n, dataset.actions]
    beta_sel = np.maximum(beta_all[n, dataset.actions], beta_floor)
    if weight_kind == "bips":
        w = pi_sel / beta_sel
    else:
        us = None
        if weight_kind in ("uips", "uips_p", "uips_o"):
            us = uncertainties(model, dataset)
        phi = shrink_factors(
            weight_kind, pi_sel, beta_sel, actions=dataset.actions, us=us,
            pi_all=pi_all, beta_all=beta_all, lam=lam, hp=hp, beta_floor=beta_floor,
        )
        w = pi_sel / beta_sel * phi
    eta_sel = np.array(
        [imputation.predict(dataset.xs[i], int(dataset.actions[i])) for i in range(len(dataset))]
    )
    dm = v_dm(dataset, policy, imputation)
    return float(dm + np.mean(w * (dataset.rewards - eta_sel)))


def v_dice_s(dataset: LoggedDataset, policy, cap: float = np.inf) -> float:
    """Propensity weighting with empirical count propensities.

    Contexts are grouped by exact byte match; the propensity estimate for
    (x, a) is the fraction of the group's samples that chose a, and the
    resulting ratio is clipped at ``cap``.
    """
    groups: dict[bytes, list[int]] = {}
    for i in range(len(dataset)):
        groups.setdefault(dataset.xs[i].tobytes(), []).append(i)
    pi_sel = _pi_selected(policy, dataset)
    w = np.empty(len(dataset))
    for idx in groups.values():
        acts = dataset.actions[idx]
        counts = np.bincount(acts, minlength=dataset.action_count)
        emp = counts[acts] / len(idx)
        w[idx] = np.minimum(cap, pi_sel[idx] / emp)
    return float(np.mean(w * dataset.rewards))


def _enumeration_tables(
    env: BanditEnv,
    policy,
    model: Optional[LoggingModel],
    split: str,
    beta_floor: float,
):
    instances = env.split(split)
    xs = np.stack([inst.features for inst in instances])
    rewards = np.zeros((len(instances), env.action_count))
    for i, inst in enumerate(instances):
        rewards[i, sorted(inst.relevant_actions)] = 1.0
    beta_star = env.logging_policy.distribution_matrix(xs)
    pi = policy_matrix(policy, xs)
    beta_hat = None
    if model is not None:
        beta_hat = np.maximum(model.beta_matrix(xs), beta_floor)
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
    beta_floor: float = 1e-8,
    max_outcomes: int = 10_000,
) -> tuple[float, float, float]:
    """Exact bias/variance/MSE of a per-sample-mean estimator.

    Enumerates the distribution of a single logged draw (uniform context
    from the split, action from the true logging policy), computes the
    estimator's per-draw term t(x, a) for every outcome, and uses
    independence across the ``n_logged`` draws: the estimator's expectation
    is E[t] and its variance is Var(t)/n_logged.
    """
    instances = env.split(split)
    if len(instances) * env.action_count > max_outcomes:
        raise ValueError("environment too large to enumerate")
    if estimator_kind in ("snips", "dice_s"):
        raise ValueError(f"{estimator_kind} is not a per-sample mean; no exact enumeration")
    xs, rewards, beta_star, pi, beta_hat = _enumeration_tables(env, policy, model, split, beta_floor)

    if estimator_kind == "ips_true":
        t = pi / beta_star * rewards
    else:
        if beta_hat is None:
            raise ValueError(f"{estimator_kind} needs a logging model")
        ratio = pi / beta_hat
        if estimator_kind == "bips":
            t = ratio * rewards
        elif estimator_kind == "bips_cap":
            t = np.minimum(cap, ratio) * rewards
        elif estimator_kind in ("minvar", "stablevar"):
            pi_f = np.maximum(pi, PI_FLOOR)
            h = beta_hat / pi_f**2 if estimator_kind == "minvar" else np.sqrt(beta_hat) / pi_f
            phi = h / h.sum(axis=1, keepdims=True)
            t = ratio * phi * rewards
        elif estimator_kind == "shrinkage":
            phi = lam / (lam + ratio**2)
            t = ratio * phi * rewards
        elif estimator_kind in ("uips", "uips_p", "uips_o"):
            u_mat = uncertainty_matrix(model, xs)
            if estimator_kind == "uips":
                phi = phi_star_vector(pi.ravel(), beta_hat.ravel(), u_mat.ravel(), hp).reshape(pi.shape)
            elif estimator_kind == "uips_p":
                phi = np.exp(-hp.gamma * u_mat)
            else:
                phi = np.exp(hp.gamma * u_mat)
            t = ratio * phi * rewards
        else:
            raise ValueError(f"unknown estimator kind {estimator_kind!r}")

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
    beta_floor: float = 1e-8,
) -> float:
    """Bias-variance bound on the MSE of a phi-reweighted estimator.

    Squared bias is bounded through Cauchy-Schwarz by
    E_pi[r^2 pi/beta_star] * E_beta_star[(beta_star phi / beta_hat - 1)^2],
    and variance by E_beta_star[(pi phi r / beta_hat)^2] / n_logged. The
    bound holds for any per-pair phi table.
    """
    xs, rewards, beta_star, pi, beta_hat = _enumeration_tables(env, policy, model, split, beta_floor)
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


def _seed_cache(dataset: LoggedDataset, policy, model: LoggingModel, beta_floor: float) -> dict:
    """Per-dataset arrays shared by every estimator of one seed."""
    n = np.arange(len(dataset))
    pi_all = policy_matrix(policy, dataset.xs)
    beta_all = model.beta_matrix(dataset.xs)
    return {
        "dataset": dataset,
        "pi_all": pi_all,
        "beta_all": beta_all,
        "pi_sel": pi_all[n, dataset.actions],
        "beta_sel": np.maximum(beta_all[n, dataset.actions], beta_floor),
        "us": uncertainties(model, dataset),
        "rewards": dataset.rewards,
        "beta_floor": beta_floor,
    }


def _estimate_from_cache(cache: dict, weighting: Weighting) -> float:
    dataset = cache["dataset"]
    pi_sel, beta_sel, rewards = cache["pi_sel"], cache["beta_sel"], cache["rewards"]
    kind = weighting.kind
    if kind == "ips_true":
        if dataset.true_logging_probs is None:
            raise ValueError("dataset carries no true logging probabilities")
        return float(np.mean(pi_sel / dataset.true_logging_probs * rewards))
    ratio = pi_sel / beta_sel
    if kind == "bips":
        return float(np.mean(ratio * rewards))
    if kind == "bips_cap":
        return float(np.mean(np.minimum(weighting.cap, ratio) * rewards))
    if kind == "snips":
        return snips_from_weights(ratio, rewards)
    if kind == "dice_s":
        if "emp" not in cache:
            groups: dict[bytes, list[int]] = {}
            for i in range(len(dataset)):
                groups.setdefault(dataset.xs[i].tobytes(), []).append(i)
            emp = np.empty(len(dataset))
            for idx in groups.values():
                acts = dataset.actions[idx]
                counts = np.bincount(acts, minlength=dataset.action_count)
                emp[idx] = counts[acts] / len(idx)
            cache["emp"] = emp
        cap = weighting.cap if weighting.cap else np.inf
        return float(np.mean(np.minimum(cap, pi_sel / cache["emp"]) * rewards))
    phi = shrink_factors(
        kind, pi_sel, beta_sel, actions=dataset.actions, us=cache["us"],
        pi_all=cache["pi_all"], beta_all=cache["beta_all"],
        lam=weighting.lam, hp=weighting.hp, beta_floor=cache["beta_floor"],
    )
    return float(np.mean(ratio * phi * rewards))


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
    truth = true_policy_value(env, target_policy, split=split)
    rows = []
    for seed in seeds:
        rng = make_rng(seed)
        dataset = generate_log_per_context(env, samples_per_context, rng, split=split)
        model = fit_logging_policy(
            dataset,
            LoggingFitConfig(
                learning_rate=fit_config.learning_rate,
                epochs=fit_config.epochs,
                negatives=fit_config.negatives,
                l2=fit_config.l2,
                seed=seed,
            ),
        )
        model = accumulate_grams(dataset, model)
        cache = _seed_cache(dataset, target_policy, model, beta_floor=1e-8)
        for name, weighting in estimators:
            est = _estimate_from_cache(cache, weighting)
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
