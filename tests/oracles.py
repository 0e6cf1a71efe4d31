"""Exact references that the tests check the package against.

Nothing under ``src/uips`` imports this module, so an oracle here cannot
come to depend on the code it checks. It holds:

- the brute-force grid minimizer of the min-max problem behind the
  closed-form weight phi*, with the per-sample error proxy T(phi, beta),
  its worst case over a confidence interval and the cap-region threshold;
- one-sample views of the package's vectorized phi* (acceptance criteria
  01 to 03 check the product formula through them) and of a policy's
  ``distribution_matrix``;
- the scalar ellipsoid half-width, solved without the package's Cholesky
  path;
- a bias-variance bound on the MSE of a phi-reweighted estimator;
- the gradient of log pi(a|x) of a softmax-linear policy;
- the ranking metrics P@k, R@k and NDCG@k of one ranked context, and the
  split means and the exact policy value computed one context at a time;
- the tabular reward imputation, the direct-method and doubly robust
  value estimates, and one cell of an imputation's reward table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from uips.core import BETA_FLOOR
from uips.estimators import ConstantImputation, propensity_tables, propensity_weights
from uips.synthetic import TabularPolicy
from uips.weights import UipsHyperParams, phi_star_vector


@dataclass(frozen=True)
class WeightInput:
    """Per-sample ingredients of the weight: pi, beta_hat and the uncertainty."""

    pi: float
    beta_hat: float
    u: float

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError("pi must lie in [0, 1]")
        if not 0.0 < self.beta_hat <= 1.0:
            raise ValueError("beta_hat must lie in (0, 1]")
        if self.u < 0:
            raise ValueError("u must be nonnegative")


def phi_star(winput: WeightInput, hp: UipsHyperParams) -> float:
    """Minimax-optimal instance weight; never exceeds 2 * eta2."""
    value, _ = phi_star_branch(winput, hp)
    return value


def phi_star_branch(winput: WeightInput, hp: UipsHyperParams) -> tuple[float, str]:
    """Weight plus which branch produced it ('first_term' or 'cap').

    The one-sample view of :func:`uips.weights.phi_star_vector`.
    """
    ratio = winput.pi / max(winput.beta_hat, BETA_FLOOR)
    phi, on_cap = phi_star_vector(np.array([ratio]), np.array([winput.u]), hp)
    return float(phi[0]), "cap" if on_cap[0] else "first_term"


def distribution(policy, x: np.ndarray) -> np.ndarray:
    """The probability vector of ``policy`` in the one context ``x``: row 0 of its
    ``distribution_matrix`` of ``[x]``."""
    return policy.distribution_matrix(np.asarray(x, dtype=float)[None])[0]


def prob(policy, x: np.ndarray, action: int) -> float:
    """pi(action|x) of ``policy``, one entry of :func:`distribution`."""
    return float(distribution(policy, x)[action])


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


def minmax_objective(phi: float, beta: float, winput: WeightInput, lam: float) -> float:
    """Per-sample error proxy T(phi, beta) for a candidate true probability beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    bias_term = beta * phi / winput.beta_hat - 1.0
    ratio = winput.pi / winput.beta_hat
    return lam * bias_term * bias_term + ratio * ratio * phi * phi


def worst_case_beta(
    phi: float, interval: UncertaintyRecord, winput: WeightInput, lam: float
) -> float:
    """Interval endpoint maximizing T(phi, .); ties resolve to the upper endpoint.

    Only the squared-bias term depends on beta, so the maximizer is the
    endpoint farther from beta_hat/phi; equivalently the lower endpoint
    exactly when beta_hat/phi exceeds the interval midpoint.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    midpoint = 0.5 * (interval.interval_low + interval.interval_high)
    if winput.beta_hat / phi > midpoint:
        return interval.interval_low
    return interval.interval_high


def worst_case_objective(
    phi: float, interval: UncertaintyRecord, winput: WeightInput, lam: float
) -> float:
    """max over both interval endpoints of T(phi, .)."""
    return max(
        minmax_objective(phi, interval.interval_low, winput, lam),
        minmax_objective(phi, interval.interval_high, winput, lam),
    )


def oracle_phi(
    interval: UncertaintyRecord,
    winput: WeightInput,
    lam: float,
    grid_resolution: int = 20_000,
    phi_max: float = 2.0,
) -> float:
    """Brute-force grid minimizer of the worst-case objective over (0, phi_max].

    It never touches the closed form: it evaluates T at both endpoints on a
    dense phi grid and returns the grid argmin. Callers cover the closed
    form's range by passing phi_max = 2 * eta2.
    """
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    phis = np.linspace(phi_max / grid_resolution, phi_max, grid_resolution)
    ratio = winput.pi / winput.beta_hat
    t_low = lam * (interval.interval_low * phis / winput.beta_hat - 1.0) ** 2
    t_high = lam * (interval.interval_high * phis / winput.beta_hat - 1.0) ** 2
    second = (ratio * phis) ** 2
    worst = np.maximum(t_low, t_high) + second
    return float(phis[int(np.argmin(worst))])


def cap_region_threshold(lam: float, eta: float, gamma: float, u: float) -> float:
    """Ratio threshold below which the cap branch is declared active.

    Computed as sqrt(lam/(2 eta^2) - lam (1-eta) exp(-2 gamma u) / eta^2).
    For eta >= 1/2 this is an upper bound on the exact branch-crossing
    threshold sqrt(lam (1 - exp(-2 gamma u)) / (2 eta^2)), so a ratio above
    it guarantees the first branch is the active one.
    """
    inner = lam / (2.0 * eta * eta) - lam * (1.0 - eta) * math.exp(-2.0 * gamma * u) / (eta * eta)
    if inner < 0:
        return math.nan
    return math.sqrt(inner)


def uncertainty(model, x: np.ndarray, action: int) -> float:
    """Ellipsoid half-width sqrt(g' M_a^{-1} g) with g = x/tau, by a plain linear solve."""
    if not 0 <= action < model.policy.action_count:
        raise ValueError("action out of range")
    g = np.asarray(x, dtype=float) / model.policy.tau
    if g.shape != (model.policy.dim,):
        raise ValueError("context length does not match the model")
    return float(np.sqrt(max(g @ np.linalg.solve(model.grams[action], g), 0.0)))


def mse_upper_bound(env, policy, model, phi_table: np.ndarray, n_logged: int, split: str = "train") -> float:
    """Bias-variance bound on the MSE of a phi-reweighted estimator.

    Squared bias is bounded through Cauchy-Schwarz by
    E_pi[r^2 pi/beta_star] * E_beta_star[(beta_star phi / beta_hat - 1)^2],
    and variance by E_beta_star[(pi phi r / beta_hat)^2] / n_logged, every
    expectation taken over the enumerated (context, action) cells of the
    split. The bound holds for any per-pair phi table.
    """
    data = env.split(split)
    xs, rewards = data.xs, data.rewards
    beta_star = env.logging_policy.distribution_matrix(xs)
    pi = policy.distribution_matrix(xs)
    beta_hat = np.maximum(model.beta_matrix(xs), BETA_FLOOR)
    n_ctx = xs.shape[0]
    lam_true = float((pi * rewards**2 * (pi / beta_star)).sum() / n_ctx)
    delta = beta_star * phi_table / beta_hat - 1.0
    bias_sq = lam_true * float((beta_star * delta**2).sum() / n_ctx)
    var_term = float((beta_star * (pi / beta_hat * phi_table * rewards) ** 2).sum() / n_ctx) / n_logged
    return bias_sq + var_term


def log_prob_grad(policy, x: np.ndarray, action: int) -> np.ndarray:
    """Gradient of log pi(action|x) with respect to theta of a softmax-linear ``policy``.

    Row a' equals x/tau * (1{a'==action} - pi(a'|x)); rows sum to zero.
    """
    if not 0 <= action < policy.action_count:
        raise ValueError(f"action {action} out of range [0, {policy.action_count})")
    x = np.asarray(x, dtype=float)
    coeff = -distribution(policy, x)
    coeff[action] += 1.0
    return np.outer(coeff, x / policy.tau)


def rank_actions(scores: np.ndarray) -> np.ndarray:
    """Action ids sorted by descending score; ties break by ascending id."""
    scores = np.asarray(scores, dtype=float)
    return np.lexsort((np.arange(scores.size), -scores))


def _top_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> tuple[set, Sequence[int]]:
    """The relevant set and the first k ranked actions (all of them when fewer)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = set(relevant)
    if not rel:
        raise ValueError("relevant set must be non-empty")
    return rel, ranked[: min(k, len(ranked))]


def precision_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    rel, top = _top_k(ranked, relevant, k)
    return sum(1 for a in top if a in rel) / len(top)


def recall_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    rel, top = _top_k(ranked, relevant, k)
    return sum(1 for a in top if a in rel) / len(rel)


def ndcg_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    """Binary-gain NDCG with discount 1/log2(rank + 1), rank starting at 1."""
    rel, top = _top_k(ranked, relevant, k)
    dcg = sum(1.0 / math.log2(i + 2) for i, a in enumerate(top) if a in rel)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(top), len(rel))))
    return dcg / ideal


def evaluate_policy_loop(policy, split, k: int) -> tuple[float, float, float]:
    """Mean P@k, R@k and NDCG@k over ``split``, ranking one context at a time
    by :func:`distribution`."""
    p_sum = r_sum = n_sum = 0.0
    for x, row in zip(split.xs, split.rewards):
        ranked = rank_actions(distribution(policy, x))
        relevant = np.flatnonzero(row).tolist()
        p_sum += precision_at_k(ranked, relevant, k)
        r_sum += recall_at_k(ranked, relevant, k)
        n_sum += ndcg_at_k(ranked, relevant, k)
    n = len(split)
    return p_sum / n, r_sum / n, n_sum / n


def true_policy_value_loop(env, policy, split: str = "test") -> float:
    """Expected reward of ``policy`` on the split, summed one context at a time."""
    data = env.split(split)
    total = 0.0
    for x, row in zip(data.xs, data.rewards):
        p = distribution(policy, x)
        total += sum(p[a] for a in np.flatnonzero(row).tolist())
    return total / len(data)


class TabularImputation:
    """Reward model backed by an exact-match context table."""

    def __init__(self, contexts: np.ndarray, table: np.ndarray):
        # reward rows share the tabular policy's exact-context lookup
        self.lookup = TabularPolicy(contexts=contexts, probs=table)
        if self.lookup.probs.min() < 0 or self.lookup.probs.max() > 1:
            raise ValueError("imputed rewards must lie in [0, 1]")

    @classmethod
    def from_env(cls, env, split: str = "test") -> "TabularImputation":
        """The oracle imputation: the split's true 0/1 reward table."""
        data = env.split(split)
        return cls(data.xs, data.rewards)

    def predict_matrix(self, xs: np.ndarray, action_count: int) -> np.ndarray:
        return self.lookup.distribution_matrix(xs)


def v_dm(dataset, policy, imputation) -> float:
    """Direct method: mean over contexts of sum_a pi(a|x) * imputed reward."""
    pi = policy.distribution_matrix(dataset.xs)
    eta = imputation.predict_matrix(dataset.xs, dataset.action_count)
    return float(np.mean(np.sum(pi * eta, axis=1)))


def v_dr(dataset, policy, model, imputation, weighting) -> float:
    """Direct method plus a ``weighting``-weighted residual correction."""
    tables = propensity_tables(dataset, model)
    pi_rows = policy.distribution_matrix(tables.contexts)
    eta = imputation.predict_matrix(dataset.xs, dataset.action_count)
    dm = np.mean(np.sum(pi_rows[tables.rows] * eta, axis=1))
    residual = dataset.rewards - eta[np.arange(len(dataset)), tables.actions]
    return float(dm + np.mean(propensity_weights(weighting, tables, pi_rows) * residual))


def imputed_reward(imputation, x, action: int) -> float:
    """The reward ``imputation`` predicts for ``action`` in the context ``x``."""
    if isinstance(imputation, ConstantImputation):
        return imputation.value
    return prob(imputation.lookup, x, action)
