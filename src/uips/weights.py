"""Closed-form optimal instance weight for uncertain propensities.

Each logged sample's propensity ratio pi/beta_hat gets multiplied by a
weight phi chosen to minimize the worst case of the per-sample error proxy

    T(phi, beta) = lam * (beta * phi / beta_hat - 1)^2 + (pi / beta_hat)^2 * phi^2

over a multiplicative confidence interval for the unknown true logging
probability beta. The minimax solution is

    phi* = min( lam / [ (lam/eta1) e^{-g u} + eta1 (pi/beta_hat)^2 e^{g u} ],
                2 eta2 / (e^{g u} + e^{-g u}) )

with g u = gamma * uncertainty. The two eta knobs are deliberately
disentangled: eta1 only matters through eta1^2/lam in the first branch,
while eta2 caps the weight at 2*eta2 regardless of how small the
propensity gets. With u = 0 and eta1 = eta2 = 1 the weight reduces to the
plain shrinkage rule lam / (lam + (pi/beta_hat)^2).

``lam`` plays the role of the (unknowable) scale of the squared-bias term
and is treated as a fixed constant during learning; only its grid-search
range ships here, not any online estimate.

This module also carries the brute-force grid minimizer of the same
min-max problem, used as the verification oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uips.core import BETA_FLOOR
from uips.logging_fit import UncertaintyRecord

#: Hyper-parameter search ranges used by the sweep tooling.
DEFAULT_SWEEP_GRID = {
    "learning_rate": [1e-5, 1e-4, 1e-3, 1e-2],
    "lam": [0.5, 0.1, 1, 2, 5, 10, 15, 20, 25, 30, 40, 50],
    "gamma": [0.5, 0.1, 1, 2, 5, 10, 15, 20, 25, 30, 40, 50],
    "eta1": [0.5, 0.1, 1, 2, 5, 10, 15, 20, 25, 30, 40, 50],
    "eta2": [1, 10, 100, 1000],
}


#: Up to this gamma*u the weight is computed from e^{gamma u} directly.
#: Above it e^{gamma u} overflows (from about 709.78), so numerators and
#: denominators are first multiplied by e^{700 - gamma u}; the weight
#: there is below 2 * eta2 * e^{-700}.
GU_UNSCALED_MAX = 700.0


@dataclass(frozen=True)
class UipsHyperParams:
    """Weight hyper-parameters: lam, gamma and the two etas."""

    lam: float = 1.0
    gamma: float = 1.0
    eta1: float = 1.0
    eta2: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.eta1 <= 0 or self.eta2 <= 0:
            raise ValueError("eta1 and eta2 must be positive")

    @classmethod
    def from_dict(cls, obj: dict) -> "UipsHyperParams":
        return cls(**obj)


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

    Finite and within [0, 2 * eta2] for any valid input, including a
    gamma*u large enough that e^{gamma u} overflows.
    """
    gu = hp.gamma * winput.u
    ratio = winput.pi / max(winput.beta_hat, BETA_FLOOR)
    gu_capped = min(gu, GU_UNSCALED_MAX)
    scale = math.exp(gu_capped - gu)
    e_neg, e_pos = math.exp(-gu) * scale, math.exp(gu_capped)
    denom = (hp.lam / hp.eta1) * e_neg + hp.eta1 * ratio * ratio * e_pos
    first = hp.lam * scale / denom if denom > 0 else math.inf
    cap = 2.0 * hp.eta2 * scale / (e_pos + e_neg)
    if first <= cap:
        return first, "first_term"
    return cap, "cap"


def phi_star_vector(
    pis: np.ndarray, beta_hats: np.ndarray, us: np.ndarray, hp: UipsHyperParams
) -> np.ndarray:
    """Vectorized :func:`phi_star` over per-sample arrays; finite for any gamma*u."""
    gu = hp.gamma * np.asarray(us, dtype=float)
    ratio = np.asarray(pis, dtype=float) / np.maximum(beta_hats, BETA_FLOOR)
    e_neg, e_pos = np.exp(-gu), np.minimum(gu, GU_UNSCALED_MAX)
    np.exp(e_pos, out=e_pos)
    scale = 1.0
    # tested first so that the common case allocates no extra arrays
    if gu.max(initial=0.0) > GU_UNSCALED_MAX:
        scale = np.exp(np.minimum(GU_UNSCALED_MAX - gu, 0.0))
        e_neg *= scale
    # a denominator that overflows to inf gives a first term of 0, its limit
    with np.errstate(over="ignore", divide="ignore"):
        denom = (hp.lam / hp.eta1) * e_neg + hp.eta1 * ratio * ratio * e_pos
        first = np.divide(hp.lam * scale, denom, out=np.full_like(denom, np.inf), where=denom > 0)
    cap = 2.0 * hp.eta2 * scale / (e_pos + e_neg)
    return np.minimum(first, cap)


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

    Test oracle for the closed form: it never touches the analytic solution,
    it just evaluates T at both endpoints on a dense phi grid and returns the
    grid argmin. Callers cover the closed form's range by passing
    phi_max = 2 * eta2.
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
