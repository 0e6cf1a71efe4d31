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
range ships here, not any online estimate. :func:`_phi_star` is the one
implementation of phi*, which :func:`phi_star_vector` and the weight kernel
:func:`uips.estimators.each_propensity_weights` call; the brute-force grid
minimizer that checks it lives with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uips.core import _real

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
    """Weight hyper-parameters: lam, gamma and the two etas.

    The field defaults are the one set of defaults for every partial ``hp``
    or ``uips_hp`` a config gives, and ``lam`` is also the default of
    ``ope.shrinkage_lam``.
    """

    lam: float = 10.0
    gamma: float = 5.0
    eta1: float = 1.0
    eta2: float = 100.0

    def __post_init__(self):
        for name in ("lam", "gamma", "eta1", "eta2"):
            _real(getattr(self, name), name)
        # written so that NaN fails every check; an infinite eta2 means no cap
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not (0 < self.eta1 < np.inf and self.eta2 > 0):
            raise ValueError("eta1 must be finite and positive, eta2 positive")


def phi_star_vector(ratios: np.ndarray, us: np.ndarray, hp: UipsHyperParams) -> tuple[np.ndarray, np.ndarray]:
    """Minimax weights for per-sample ratios pi / beta_hat and uncertainties u,
    and where the cap branch gave them.

    Returns ``(phi, on_cap)``; a tie goes to the first term, and at lam = 0 phi is 0. Finite and
    within [0, 2 * eta2] for any valid input, including a gamma*u large
    enough that e^{gamma u} overflows. An infinite eta2 counts as half the
    largest float, so that phi stays finite and a weight ratio * phi is
    never 0 * inf. The caller floors beta_hat where it divides, as
    :func:`uips.estimators.propensity_tables` does.
    """
    return _phi_star(np.asarray(ratios, dtype=float), _exponentials(hp.gamma * np.asarray(us, dtype=float)), hp)


def _phi_star(ratio: np.ndarray, terms: tuple, hp: UipsHyperParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`phi_star_vector` from the :func:`_exponentials` of gamma * u, which a caller
    holding one uncertainty column can share among the weightings of one gamma."""
    e_neg, e_pos, scale, e_sum = terms
    # a denominator that overflows to inf gives a first term of 0, its limit; one that is 0
    # (ratio * ratio is 0, and so is lam or e^{-gu}) gives inf, the limit for lam > 0, and at
    # lam = 0 the first term is 0 on every cell
    with np.errstate(over="ignore", divide="ignore"):
        denom = (hp.lam / hp.eta1) * e_neg + hp.eta1 * ratio * ratio * e_pos
        first = np.divide(hp.lam * scale, denom, out=np.full_like(denom, np.inf if hp.lam else 0.0), where=denom > 0)
    cap = 2.0 * min(hp.eta2, np.finfo(float).max / 2) * scale / e_sum
    return np.minimum(first, cap), first > cap


def _exponentials(gu: np.ndarray) -> tuple:
    """The terms of phi* that depend on gamma * u alone: e^{-gu} times the scale,
    e^{min(gu, 700)} (e^{gu} times the scale), the scale, and the sum of the two."""
    e_neg, e_pos = np.exp(-gu), np.minimum(gu, GU_UNSCALED_MAX)
    np.exp(e_pos, out=e_pos)
    scale = 1.0
    # tested first so that the common case allocates no extra arrays
    if gu.max(initial=0.0) > GU_UNSCALED_MAX:
        scale = np.exp(np.minimum(GU_UNSCALED_MAX - gu, 0.0))
        e_neg *= scale
    return e_neg, e_pos, scale, e_pos + e_neg
