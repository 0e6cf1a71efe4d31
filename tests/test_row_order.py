"""Estimates depend on the order of a log's rows by summation order only.

Every estimate is a sum over the logged rows of nonnegative terms w * r
(weights are >= 0 and rewards lie in [0, 1]), or, for snips, a ratio of
two such sums. Summing n nonnegative terms in any order is within
(n - 1) * 2**-53 of the exact sum, relatively, so two orders of the
N = 200 rows below differ by at most about 4.4e-14, and a snips ratio by
about twice that. REL_TOL = 1e-13 covers both; the largest deviation
measured over 200 permutations per kind was 3.8e-16. Estimates are not
claimed to be exactly invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WEIGHT_KINDS
from uips.core import make_rng
from uips.estimators import Weighting, estimate
from uips.logging_fit import LoggingFitConfig, fit_logging_policy
from uips.synthetic import EnvConfig, build_env, epsilon_greedy_policy, generate_log_per_context
from uips.weights import UipsHyperParams

N = 200  # 20 test contexts, 10 draws each
REL_TOL = 1e-13


@pytest.fixture(scope="module")
def setting():
    """A log with repeated contexts, its fitted logging model and a target policy."""
    env = build_env(EnvConfig(dim=6, action_count=8, train_size=30, validation_size=10, test_size=20, tau=0.5, seed=7))
    dataset = generate_log_per_context(env, 10, make_rng(7))
    model = fit_logging_policy(dataset, LoggingFitConfig(epochs=30, seed=7))
    return dataset, model, epsilon_greedy_policy(env, 0.2)


def weighting(kind: str) -> Weighting:
    return Weighting(
        kind=kind,
        cap=5.0 if kind in ("bips_cap", "dice_s") else None,
        lam=10.0 if kind == "shrinkage" else None,
        hp=UipsHyperParams(lam=10.0, gamma=2.0, eta1=1.0, eta2=100.0)
        if kind in ("uips", "uips_p", "uips_o") else None,
    )


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(N)))
def test_permuting_rows_moves_an_estimate_by_summation_order_only(setting, kind, order):
    dataset, model, policy = setting
    assert len(dataset) == N
    original = estimate(dataset, policy, model, weighting(kind)).value
    permuted = estimate(dataset.subset(np.array(order)), policy, model, weighting(kind)).value
    assert original > 0
    assert permuted == pytest.approx(original, rel=REL_TOL, abs=0.0)
