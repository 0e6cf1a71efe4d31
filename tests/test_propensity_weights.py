"""Properties of the one propensity-weight kernel on randomly generated tables.

The tables are drawn directly, not through ``propensity_tables``: target
rows with zeros allowed, strictly positive logging rows, uncertainties,
count propensities and true propensities in their valid ranges.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import WEIGHT_KINDS
from uips.core import BETA_FLOOR, LoggedDataset
from uips.estimators import (
    PropensityTables,
    Weighting,
    propensity_tables,
    propensity_weights,
)
from uips.weights import UipsHyperParams

# gamma * u reaches 5,000, far past where exp(gamma * u) overflows (about 709.78)
MAX_U, MAX_GAMMA = 100.0, 50.0


@st.composite
def table_columns(draw):
    n = draw(st.integers(1, 12))
    a = draw(st.integers(1, 6))
    pi = draw(arrays(float, (n, a), elements=st.floats(0.0, 1.0)))
    totals = pi.sum(axis=1, keepdims=True)
    pi = np.where(totals > 0, pi / np.where(totals > 0, totals, 1.0), 1.0 / a)
    beta = draw(arrays(float, (n, a), elements=st.floats(1e-9, 1.0)))
    beta /= beta.sum(axis=1, keepdims=True)
    return {
        "pi": pi,
        "beta": beta,
        "actions": draw(arrays(np.intp, n, elements=st.integers(0, a - 1))),
        "us": draw(arrays(float, n, elements=st.floats(0.0, MAX_U))),
        "counts": draw(arrays(float, n, elements=st.floats(1e-3, 1.0))),
        "true_probs": draw(arrays(float, n, elements=st.floats(1e-6, 1.0))),
    }


def make_tables(columns, order):
    """Tables of the samples in ``order``, one row per sample, and the target's rows."""
    actions = columns["actions"][order]
    rows = np.arange(len(order))
    beta = columns["beta"][order]
    return PropensityTables(
        rows=rows, actions=actions, true_probs=columns["true_probs"][order],
        beta_sel=np.maximum(beta[rows, actions], BETA_FLOOR), beta_rows=beta,
        us=columns["us"][order], counts=columns["counts"][order],
    ), columns["pi"][order]


weightings = st.builds(
    lambda kind, cap, lam, gamma, eta1, eta2: Weighting(
        kind=kind,
        cap=cap if kind in ("bips_cap", "dice_s") else None,
        lam=lam if kind == "shrinkage" else None,
        hp=UipsHyperParams(lam=lam, gamma=gamma, eta1=eta1, eta2=eta2)
        if kind in ("uips", "uips_p", "uips_o") else None,
    ),
    st.sampled_from(WEIGHT_KINDS + ("ce",)),
    st.floats(0.1, 100.0),
    st.floats(0.0, 100.0),
    st.floats(0.0, MAX_GAMMA),
    st.floats(0.1, 10.0),
    st.floats(0.1, 100.0),
)


@settings(max_examples=300, deadline=None)
@given(table_columns(), weightings, st.randoms(use_true_random=False))
def test_weights_are_finite_nonnegative_and_follow_a_permutation(columns, weighting, random):
    n = len(columns["actions"])
    w = propensity_weights(weighting, *make_tables(columns, np.arange(n)))
    assert w.shape == (n,)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    perm = np.array(random.sample(range(n), n))
    np.testing.assert_array_equal(propensity_weights(weighting, *make_tables(columns, perm)), w[perm])


@pytest.mark.parametrize("kind", WEIGHT_KINDS + ("ce",))
def test_every_kind_is_covered(kind):
    # the property test draws kinds at random; make sure each one runs
    columns = {
        "pi": np.array([[0.0, 1.0], [0.5, 0.5]]), "beta": np.array([[0.3, 0.7], [0.9, 0.1]]),
        "actions": np.array([0, 1]), "us": np.array([0.0, 2.0]),
        "counts": np.array([0.5, 1.0]), "true_probs": np.array([0.25, 0.5]),
    }
    hp = UipsHyperParams(lam=0.0, gamma=3.0, eta1=1.0, eta2=2.0)
    weighting = Weighting(kind=kind, cap=2.0 if kind in ("bips_cap", "dice_s") else None,
                          lam=0.0 if kind == "shrinkage" else None,
                          hp=hp if kind.startswith("uips") else None)
    w = propensity_weights(weighting, *make_tables(columns, np.arange(2)))
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)


def test_uips_o_saturates_where_exp_overflows():
    columns = {
        "pi": np.array([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]),
        "beta": np.array([[0.5, 0.5], [0.5, 0.5], [1e-9, 1.0]]),
        "actions": np.array([0, 1, 0]), "us": np.array([1.0, 1.0, 0.875]),
        "counts": np.ones(3), "true_probs": np.ones(3),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = propensity_weights(Weighting(kind="uips_o", hp=UipsHyperParams(gamma=800.0)),
                               *make_tables(columns, np.arange(3)))
    # pi = 0 weighs 0; e^{800} overflows; e^{700} is finite, but 5e8 times it is not
    np.testing.assert_array_equal(w, [0.0, np.finfo(float).max, np.finfo(float).max])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                                                      min_size=1, max_size=40))
def test_count_propensities_sum_to_one_per_context(n_contexts, action_count, draws):
    contexts = np.arange(n_contexts * 2, dtype=float).reshape(n_contexts, 2)
    pairs = [(c % n_contexts, a % action_count) for c, a in draws]
    ctx = np.array([c for c, _ in pairs])
    actions = np.array([a for _, a in pairs])
    ds = LoggedDataset(xs=contexts[ctx], actions=actions, rewards=np.ones(len(pairs)),
                       action_count=action_count)
    emp = propensity_tables(ds, None).counts
    assert np.all((emp > 0) & (emp <= 1))
    for c in np.unique(ctx):
        per_action = {int(a): emp[i] for i, a in enumerate(actions) if ctx[i] == c}
        assert sum(per_action.values()) == pytest.approx(1.0, abs=1e-12)
