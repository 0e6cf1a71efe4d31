import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import phi_star_scalar_reference, sample_weight_instances
from oracles import (
    UncertaintyRecord,
    WeightInput,
    cap_region_threshold,
    confidence_interval,
    minmax_objective,
    oracle_phi,
    phi_star,
    phi_star_branch,
    worst_case_beta,
    worst_case_objective,
)
from uips.core import BETA_FLOOR, make_rng
from uips.estimators import PropensityTables, Weighting, each_propensity_weights, propensity_weights
from uips.weights import DEFAULT_SWEEP_GRID, GU_UNSCALED_MAX, UipsHyperParams, phi_star_vector


class TestPhiStar:
    def test_reduces_to_shrinkage_at_zero_uncertainty(self):
        hp = UipsHyperParams(lam=1.0, gamma=1.0, eta1=1.0, eta2=1.0)
        winput = WeightInput(pi=0.2, beta_hat=0.2, u=0.0)
        assert phi_star(winput, hp) == pytest.approx(1.0 / (1.0 + 1.0**2), abs=1e-15)

    def test_zero_pi_hits_the_cap(self):
        hp = UipsHyperParams(lam=1.0, gamma=1.0, eta1=1.0, eta2=1.0)
        winput = WeightInput(pi=0.0, beta_hat=0.2, u=math.log(2.0))
        value, branch = phi_star_branch(winput, hp)
        # first branch is e^{gu} = 2; cap is 2/(2 + 1/2) = 0.8
        assert value == pytest.approx(0.8, abs=1e-12)
        assert branch == "cap"

    def test_hand_evaluated_instance(self):
        hp = UipsHyperParams(lam=4.0, gamma=1.0, eta1=1.0, eta2=10.0)
        winput = WeightInput(pi=0.4, beta_hat=0.2, u=0.0)
        # min(4 / (4 + 4), 10) = 0.5
        assert phi_star(winput, hp) == pytest.approx(0.5, abs=1e-15)

    def test_shrinkage_special_case_on_random_instances(self):
        rng = make_rng(20)
        for _ in range(300):
            lam = float(10.0 ** rng.uniform(-1, 1.7))
            beta_hat = float(10.0 ** rng.uniform(-3, 0))
            pi = min(1.0, float(10.0 ** rng.uniform(-3, 3)) * beta_hat)
            hp = UipsHyperParams(lam=lam, gamma=0.0, eta1=1.0, eta2=1.0)
            got = phi_star(WeightInput(pi=pi, beta_hat=beta_hat, u=float(rng.uniform(0, 3))), hp)
            ratio = pi / beta_hat
            assert got == pytest.approx(lam / (lam + ratio**2), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_bounded_by_twice_eta2(self, lam, gamma, eta1, eta2, seed):
        rng = make_rng(seed)
        hp = UipsHyperParams(lam=lam, gamma=gamma, eta1=eta1, eta2=eta2)
        beta_hat = float(10.0 ** rng.uniform(-4, 0))
        pi = min(1.0, float(10.0 ** rng.uniform(-4, 4)) * beta_hat)
        value = phi_star(WeightInput(pi=pi, beta_hat=beta_hat, u=float(rng.uniform(0, 4))), hp)
        assert 0.0 < value <= 2.0 * eta2 + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = make_rng(21)
        hp = UipsHyperParams(lam=3.0, gamma=2.0, eta1=0.7, eta2=5.0)
        pis = rng.uniform(0, 1, 50)
        betas = rng.uniform(1e-3, 1, 50)
        us = rng.uniform(0, 3, 50)
        vec, on_cap = phi_star_vector(pis / betas, us, hp)
        for i in range(50):
            winput = WeightInput(pi=pis[i], beta_hat=betas[i], u=us[i])
            value, branch = phi_star_scalar_reference(winput, hp)
            assert vec[i] == pytest.approx(value, abs=1e-14)
            assert on_cap[i] == (branch == "cap")

    @pytest.mark.parametrize("gu", [700.0, 710.0, 1e4])
    @pytest.mark.parametrize("pi, beta_hat", [(0.0, 0.1), (0.3, 0.1), (1.0, 1e-9)])
    def test_large_gamma_u_is_finite_and_scalar_matches_vector(self, gu, pi, beta_hat):
        hp = UipsHyperParams(lam=10.0, gamma=50.0, eta1=1.0, eta2=100.0)
        u = gu / hp.gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = phi_star_scalar_reference(WeightInput(pi=pi, beta_hat=beta_hat, u=u), hp)
            vec, _ = phi_star_vector(np.array([pi / max(beta_hat, BETA_FLOOR)]), np.array([u]), hp)
        assert math.isfinite(value) and 0.0 <= value <= 2.0 * hp.eta2
        assert vec[0] == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gu", [1.0, 710.0, 800.0, 1e4])
    def test_infinite_eta2_gives_finite_weights(self, gu):
        # an infinite eta2 means no cap, yet the weight where pi = 0 is 0, never 0 * inf
        hp = UipsHyperParams(lam=10.0, gamma=50.0, eta1=1.0, eta2=math.inf)
        pis, beta_hats = np.array([0.0, 0.3, 1.0]), np.array([0.1, 0.1, 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, _ = phi_star_vector(pis / np.maximum(beta_hats, BETA_FLOOR), np.full(3, gu / hp.gamma), hp)
            weights = pis / beta_hats * phi
        assert np.all(np.isfinite(phi) & (phi >= 0)) and np.all(np.isfinite(weights))
        assert weights[0] == 0.0

    def test_values_up_to_gamma_u_700_are_the_unscaled_formula(self):
        # the direct formula, before large gamma*u was rescaled
        def unscaled_vector(pis, beta_hats, us, hp):
            gu = hp.gamma * us
            ratio = pis / np.maximum(beta_hats, BETA_FLOOR)
            e_neg, e_pos = np.exp(-gu), np.exp(gu)
            with np.errstate(over="ignore", divide="ignore"):
                denom = (hp.lam / hp.eta1) * e_neg + hp.eta1 * ratio * ratio * e_pos
                first = np.divide(hp.lam, denom, out=np.full_like(denom, np.inf), where=denom > 0)
            return np.minimum(first, 2.0 * hp.eta2 / (e_pos + e_neg))

        rng = make_rng(22)
        hp = UipsHyperParams(lam=3.0, gamma=50.0, eta1=0.7, eta2=5.0)
        pis = np.append(rng.uniform(0, 1, 200), 0.0)
        betas = np.append(10.0 ** rng.uniform(-9, 0, 200), 0.5)
        us = np.append(rng.uniform(0, 700 / hp.gamma, 200), 700 / hp.gamma)
        # two entries above 700 take the rescaled form without touching the rest
        ratios = pis / np.maximum(betas, BETA_FLOOR)
        vec, _ = phi_star_vector(np.append(ratios, [0.3 / 0.1, 0.3 / 0.1]),
                                 np.append(us, [710.0 / hp.gamma, 1e4 / hp.gamma]), hp)
        np.testing.assert_array_equal(vec[:-2], unscaled_vector(pis, betas, us, hp))
        np.testing.assert_array_equal(vec[:-2], phi_star_vector(ratios, us, hp)[0])
        assert np.all((vec[-2:] >= 0.0) & (vec[-2:] <= 2.0 * hp.eta2))
        # the scalar view runs the vector formula
        for pi, beta, u in zip(pis.tolist(), betas.tolist(), us.tolist()):
            value, _ = phi_star_branch(WeightInput(pi=pi, beta_hat=beta, u=u), hp)
            assert value == unscaled_vector(np.array([pi]), np.array([beta]), np.array([u]), hp)[0]


def test_shared_exponentials_keep_each_weightings_bits():
    # a stream of uips weightings takes the exponentials once per gamma; every weight must
    # still equal ratio * phi* of its own call, across the rescaled branch (gamma u > 700),
    # an infinite eta2 and lam = 0
    rng = make_rng(23)
    us = np.concatenate([rng.uniform(0, 3, 300), [0.0, 14.0, 14.5, 200.0]])
    ratios = np.concatenate([10.0 ** rng.uniform(-4, 3, 300), [0.0, 0.0, 3.0, 1e6]])
    n = len(us)
    tables = PropensityTables(rows=np.arange(n), actions=np.zeros(n, dtype=int), beta_sel=np.ones(n), us=us)
    weightings = [
        Weighting(kind="uips", hp=UipsHyperParams(lam=lam, gamma=gamma, eta1=eta1, eta2=eta2))
        for lam in (0.0, 0.5, 10.0)
        for gamma in (0.1, 50.0, 1.0)
        for eta1, eta2 in ((0.5, 100.0), (2.0, math.inf), (1.0, 1.0))
    ]
    assert (50.0 * us).max() == 10_000.0 > GU_UNSCALED_MAX
    stream = list(each_propensity_weights(weightings, tables, ratios[:, None]))
    assert len(stream) == 27
    for weighting, w in zip(weightings, stream):
        np.testing.assert_array_equal(w, ratios * phi_star_vector(ratios, us, weighting.hp)[0])


def test_a_stream_on_model_free_tables_stops_at_the_first_model_kind():
    # tables without a logging model serve ce, ips_true and dice_s; the first kind that
    # reads beta_hat raises where it is reached, after the earlier weights are yielded
    tables = PropensityTables(
        rows=np.array([0, 0, 1]), actions=np.array([0, 1, 1]),
        true_probs=np.array([0.5, 0.5, 0.25]), counts=np.array([0.5, 0.5, 1.0]),
    )
    pi_rows = np.array([[0.2, 0.8], [0.6, 0.4]])
    stream = each_propensity_weights(
        [Weighting(kind="ce"), Weighting(kind="ips_true"), Weighting(kind="dice_s", cap=1.2),
         Weighting(kind="bips"), Weighting(kind="ce")],
        tables, pi_rows,
    )
    np.testing.assert_array_equal(next(stream), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(next(stream), [0.2 / 0.5, 0.8 / 0.5, 0.4 / 0.25])
    np.testing.assert_array_equal(next(stream), [0.2 / 0.5, 1.2, 0.4])
    with pytest.raises(ValueError, match="bips weighting needs a logging model"):
        next(stream)


class TestMinmaxObjective:
    def test_zero_when_phi_cancels_and_pi_zero(self):
        winput = WeightInput(pi=0.0, beta_hat=0.4, u=0.0)
        assert minmax_objective(0.4 / 0.25, 0.25, winput, lam=2.0) == pytest.approx(0.0, abs=1e-15)

    def test_first_term_vanishes_at_beta_hat(self):
        winput = WeightInput(pi=0.3, beta_hat=0.2, u=0.0)
        assert minmax_objective(1.0, 0.2, winput, lam=5.0) == pytest.approx((0.3 / 0.2) ** 2, abs=1e-12)

    def test_hand_arithmetic(self):
        winput = WeightInput(pi=0.2, beta_hat=0.2, u=0.0)
        got = minmax_objective(1.0, 0.1, winput, lam=1.0)
        assert got == pytest.approx((0.5 - 1.0) ** 2 + 1.0, abs=1e-12)  # = 1.25


class TestWorstCaseBeta:
    def test_farther_endpoint_wins(self):
        winput = WeightInput(pi=0.1, beta_hat=0.2, u=0.5)
        interval = UncertaintyRecord(u=0.5, interval_low=0.1, interval_high=0.25)
        assert worst_case_beta(1.0, interval, winput, lam=1.0) == 0.1

    def test_degenerate_interval(self):
        winput = WeightInput(pi=0.1, beta_hat=0.2, u=0.0)
        interval = UncertaintyRecord(u=0.0, interval_low=0.2, interval_high=0.2)
        assert worst_case_beta(1.3, interval, winput, lam=1.0) == 0.2

    def test_tie_resolves_to_upper_endpoint(self):
        winput = WeightInput(pi=0.1, beta_hat=0.2, u=0.5)
        interval = UncertaintyRecord(u=0.5, interval_low=0.15, interval_high=0.25)
        # beta_hat / phi = 0.2 equals the midpoint exactly
        assert worst_case_beta(1.0, interval, winput, lam=1.0) == 0.25

    def test_agrees_with_direct_objective_comparison(self):
        for winput, interval, lam in sample_weight_instances(200, seed=22):
            for phi in (0.3, 1.0, 1.7):
                chosen = worst_case_beta(phi, interval, winput, lam)
                t_chosen = minmax_objective(phi, chosen, winput, lam)
                t_other = max(
                    minmax_objective(phi, interval.interval_low, winput, lam),
                    minmax_objective(phi, interval.interval_high, winput, lam),
                )
                assert t_chosen == pytest.approx(t_other, rel=1e-12)


class TestOraclePhi:
    def test_matches_shrinkage_closed_form_without_uncertainty(self):
        rng = make_rng(23)
        for _ in range(30):
            lam = float(10.0 ** rng.uniform(-1, 1.7))
            beta_hat = float(rng.uniform(0.01, 1.0))
            pi = min(1.0, float(rng.uniform(0, 3)) * beta_hat)
            winput = WeightInput(pi=pi, beta_hat=beta_hat, u=0.0)
            interval = confidence_interval(beta_hat, 0.0, 0.0, 1.0)
            grid = oracle_phi(interval, winput, lam, grid_resolution=20_000, phi_max=2.0)
            closed = lam / (lam + (pi / beta_hat) ** 2)
            assert abs(grid - closed) <= 2.0 / 20_000 + 1e-12

    def test_oracle_never_beats_closed_form(self):
        for winput, interval, lam in sample_weight_instances(300, seed=24):
            hp = UipsHyperParams(lam=lam, gamma=1.0, eta1=1.0, eta2=1.0)
            grid = oracle_phi(interval, winput, lam, grid_resolution=20_000, phi_max=2.0)
            assert worst_case_objective(phi_star(winput, hp), interval, winput, lam) <= (
                worst_case_objective(grid, interval, winput, lam) + 1e-6
            )

    def test_zero_pi_instance_matches_cap_value(self):
        winput = WeightInput(pi=0.0, beta_hat=0.2, u=math.log(2.0))
        interval = confidence_interval(0.2, math.log(2.0), 1.0, 1.0)
        grid = oracle_phi(interval, winput, lam=1.0, grid_resolution=20_000, phi_max=2.0)
        assert abs(grid - 0.8) <= 2.0 / 20_000 + 1e-12


def variant_weight(kind: str, u: float, gamma: float) -> float:
    """The uips_p or uips_o weight of one sample with pi = beta_hat, so the ratio is exactly 1."""
    tables = PropensityTables(
        rows=np.zeros(1, dtype=int), actions=np.zeros(1, dtype=int),
        beta_sel=np.array([0.2]), us=np.array([u]),
    )
    weighting = Weighting(kind=kind, hp=UipsHyperParams(gamma=gamma))
    return float(propensity_weights(weighting, tables, np.array([[0.2]]))[0])


class TestVariantWeights:
    def test_unit_at_zero_uncertainty(self):
        assert variant_weight("uips_p", 0.0, 3.0) == 1.0
        assert variant_weight("uips_o", 0.0, 3.0) == 1.0

    def test_hand_value(self):
        assert variant_weight("uips_p", math.log(3.0), 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_product_is_one(self):
        rng = make_rng(25)
        for _ in range(50):
            gamma, u = float(rng.uniform(0, 10)), float(rng.uniform(0, 3))
            product = variant_weight("uips_p", u, gamma) * variant_weight("uips_o", u, gamma)
            assert product == pytest.approx(1.0, rel=1e-15)

    def test_unknown_kind(self):
        # a JSON list is not a kind either, and is refused with the same message
        for kind in ("bogus", ["uips"]):
            with pytest.raises(ValueError, match="unknown weighting kind"):
                Weighting(kind=kind)


def phi_of_u(ratio, lam, gamma, eta, u):
    beta_hat = 0.01
    pi = min(1.0, ratio * beta_hat)
    hp = UipsHyperParams(lam=lam, gamma=gamma, eta1=eta, eta2=eta)
    return phi_star(WeightInput(pi=pi, beta_hat=beta_hat, u=u), hp)


class TestMonotonicityRegions:
    """Behavior of the weight as uncertainty grows, per-region."""

    u_grid = np.linspace(0.0, 3.0, 31)

    def test_high_ratio_weights_never_increase(self):
        for lam in (0.5, 2.0, 10.0, 50.0):
            for eta in (0.5, 1.0, 2.0, 5.0):
                for gamma in (0.5, 2.0):
                    for mult in (1.0, 3.0, 30.0):
                        ratio = mult * math.sqrt(lam) / eta
                        if ratio * 0.01 > 1.0:
                            continue
                        values = [phi_of_u(ratio, lam, gamma, eta, u) for u in self.u_grid]
                        diffs = np.diff(values)
                        assert np.all(diffs <= 1e-12), (lam, eta, gamma, mult)

    def test_low_ratio_region_weights_never_decrease(self):
        checked = 0
        for lam in (0.5, 2.0, 10.0, 50.0):
            for eta in (0.5, 1.0, 2.0, 5.0):
                for gamma in (0.5, 2.0):
                    for frac in (1.05, 1.3, 1.8):
                        for i in range(len(self.u_grid) - 1):
                            u0, u1 = self.u_grid[i], self.u_grid[i + 1]
                            alpha0 = cap_region_threshold(lam, eta, gamma, u0)
                            ratio = frac * alpha0
                            if not np.isfinite(ratio) or ratio * 0.01 > 1.0:
                                continue
                            in_region = all(
                                cap_region_threshold(lam, eta, gamma, u) <= ratio
                                and ratio < math.sqrt(lam) / eta * math.exp(-gamma * u)
                                for u in (u0, u1)
                            )
                            if not in_region:
                                continue
                            checked += 1
                            assert phi_of_u(ratio, lam, gamma, eta, u1) >= (
                                phi_of_u(ratio, lam, gamma, eta, u0) - 1e-12
                            )
        assert checked > 50  # the region must actually be exercised

    def test_branch_switches_at_the_derived_ratio_threshold(self):
        # first <= cap exactly when ratio >= sqrt(lam (1 - e^{-2 g u}) / (2 eta^2));
        # the reported alpha is an upper bound on this for eta >= 1/2
        for lam in (0.5, 2.0, 10.0):
            for eta in (0.5, 1.0, 2.0):
                for gamma in (0.5, 2.0):
                    for u in (0.5, 1.5, 2.5):
                        exact = math.sqrt(lam * (1.0 - math.exp(-2 * gamma * u)) / (2 * eta * eta))
                        assert cap_region_threshold(lam, eta, gamma, u) >= exact - 1e-12
                        beta_hat = 0.005
                        hp = UipsHyperParams(lam=lam, gamma=gamma, eta1=eta, eta2=eta)
                        for mult, expected in ((0.9, "cap"), (1.1, "first_term")):
                            pi = mult * exact * beta_hat
                            if pi > 1.0:
                                continue
                            _, branch = phi_star_branch(
                                WeightInput(pi=pi, beta_hat=beta_hat, u=u), hp
                            )
                            assert branch == expected, (lam, eta, gamma, u, mult)


class TestPerInstanceAdvantage:
    def test_worst_case_objective_at_phi_star_never_worse_than_at_one(self):
        for winput, interval, lam in sample_weight_instances(500, seed=26):
            hp = UipsHyperParams(lam=lam, gamma=1.0, eta1=1.0, eta2=1.0)
            star = phi_star(winput, hp)
            t_star = minmax_objective(star, worst_case_beta(star, interval, winput, lam), winput, lam)
            t_one = minmax_objective(1.0, worst_case_beta(1.0, interval, winput, lam), winput, lam)
            assert t_star <= t_one


def test_default_sweep_grid_shape():
    assert set(DEFAULT_SWEEP_GRID) == {"learning_rate", "lam", "gamma", "eta1", "eta2"}
    assert DEFAULT_SWEEP_GRID["eta2"] == [1, 10, 100, 1000]
    assert len(DEFAULT_SWEEP_GRID["lam"]) == 12


def test_hyper_param_validation():
    with pytest.raises(ValueError):
        UipsHyperParams(lam=-1.0)
    with pytest.raises(ValueError):
        UipsHyperParams(eta1=0.0)
