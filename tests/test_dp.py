import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.dp import (DpParams, PrivacyBudget, add_noise, clip, protect_dp,
                         sensitivity, sigma_from_budget)
from fedsplit.errors import DimensionError

# frozen against a 50-digit arbitrary-precision evaluation of the closed form
SIGMA_REFERENCE = 0.67861404244151118
SIGMA_SQRT2 = 1.4142135623730951


class TestClip:
    def test_scales_down(self):
        out = clip(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_identity_below_threshold(self):
        u = np.array([0.1, 0.2])
        assert np.array_equal(clip(u, 1.0), u)

    def test_zero_vector(self):
        assert clip(np.array([0.0, 0.0]), 0.5).tolist() == [0.0, 0.0]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            clip(np.array([np.inf, 0.0]), 1.0)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            clip(np.array([1.0]), 0.0)

    def test_two_dimensional_rejected(self):
        with pytest.raises(DimensionError, match="1-D"):
            clip(np.ones((2, 2)), 1.0)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=50),
       st.floats(min_value=1e-6, max_value=1e2))
@settings(max_examples=200, deadline=None)
def test_clip_norm_bound_and_homogeneity(values, theta):
    u = np.array(values)
    out = clip(u, theta)
    assert np.linalg.norm(out) <= theta + 1e-12 or np.linalg.norm(u) <= theta
    # direction-preserving: out = c * u with c in (0, 1]
    norm = np.linalg.norm(u)
    c = 1.0 if norm <= theta else theta / norm
    assert 0.0 < c <= 1.0
    assert np.allclose(out, c * u, rtol=1e-12, atol=1e-300)


@given(st.lists(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
                min_size=1, max_size=50),
       st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_clip_norm_bound_relative(values, theta):
    out = clip(np.array(values), theta)
    assert np.linalg.norm(out) <= theta * (1 + 1e-12)


class TestAddNoise:
    def test_zero_sigma_identity(self):
        u = np.array([1.0, 2.0])
        assert np.array_equal(add_noise(u, 0.0, 0), u)

    def test_empirical_std(self):
        out = add_noise(np.zeros(100_000), 2.0, 123)
        assert 1.98 <= out.std() <= 2.02

    def test_empirical_mean(self):
        out = add_noise(np.zeros(100_000), 1.0, 456)
        assert -0.01 <= out.mean() <= 0.01

    def test_determinism(self):
        a = add_noise(np.zeros(64), 1.5, 99)
        b = add_noise(np.zeros(64), 1.5, 99)
        assert np.array_equal(a, b)

    def test_variance_within_two_percent(self):
        sigma = 0.7
        out = add_noise(np.zeros(100_000), sigma, 7)
        assert abs(out.var() - sigma**2) <= 0.02 * sigma**2

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(3), -1.0, 0)


class TestSensitivity:
    @pytest.mark.parametrize("theta,m,expected", [
        (1.0, 100, 0.02), (0.5, 1, 1.0), (10.0, 500, 0.04),
    ])
    def test_formula(self, theta, m, expected):
        assert sensitivity(theta, m) == pytest.approx(expected, rel=1e-15)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            sensitivity(1.0, 0)


class TestSigmaFromBudget:
    def test_reference_value(self):
        b = PrivacyBudget(epsilon=1.0, delta=1e-5, q=1.0, rounds_T=50,
                          theta=1.0, min_dataset_size=100)
        assert sigma_from_budget(b) == pytest.approx(SIGMA_REFERENCE, rel=1e-12)

    def test_epsilon_homogeneity(self):
        b1 = PrivacyBudget(epsilon=1.0, delta=1e-5, q=0.5, rounds_T=10,
                           theta=2.0, min_dataset_size=30)
        b2 = PrivacyBudget(epsilon=2.0, delta=1e-5, q=0.5, rounds_T=10,
                           theta=2.0, min_dataset_size=30)
        assert sigma_from_budget(b2) == pytest.approx(sigma_from_budget(b1) / 2,
                                                      rel=1e-12)

    def test_sqrt2_case(self):
        b = PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), q=1.0, rounds_T=1,
                          theta=0.5, min_dataset_size=1)
        assert sigma_from_budget(b) == pytest.approx(SIGMA_SQRT2, rel=1e-12)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=1.0, q=1.0, rounds_T=1,
                          theta=1.0, min_dataset_size=1)  # delta >= 1
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=1e-5, q=1.0, rounds_T=0,
                          theta=1.0, min_dataset_size=1)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.0, delta=1e-5, q=1.0, rounds_T=1,
                          theta=1.0, min_dataset_size=1)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1e-8, max_value=0.1),
       st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=200, deadline=None)
def test_sigma_monotonicity(eps, delta, q, T):
    base = PrivacyBudget(epsilon=eps, delta=delta, q=q, rounds_T=T,
                         theta=1.0, min_dataset_size=10)
    s = sigma_from_budget(base)
    s_eps = sigma_from_budget(PrivacyBudget(epsilon=eps * 1.5, delta=delta, q=q,
                                            rounds_T=T, theta=1.0,
                                            min_dataset_size=10))
    s_T = sigma_from_budget(PrivacyBudget(epsilon=eps, delta=delta, q=q,
                                          rounds_T=T + 1, theta=1.0,
                                          min_dataset_size=10))
    s_q = sigma_from_budget(PrivacyBudget(epsilon=eps, delta=delta,
                                          q=min(1.0, q * 1.1), rounds_T=T,
                                          theta=1.0, min_dataset_size=10))
    assert s_eps < s
    assert s_T > s
    assert s_q > s


class TestProtectDp:
    def test_clip_then_zero_noise(self):
        out = protect_dp(np.array([3.0, 4.0]), DpParams(theta=1.0, sigma_z=0.0), 0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_zero_vector(self):
        out = protect_dp(np.array([0.0, 0.0]), DpParams(theta=5.0, sigma_z=0.0), 0)
        assert out.tolist() == [0.0, 0.0]

    def test_seeded_mean_window(self):
        u = np.zeros(10_000)
        u[0] = 1.0
        out = protect_dp(u, DpParams(theta=10.0, sigma_z=1.0), 2024)
        assert abs(out.mean() - 1e-4) <= 0.02

    def test_empty_vector(self):
        out = protect_dp(np.empty(0), DpParams(theta=1.0, sigma_z=3.0), 1)
        assert out.size == 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DpParams(theta=-1.0, sigma_z=0.0)
        with pytest.raises(ValueError):
            DpParams(theta=1.0, sigma_z=-0.1)
