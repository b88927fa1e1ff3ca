import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.dp import DpParams, PrivacyBudget, gaussian, protect_dp
from fedsplit.errors import DimensionError

# frozen against a 50-digit arbitrary-precision evaluation of the closed form
SIGMA_REFERENCE = 0.67861404244151118
SIGMA_SQRT2 = 1.4142135623730951


# -- reference: the four public functions protect_dp and PrivacyBudget replaced,
# kept verbatim; the mechanism and the calibration must equal them bit for bit.


def clip(u: np.ndarray, theta: float) -> np.ndarray:
    """Scale ``u`` to L2 norm at most ``theta``: returns u / max(1, ||u||/theta)."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise DimensionError(f"update must be 1-D, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("update contains non-finite values")
    return u / max(1.0, float(np.linalg.norm(u)) / theta)


def add_noise(u: np.ndarray, sigma_z: float, seed) -> np.ndarray:
    """Add i.i.d. N(0, sigma_z) noise to every coordinate; exact identity at 0."""
    if sigma_z < 0:
        raise ValueError(f"sigma_z must be nonnegative, got {sigma_z}")
    u = np.asarray(u, dtype=np.float64)
    if sigma_z == 0:
        return u.copy()
    rng = np.random.default_rng(seed)
    return u + sigma_z * gaussian(rng, u.size)


def sensitivity(theta: float, min_dataset_size: int) -> float:
    """Mechanism sensitivity 2*theta / min_i |D_i|."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if min_dataset_size < 1:
        raise ValueError(f"min_dataset_size must be >= 1, got {min_dataset_size}")
    return 2.0 * theta / min_dataset_size


def sigma_from_budget(b: PrivacyBudget) -> float:
    """Per-coordinate noise std implied by the budget:

    sigma_z = (delta_f / epsilon) * sqrt(2 q T ln(1/delta)).
    """
    df = sensitivity(b.theta, b.min_dataset_size)
    return (df / b.epsilon) * math.sqrt(2.0 * b.q * b.rounds_T * math.log(1.0 / b.delta))


def budget(**overrides) -> PrivacyBudget:
    fields = dict(epsilon=1.0, delta=1e-5, q=1.0, rounds_T=1, theta=1.0,
                  min_dataset_size=1)
    return PrivacyBudget(**{**fields, **overrides})


def clipped(u, theta):
    """``protect_dp`` with no noise: the clip step alone."""
    return protect_dp(u, DpParams(theta=theta, sigma_z=0.0), 0)


def noised(u, sigma_z, seed):
    """``protect_dp`` with a threshold no test vector reaches: the noise step alone."""
    return protect_dp(u, DpParams(theta=1e300, sigma_z=sigma_z), seed)


class TestAgainstReference:
    """``protect_dp`` equals ``add_noise(clip(...))`` and the budget's
    properties equal ``sensitivity`` and ``sigma_from_budget``, bit for bit.
    The example budget comes from the hypothesis profile."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=200),
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, allow_infinity=False)),
           st.integers(min_value=0, max_value=2**128))
    @settings(deadline=None)
    def test_protect_dp_equals_clip_then_add_noise(self, values, theta, sigma_z, seed):
        u = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            out = protect_dp(u, DpParams(theta=theta, sigma_z=sigma_z), seed)
            ref = add_noise(clip(u, theta), sigma_z, seed)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
        assert out.tobytes() == ref.tobytes()

    @given(st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           st.integers(min_value=1, max_value=2**1100),
           st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
           st.integers(min_value=1, max_value=2**1100))
    @settings(deadline=None)
    def test_budget_properties_equal_sensitivity_and_sigma(self, epsilon, delta, q,
                                                           rounds_T, theta, m):
        fields = dict(epsilon=epsilon, delta=delta, q=q, rounds_T=rounds_T,
                      theta=theta, min_dataset_size=m)
        try:
            ref_df = sensitivity(theta, m)
            ref_sigma = sigma_from_budget(SimpleNamespace(**fields))
        except OverflowError:
            with pytest.raises(OverflowError):
                PrivacyBudget(**fields)
            return
        if not math.isfinite(ref_sigma):
            with pytest.raises(ValueError, match="not a finite noise std"):
                PrivacyBudget(**fields)
            return
        b = PrivacyBudget(**fields)
        assert b.delta_f == ref_df
        assert b.sigma_z == ref_sigma


class TestClip:
    """The clip step of ``protect_dp`` (sigma_z = 0)."""

    def test_scales_down(self):
        out = clipped(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_identity_below_threshold(self):
        u = np.array([0.1, 0.2])
        assert np.array_equal(clipped(u, 1.0), u)

    def test_zero_vector(self):
        assert clipped(np.array([0.0, 0.0]), 0.5).tolist() == [0.0, 0.0]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            clipped(np.array([np.inf, 0.0]), 1.0)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            DpParams(theta=0.0, sigma_z=0.0)

    def test_two_dimensional_rejected(self):
        with pytest.raises(DimensionError, match="1-D"):
            clipped(np.ones((2, 2)), 1.0)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=50),
       st.floats(min_value=1e-6, max_value=1e2))
@settings(max_examples=200, deadline=None)
def test_clip_norm_bound_and_homogeneity(values, theta):
    u = np.array(values)
    out = clipped(u, theta)
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
    out = clipped(np.array(values), theta)
    assert np.linalg.norm(out) <= theta * (1 + 1e-12)


class TestAddNoise:
    """The noise step of ``protect_dp`` (a threshold no vector here reaches)."""

    def test_zero_sigma_identity(self):
        u = np.array([1.0, 2.0])
        assert np.array_equal(noised(u, 0.0, 0), u)

    def test_empirical_std(self):
        out = noised(np.zeros(100_000), 2.0, 123)
        assert 1.98 <= out.std() <= 2.02

    def test_empirical_mean(self):
        out = noised(np.zeros(100_000), 1.0, 456)
        assert -0.01 <= out.mean() <= 0.01

    def test_determinism(self):
        a = noised(np.zeros(64), 1.5, 99)
        b = noised(np.zeros(64), 1.5, 99)
        assert np.array_equal(a, b)

    def test_variance_within_two_percent(self):
        sigma = 0.7
        out = noised(np.zeros(100_000), sigma, 7)
        assert abs(out.var() - sigma**2) <= 0.02 * sigma**2

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DpParams(theta=1.0, sigma_z=-1.0)


class TestSensitivity:
    """``PrivacyBudget.delta_f``."""

    @pytest.mark.parametrize("theta,m,expected", [
        (1.0, 100, 0.02), (0.5, 1, 1.0), (10.0, 500, 0.04),
    ])
    def test_formula(self, theta, m, expected):
        assert budget(theta=theta, min_dataset_size=m).delta_f == pytest.approx(
            expected, rel=1e-15)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            budget(min_dataset_size=0)


class TestSigmaFromBudget:
    """``PrivacyBudget.sigma_z`` and the budgets it refuses."""

    def test_reference_value(self):
        b = PrivacyBudget(epsilon=1.0, delta=1e-5, q=1.0, rounds_T=50,
                          theta=1.0, min_dataset_size=100)
        assert b.sigma_z == pytest.approx(SIGMA_REFERENCE, rel=1e-12)

    def test_epsilon_homogeneity(self):
        b1 = PrivacyBudget(epsilon=1.0, delta=1e-5, q=0.5, rounds_T=10,
                           theta=2.0, min_dataset_size=30)
        b2 = PrivacyBudget(epsilon=2.0, delta=1e-5, q=0.5, rounds_T=10,
                           theta=2.0, min_dataset_size=30)
        assert b2.sigma_z == pytest.approx(b1.sigma_z / 2, rel=1e-12)

    def test_sqrt2_case(self):
        b = PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), q=1.0, rounds_T=1,
                          theta=0.5, min_dataset_size=1)
        assert b.sigma_z == pytest.approx(SIGMA_SQRT2, rel=1e-12)

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

    @pytest.mark.parametrize("theta", [1e308, math.inf])
    def test_no_finite_noise_rejected(self, theta):
        with pytest.raises(ValueError, match=r"^delta_f = inf gives sigma_z = inf, "
                                             r"not a finite noise std$"):
            budget(theta=theta)

    @pytest.mark.parametrize("field,value", [
        ("theta", np.float64(1.7e308)), ("epsilon", np.float64(5e-324)),
        ("delta", np.float64(5e-324)),
    ])
    def test_numpy_overflow_refused_without_a_warning(self, field, value):
        """A numpy scalar whose delta_f or sigma_z overflows gets the same
        refusal as a Python float, and numpy warns nothing on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gives sigma_z = inf, not a finite noise std$"):
                budget(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("rounds_T", 2.5), ("rounds_T", 3.0), ("rounds_T", True), ("rounds_T", "3"),
        ("min_dataset_size", 1.5), ("min_dataset_size", np.float64(10.0)),
        ("min_dataset_size", True),
    ])
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            budget(**{field: value})

    def test_numpy_integer_sizes_accepted(self):
        b = budget(rounds_T=np.int64(50), min_dataset_size=np.uint32(100))
        assert b.sigma_z == pytest.approx(SIGMA_REFERENCE, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1e-8, max_value=0.1),
       st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=200, deadline=None)
def test_sigma_monotonicity(eps, delta, q, T):
    base = PrivacyBudget(epsilon=eps, delta=delta, q=q, rounds_T=T,
                         theta=1.0, min_dataset_size=10)
    s = base.sigma_z
    s_eps = PrivacyBudget(epsilon=eps * 1.5, delta=delta, q=q, rounds_T=T, theta=1.0,
                          min_dataset_size=10).sigma_z
    s_T = PrivacyBudget(epsilon=eps, delta=delta, q=q, rounds_T=T + 1, theta=1.0,
                        min_dataset_size=10).sigma_z
    s_q = PrivacyBudget(epsilon=eps, delta=delta, q=min(1.0, q * 1.1), rounds_T=T,
                        theta=1.0, min_dataset_size=10).sigma_z
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
