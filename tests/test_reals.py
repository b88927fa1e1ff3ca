"""Every real parameter the program takes is checked by ``errors.check_real``:
a site accepts a value exactly when it is a Python or numpy int or float (not
a bool) that a float can hold, in the site's interval, and refuses any other
value with a ValueError whose one message form names the field and the
interval.  The example budget comes from the hypothesis profile
(tests/conftest.py registers ``ci``)."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit.config import (DataConfig, ExperimentConfig, ProtectionMode, RatioSchedule,
                             RoundConfig)
from fedsplit.datasets import split_dirichlet, synthetic_dataset, train_test_rows
from fedsplit.dp import DpParams, PrivacyBudget
from fedsplit.he import HeCostModel
from fedsplit.metrics import RoundMetrics, efficiency_ratio
from fedsplit.models import ModelSpec, init_params, local_train
from fedsplit.voting import target_count

_BUDGET = dict(epsilon=1.0, delta=1e-5, q=1.0, rounds_T=3, theta=1e-300, min_dataset_size=10)
_ROUND = dict(round=0, r_t=0.5, accuracy=0.5, sim_time_s=0.0, wall_time_s=0.0)
# kind "none" calibrates no noise, so dp.* meet no budget check past their own
_NO_NOISE = ProtectionMode(kind="none")
_SPEC = ModelSpec("logistic", 2, 2)
_DATA = synthetic_dataset(6, 2, 2, 2.0, 0)


def _train(learning_rate):
    # one batch: the loss is taken before the only step, so no rate diverges
    return local_train(_SPEC, init_params(_SPEC, 0), np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                       epochs=1, learning_rate=learning_rate, batch_size=4, seed=0)


# (site, builder of the value, interval[, later]): the site
# takes the value exactly when it is a real number in the interval.  ``later``
# is (which values in the interval a later check of the site refuses, that
# check's message): PrivacyBudget takes no budget whose sigma_z is not
# finite, which a theta whose double overflows or a delta whose reciprocal
# overflows gives, and split_dirichlet no alpha whose draw for its two
# clients overflows.
_NO_SIGMA = "not a finite noise std"
SITES = [
    ("DataConfig.separation", lambda v: DataConfig(separation=v), "(-inf, inf)"),
    ("DataConfig.test_fraction",
     lambda v: DataConfig(kind="csv", path="data.csv", test_fraction=v), "(0, 1)"),
    ("DataConfig.dirichlet_alpha",
     lambda v: DataConfig(partition="dirichlet", dirichlet_alpha=v), "(0, inf)"),
    ("RoundConfig.learning_rate_eta", lambda v: RoundConfig(learning_rate_eta=v), "(0, inf)"),
    ("RatioSchedule.r0", lambda v: RatioSchedule(r0=v), "[0, 1]"),
    ("RatioSchedule.lambda", lambda v: RatioSchedule(lam=v), "(0, 1]"),
    ("ProtectionMode.amplitude_scale", lambda v: ProtectionMode(amplitude_scale=v), "(0, 1]"),
    ("ExperimentConfig.dp.epsilon", lambda v: ExperimentConfig(protection=_NO_NOISE, dp_epsilon=v),
     "(0, inf]"),
    ("ExperimentConfig.dp.delta", lambda v: ExperimentConfig(protection=_NO_NOISE, dp_delta=v),
     "(0, 1)"),
    ("ExperimentConfig.dp.theta", lambda v: ExperimentConfig(protection=_NO_NOISE, dp_theta=v),
     "(0, inf)"),
    ("DpParams.theta", lambda v: DpParams(theta=v, sigma_z=0.0), "(0, inf)"),
    ("DpParams.sigma_z", lambda v: DpParams(theta=1.0, sigma_z=v), "[0, inf)"),
    ("PrivacyBudget.epsilon", lambda v: PrivacyBudget(**{**_BUDGET, "epsilon": v}), "(0, inf]"),
    ("PrivacyBudget.delta", lambda v: PrivacyBudget(**{**_BUDGET, "delta": v}), "(0, 1)",
     (lambda x: 1.0 / x == math.inf, _NO_SIGMA)),
    ("PrivacyBudget.q", lambda v: PrivacyBudget(**{**_BUDGET, "q": v}), "(0, 1]"),
    ("PrivacyBudget.theta", lambda v: PrivacyBudget(**{**_BUDGET, "theta": v}), "(0, inf]",
     (lambda x: 2.0 * x == math.inf, _NO_SIGMA)),
    ("HeCostModel.per_slot_seconds", lambda v: HeCostModel(per_slot_seconds=v), "[0, inf)"),
    ("HeCostModel.per_op_seconds", lambda v: HeCostModel(per_op_seconds=v), "[0, inf)"),
    ("RoundMetrics.r_t", lambda v: RoundMetrics(**{**_ROUND, "r_t": v}), "[0, 1]"),
    ("RoundMetrics.accuracy", lambda v: RoundMetrics(**{**_ROUND, "accuracy": v}), "[0, 1]"),
    ("RoundMetrics.sim_time_s", lambda v: RoundMetrics(**{**_ROUND, "sim_time_s": v}),
     "[0, inf)"),
    ("RoundMetrics.wall_time_s", lambda v: RoundMetrics(**{**_ROUND, "wall_time_s": v}),
     "[0, inf)"),
    ("efficiency_ratio.time", lambda v: efficiency_ratio(50.0, v), "(0, inf]"),
    ("target_count.ratio", lambda v: target_count(v, 10), "[0, 1]"),
    ("train_test_rows.test_fraction", lambda v: train_test_rows(6, v, 0), "[0, 1)"),
    ("split_dirichlet.alpha", lambda v: split_dirichlet(_DATA.labels, 2, v, 0), "(0, inf)",
     (lambda x: 2 > sys.float_info.max / (2 * x), "overflows the Dirichlet draw")),
    ("synthetic_dataset.separation", lambda v: synthetic_dataset(6, 2, 2, v, 0), "(-inf, inf)"),
    ("local_train.learning_rate", _train, "[0, inf)"),
]

_NUMPY_INTS = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _bounds(interval: str) -> tuple[float, float]:
    low, high = interval[1:-1].split(", ")
    return float(low), float(high)


def _inside(x: float, interval: str) -> bool:
    low, high = _bounds(interval)
    above = low < x or (interval[0] == "[" and x == low)
    below = x < high or (interval[-1] == "]" and x == high)
    return above and below


def _real(value) -> float | None:
    """``value`` as a float when it is a real number the program takes."""
    if type(value) not in (int, float) and not isinstance(value, (np.integer, np.floating)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _forms(x: float):
    """``x`` as a Python and numpy float, as a float32 where it fits, and as
    a Python int and each numpy integer type that holds it where it is whole;
    and the values no real takes: the bools, None, NaN, a numeric string and
    an int too large for a float."""
    forms = [x, np.float64(x), str(x), True, False, np.True_, None, math.nan,
             np.float64(math.nan), 2**1024, -2**1024]
    if abs(x) <= _FLOAT32_MAX or math.isinf(x):
        forms.append(np.float32(x))
    if math.isfinite(x) and x == int(x):
        n = int(x)
        forms += [n, *(t(n) for t in _NUMPY_INTS if np.iinfo(t).min <= n <= np.iinfo(t).max)]
    return st.sampled_from(forms)


def _edges(interval: str) -> list[float]:
    """Each bound and the floats on either side of it; an infinite bound
    with the largest finite float beside it."""
    edges = []
    for bound in _bounds(interval):
        if math.isinf(bound):
            edges += [bound, math.copysign(sys.float_info.max, bound)]
        else:
            edges += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return edges


@st.composite
def site_values(draw):
    """A site, and a value at or just past one of its bounds in some form."""
    site = draw(st.sampled_from(SITES))
    return site, draw(st.sampled_from(_edges(site[2])).flatmap(_forms))


@given(case=site_values())
def test_each_real_takes_exactly_the_reals_in_its_interval(case):
    (name, build, interval, *later), value = case
    x = _real(value)
    if x is not None and _inside(x, interval):
        if later and later[0][0](x):
            with pytest.raises(ValueError, match=later[0][1]):
                build(value)
        else:
            build(value)
        return
    with pytest.raises(Exception) as refused:
        build(value)
    assert type(refused.value) is ValueError, (name, value, refused.value)
    field = name.partition(".")[2]
    assert f"{field} must be a real number in {interval}, got " in str(refused.value), (
        name, str(refused.value))


@pytest.mark.parametrize("site", SITES, ids=[site[0] for site in SITES])
def test_an_integer_too_long_to_print_is_refused(site):
    name, build, interval, *_later = site
    with pytest.raises(ValueError, match=re.escape(f"{name.partition('.')[2]} must be a real "
                                                   f"number in {interval}, got an integer of "
                                                   "16610 bits")):
        build(-10**5000)


def test_the_message_has_one_form():
    with pytest.raises(ValueError, match=r"^r0 must be a real number in \[0, 1\], got True$"):
        RatioSchedule(r0=True)
    with pytest.raises(ValueError,
                       match=r"^learning_rate must be a real number in \[0, inf\), got -1$"):
        _train(-1)
    with pytest.raises(ValueError, match=r"^dp\.epsilon must be a real number in \(0, inf\], "
                                         r"got np\.float64\(nan\)$"):
        ExperimentConfig(dp_epsilon=np.float64("nan"))
