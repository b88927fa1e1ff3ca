"""Every count and index the program takes is checked by ``errors.check_int``:
a site accepts a value exactly when it is a Python or numpy integer (not a
bool) in the site's range, and refuses any other value with the site's own
exception type.  The example budget comes from the hypothesis profile
(tests/conftest.py registers ``ci``)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit.config import DataConfig, ExperimentConfig, RatioSchedule, RoundConfig
from fedsplit.datasets import split_dirichlet, split_iid, synthetic_dataset, synthetic_labels
from fedsplit.dp import PrivacyBudget
from fedsplit.errors import DimensionError
from fedsplit.he import HeCostModel, HeParams, MockBackend, simulated_round_cost
from fedsplit.metrics import ExperimentReport, RoundMetrics
from fedsplit.models import ModelSpec, init_params, local_train
from fedsplit.runtime import ratio_at
from fedsplit.vectors import PartitionMask, merge
from fedsplit.voting import (PartitionStrategy, VoteKey, decode_partition, new_vote_key,
                             propose_partition, tally_votes, target_count)

_BUDGET = dict(epsilon=1.0, delta=1e-5, q=1.0, rounds_T=3, theta=1.0, min_dataset_size=10)
_VK = new_vote_key(5)
_NO_TOKENS = np.empty(0, dtype=np.uint64)
_SPEC = ModelSpec("logistic", 2, 2)
_ROWS = np.zeros((4, 2))
_LABELS = np.array([0, 1, 0, 1])
_DATA = synthetic_dataset(6, 2, 2, 2.0, 0)
_BACKEND = MockBackend(HeParams(ring_degree=64))
_KEYS = _BACKEND.keygen(0)
_CT = _BACKEND.encrypt(_KEYS, np.ones(3), 1)[0]


def _add_with_slots(v):
    ct = dataclasses.replace(_CT, slots_used=v)
    return _BACKEND.hom_add(ct, ct)


def _train(**counts):
    return local_train(_SPEC, init_params(_SPEC, 0), _ROWS, _LABELS, learning_rate=0.1,
                       seed=0, **{"epochs": 1, "batch_size": 2, **counts})


# (site, builder of the value, low, high or None, exception type): the site
# takes the value exactly when it is an integer in [low, high].
SITES = [
    ("RoundConfig.clients_total_N",
     lambda v: RoundConfig(clients_total_N=v, clients_sampled_n=1), 1, None, ValueError),
    ("RoundConfig.clients_sampled_n", lambda v: RoundConfig(clients_sampled_n=v), 1, 5,
     ValueError),
    ("RoundConfig.local_epochs_K", lambda v: RoundConfig(local_epochs_K=v), 1, None, ValueError),
    ("RoundConfig.batch_size", lambda v: RoundConfig(batch_size=v), 1, None, ValueError),
    ("RoundConfig.rounds_T", lambda v: RoundConfig(rounds_T=v), 1, 2**52, ValueError),
    ("DataConfig.num_samples",
     lambda v: DataConfig(kind="csv", path="data.csv", num_samples=v), 1, None, ValueError),
    ("ExperimentConfig.seed", lambda v: ExperimentConfig(seed=v), 0, None, ValueError),
    ("ExperimentConfig.workers", lambda v: ExperimentConfig(workers=v), 1, None, ValueError),
    ("PrivacyBudget.rounds_T", lambda v: PrivacyBudget(**{**_BUDGET, "rounds_T": v}), 1, None,
     ValueError),
    ("PrivacyBudget.min_dataset_size",
     lambda v: PrivacyBudget(**{**_BUDGET, "min_dataset_size": v}), 1, None, ValueError),
    ("target_count.dim", lambda v: target_count(0.5, v), 1, None, ValueError),
    ("tally_votes.k", lambda v: tally_votes([], v), 0, None, ValueError),
    ("decode_partition.dim", lambda v: decode_partition(_NO_TOKENS, _VK, v, 0), 1, None,
     ValueError),
    ("decode_partition.k", lambda v: decode_partition(_NO_TOKENS, _VK, 4, v), 0, 4, ValueError),
    ("VoteKey.round_binding", lambda v: VoteKey(_VK.key, v), -2**63, 2**63 - 1, ValueError),
    ("HeBackend.slots_used", _add_with_slots, 1, 64, DimensionError),
    ("HeBackend.decrypt_mean.n", lambda v: _BACKEND.decrypt_mean(_KEYS, [_CT], v), 1, None,
     ValueError),
    ("HeParams.ring_degree", lambda v: HeParams(ring_degree=v), 8, 2**17, ValueError),
    ("HeParams.scale_bits", lambda v: HeParams(scale_bits=v), 1, 49, ValueError),
    ("HeParams.modulus_bits", lambda v: HeParams(modulus_bits=v), 21, 51, ValueError),
    ("HeParams.max_additions", lambda v: HeParams(max_additions=v), 1, None, ValueError),
    ("ModelSpec.input_dim", lambda v: ModelSpec("logistic", v, 2), 1, None, ValueError),
    ("ModelSpec.num_classes", lambda v: ModelSpec("logistic", 2, v), 1, None, ValueError),
    ("ModelSpec.hidden_dims", lambda v: ModelSpec("mlp", 2, 2, (3, v)), 1, None, ValueError),
    ("local_train.epochs", lambda v: _train(epochs=v), 1, None, ValueError),
    ("local_train.batch_size", lambda v: _train(batch_size=v), 1, None, ValueError),
    ("synthetic_labels.num_samples", lambda v: synthetic_labels(v, 2, 1, 1.0, 0), 1, None,
     ValueError),
    ("synthetic_labels.input_dim", lambda v: synthetic_labels(4, v, 2, 1.0, 0), 1, None,
     ValueError),
    ("synthetic_labels.num_classes", lambda v: synthetic_labels(4, 2, v, 1.0, 0), 1, None,
     ValueError),
    ("split_iid.num_rows", lambda v: split_iid(v, 1, 0), 1, None, ValueError),
    ("split_iid.num_clients", lambda v: split_iid(6, v, 0), 1, 6, ValueError),
    ("split_dirichlet.num_clients", lambda v: split_dirichlet(_DATA.labels, v, 1.0, 0), 1, 6,
     ValueError),
    ("RoundMetrics.round", lambda v: RoundMetrics(v, 0.5, 0.5, 0.0, 0.0), 0, None, ValueError),
    ("ExperimentReport.seed", lambda v: ExperimentReport({}, v, "mock"), 0, None, ValueError),
    ("ratio_at.t", lambda v: ratio_at(RatioSchedule(mode="dynamic"), v), 0, None, ValueError),
    ("simulated_round_cost.n_vectors", lambda v: simulated_round_cost(HeCostModel(), v, 1), 0,
     None, ValueError),
    ("simulated_round_cost.vec_len", lambda v: simulated_round_cost(HeCostModel(), 1, v), 0,
     None, ValueError),
]

_NUMPY_INTS = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)


def _forms(n: int):
    """``n`` as a Python int and as each numpy integer type that holds it,
    as integral and non-integral floats, and as a digit string; and the
    values no count takes: the bools and None."""
    fitting = [t for t in _NUMPY_INTS if np.iinfo(t).min <= n <= np.iinfo(t).max]
    return st.sampled_from([n, *(t(n) for t in fitting), float(n), np.float64(n), n + 0.5,
                            str(n), True, False, None])


@st.composite
def site_values(draw):
    """A site, and a value at or just past one of its bounds in some form."""
    site = draw(st.sampled_from(SITES))
    _name, _build, low, high, _error = site
    edges = [low - 1, low] + ([] if high is None else [high, high + 1])
    return site, draw(st.sampled_from(edges).flatmap(_forms))


@given(case=site_values())
def test_each_count_takes_exactly_the_integers_in_its_range(case):
    (name, build, low, high, error), value = case
    is_int = type(value) is int or isinstance(value, np.integer)
    if is_int and low <= int(value) and (high is None or int(value) <= high):
        build(value)
        return
    with pytest.raises(Exception) as refused:
        build(value)
    assert type(refused.value) is error, (name, value, refused.value)
    assert name.rpartition(".")[2] in str(refused.value), (name, str(refused.value))


@pytest.mark.parametrize("site", SITES, ids=[site[0] for site in SITES])
def test_an_integer_too_long_to_print_is_refused_with_the_site_type(site):
    name, build, _low, _high, error = site
    with pytest.raises(error, match=f"{name.rpartition('.')[2]}.* an integer of 16610 bits$"):
        build(-10**5000)


def test_the_message_has_one_form():
    with pytest.raises(ValueError,
                       match=r"^rounds_T must be an integer in \[1, 4503599627370496\], got 2\.5$"):
        RoundConfig(rounds_T=2.5)
    with pytest.raises(DimensionError, match=r"^left ciphertext slots_used must be an integer "
                                             r"in \[1, 64\], got True$"):
        _add_with_slots(True)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        ExperimentConfig(seed=-1)


class TestUpdatesAreOneDimensional:
    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    @pytest.mark.parametrize("shape", [(2, 3), ()], ids=["2x3", "scalar"])
    def test_propose_partition(self, strategy, shape):
        with pytest.raises(DimensionError, match="1-D"):
            propose_partition(np.ones(shape), 0.5, strategy, seed=1)

    @pytest.mark.parametrize("dp_shape,he_shape,he_indices,dim", [
        ((2,), (1, 2), [1, 3], 4), ((1, 2), (2,), [1, 3], 4),
        ((2,), (), [1], 3), ((), (2,), [0, 2], 3)],
        ids=["he_part 1x2", "dp_part 1x2", "he_part scalar", "dp_part scalar"])
    def test_merge(self, dp_shape, he_shape, he_indices, dim):
        """Each part has the size the mask asks for, but not one axis."""
        with pytest.raises(DimensionError, match="1-D"):
            merge(np.ones(dp_shape), np.ones(he_shape),
                  PartitionMask(np.isin(np.arange(dim), he_indices)))
