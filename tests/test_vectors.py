import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.errors import DimensionError
from fedsplit.vectors import PartitionMask, merge, split


def mask(indices, dim):
    return PartitionMask(he_indices=np.array(indices, dtype=np.int64), dim=dim)


class TestSplit:
    def test_basic(self):
        dp_part, he_part = split(np.array([1.0, 2.0, 3.0, 4.0]), mask([1, 3], 4))
        assert dp_part.tolist() == [1.0, 3.0]
        assert he_part.tolist() == [2.0, 4.0]

    def test_empty_mask_identity(self):
        dp_part, he_part = split(np.array([5.0]), mask([], 1))
        assert dp_part.tolist() == [5.0]
        assert he_part.tolist() == []

    def test_signed_values(self):
        dp_part, he_part = split(np.array([0.1, -5.0, 0.2, 3.0]), mask([1, 3], 4))
        assert he_part.tolist() == [-5.0, 3.0]
        assert dp_part.tolist() == [0.1, 0.2]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            split(np.array([1.0, 2.0]), mask([0], 3))


class TestMerge:
    def test_inverse_of_split(self):
        out = merge([1.0, 3.0], [2.0, 4.0], mask([1, 3], 4))
        assert out.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_all_he(self):
        assert merge([], [7.0, 8.0], mask([0, 1], 2)).tolist() == [7.0, 8.0]

    def test_all_dp(self):
        assert merge([9.0], [], mask([], 1)).tolist() == [9.0]

    def test_length_inconsistency_rejected(self):
        with pytest.raises(DimensionError):
            merge([1.0], [2.0, 4.0], mask([1], 3))
        with pytest.raises(DimensionError):
            merge([1.0, 2.0], [3.0], mask([0], 2))


class TestMaskValidation:
    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            mask([0, 5], 4)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            mask([3, 1], 4)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            mask([1, 1], 4)

    @pytest.mark.parametrize("indices", [
        [0.5, 1.7], np.array([False, True]), np.array([0.0, 1.0]),
        np.array(["0", "1"]), np.array([0, 1], dtype=object),
    ], ids=["floats", "bools", "float-array", "strings", "objects"])
    def test_non_integer_indices_rejected(self, indices):
        with pytest.raises(DimensionError, match="he_indices must be integers"):
            PartitionMask(he_indices=indices, dim=4)

    @pytest.mark.parametrize("dim", [3.5, 4.0, True, "4", None])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(DimensionError, match="dim must be an integer >= 1"):
            PartitionMask(he_indices=np.array([0], dtype=np.int64), dim=dim)

    @pytest.mark.parametrize("indices", [
        [], np.array([], dtype=np.int64), np.array([0, 3], dtype=np.int64),
        np.array([0, 3], dtype=np.uint64), [1, 2],
    ], ids=["empty-list", "empty-int64", "int64", "uint64", "int-list"])
    def test_integer_indices_accepted(self, indices):
        m = PartitionMask(he_indices=indices, dim=np.int64(4))
        assert m.he_indices.dtype == np.int64
        assert m.he_indices.tolist() == [int(i) for i in indices]
        assert m.complement().size == 4 - len(indices)

    @pytest.mark.parametrize("indices,shown", [
        ([2**64 - 1], "[18446744073709551615, 18446744073709551615]"),
        ([1, 2**64 - 1], "[1, 18446744073709551615]"),
    ], ids=["max", "increasing"])
    def test_uint64_range_checked_before_the_cast(self, indices, shown):
        """A uint64 index past 2**63 is reported as given, not wrapped
        negative by the int64 cast."""
        with pytest.raises(DimensionError, match=re.escape(f"[0, 5), got range {shown}")):
            PartitionMask(np.array(indices, dtype=np.uint64), 5)


@st.composite
def vector_and_mask(draw):
    dim = draw(st.integers(min_value=1, max_value=64))
    values = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=dim, max_size=dim))
    k = draw(st.integers(min_value=0, max_value=dim))
    indices = draw(st.permutations(range(dim)))[:k]
    return np.array(values), PartitionMask(np.sort(np.array(indices, dtype=np.int64)), dim)


@given(vector_and_mask())
@settings(max_examples=200, deadline=None)
def test_roundtrip_exact(data):
    u, m = data
    dp_part, he_part = split(u, m)
    assert np.array_equal(merge(dp_part, he_part, m), u)


@given(vector_and_mask())
@settings(max_examples=200, deadline=None)
def test_partition_completeness(data):
    u, m = data
    dp_part, he_part = split(u, m)
    assert dp_part.size + he_part.size == m.dim
    he = set(m.he_indices.tolist())
    dp = set(m.complement().tolist())
    assert he.isdisjoint(dp)
    assert he | dp == set(range(m.dim))


@given(vector_and_mask())
@settings(max_examples=200, deadline=None)
def test_norm_consistency(data):
    u, m = data
    dp_part, he_part = split(u, m)
    total = np.linalg.norm(u) ** 2
    parts_sq = np.linalg.norm(dp_part) ** 2 + np.linalg.norm(he_part) ** 2
    assert parts_sq == pytest.approx(total, rel=1e-12, abs=1e-300)
