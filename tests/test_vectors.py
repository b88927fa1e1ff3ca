import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.errors import DimensionError
from fedsplit.vectors import PartitionMask, merge, split


def mask(indices, dim):
    encrypted = np.zeros(dim, dtype=bool)
    encrypted[indices] = True
    return PartitionMask(encrypted)


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
    """A mask is the indicator itself, a non-empty 1-D ``bool`` array; any
    other form is refused rather than cast."""

    def test_out_of_range_rejected(self):
        """An index array is refused, not read as the indices it holds."""
        with pytest.raises(DimensionError, match=r"bool array, got int64 of shape \(2,\)$"):
            PartitionMask(np.array([0, 5]))

    @pytest.mark.parametrize("encrypted", [
        [0.5, 1.7], np.array([0.0, 1.0]), np.array(["0", "1"]), np.array([0, 1], dtype=object),
    ], ids=["floats", "float-array", "strings", "objects"])
    def test_non_integer_indices_rejected(self, encrypted):
        with pytest.raises(DimensionError, match="non-empty 1-D bool array"):
            PartitionMask(encrypted)

    @pytest.mark.parametrize("encrypted", [
        np.array([0, 1, 1, 0]), np.array([[True, False]]), np.array([], dtype=bool),
        [0, 1, 1, 0], [False, True],
    ], ids=["int-0-1", "2-D", "empty", "int-list", "bool-list"])
    def test_only_a_non_empty_1d_bool_array_is_taken(self, encrypted):
        with pytest.raises(DimensionError, match="non-empty 1-D bool array"):
            PartitionMask(encrypted)

    def test_dim_size_and_indices_derive_from_the_indicator(self):
        m = PartitionMask(np.array([False, True, False, True, True]))
        assert (m.dim, m.size, m.he_indices.tolist()) == (5, 3, [1, 3, 4])
        assert m == mask([1, 3, 4], 5) and m != mask([1, 3], 5) and m != mask([1, 3, 4], 6)


@st.composite
def vector_and_mask(draw):
    dim = draw(st.integers(min_value=1, max_value=64))
    values = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=dim, max_size=dim))
    k = draw(st.integers(min_value=0, max_value=dim))
    indices = draw(st.permutations(range(dim)))[:k]
    return np.array(values), mask(indices, dim)


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
    dp = set(np.flatnonzero(~m.encrypted).tolist())
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
