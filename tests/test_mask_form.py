"""The boolean partition mask against the index form it replaced.

``PartitionMask`` once held a strictly increasing index array and rebuilt
its complement on every ``split`` and ``merge``; ``propose_partition`` and
``decode_partition`` turned their boolean arrays into indices, and
``tokenize_round`` took the union of the round's proposals by concatenating
and sorting them.  That code is kept below verbatim (the mask renamed
``IndexMask``) as the reference: the indicator form must give the same index
sets, the same parts and vectors, bit for bit, and the same round tables.
The example budget comes from the hypothesis profile (tests/conftest.py
registers ``ci``)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsplit.errors import DimensionError, ProtocolError, check_choice, check_int
from fedsplit.vectors import PartitionMask, merge, split
from fedsplit.voting import (_BATCH_LANES, _NO_BLOCKS, PartitionStrategy, _check_tokens,
                             _lookup, _prp, decode_partition, encrypt_indices, new_vote_key,
                             propose_partition, tally_votes, target_count, tokenize_round)


@dataclass(frozen=True)
class IndexMask:
    """Strictly increasing index set of encrypted coordinates over ``[0, dim)``."""

    he_indices: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.he_indices)
        if idx.ndim != 1:
            raise DimensionError("he_indices must be 1-D")
        if idx.size and idx.dtype.kind not in "iu":
            raise DimensionError(f"he_indices must be integers, got dtype {idx.dtype}")
        check_int("dim", self.dim, 1, error=DimensionError)
        # the range is checked on the values as given: a uint64 past 2**63
        # would wrap negative in the int64 cast
        if idx.size and (idx[0] < 0 or idx[-1] >= self.dim):
            raise DimensionError(f"indices must lie in [0, {self.dim}), got range "
                                 f"[{idx.min()}, {idx.max()}]")
        idx = idx.astype(np.int64, copy=False)
        if np.any(np.diff(idx) <= 0):
            raise ValueError("he_indices must be strictly increasing")
        object.__setattr__(self, "he_indices", idx)

    @property
    def size(self) -> int:
        return int(self.he_indices.size)

    def complement(self) -> np.ndarray:
        """Ascending indices of the noise-protected (non-encrypted) part."""
        keep = np.ones(self.dim, dtype=bool)
        keep[self.he_indices] = False
        return np.nonzero(keep)[0].astype(np.int64)


def index_split(u: np.ndarray, mask: IndexMask) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size != mask.dim:
        raise DimensionError(
            f"vector length {u.size if u.ndim == 1 else u.shape} does not match "
            f"mask dim {mask.dim}"
        )
    return u[mask.complement()], u[mask.he_indices]


def index_merge(dp_part: np.ndarray, he_part: np.ndarray, mask: IndexMask) -> np.ndarray:
    dp_part = np.asarray(dp_part, dtype=np.float64)
    he_part = np.asarray(he_part, dtype=np.float64)
    if dp_part.ndim != 1 or he_part.ndim != 1:
        raise DimensionError(f"dp_part and he_part must be 1-D, got shapes "
                             f"{dp_part.shape} and {he_part.shape}")
    if he_part.size != mask.size:
        raise DimensionError(
            f"he_part length {he_part.size} does not match mask size {mask.size}"
        )
    if dp_part.size != mask.dim - mask.size:
        raise DimensionError(
            f"dp_part length {dp_part.size} does not match {mask.dim - mask.size} "
            f"non-encrypted coordinates"
        )
    out = np.empty(mask.dim, dtype=np.float64)
    out[mask.he_indices] = he_part
    out[mask.complement()] = dp_part
    return out


def index_propose(u: np.ndarray, r: float, strategy: PartitionStrategy,
                  seed=0) -> IndexMask:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise DimensionError(f"update must be 1-D, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("update contains non-finite values")
    dim = u.size
    k = target_count(r, dim)
    check_choice("strategy", strategy, tuple(s.value for s in PartitionStrategy))
    if strategy == PartitionStrategy.RANDOM:
        chosen = np.sort(np.random.default_rng(seed).choice(dim, size=k, replace=False))
    else:
        # the k smallest keys win: every key below the k-th smallest, then
        # the lowest-index ties at it
        key = (-1.0 if strategy == PartitionStrategy.MAX_NORM else 1.0) * np.abs(u)
        mask = np.zeros(dim, dtype=bool)
        if k:
            kth = np.partition(key, k - 1)[k - 1]
            mask = key < kth
            mask[np.flatnonzero(key == kth)[:k - np.count_nonzero(mask)]] = True
        chosen = np.flatnonzero(mask)
    return IndexMask(he_indices=chosen, dim=dim)


def index_tokenize_round(vk, proposals):
    indices = np.sort(np.concatenate(
        [_NO_BLOCKS, *(mask.he_indices.astype(np.uint64) for mask in proposals)]))
    # The union keeps the first of each run of equal sorted indices; np.unique
    # would hash them before sorting, several times slower.
    first = np.ones(indices.size, dtype=bool)
    np.not_equal(indices[1:], indices[:-1], out=first[1:])
    indices = indices[first]
    tokens = _prp(vk, indices)
    order = np.argsort(tokens)
    return replace(vk, _table=((indices, tokens), (tokens[order], indices[order])))


def index_decode(tokens, vk, dim: int, k: int) -> IndexMask:
    check_int("dim", dim, 1)
    check_int("k", k, 0, dim)
    _check_tokens(tokens, "winning tokens")
    if tokens.size > k:
        raise ProtocolError(f"expected at most {k} winning tokens, got {tokens.size}")
    indices = _lookup(vk, tokens, inverse=True)
    if np.any(indices >= dim):
        raise ProtocolError(f"token {tokens[indices >= dim][0]:016x} does not decode "
                            f"to an index below {dim} under this vote key")
    chosen = np.zeros(dim, dtype=bool)
    chosen[indices] = True
    chosen[np.flatnonzero(~chosen[:k])[:k - indices.size]] = True
    return IndexMask(he_indices=np.flatnonzero(chosen), dim=dim)


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: -0.0 and +0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def update(dim: int, seed: int) -> np.ndarray:
    """An update with many magnitude ties (small integers, signed zeros) or
    none (normals), by the seed's parity."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        return rng.integers(-3, 4, dim) * np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    return rng.normal(0.0, 1.0, dim)


strategies = st.sampled_from(list(PartitionStrategy))
seeds = st.integers(0, 2**32 - 1)


@st.composite
def proposal_args(draw, dim: int, low: int = 0):
    """(update, r, strategy, seed) for one client, at a k in [low, dim]."""
    k = draw(st.integers(low, dim))
    seed = draw(seeds)
    return update(dim, seed), k / dim, draw(strategies), seed


@st.composite
def split_cases(draw):
    dim = draw(st.integers(1, 300))
    return dim, draw(proposal_args(dim)), draw(seeds)


@st.composite
def round_cases(draw):
    """A round: dim, the clients' proposal arguments, k and the key's seed.
    Dims up to 300, or about ``_BATCH_LANES`` with every client proposing at
    least 90%, so the union falls on either side of the lane threshold."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 300))
        low = 0
    else:
        dim = draw(st.integers(_BATCH_LANES - 200, _BATCH_LANES + 200))
        low = (9 * dim + 9) // 10
    clients = draw(st.lists(proposal_args(dim, low), max_size=6))
    return dim, clients, draw(st.integers(0, dim)), draw(seeds)


class TestAgainstTheIndexForm:
    @given(split_cases())
    @example((1, (np.array([-0.0]), 1.0, PartitionStrategy.MAX_NORM, 0), 0))
    @example((1, (np.array([5.0]), 0.0, PartitionStrategy.RANDOM, 0), 0))
    @settings(deadline=None)
    def test_proposal_split_and_merge(self, case):
        """A proposal, and the prefix mask of a round that does not vote,
        give the index form's index set, parts and merged vector."""
        dim, args, seed = case
        u, r, _strategy, _seed = args
        k = target_count(r, dim)
        proposed, reference = propose_partition(*args), index_propose(*args)
        assert same_array(proposed.he_indices, reference.he_indices)
        assert proposed.size == reference.size == k and proposed.dim == reference.dim == dim
        prefix, reference_prefix = PartitionMask(np.arange(dim) < k), IndexMask(np.arange(k), dim)
        assert same_array(prefix.he_indices, reference_prefix.he_indices)
        noise = update(dim, seed)
        for mask, ref in ((proposed, reference), (prefix, reference_prefix)):
            dp_part, he_part = split(u, mask)
            ref_dp, ref_he = index_split(u, ref)
            assert same_array(dp_part, ref_dp) and same_array(he_part, ref_he)
            dp_noise, he_noise = index_split(noise, ref)
            assert same_array(merge(dp_part, he_part, mask), index_merge(ref_dp, ref_he, ref))
            assert same_array(merge(dp_noise, he_noise, mask),
                              index_merge(dp_noise, he_noise, ref))

    @given(round_cases())
    @example((_BATCH_LANES, [(update(_BATCH_LANES, 1), 1.0, PartitionStrategy.MAX_NORM, 1)],
              _BATCH_LANES, 0))
    @example((_BATCH_LANES, [(update(_BATCH_LANES, 1), 1 - 1 / _BATCH_LANES,
                              PartitionStrategy.MIN_NORM, 1)], 7, 0))
    @example((5, [], 0, 0))
    @settings(deadline=None)
    def test_round_table_and_decode(self, case):
        """The round table over the union of the proposals and the decoded
        mask equal the index form's, array for array."""
        dim, clients, k, seed = case
        vk = new_vote_key(seed, round_binding=3)
        keyed = tokenize_round(vk, [propose_partition(*args) for args in clients])
        reference = index_tokenize_round(vk, [index_propose(*args) for args in clients])
        for side, ref_side in zip(keyed._table, reference._table):
            for part, ref_part in zip(side, ref_side):
                assert same_array(part, ref_part)
        winners = tally_votes([encrypt_indices(propose_partition(*args), keyed)
                               for args in clients], k)
        decoded, ref_decoded = decode_partition(winners, keyed, dim, k), index_decode(
            winners, reference, dim, k)
        assert same_array(decoded.he_indices, ref_decoded.he_indices)
        assert decoded.size == k
