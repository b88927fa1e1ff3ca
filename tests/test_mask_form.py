"""The boolean partition mask and the round's token table against the index
forms they replaced.

``PartitionMask`` once held a strictly increasing index array and rebuilt
its complement on every ``split`` and ``merge``; ``propose_partition`` and
``decode_partition`` turned their boolean arrays into indices, and
``tokenize_round`` took the union of the round's proposals by concatenating
and sorting them.  Its round table mapped sorted indices to tokens and
sorted tokens back to indices, and ``encrypt_indices`` and
``decode_partition`` read it through ``_lookup``, which ran the PRP (or its
inverse) on the spot for any block the table lacked.  That code is kept
below verbatim (the mask renamed ``IndexMask``, and the table passed as a
value where the key once held it) as the reference: the indicator form and
the table over dim must give the same index sets, the same parts and
vectors, bit for bit, the same round tables, every client's same message
tokens and the same decoded mask; a short winner list, which the reference
pads, the decode refuses.  The example budget comes from the hypothesis
profile (tests/conftest.py registers ``ci``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsplit.errors import DimensionError, ProtocolError, check_choice, check_int
from fedsplit.vectors import PartitionMask, merge, split
from fedsplit.voting import (_BATCH_LANES, _FEISTEL_ROUNDS, _NO_BLOCKS, PartitionStrategy,
                             VoteKey, VoteMessage, _check_tokens, _round_hash, decode_partition,
                             encrypt_indices, new_vote_key, propose_partition, tally_votes,
                             target_count, tokenize_round)


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


def _prp(vk: VoteKey, blocks: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The PRP (or its inverse) of each ``uint64`` block: the Feistel network
    on the blocks' ``uint32`` halves."""
    high, low = (blocks >> 32).astype(np.uint32), blocks.astype(np.uint32)
    # the inverse is the network run backwards: swapped halves, rounds reversed
    left, right = (low, high) if inverse else (high, low)
    order = range(_FEISTEL_ROUNDS)
    with np.errstate(over="ignore"):
        round_hash = _round_hash(vk, lanes=blocks.size >= _BATCH_LANES)
        for i in (reversed(order) if inverse else order):
            left, right = right, left ^ round_hash(i, right)
    if inverse:
        left, right = right, left
    return (left.astype(np.uint64) << 32) | right


def _lookup(vk: VoteKey, table, blocks: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``_prp`` read from the round table; blocks the table lacks are
    computed here and not stored, so foreign tokens cannot grow it."""
    keys, values = table[inverse]
    pos = np.searchsorted(keys, blocks)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == blocks[hit]
    out = np.empty_like(blocks)
    out[hit] = values[pos[hit]]
    out[~hit] = _prp(vk, blocks[~hit], inverse)
    return out


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
    return (indices, tokens), (tokens[order], indices[order])


def index_encrypt(mask, vk: VoteKey, table) -> VoteMessage:
    """Turn a proposal into opaque tokens; deterministic per (key, round, index)."""
    tokens = _lookup(vk, table, mask.he_indices.astype(np.uint64))
    return VoteMessage(tokens=np.sort(tokens))


def index_decode(tokens, vk, table, dim: int, k: int) -> IndexMask:
    check_int("dim", dim, 1)
    check_int("k", k, 0, dim)
    _check_tokens(tokens, "winning tokens")
    if tokens.size > k:
        raise ProtocolError(f"expected at most {k} winning tokens, got {tokens.size}")
    indices = _lookup(vk, table, tokens, inverse=True)
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
    """A round: dim, the arguments of a cohort of 1-16 clients' proposals, k
    and the key's seed.  Dims up to 300, or about ``_BATCH_LANES`` with every
    client proposing at least 90%, so the union falls on either side of the
    lane threshold.  A union smaller than k gives a short winner list, which
    the decode refuses."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 300))
        low = 0
    else:
        dim = draw(st.integers(_BATCH_LANES - 200, _BATCH_LANES + 200))
        low = (9 * dim + 9) // 10
    clients = draw(st.lists(proposal_args(dim, low), min_size=1, max_size=16))
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
    @example((5, [(update(5, 1), 0.4, PartitionStrategy.MAX_NORM, 1)], 4, 0))
    @example((5, [(update(5, 1), 0.0, PartitionStrategy.RANDOM, 1)], 3, 0))
    @settings(deadline=None)
    def test_round_table_and_decode(self, case):
        """The round table over the union of the proposals equals the index
        form's, read over dim; every client's message tokens, and the mask
        decoded from k winners, equal the index form's, array for array; a
        short winner list is refused where the index form pads it."""
        dim, clients, k, seed = case
        vk = new_vote_key(seed, round_binding=3)
        proposals = [propose_partition(*args) for args in clients]
        reference_proposals = [index_propose(*args) for args in clients]
        table = tokenize_round(vk, proposals)
        reference = index_tokenize_round(vk, reference_proposals)
        union, tokens = table
        (indices, ref_tokens), _ = reference
        ref_union = np.zeros(dim, dtype=bool)
        ref_union[indices] = True
        ref_full = np.zeros(dim, dtype=np.uint64)
        ref_full[indices] = ref_tokens
        assert same_array(union, ref_union) and same_array(tokens, ref_full)
        msgs = [encrypt_indices(proposal, table) for proposal in proposals]
        for msg, ref_msg in zip(msgs, (index_encrypt(p, vk, reference)
                                       for p in reference_proposals)):
            assert same_array(msg.tokens, ref_msg.tokens)
        winners = tally_votes(msgs, k)
        assert winners.size == min(k, np.count_nonzero(union))
        if winners.size < k:
            with pytest.raises(ProtocolError, match=f"^expected {k} winning tokens, "
                                                    f"got {winners.size}$"):
                decode_partition(winners, table, k)
            return
        decoded = decode_partition(winners, table, k)
        ref_decoded = index_decode(winners, vk, reference, dim, k)
        assert same_array(decoded.he_indices, ref_decoded.he_indices)
        assert decoded.size == k
