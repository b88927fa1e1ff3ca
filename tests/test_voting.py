import hashlib
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsplit import voting
from fedsplit.errors import DimensionError, ProtocolError
from fedsplit.voting import (PartitionStrategy, decode_partition, encrypt_indices,
                             new_vote_key, propose_partition, tally_votes, target_count,
                             tokenize_round, VoteKey, VoteMessage)
from fedsplit.vectors import PartitionMask


def mask_of(indices, dim):
    encrypted = np.zeros(dim, dtype=bool)
    encrypted[np.array(list(indices), dtype=np.int64)] = True
    return PartitionMask(encrypted)


class TestTargetCount:
    @pytest.mark.parametrize("r,dim,expected", [
        (0.1, 100, 10),
        (0.0, 7, 0),
        (1.0, 7, 7),
        (0.05, 50, 3),  # 2.5 rounds half-up
    ])
    def test_values(self, r, dim, expected):
        assert target_count(r, dim) == expected

    def test_bounds(self):
        with pytest.raises(ValueError):
            target_count(-0.1, 10)
        with pytest.raises(ValueError):
            target_count(1.1, 10)
        with pytest.raises(ValueError):
            target_count(0.5, 0)

    @pytest.mark.parametrize("dim", [True, 2.5, 4.0, "4"])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer"):
            target_count(0.5, dim)

    def test_numpy_integer_dim_accepted(self):
        assert target_count(0.1, np.int64(100)) == 10

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=300, deadline=None)
    def test_always_in_range(self, r, dim):
        assert 0 <= target_count(r, dim) <= dim


def _argsort_proposal(u, k, strategy):
    """The full-sort proposal ``propose_partition`` replaced: a stable sort of
    the keys keeps equal magnitudes in index order."""
    largest_first = -1.0 if strategy is PartitionStrategy.MAX_NORM else 1.0
    return np.sort(np.argsort(largest_first * np.abs(u), kind="stable")[:k])


class TestProposePartition:
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40),
           st.sampled_from([PartitionStrategy.MAX_NORM, PartitionStrategy.MIN_NORM]))
    @settings(deadline=None)
    def test_equals_stable_argsort_reference(self, values, strategy):
        # small integers: ties at the k-th magnitude are the common case
        u = np.array(values, dtype=np.float64)
        dim = u.size
        for k in range(dim + 1):
            assert target_count(k / dim, dim) == k
            got = propose_partition(u, k / dim, strategy)
            assert got.he_indices.tolist() == _argsort_proposal(u, k, strategy).tolist()

    def test_max_selects_largest_magnitudes(self):
        u = np.array([0.1, -5.0, 0.2, 3.0])
        m = propose_partition(u, 0.5, PartitionStrategy.MAX_NORM)
        assert m.he_indices.tolist() == [1, 3]

    def test_min_selects_smallest_magnitudes(self):
        u = np.array([0.1, -5.0, 0.2, 3.0])
        m = propose_partition(u, 0.5, PartitionStrategy.MIN_NORM)
        assert m.he_indices.tolist() == [0, 2]

    def test_tie_breaks_toward_lower_index(self):
        u = np.array([2.0, 2.0, 2.0, 2.0])
        m = propose_partition(u, 0.25, PartitionStrategy.MAX_NORM)
        assert m.he_indices.tolist() == [0]

    def test_random_is_seeded_and_valid(self):
        u = np.zeros(20)
        a = propose_partition(u, 0.3, PartitionStrategy.RANDOM, seed=5)
        b = propose_partition(u, 0.3, PartitionStrategy.RANDOM, seed=5)
        c = propose_partition(u, 0.3, PartitionStrategy.RANDOM, seed=6)
        assert a == b
        assert a.size == target_count(0.3, 20)
        assert a.he_indices.tolist() != c.he_indices.tolist()

    @given(st.integers(min_value=2, max_value=64),
           st.floats(min_value=0.05, max_value=1.0),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_max_dominance(self, dim, r, seed):
        # one coordinate 10x larger than all others is always proposed
        assume(target_count(r, dim) >= 1)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, dim)
        star = int(rng.integers(0, dim))
        u[star] = 10.0 * np.max(np.abs(np.delete(u, star))) + 1.0
        m = propose_partition(u, r, PartitionStrategy.MAX_NORM)
        assert star in set(m.he_indices.tolist())


class TestTokens:
    def test_deterministic_within_round(self):
        vk = new_vote_key(0, round_binding=3)
        a = encrypt_indices(mask_of([5], 10), vk)
        b = encrypt_indices(mask_of([5], 10), vk)
        assert np.array_equal(a.tokens, b.tokens)

    def test_round_separation(self):
        vk0 = new_vote_key(0, round_binding=0)
        vk1 = new_vote_key(0, round_binding=1)
        assert not np.array_equal(encrypt_indices(mask_of([5], 10), vk0).tokens,
                                  encrypt_indices(mask_of([5], 10), vk1).tokens)

    def test_injective(self):
        vk = new_vote_key(1)
        msg = encrypt_indices(mask_of([1, 4], 6), vk)
        assert len(msg.tokens) == 2

    @given(st.integers(min_value=0, max_value=2**20),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=200, deadline=None)
    def test_prp_roundtrip(self, index, round_binding):
        vk = new_vote_key(9, round_binding=round_binding)
        token = voting._prp(vk, np.array([index], dtype=np.uint64))
        assert voting._prp(vk, token, inverse=True).tolist() == [index]

    def test_round_binding_is_an_int64(self):
        """The round function packs the binding as a signed 64-bit integer,
        so the key refuses any other value where it is made; a numpy integer
        packs as its value."""
        key = new_vote_key(8).key
        for binding in (2**63, -2**63 - 1, 1.5, np.float64(3.0), "3", None):
            with pytest.raises(ValueError, match=rf"round_binding must be an integer in "
                                                 rf"\[{-2**63}, {2**63 - 1}\]"):
                VoteKey(key, binding)
        for binding in (2**63 - 1, -2**63):
            vk = VoteKey(key, binding)
            token = voting._prp(vk, np.array([5], np.uint64))
            assert token.tolist() == [reference_token(vk, 5)]
        for blocks in (np.array([5], np.uint64), np.arange(voting._BATCH_LANES, dtype=np.uint64)):
            assert np.array_equal(voting._prp(VoteKey(key, np.int64(3)), blocks),
                                  voting._prp(VoteKey(key, 3), blocks))

    @pytest.mark.parametrize("key,shown", [
        ("a" * 16, "str"), (list(range(16)), "list"), (bytearray(16), "bytearray"),
        (memoryview(bytes(16)), "memoryview"), (bytes(15), "15"), (bytes(17), "17"),
    ], ids=["str", "list", "bytearray", "memoryview", "15-bytes", "17-bytes"])
    def test_key_is_16_bytes(self, key, shown):
        """A key is refused where it is made unless it is ``bytes`` of length
        16: a str or a list would fail inside the PRP, and a bytearray makes
        a key that does not hash."""
        with pytest.raises(ValueError, match=f"^vote key must be 16 bytes, got {shown}$"):
            VoteKey(key, 0)


def reference_round(vk, feistel_round, half):
    digest = hashlib.sha256(
        vk.key + struct.pack(">qBI", vk.round_binding, feistel_round, half)).digest()
    return struct.unpack(">I", digest[:4])[0]


def reference_token(vk, index):
    """The 4-round Feistel PRP written out, independent of the token table."""
    left, right = index >> 32, index & 0xFFFFFFFF
    for i in range(4):
        left, right = right, left ^ reference_round(vk, i, right)
    return (left << 32) | right


def reference_index(vk, token):
    left, right = token >> 32, token & 0xFFFFFFFF
    for i in reversed(range(4)):
        left, right = right ^ reference_round(vk, i, left), left
    return (left << 32) | right


@pytest.fixture
def prp_lanes(monkeypatch):
    """Every block the PRP computes (table lookups excluded), in call order."""
    computed, prp = [], voting._prp

    def spy(vk, blocks, inverse=False):
        computed.extend(blocks.tolist())
        return prp(vk, blocks, inverse)

    monkeypatch.setattr(voting, "_prp", spy)
    return computed


class StrictWord:
    """A ``np.uint32`` whose operators refuse Python ints."""

    __array_ufunc__ = None  # np.uint32 <op> StrictWord falls to the reflected op

    def __init__(self, value):
        self.value = np.uint32(value)

    def _apply(op):
        def apply(self, other):
            if isinstance(other, int):
                raise TypeError(f"Python int {other} in uint32 arithmetic")
            return StrictWord(op(self.value, getattr(other, "value", other)))
        return apply

    __add__ = __radd__ = _apply(np.add)
    __and__ = __rand__ = _apply(np.bitwise_and)
    __or__ = __ror__ = _apply(np.bitwise_or)
    __xor__ = __rxor__ = _apply(np.bitwise_xor)
    __rshift__ = _apply(np.right_shift)
    __lshift__ = _apply(np.left_shift)


class TestBatchedPrp:
    """The PRP routine equals the hashlib reference whichever round-hash
    kernel it takes.  The example budget of the hypothesis tests comes from
    the profile (``--hypothesis-profile=ci`` runs 3,000)."""

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40),
           st.integers(min_value=-2**63, max_value=2**63 - 1),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(deadline=None)
    def test_matches_reference(self, blocks, round_binding, seed, batched):
        vk = new_vote_key(seed, round_binding=round_binding)
        arr = np.array(blocks, dtype=np.uint64)
        with mock.patch.object(voting, "_BATCH_LANES", 0 if batched else len(blocks) + 1):
            forward, inverse = voting._prp(vk, arr), voting._prp(vk, arr, inverse=True)
            roundtrip = voting._prp(vk, forward, inverse=True)
        assert forward.dtype == inverse.dtype == np.uint64
        assert forward.tolist() == [reference_token(vk, b) for b in blocks]
        assert inverse.tolist() == [reference_index(vk, b) for b in blocks]
        assert roundtrip.tolist() == blocks

    @given(st.binary(min_size=29, max_size=29))
    @settings(max_examples=50, deadline=None)
    def test_compression_keeps_uint32_words(self, message):
        """One SHA-256 block through ``_sha256_rounds`` equals hashlib, with
        every word a ``StrictWord``: a Python int operand would promote
        differently under NumPy 1.x and NumPy 2, so none may occur."""
        block = message + b"\x80" + bytes(26) + struct.pack(">Q", 29 * 8)
        iv = [StrictWord(h) for h in voting._SHA_IV]
        w = [StrictWord(x) for x in struct.unpack(">16I", block)]
        with np.errstate(over="ignore"):
            state = voting._sha256_rounds(tuple(iv), w, 0, 64)
            digest = [(h + s).value for h, s in zip(iv, state)]
        assert struct.pack(">8I", *digest) == hashlib.sha256(message).digest()

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_either_side_of_the_lane_threshold(self, offset):
        vk = new_vote_key(25, round_binding=9)
        blocks = np.random.default_rng(26).integers(
            0, 2**64, voting._BATCH_LANES + offset, dtype=np.uint64, endpoint=False)
        tokens = voting._prp(vk, blocks)
        assert tokens.tolist() == [reference_token(vk, b) for b in blocks.tolist()]
        assert np.array_equal(voting._prp(vk, tokens, inverse=True), blocks)


class TestTokenMemo:
    """A round key's token table serves the round's proposals; tokens always
    equal the plain PRP, whatever the table holds."""

    @staticmethod
    def reference_tokens(vk, indices):
        return np.sort(np.array([reference_token(vk, i) for i in indices], np.uint64))

    def test_fresh_and_warm_key_match_reference(self):
        first, second = [0, 3, 17, 999, 4095], [3, 8, 999, 2**16 + 7]
        fresh = new_vote_key(21, round_binding=5)
        warm = tokenize_round(new_vote_key(21, round_binding=5), [mask_of(first, 2**17)])
        for vk in (fresh, warm):
            assert np.array_equal(encrypt_indices(mask_of(first, 2**17), vk).tokens,
                                  self.reference_tokens(vk, first))
            assert np.array_equal(encrypt_indices(mask_of(second, 2**17), vk).tokens,
                                  self.reference_tokens(vk, second))

    def test_foreign_token_with_warm_memo(self, prp_lanes):
        """Proposed tokens decode from the table; a foreign token runs the
        inverse PRP each time it arrives, so it is never stored."""
        vk = tokenize_round(new_vote_key(22, round_binding=1), [mask_of(range(0, 40, 2), 64)])
        for token in (reference_token(vk, 5), 2**64 - 1, 12345, 2**63):
            one = np.array([token], np.uint64)
            assert voting._prp(vk, one, inverse=True).tolist() == [reference_index(vk, token)]
        prp_lanes.clear()
        beyond = reference_token(vk, 64)
        for _ in range(2):
            with pytest.raises(ProtocolError, match="does not decode"):
                decode_partition(np.array([beyond], np.uint64), vk, 64, 1)
        odd = [reference_token(vk, 1), reference_token(vk, 3)]
        assert decode_partition(np.array(odd, np.uint64), vk, 64, 2).he_indices.tolist() == [1, 3]
        even = [reference_token(vk, 38), reference_token(vk, 2)]
        assert decode_partition(np.array(even, np.uint64), vk, 64, 2).he_indices.tolist() == [2, 38]
        assert prp_lanes == [beyond, beyond, *odd]

    def test_untokenized_key_on_the_lane_path(self, prp_lanes):
        """A proposal as wide as ``_BATCH_LANES`` on a key whose round was
        never tokenized: its misses run as numpy lanes, forward to the
        reference tokens and inverse back to the proposal."""
        dim = 2 * voting._BATCH_LANES
        mask = mask_of(range(1, dim, 2), dim)
        vk = new_vote_key(23, round_binding=2)
        msg = encrypt_indices(mask, vk)
        assert np.array_equal(msg.tokens, self.reference_tokens(vk, range(1, dim, 2)))
        decoded = decode_partition(msg.tokens, vk, dim, msg.tokens.size)
        assert np.array_equal(decoded.he_indices, mask.he_indices)
        assert len(prp_lanes) == 2 * voting._BATCH_LANES

    def test_tokenize_round_returns_a_new_key(self):
        """The table goes on the returned copy; the argument keeps its empty
        table and still equals the copy."""
        vk = new_vote_key(27, round_binding=4)
        keyed = tokenize_round(vk, [mask_of([1, 5], 8), mask_of([5, 6], 8)])
        assert keyed is not vk and keyed == vk
        assert all(part.size == 0 for side in vk._table for part in side)
        (indices, tokens), (sorted_tokens, _) = keyed._table
        assert indices.tolist() == [1, 5, 6]
        assert tokens.tolist() == [reference_token(vk, i) for i in (1, 5, 6)]
        assert sorted_tokens.tolist() == sorted(tokens.tolist())

    @given(st.integers(1, 2**17), st.lists(st.lists(st.integers(0, 2**17 - 1), max_size=40),
                                           max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_table_equals_the_np_unique_union(self, dim, proposals, seed):
        """The sorted union equals ``np.unique`` of the round's proposals
        (none, or empty ones, included), and every table entry is that
        index's token."""
        masks = [mask_of([i % dim for i in p], dim) for p in proposals]
        vk = tokenize_round(new_vote_key(seed, round_binding=1), masks)
        union = np.unique(np.concatenate(
            [np.empty(0, np.uint64), *(m.he_indices.astype(np.uint64) for m in masks)]))
        (indices, tokens), (sorted_tokens, their_indices) = vk._table
        assert indices.dtype == np.uint64 and np.array_equal(indices, union)
        assert np.array_equal(tokens, voting._prp(vk, union))
        order = np.argsort(tokens)
        assert np.array_equal(sorted_tokens, tokens[order])
        assert np.array_equal(their_indices, union[order])

    def test_proposals_of_differing_dim_rejected(self):
        with pytest.raises(DimensionError, match=r"proposals differ in dim: \[4, 5, 4\]$"):
            tokenize_round(new_vote_key(29), [mask_of([1], 4), mask_of([1], 5), mask_of([2], 4)])

    def test_no_proposals_give_an_empty_table(self):
        vk = tokenize_round(new_vote_key(28, round_binding=0), [])
        for side in vk._table:
            for part in side:
                assert part.dtype == np.uint64 and part.size == 0

    def test_equality_and_hash_ignore_memo(self, prp_lanes):
        base = new_vote_key(24)
        a = tokenize_round(VoteKey(base.key, 3), [mask_of([1, 2, 3], 8)])
        b = VoteKey(base.key, 3)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != VoteKey(base.key, 4)
        prp_lanes.clear()
        assert np.array_equal(encrypt_indices(mask_of([1, 3], 8), a).tokens,
                              encrypt_indices(mask_of([1, 3], 8), b).tokens)
        assert prp_lanes == [1, 3]  # b's table is its own, and empty


class TestTally:
    def test_reference_scenario_two_most_frequent(self):
        # three clients propose {1,4}, {1,2}, {4,1}; counts 1 -> 3, 4 -> 2, 2 -> 1
        vk = new_vote_key(7, round_binding=0)
        msgs = [encrypt_indices(mask_of(p, 5), vk) for p in ([1, 4], [1, 2], [4, 1])]
        winners = tally_votes(msgs, 2)
        assert decode_partition(winners, vk, 5, 2).he_indices.tolist() == [1, 4]

    def test_unanimity(self):
        vk = new_vote_key(8)
        msgs = [encrypt_indices(mask_of([0, 2, 3], 6), vk) for _ in range(4)]
        winners = tally_votes(msgs, 3)
        assert decode_partition(winners, vk, 6, 3).he_indices.tolist() == [0, 2, 3]

    def test_all_ties_pick_lexicographically_smallest_tokens(self):
        vk = new_vote_key(9)
        msg = encrypt_indices(mask_of([0, 1, 2], 4), vk)
        winners = tally_votes([msg], 2)
        assert np.array_equal(winners, np.sort(msg.tokens)[:2])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            tally_votes([], -1)

    @pytest.mark.parametrize("k", [True, 2.5, 1.0, "1"])
    def test_non_integer_k_rejected(self, k):
        msg = VoteMessage(np.array([3, 9], dtype=np.uint64))
        with pytest.raises(ValueError, match="k must be an integer"):
            tally_votes([msg], k)

    def test_numpy_integer_k_accepted(self):
        msg = VoteMessage(np.array([3, 9], dtype=np.uint64))
        assert tally_votes([msg], np.int64(1)).tolist() == [3]

    def test_rank_tokens_most_votes_first_ties_to_smaller_token(self):
        msgs = [VoteMessage(np.array([5, 9, 2**64 - 1], dtype=np.uint64)),
                VoteMessage(np.array([3, 9], dtype=np.uint64)),
                VoteMessage(np.array([3, 7, 2**64 - 1], dtype=np.uint64))]
        # two votes each for 3, 9 and 2**64 - 1, then one each for 5 and 7;
        # tally_votes keeps the first k of that ranking, sorted
        ranked = [3, 9, 2**64 - 1, 5, 7]
        for k in range(len(ranked) + 2):
            winners = tally_votes(msgs, k)
            assert winners.dtype == np.uint64
            assert winners.tolist() == sorted(ranked[:k])

    def test_rank_tokens_of_no_messages(self):
        for k in (0, 3):
            winners = tally_votes([], k)
            assert winners.dtype == np.uint64 and winners.size == 0

    def test_int64_tokens_never_reach_the_tally(self):
        """Concatenated with ``uint64``, int64 tokens promote to float64, and
        the tally would elect 2**62, a token nobody sent.  A message holds
        only a strictly increasing 1-D ``uint64`` array."""
        with pytest.raises(ProtocolError, match="strictly increasing"):
            tally_votes([VoteMessage(np.array([2**62 + 1, 2**62 + 3], np.int64)),
                         VoteMessage(np.array([2**62 + 1], np.int64))], 1)
        for tokens in ([1, 2], np.array([[1, 2]], np.uint64), np.array([2, 1], np.uint64),
                       np.array([1, 1], np.uint64), np.array([1.0, 2.0])):
            with pytest.raises(ProtocolError, match="strictly increasing"):
                VoteMessage(tokens)
        sent = np.array([2**62 + 1, 2**62 + 3], np.uint64)
        assert tally_votes([VoteMessage(sent), VoteMessage(sent[:1])], 1).tolist() == [2**62 + 1]


def set_algebra_decode(tokens, vk, dim, k):
    """``decode_partition`` as it was written with set operations, kept as
    the reference for the boolean-mask decode of a valid token array."""
    if not 0 <= k <= dim:
        raise ValueError(f"k must lie in [0, {dim}], got {k}")
    tokens = np.fromiter(tokens, dtype=np.uint64)
    if tokens.size > k or np.unique(tokens).size < tokens.size:
        raise ProtocolError(f"expected at most {k} winning tokens, got {tokens.size}")
    indices = voting._lookup(vk, tokens, inverse=True)
    if np.any(indices >= dim):
        raise ProtocolError(f"token {tokens[indices >= dim][0]:016x} does not decode "
                            f"to an index below {dim} under this vote key")
    pad = np.setdiff1d(np.arange(k, dtype=np.uint64), indices)[:k - indices.size]
    chosen = np.zeros(dim, dtype=bool)
    chosen[np.union1d(indices, pad)] = True
    return PartitionMask(chosen)


def is_token_array(tokens):
    """What ``tally_votes`` returns: a 1-D ``uint64`` array, sorted, no repeats."""
    return (isinstance(tokens, np.ndarray) and tokens.dtype == np.uint64
            and tokens.ndim == 1 and tokens.tolist() == sorted(set(tokens.tolist())))


@st.composite
def decode_cases(draw):
    """(winning tokens, vote key, dim, k) for dim <= 64 and every k: winners
    that decode, or (second branch) that may repeat, exceed k or decode at
    or beyond dim; half the time as a sorted ``uint64`` array without
    repeats, else as drawn: an array (``uint64``, int64 or float), a list (of
    ints or of numpy scalars) or a frozenset; to a key whose table holds some
    of the round's indices, or to an untokenized key."""
    dim = draw(st.integers(min_value=1, max_value=64))
    k = draw(st.integers(min_value=0, max_value=dim))
    winners = draw(st.lists(st.integers(min_value=0, max_value=dim - 1), unique=True, max_size=k)
                   | st.lists(st.integers(min_value=0, max_value=dim + 3), max_size=k + 1))
    vk = new_vote_key(draw(st.integers(min_value=0, max_value=2**32 - 1)),
                      round_binding=draw(st.integers(min_value=0, max_value=2**16)))
    if draw(st.booleans()):
        table = draw(st.lists(st.integers(min_value=0, max_value=dim - 1), unique=True))
        vk = tokenize_round(vk, [mask_of(table, dim)])
    tokens = [reference_token(vk, i) for i in winners]
    if draw(st.booleans()):
        return np.array(sorted(set(tokens)), np.uint64), vk, dim, k
    given_as = draw(st.sampled_from([lambda t: np.array(t, np.uint64), list, frozenset,
                                     lambda t: [np.uint64(x) for x in t],
                                     lambda t: np.array(t, np.uint64).astype(np.int64),
                                     lambda t: np.array(t, np.float64)]))
    return given_as(tokens), vk, dim, k


class TestDecodePartition:
    @given(decode_cases())
    @settings(deadline=None)
    def test_equals_set_algebra_decode(self, case):
        """On a token array, the same mask or the same ProtocolError as the
        set-algebra decode; any other form is rejected.  The example budget
        comes from the hypothesis profile."""
        if not is_token_array(case[0]):
            with pytest.raises(ProtocolError, match="strictly increasing 1-D uint64 array"):
                decode_partition(*case)
            return

        def outcome(decode):
            try:
                mask = decode(*case)
            except ProtocolError as err:
                return str(err)
            return mask.he_indices.tolist(), mask.dim
        assert outcome(decode_partition) == outcome(set_algebra_decode)

    def test_inverse(self):
        vk = new_vote_key(10)
        tokens = encrypt_indices(mask_of([1, 4], 5), vk).tokens
        assert decode_partition(tokens, vk, 5, 2).he_indices.tolist() == [1, 4]

    def test_padding_with_smallest_unselected(self):
        vk = new_vote_key(11)
        tokens = encrypt_indices(mask_of([3], 5), vk).tokens
        assert decode_partition(tokens, vk, 5, 2).he_indices.tolist() == [0, 3]

    def test_empty(self):
        vk = new_vote_key(12)
        m = decode_partition(np.empty(0, np.uint64), vk, 5, 0)
        assert m.size == 0

    @pytest.mark.parametrize("dim,k", [(5, True), (5, 2.5), (5, 1.0), (True, 1), (5.0, 1),
                                       (5.5, 1), ("5", 1)])
    def test_non_integer_sizes_rejected(self, dim, k):
        vk = new_vote_key(18)
        tokens = encrypt_indices(mask_of([3], 5), vk).tokens
        with pytest.raises(ValueError, match="(dim|k) must be an integer"):
            decode_partition(tokens, vk, dim, k)

    def test_numpy_integer_sizes_accepted(self):
        vk = new_vote_key(18)
        tokens = encrypt_indices(mask_of([3], 5), vk).tokens
        m = decode_partition(tokens, vk, np.int64(5), np.uint8(2))
        assert m.he_indices.tolist() == [0, 3]

    def test_foreign_token_rejected(self):
        vk = new_vote_key(13)
        bad = np.array([2**64 - 1], dtype=np.uint64)  # decodes far beyond dim
        with pytest.raises(ProtocolError):
            decode_partition(bad, vk, 4, 1)

    def test_more_than_k_tokens_rejected(self):
        vk = new_vote_key(15)
        tokens = encrypt_indices(mask_of([0, 2, 3], 5), vk).tokens
        with pytest.raises(ProtocolError, match="at most 2 winning tokens, got 3"):
            decode_partition(tokens, vk, 5, 2)

    def test_repeated_token_rejected(self):
        vk = new_vote_key(16)
        token = encrypt_indices(mask_of([3], 5), vk).tokens
        with pytest.raises(ProtocolError, match="strictly increasing"):
            decode_partition(np.concatenate([token, token]), vk, 5, 2)

    @pytest.mark.parametrize("tokens", [[1.5], [-1], [2**64], [True, 2.0], ["7"],
                                        np.array([1.5]), np.array([-1]), np.array([[1]]),
                                        np.array([True]), [1, 2], frozenset(), frozenset({1}),
                                        np.array([1, 2], np.int64),
                                        np.array([2, 1], np.uint64)],
                             ids=["float", "negative", "2**64", "int-then-float", "str",
                                  "float-array", "int64-negative", "2-D", "bool-array",
                                  "int-list", "empty-frozenset", "frozenset", "int64-array",
                                  "unsorted"])
    def test_non_integer_token_rejected(self, tokens):
        """The winners are the tally's strictly increasing 1-D ``uint64``
        array, and nothing else: 1.5 is not truncated to 1, -1 or 2**64 is a
        ProtocolError and not an OverflowError, and a list or a frozenset of
        valid tokens is refused as well."""
        with pytest.raises(ProtocolError, match="strictly increasing 1-D uint64 array"):
            decode_partition(tokens, new_vote_key(17), 5, 2)

    def test_consensus_across_clients(self):
        vk = new_vote_key(14, round_binding=2)
        msgs = [encrypt_indices(mask_of([i, i + 1], 8), vk) for i in range(3)]
        winners = tally_votes(msgs, 2)
        masks = [decode_partition(winners, vk, 8, 2) for _ in range(5)]
        assert all(m == masks[0] for m in masks)


def brute_force_winners(proposals, k, token_of):
    """Plaintext counting oracle: sort by (count desc, token asc), take k,
    pad with the smallest unselected indices."""
    counts = Counter()
    for prop in proposals:
        counts.update(prop)
    ranked = sorted(counts, key=lambda idx: (-counts[idx], token_of(idx)))
    chosen = set(ranked[:k])
    pad = 0
    while len(chosen) < k:
        if pad not in chosen:
            chosen.add(pad)
        pad += 1
    return sorted(chosen)


def run_oracle_trial(rng, trial):
    dim = int(rng.integers(1, 65))
    n_clients = int(rng.integers(1, 17))
    k = int(rng.integers(0, dim + 1))
    vk = new_vote_key(int(rng.integers(0, 2**31)), round_binding=trial)
    proposals = []
    msgs = []
    for _ in range(n_clients):
        size = int(rng.integers(0, dim + 1))
        prop = sorted(rng.choice(dim, size=size, replace=False).tolist())
        proposals.append(prop)
        msgs.append(encrypt_indices(mask_of(prop, dim), vk))
    got = decode_partition(tally_votes(msgs, k), vk, dim, k).he_indices.tolist()
    expected = brute_force_winners(proposals, k, lambda i: reference_token(vk, i))
    return got, expected


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(99)
    for trial in range(300):
        got, expected = run_oracle_trial(rng, trial)
        assert got == expected, f"trial {trial}"


def test_server_side_blindness_under_relabeling():
    """tally_votes output must be invariant under any equality- and
    order-preserving relabeling of the uint64 tokens."""
    vk = new_vote_key(21)
    msgs = [encrypt_indices(mask_of(p, 10), vk) for p in ([0, 1, 2], [1, 2], [2, 5], [5])]
    all_tokens = sorted({t for m in msgs for t in m.tokens.tolist()})
    # order-preserving relabeling: token -> its rank
    relabel = {t: rank for rank, t in enumerate(all_tokens)}
    relabeled = [VoteMessage(np.array([relabel[t] for t in m.tokens.tolist()], dtype=np.uint64))
                 for m in msgs]
    for k in range(0, 5):
        original = tally_votes(msgs, k)
        mapped = tally_votes(relabeled, k)
        assert mapped.tolist() == [relabel[t] for t in original.tolist()]

