import hashlib
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsplit import voting
from fedsplit.errors import DimensionError, ProtocolError, check_int
from fedsplit.voting import (_BATCH_LANES, _FEISTEL_ROUNDS, _NO_BLOCKS, PartitionStrategy,
                             _round_hash,
                             decode_partition, encrypt_indices, new_vote_key, propose_partition,
                             tally_votes, target_count, tokenize_round, VoteKey, VoteMessage)
from fedsplit.vectors import PartitionMask


def mask_of(indices, dim):
    encrypted = np.zeros(dim, dtype=bool)
    encrypted[np.array(list(indices), dtype=np.int64)] = True
    return PartitionMask(encrypted)


def round_table(vk, *proposals):
    """The round table of ``vk`` over ``proposals``, each an (indices, dim) pair."""
    return tokenize_round(vk, [mask_of(indices, dim) for indices, dim in proposals])


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
        table = round_table(new_vote_key(0, round_binding=3), ([5], 10))
        a = encrypt_indices(mask_of([5], 10), table)
        b = encrypt_indices(mask_of([5], 10), table)
        assert np.array_equal(a.tokens, b.tokens)

    def test_round_separation(self):
        table0 = round_table(new_vote_key(0, round_binding=0), ([5], 10))
        table1 = round_table(new_vote_key(0, round_binding=1), ([5], 10))
        assert not np.array_equal(encrypt_indices(mask_of([5], 10), table0).tokens,
                                  encrypt_indices(mask_of([5], 10), table1).tokens)

    def test_injective(self):
        table = round_table(new_vote_key(1), ([1, 4], 6))
        msg = encrypt_indices(mask_of([1, 4], 6), table)
        assert len(msg.tokens) == 2

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
            forward = voting._prp(vk, arr)
        assert forward.dtype == np.uint64
        assert forward.tolist() == [reference_token(vk, b) for b in blocks]

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


class TestTokenMemo:
    """A round table serves the round's proposals, and only them; its tokens
    always equal the plain PRP."""

    @staticmethod
    def reference_tokens(vk, indices):
        return np.sort(np.array([reference_token(vk, i) for i in indices], np.uint64))

    def test_fresh_and_warm_key_match_reference(self):
        """A table over exactly the proposal, and one over a wider union,
        give the proposal the same reference tokens."""
        first, second = [0, 3, 17, 999, 4095], [3, 8, 999, 2**16 + 7]
        vk = new_vote_key(21, round_binding=5)
        fresh = round_table(vk, (first, 2**17))
        warm = round_table(vk, (first, 2**17), (second, 2**17))
        for table in (fresh, warm):
            assert np.array_equal(encrypt_indices(mask_of(first, 2**17), table).tokens,
                                  self.reference_tokens(vk, first))
        assert np.array_equal(encrypt_indices(mask_of(second, 2**17), warm).tokens,
                              self.reference_tokens(vk, second))

    def test_tokenize_round_returns_the_table(self):
        """The round table is the plain value ``(union, tokens)``; the key
        holds only the key and the round."""
        vk = new_vote_key(27, round_binding=4)
        union, tokens = round_table(vk, ([1, 5], 8), ([5, 6], 8))
        assert vars(vk) == {"key": vk.key, "round_binding": 4}
        assert union.tolist() == [i in (1, 5, 6) for i in range(8)]
        assert tokens.tolist() == [reference_token(vk, i) if i in (1, 5, 6) else 0
                                   for i in range(8)]

    @given(st.integers(1, 2**17), st.lists(st.lists(st.integers(0, 2**17 - 1), max_size=40),
                                           min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_table_equals_the_np_unique_union(self, dim, proposals, seed):
        """The union equals ``np.unique`` of the round's proposals (empty
        ones included) as a ``bool`` array over dim, and the tokens hold
        each union index's token there and 0 elsewhere."""
        masks = [mask_of([i % dim for i in p], dim) for p in proposals]
        vk = new_vote_key(seed, round_binding=1)
        union, tokens = tokenize_round(vk, masks)
        indices = np.unique(np.concatenate(
            [np.empty(0, np.uint64), *(m.he_indices.astype(np.uint64) for m in masks)]))
        assert union.dtype == np.bool_ and union.shape == (dim,)
        assert np.array_equal(np.flatnonzero(union), indices)
        assert tokens.dtype == np.uint64 and tokens.shape == (dim,)
        assert np.array_equal(tokens[union], voting._prp(vk, indices))
        assert not np.any(tokens[~union])

    def test_proposals_of_differing_dim_rejected(self):
        with pytest.raises(DimensionError, match=r"proposals differ in dim: \[4, 5, 4\]$"):
            tokenize_round(new_vote_key(29), [mask_of([1], 4), mask_of([1], 5), mask_of([2], 4)])

    def test_no_proposals_rejected(self):
        """An empty proposal list names no dim, so it makes no table."""
        for proposals in ([], iter(())):
            with pytest.raises(DimensionError, match="at least one proposal"):
                tokenize_round(new_vote_key(28, round_binding=0), proposals)


class TestRoundTableRefusals:
    """The vote reads only the round table; whatever that table cannot
    answer is a ``ProtocolError``, and the PRP never runs on the spot."""

    def test_proposal_outside_the_union_refused(self):
        vk = new_vote_key(31, round_binding=2)
        table = round_table(vk, ([1, 2], 8), ([2, 5], 8))
        assert np.array_equal(encrypt_indices(mask_of([2, 5], 8), table).tokens,
                              TestTokenMemo.reference_tokens(vk, [2, 5]))
        with pytest.raises(ProtocolError, match="outside the round's union"):
            encrypt_indices(mask_of([2, 6], 8), table)

    def test_table_of_another_dim_refused(self):
        table = round_table(new_vote_key(32, round_binding=3), ([1, 2], 8))
        for dim in (7, 9):
            with pytest.raises(ProtocolError,
                               match=f"round table spans dim 8, not the proposal's {dim}$"):
                encrypt_indices(mask_of([1, 2], dim), table)

    def test_token_of_an_unproposed_index_refused(self):
        """Index 6 lies in range but nobody proposed it, so its token is no
        winner this round, alone or beside a proposed one."""
        vk = new_vote_key(33, round_binding=4)
        table = round_table(vk, ([1, 2], 8))
        unproposed, proposed = reference_token(vk, 6), reference_token(vk, 1)
        for winners, k in (([unproposed], 1), (sorted([unproposed, proposed]), 2)):
            with pytest.raises(ProtocolError, match=f"token {unproposed:016x} is not one of "
                                                    f"this round's tokens$"):
                decode_partition(np.array(winners, np.uint64), table, k)
        assert decode_partition(np.array([proposed], np.uint64), table, 1).he_indices.tolist() \
            == [1]


class TestTally:
    def test_reference_scenario_two_most_frequent(self):
        # three clients propose {1,4}, {1,2}, {4,1}; counts 1 -> 3, 4 -> 2, 2 -> 1
        proposals = ([1, 4], [1, 2], [4, 1])
        table = round_table(new_vote_key(7, round_binding=0), *((p, 5) for p in proposals))
        msgs = [encrypt_indices(mask_of(p, 5), table) for p in proposals]
        winners = tally_votes(msgs, 2)
        assert decode_partition(winners, table, 2).he_indices.tolist() == [1, 4]

    def test_unanimity(self):
        table = round_table(new_vote_key(8), ([0, 2, 3], 6))
        msgs = [encrypt_indices(mask_of([0, 2, 3], 6), table) for _ in range(4)]
        winners = tally_votes(msgs, 3)
        assert decode_partition(winners, table, 3).he_indices.tolist() == [0, 2, 3]

    def test_all_ties_pick_lexicographically_smallest_tokens(self):
        table = round_table(new_vote_key(9), ([0, 1, 2], 4))
        msg = encrypt_indices(mask_of([0, 1, 2], 4), table)
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

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12, unique=True).flatmap(
        lambda pool: st.tuples(st.just(len(pool)), st.lists(
            st.lists(st.sampled_from(pool), unique=True), max_size=8))))
    @settings(deadline=None)
    def test_equals_the_stable_argsort_tally(self, case):
        """Over tie-heavy messages (up to 8 clients drawing from at most 12
        tokens anywhere in the uint64 range) and every k from 0 to two past
        the distinct count, the tally equals the stable-argsort tally it
        replaced, dtype and order included.  The example budget comes from
        the hypothesis profile."""
        distinct, messages = case
        msgs = [VoteMessage(np.array(sorted(m), np.uint64)) for m in messages]
        for k in range(distinct + 3):
            got, want = tally_votes(msgs, k), _argsort_tally(msgs, k)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _argsort_tally(msgs, k: int) -> np.ndarray:
    """``tally_votes`` as it was written with a stable argsort of the counts,
    kept verbatim as the reference for the one top-k rule."""
    check_int("k", k, 0)
    tokens = np.concatenate([_NO_BLOCKS, *(msg.tokens for msg in msgs)])
    tokens, counts = np.unique(tokens, return_counts=True)
    return np.sort(tokens[np.argsort(-counts, kind="stable")[:k]])


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


# ``_prp`` above is a verbatim copy of the token path the round table
# replaced, which ran the PRP's inverse on every winning token.


def set_algebra_decode(tokens, vk, dim, k):
    """``decode_partition`` as it was written with set operations, kept as
    the reference for the boolean-mask decode of a valid token array; a
    winner list of other than k tokens, which it once padded, is refused."""
    if not 0 <= k <= dim:
        raise ValueError(f"k must lie in [0, {dim}], got {k}")
    tokens = np.fromiter(tokens, dtype=np.uint64)
    if tokens.size != k or np.unique(tokens).size < tokens.size:
        raise ProtocolError(f"expected {k} winning tokens, got {tokens.size}")
    indices = _prp(vk, tokens, inverse=True)
    if np.any(indices >= dim):
        raise ProtocolError(f"token {tokens[indices >= dim][0]:016x} does not decode "
                            f"to an index below {dim} under this vote key")
    chosen = np.zeros(dim, dtype=bool)
    chosen[indices] = True
    return PartitionMask(chosen)


def is_token_array(tokens):
    """What ``tally_votes`` returns: a 1-D ``uint64`` array, sorted, no repeats."""
    return (isinstance(tokens, np.ndarray) and tokens.dtype == np.uint64
            and tokens.ndim == 1 and tokens.tolist() == sorted(set(tokens.tolist())))


@st.composite
def decode_cases(draw):
    """(winning tokens, vote key, its round table over dim, dim, k, the
    round's proposed indices) for dim <= 64 and every k.  The winners are k
    proposed indices (all of them when fewer were proposed), or (second
    branch) any indices up to dim + 3 that may repeat or number other than
    k; half the time as a sorted ``uint64`` array without repeats, else as
    drawn: an array (``uint64``, int64 or float), a list (of ints or of
    numpy scalars) or a frozenset."""
    dim = draw(st.integers(min_value=1, max_value=64))
    k = draw(st.integers(min_value=0, max_value=dim))
    proposed = draw(st.lists(st.integers(min_value=0, max_value=dim - 1), unique=True))
    from_table = (st.lists(st.sampled_from(proposed), unique=True,
                           min_size=min(k, len(proposed)), max_size=k)
                  if proposed else st.just([]))
    winners = draw(from_table
                   | st.lists(st.integers(min_value=0, max_value=dim + 3), max_size=k + 1))
    vk = new_vote_key(draw(st.integers(min_value=0, max_value=2**32 - 1)),
                      round_binding=draw(st.integers(min_value=0, max_value=2**16)))
    table = round_table(vk, (proposed, dim))
    tokens = [reference_token(vk, i) for i in winners]
    if draw(st.booleans()):
        return np.array(sorted(set(tokens)), np.uint64), vk, table, dim, k, proposed
    given_as = draw(st.sampled_from([lambda t: np.array(t, np.uint64), list, frozenset,
                                     lambda t: [np.uint64(x) for x in t],
                                     lambda t: np.array(t, np.uint64).astype(np.int64),
                                     lambda t: np.array(t, np.float64)]))
    return given_as(tokens), vk, table, dim, k, proposed


class TestDecodePartition:
    @given(decode_cases())
    @settings(deadline=None)
    def test_equals_set_algebra_decode(self, case):
        """On a token array, k winners drawn from the round table give the
        set-algebra decode's mask, and a list of other than k winners its
        ProtocolError; k winners that are not all the round's tokens are a
        ProtocolError; any other form is rejected.  The example budget comes
        from the hypothesis profile."""
        tokens, vk, table, dim, k, proposed = case
        if not is_token_array(tokens):
            with pytest.raises(ProtocolError, match="strictly increasing 1-D uint64 array"):
                decode_partition(tokens, table, k)
            return

        def outcome(decode, *args):
            try:
                mask = decode(tokens, *args)
            except ProtocolError as err:
                return str(err)
            return mask.he_indices.tolist(), mask.dim
        got = outcome(decode_partition, table, k)
        if tokens.size == k and not set(tokens.tolist()) <= {reference_token(vk, i)
                                                             for i in proposed}:
            assert isinstance(got, str) and got.endswith("is not one of this round's tokens")
        else:
            assert got == outcome(set_algebra_decode, vk, dim, k)

    def test_inverse(self):
        table = round_table(new_vote_key(10), ([1, 4], 5))
        tokens = encrypt_indices(mask_of([1, 4], 5), table).tokens
        assert decode_partition(tokens, table, 2).he_indices.tolist() == [1, 4]

    def test_short_winner_list_refused(self):
        """Every proposal marks k coordinates, so the tally returns k winners;
        a shorter list is refused, not padded toward the lowest indices."""
        table = round_table(new_vote_key(11), ([3], 5))
        tokens = encrypt_indices(mask_of([3], 5), table).tokens
        with pytest.raises(ProtocolError, match="^expected 2 winning tokens, got 1$"):
            decode_partition(tokens, table, 2)
        with pytest.raises(ProtocolError, match="^expected 1 winning tokens, got 0$"):
            decode_partition(np.empty(0, np.uint64), table, 1)

    def test_empty(self):
        table = round_table(new_vote_key(12), ([], 5))
        m = decode_partition(np.empty(0, np.uint64), table, 0)
        assert m.size == 0 and m.dim == 5

    @pytest.mark.parametrize("dim,k", [(5, True), (5, 2.5), (5, 1.0), (5, "1")])
    def test_non_integer_sizes_rejected(self, dim, k):
        table = round_table(new_vote_key(18), ([3], dim))
        tokens = encrypt_indices(mask_of([3], dim), table).tokens
        with pytest.raises(ValueError, match="k must be an integer"):
            decode_partition(tokens, table, k)

    def test_numpy_integer_sizes_accepted(self):
        table = round_table(new_vote_key(18), ([3], 5))
        tokens = encrypt_indices(mask_of([3], 5), table).tokens
        m = decode_partition(tokens, table, np.uint8(1))
        assert m.he_indices.tolist() == [3]

    def test_foreign_token_rejected(self):
        table = round_table(new_vote_key(13), ([1], 4))
        bad = np.array([2**64 - 1], dtype=np.uint64)  # no proposed index's token
        with pytest.raises(ProtocolError):
            decode_partition(bad, table, 1)

    def test_more_than_k_tokens_rejected(self):
        table = round_table(new_vote_key(15), ([0, 2, 3], 5))
        tokens = encrypt_indices(mask_of([0, 2, 3], 5), table).tokens
        with pytest.raises(ProtocolError, match="^expected 2 winning tokens, got 3$"):
            decode_partition(tokens, table, 2)

    def test_repeated_token_rejected(self):
        table = round_table(new_vote_key(16), ([3], 5))
        token = encrypt_indices(mask_of([3], 5), table).tokens
        with pytest.raises(ProtocolError, match="strictly increasing"):
            decode_partition(np.concatenate([token, token]), table, 2)

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
        table = round_table(new_vote_key(17), ([1, 2], 5))
        with pytest.raises(ProtocolError, match="strictly increasing 1-D uint64 array"):
            decode_partition(tokens, table, 2)

    def test_consensus_across_clients(self):
        table = round_table(new_vote_key(14, round_binding=2),
                            *(([i, i + 1], 8) for i in range(3)))
        msgs = [encrypt_indices(mask_of([i, i + 1], 8), table) for i in range(3)]
        winners = tally_votes(msgs, 2)
        masks = [decode_partition(winners, table, 2) for _ in range(5)]
        assert all(m == masks[0] for m in masks)


def brute_force_winners(proposals, k, token_of):
    """Plaintext counting oracle: sort by (count desc, token asc), take k."""
    counts = Counter()
    for prop in proposals:
        counts.update(prop)
    ranked = sorted(counts, key=lambda idx: (-counts[idx], token_of(idx)))
    return sorted(ranked[:k])


def run_oracle_trial(rng, trial):
    """The decoded mask, or the decode's refusal when fewer than k distinct
    indices were proposed, against the oracle's."""
    dim = int(rng.integers(1, 65))
    n_clients = int(rng.integers(1, 17))
    k = int(rng.integers(0, dim + 1))
    vk = new_vote_key(int(rng.integers(0, 2**31)), round_binding=trial)
    proposals = []
    for _ in range(n_clients):
        size = int(rng.integers(0, dim + 1))
        proposals.append(sorted(rng.choice(dim, size=size, replace=False).tolist()))
    table = round_table(vk, *((prop, dim) for prop in proposals))
    msgs = [encrypt_indices(mask_of(prop, dim), table) for prop in proposals]
    try:
        got = decode_partition(tally_votes(msgs, k), table, k).he_indices.tolist()
    except ProtocolError as err:
        got = str(err)
    expected = brute_force_winners(proposals, k, lambda i: reference_token(vk, i))
    if len(expected) < k:
        expected = f"expected {k} winning tokens, got {len(expected)}"
    return got, expected


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(99)
    for trial in range(300):
        got, expected = run_oracle_trial(rng, trial)
        assert got == expected, f"trial {trial}"


def test_server_side_blindness_under_relabeling():
    """tally_votes output must be invariant under any equality- and
    order-preserving relabeling of the uint64 tokens."""
    proposals = ([0, 1, 2], [1, 2], [2, 5], [5])
    table = round_table(new_vote_key(21), *((p, 10) for p in proposals))
    msgs = [encrypt_indices(mask_of(p, 10), table) for p in proposals]
    all_tokens = sorted({t for m in msgs for t in m.tokens.tolist()})
    # order-preserving relabeling: token -> its rank
    relabel = {t: rank for rank, t in enumerate(all_tokens)}
    relabeled = [VoteMessage(np.array([relabel[t] for t in m.tokens.tolist()], dtype=np.uint64))
                 for m in msgs]
    for k in range(0, 5):
        original = tally_votes(msgs, k)
        mapped = tally_votes(relabeled, k)
        assert mapped.tolist() == [relabel[t] for t in original.tolist()]

