import hashlib
import struct
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsplit.errors import ProtocolError
from fedsplit.voting import (PartitionStrategy, decode_partition,
                             decode_vote_message, encode_vote_message,
                             encrypt_indices, new_vote_key, propose_partition,
                             rank_tokens, tally_votes, target_count, VoteKey, VoteMessage,
                             _prp_decrypt, _prp_encrypt)
from fedsplit.vectors import PartitionMask


def mask_of(indices, dim):
    return PartitionMask.from_indices(indices, dim)


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

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=300, deadline=None)
    def test_always_in_range(self, r, dim):
        assert 0 <= target_count(r, dim) <= dim


class TestProposePartition:
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
        assert not np.array_equal(a.he_indices, c.he_indices) or True  # seeded only

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
        from fedsplit.voting import _prp_decrypt, _prp_encrypt
        vk = new_vote_key(9, round_binding=round_binding)
        assert _prp_decrypt(vk, _prp_encrypt(vk, index)) == index


def reference_round(vk, feistel_round, half):
    digest = hashlib.sha256(
        vk.key + struct.pack(">qBI", vk.round_binding, feistel_round, half)).digest()
    return struct.unpack(">I", digest[:4])[0]


def reference_token(vk, index):
    """The 4-round Feistel PRP written out, independent of the memo."""
    left, right = index >> 32, index & 0xFFFFFFFF
    for i in range(4):
        left, right = right, left ^ reference_round(vk, i, right)
    return (left << 32) | right


def reference_index(vk, token):
    left, right = token >> 32, token & 0xFFFFFFFF
    for i in reversed(range(4)):
        left, right = right ^ reference_round(vk, i, left), left
    return (left << 32) | right


class TestTokenMemo:
    """Tokens computed once per round key must equal the plain PRP."""

    @staticmethod
    def reference_tokens(vk, indices):
        return np.sort(np.array([reference_token(vk, i) for i in indices], np.uint64))

    def test_fresh_and_warm_key_match_reference(self):
        vk = new_vote_key(21, round_binding=5)
        first, second = [0, 3, 17, 999, 4095], [3, 8, 999, 2**33 + 7]
        fresh = encrypt_indices(mask_of(first, 2**34), vk)
        warm = encrypt_indices(mask_of(second, 2**34), vk)
        again = encrypt_indices(mask_of(first, 2**34), vk)
        assert np.array_equal(fresh.tokens, self.reference_tokens(vk, first))
        assert np.array_equal(warm.tokens, self.reference_tokens(vk, second))
        assert np.array_equal(again.tokens, fresh.tokens)

    def test_foreign_token_with_warm_memo(self):
        vk = new_vote_key(22, round_binding=1)
        encrypt_indices(mask_of(range(0, 40, 2), 64), vk)
        memo_size = len(vk._indices)
        for token in (reference_token(vk, 5), 2**64 - 1, 12345, 2**63):
            assert _prp_decrypt(vk, token) == reference_index(vk, token)
        beyond = np.array([reference_token(vk, 64)], dtype=np.uint64)
        with pytest.raises(ProtocolError, match="does not decode"):
            decode_partition(beyond, vk, 64, 1)
        odd = np.array([reference_token(vk, 1), reference_token(vk, 3)], np.uint64)
        assert decode_partition(odd, vk, 64, 2).he_indices.tolist() == [1, 3]
        assert len(vk._indices) == memo_size == len(vk._tokens) == 20

    def test_threads_share_one_memo(self):
        """More workers than cores and a short switch interval on one round
        key: the messages equal a single thread's and the memo stays a
        bijection."""
        dim = 5000
        masks = [mask_of(range(c * 300, c * 300 + 1500), dim) for c in range(8)]
        serial = [encrypt_indices(m, new_vote_key(23, round_binding=2), client_id=c)
                  for c, m in enumerate(masks)]
        vk = new_vote_key(23, round_binding=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(encrypt_indices, m, vk, c)
                           for c, m in enumerate(masks)]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a.tokens, b.tokens) for a, b in zip(serial, threaded))
        assert len(vk._tokens) == len(vk._indices) == 3600
        assert all(vk._indices[t] == i for i, t in vk._tokens.items())

    def test_equality_and_hash_ignore_memo(self):
        base = new_vote_key(24)
        a, b = VoteKey(base.key, 3), VoteKey(base.key, 3)
        encrypt_indices(mask_of([1, 2, 3], 8), a)
        assert a._tokens and not b._tokens and not VoteKey(base.key, 3)._tokens
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != VoteKey(base.key, 4)


class TestTally:
    def test_reference_scenario_two_most_frequent(self):
        # three clients propose {1,4}, {1,2}, {4,1}; counts 1 -> 3, 4 -> 2, 2 -> 1
        vk = new_vote_key(7, round_binding=0)
        msgs = [encrypt_indices(mask_of(p, 5), vk, client_id=i)
                for i, p in enumerate([[1, 4], [1, 2], [4, 1]])]
        winners = tally_votes(msgs, 2)
        assert decode_partition(winners, vk, 5, 2).he_indices.tolist() == [1, 4]

    def test_unanimity(self):
        vk = new_vote_key(8)
        msgs = [encrypt_indices(mask_of([0, 2, 3], 6), vk, client_id=i)
                for i in range(4)]
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

    def test_rank_tokens_most_votes_first_ties_to_smaller_token(self):
        msgs = [VoteMessage(0, np.array([5, 9, 2**64 - 1], dtype=np.uint64)),
                VoteMessage(1, np.array([3, 9], dtype=np.uint64)),
                VoteMessage(2, np.array([3, 7, 2**64 - 1], dtype=np.uint64))]
        tokens, counts = rank_tokens(msgs)
        assert tokens.dtype == np.uint64
        assert tokens.tolist() == [3, 9, 2**64 - 1, 5, 7]
        assert counts.tolist() == [2, 2, 2, 1, 1]
        assert tally_votes(msgs, 4).tolist() == [3, 5, 9, 2**64 - 1]

    def test_rank_tokens_of_no_messages(self):
        tokens, counts = rank_tokens([])
        assert tokens.dtype == np.uint64 and tokens.size == 0 and counts.size == 0
        assert tally_votes([], 3).size == 0


class TestDecodePartition:
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
        m = decode_partition(frozenset(), vk, 5, 0)
        assert m.size == 0

    def test_foreign_token_rejected(self):
        vk = new_vote_key(13)
        bad = np.array([2**64 - 1], dtype=np.uint64)  # decodes far beyond dim
        with pytest.raises(ProtocolError):
            decode_partition(bad, vk, 4, 1)

    def test_more_than_k_tokens_rejected(self):
        vk = new_vote_key(15)
        tokens = encrypt_indices(mask_of([0, 2, 3], 5), vk).tokens
        with pytest.raises(ProtocolError, match="at most 2 distinct"):
            decode_partition(tokens, vk, 5, 2)

    def test_repeated_token_rejected(self):
        vk = new_vote_key(16)
        token = encrypt_indices(mask_of([3], 5), vk).tokens
        with pytest.raises(ProtocolError, match="at most 2 distinct"):
            decode_partition(np.concatenate([token, token]), vk, 5, 2)

    def test_consensus_across_clients(self):
        vk = new_vote_key(14, round_binding=2)
        msgs = [encrypt_indices(mask_of([i, i + 1], 8), vk, client_id=i)
                for i in range(3)]
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
    for client in range(n_clients):
        size = int(rng.integers(0, dim + 1))
        prop = sorted(rng.choice(dim, size=size, replace=False).tolist())
        proposals.append(prop)
        msgs.append(encrypt_indices(mask_of(prop, dim), vk, client_id=client))
    got = decode_partition(tally_votes(msgs, k), vk, dim, k).he_indices.tolist()
    from fedsplit.voting import _prp_encrypt
    expected = brute_force_winners(proposals, k, lambda i: _prp_encrypt(vk, i))
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
    msgs = [encrypt_indices(mask_of(p, 10), vk, client_id=i)
            for i, p in enumerate([[0, 1, 2], [1, 2], [2, 5], [5]])]
    all_tokens = sorted({t for m in msgs for t in m.tokens.tolist()})
    # order-preserving relabeling: token -> its rank
    relabel = {t: rank for rank, t in enumerate(all_tokens)}
    relabeled = [VoteMessage(client_id=m.client_id,
                             tokens=np.array([relabel[t] for t in m.tokens.tolist()],
                                             dtype=np.uint64))
                 for m in msgs]
    for k in range(0, 5):
        original = tally_votes(msgs, k)
        mapped = tally_votes(relabeled, k)
        assert mapped.tolist() == [relabel[t] for t in original.tolist()]


class TestWireFormat:
    def test_roundtrip(self):
        vk = new_vote_key(31, round_binding=4)
        msg = encrypt_indices(mask_of([2, 7, 9], 12), vk, client_id=77)
        blob = encode_vote_message(msg)
        assert blob[:4] == (77).to_bytes(4, "big")
        assert blob[4:8] == (3).to_bytes(4, "big")
        decoded = decode_vote_message(blob)
        assert decoded.client_id == msg.client_id
        assert decoded.tokens.dtype == np.uint64
        assert np.array_equal(decoded.tokens, msg.tokens)

    @pytest.mark.parametrize("order", [(1, 0, 2), (0, 2, 1), (0, 1, 1)],
                             ids=["swapped-first", "swapped-last", "repeated"])
    def test_non_increasing_tokens_rejected(self, order):
        vk = new_vote_key(32)
        blob = encode_vote_message(encrypt_indices(mask_of([2, 7, 9], 12), vk))
        tokens = [blob[8 + 8 * i: 16 + 8 * i] for i in range(3)]
        with pytest.raises(ProtocolError, match="strictly increasing"):
            decode_vote_message(blob[:8] + b"".join(tokens[i] for i in order))

    def test_truncated_rejected(self):
        vk = new_vote_key(31)
        blob = encode_vote_message(encrypt_indices(mask_of([1], 4), vk))
        with pytest.raises(ProtocolError):
            decode_vote_message(blob[:-1])
