"""Partition proposals, encrypted index tokens, and top-k vote tallying.

Each client proposes the coordinates of its update that should receive
encrypted protection (by largest magnitude, smallest magnitude, or at
random).  Proposed indices travel as fixed-width tokens produced by a keyed
pseudorandom permutation shared by clients but unknown to the server; the
server counts token frequencies only, picks the top-k, and clients invert
the winning tokens back to indices.

The PRP is a 4-round Feistel network over 64-bit blocks with an
SHA-256-based round function keyed by (vote key, round index), so a token
is deterministic within a round, distinct across rounds, and injective
over the index space.  A token is the block as a ``uint64``.  Tie-breaks
are deterministic everywhere: equal vote counts prefer the smaller token,
and equal magnitudes prefer the lower index.

Each round's tokens come from one PRP batch.  The runtime derives the
``VoteKey`` afresh each round from the experiment seed and the round index;
after the first pass, ``tokenize_round`` runs the PRP once over the union of
the round's proposals and returns the round's key, a copy holding the
result as its round table: sorted arrays index -> token and token -> index.
Each client's ``encrypt_indices`` and the ``decode_partition`` take that key,
so they are lookups in its table.  This is a simulator shortcut; in a
deployment each client still computes its own k PRPs.  An index or token the
table lacks (a foreign token, or a key whose round was never tokenized) runs
through the PRP on the spot, and the result is not stored; so a caller that
skips ``tokenize_round`` runs the PRP for every proposal it encrypts and
every winner it decodes.  Vote messages and the server's winners pass one
check: a strictly increasing 1-D ``uint64`` array (what ``tally_votes``
returns), else ``ProtocolError``.

``_prp`` is the one Feistel network, on the blocks' ``uint32`` halves; the
inverse swaps the halves and reverses the rounds.  Its round function has
two kernels, picked per call by batch size.  From ``_BATCH_LANES`` blocks on
it is numpy SHA-256 with one lane per block, a fixed cost of about 9 ms
(some 11,000 numpy calls); below, one ``hashlib`` call per half and round,
about a microsecond each.  They cross between 3,000 and 4,000 blocks
(2 cores, x86-64); the timed benchmark workloads all tokenize above that.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import DimensionError, ProtocolError, check_choice, check_int, check_real
from .vectors import PartitionMask

__all__ = [
    "PartitionStrategy",
    "VoteKey",
    "VoteMessage",
    "new_vote_key",
    "target_count",
    "propose_partition",
    "tokenize_round",
    "encrypt_indices",
    "tally_votes",
    "decode_partition",
]

_FEISTEL_ROUNDS = 4
_NO_BLOCKS = np.empty(0, dtype=np.uint64)
# Batch size from which the numpy SHA-256 beats a hashlib call per block
# (between 3,000 and 4,000 blocks on a 2-core x86-64 box with numpy 2.4).
_BATCH_LANES = 4096


class PartitionStrategy(str, Enum):
    MAX_NORM = "max"
    MIN_NORM = "min"
    RANDOM = "random"


@dataclass(frozen=True)
class VoteKey:
    """Secret shared by clients; the server only ever sees tokens.

    Also holds this (key, round)'s token table, on the copy ``tokenize_round``
    returns; equality and hashing see only the key and the round.
    """

    key: bytes
    round_binding: int
    # ((sorted indices, their tokens), (sorted tokens, their indices)), so
    # ``_table[inverse]`` maps a PRP input to its output.
    _table: tuple = field(default=((_NO_BLOCKS, _NO_BLOCKS), (_NO_BLOCKS, _NO_BLOCKS)),
                          compare=False, repr=False)

    def __post_init__(self):
        # bytes only: a str or a list fails in the round function, a bytearray
        # does not hash
        if not isinstance(self.key, bytes) or len(self.key) != 16:
            got = len(self.key) if isinstance(self.key, bytes) else type(self.key).__name__
            raise ValueError(f"vote key must be 16 bytes, got {got}")
        # the round function packs the round binding as a signed 64-bit integer
        check_int("round_binding", self.round_binding, -2**63, 2**63 - 1)


def _check_tokens(tokens, what: str) -> None:
    """Raise ``ProtocolError`` unless ``tokens`` is a strictly increasing 1-D
    ``uint64`` array, so it holds no repeat and no value outside [0, 2**64)."""
    if (not isinstance(tokens, np.ndarray) or tokens.dtype != np.uint64
            or tokens.ndim != 1 or np.any(tokens[1:] <= tokens[:-1])):
        raise ProtocolError(f"{what} must be a strictly increasing 1-D uint64 array")


@dataclass(frozen=True, eq=False)
class VoteMessage:
    """One client's proposal as a strictly increasing ``uint64`` token array."""

    tokens: np.ndarray

    def __post_init__(self):
        _check_tokens(self.tokens, "vote message tokens")


def new_vote_key(seed, round_binding: int = 0) -> VoteKey:
    rng = np.random.default_rng(seed)
    return VoteKey(key=rng.bytes(16), round_binding=round_binding)


def target_count(r: float, dim: int) -> int:
    """Number of encrypted coordinates for ratio ``r``: round-half-up of r*dim."""
    check_real("ratio", r, "[0, 1]")
    check_int("dim", dim, 1)
    return min(dim, max(0, int(math.floor(r * dim + 0.5))))


def propose_partition(u: np.ndarray, r: float, strategy: PartitionStrategy,
                      seed=0) -> PartitionMask:
    """Client-side proposal: a k-subset of coordinates chosen by ``strategy``.

    The per-coordinate "norm" is the absolute value; magnitude ties break
    toward the lower index.
    """
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
    return PartitionMask(he_indices=chosen, dim=dim)


# -- keyed PRP over 64-bit index blocks ------------------------------------------
#
# Feistel round i maps the right half to the first 4 bytes, big-endian, of
# SHA-256(key || round_binding as >q || i as B || half as >I): one 29-byte
# message, so one padded 64-byte block whose words 0-5 are fixed by the key
# and the round, word 6 is i and the half's top 3 bytes, word 7 is the half's
# last byte and the padding's 0x80, and words 8-15 are zero but the 232-bit
# length.

# FIPS 180-4, section 4.2.2 and 5.3.3: round constants and initial hash value.
_SHA_K = tuple(np.uint32(k) for k in (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2))
_SHA_IV = tuple(np.uint32(h) for h in (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19))
_SHA_TAIL = [np.uint32(0)] * 7 + [np.uint32(29 * 8)]


# Shift counts as np.uint32, so no Python int enters the word arithmetic: under
# NumPy 1.x's value-based casting a uint32 scalar and a Python int promote to
# int64, which would stop the midstate's sums and shifts wrapping mod 2**32.
_SHIFT = tuple(np.uint32(n) for n in range(32))


def _rotr(x, n: int):
    return (x >> _SHIFT[n]) | (x << _SHIFT[32 - n])


def _sha256_rounds(state: tuple, w: list, start: int, stop: int) -> tuple:
    """SHA-256 compression rounds ``start`` to ``stop - 1`` (FIPS 180-4, 6.2.2).

    Works alike on ``np.uint32`` scalars and ``uint32`` lane arrays, wrapping
    mod 2**32 (callers silence numpy's scalar overflow warning).  ``w`` is the
    16-word message schedule, expanded in place as a rolling window.
    """
    a, b, c, d, e, f, g, h = state
    bc = b ^ c
    for t in range(start, stop):
        if t >= 16:
            w2, w15 = w[(t - 2) % 16], w[(t - 15) % 16]
            w[t % 16] = (w[t % 16] + w[(t - 7) % 16]
                         + (_rotr(w2, 17) ^ _rotr(w2, 19) ^ (w2 >> _SHIFT[10]))
                         + (_rotr(w15, 7) ^ _rotr(w15, 18) ^ (w15 >> _SHIFT[3])))
        t1 = (h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) + (g ^ (e & (f ^ g)))
              + (_SHA_K[t] + w[t % 16]))
        ab = a ^ b  # Maj(a, b, c) = b ^ ((a ^ b) & (b ^ c)); this a ^ b is next b ^ c
        t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) + (b ^ (ab & bc))
        a, b, c, d, e, f, g, h = t1 + t2, a, b, c, d + t1, e, f, g
        bc = ab
    return a, b, c, d, e, f, g, h


def _round_hash(vk: VoteKey, lanes: bool):
    """The round function F(i, half) over a ``uint32`` array of halves: as
    numpy SHA-256 with one lane per half, or with one ``hashlib`` call each."""
    if not lanes:
        return lambda i, half: np.fromiter(
            (struct.unpack_from(">I", hashlib.sha256(
                vk.key + struct.pack(">qBI", vk.round_binding, i, h)).digest())[0]
             for h in half.tolist()), np.uint32, half.size)
    # every message of the call shares its first 24 bytes (the key and the
    # round), so the first 6 compression rounds run once, as a midstate
    head = [np.uint32(x) for x in
            struct.unpack(">6I", vk.key + struct.pack(">q", vk.round_binding))]
    midstate = _sha256_rounds(_SHA_IV, head, 0, 6)

    def lane_hash(i: int, half: np.ndarray) -> np.ndarray:
        w = [*head, np.uint32(i << 24) | (half >> _SHIFT[8]),
             (half << _SHIFT[24]) | np.uint32(0x800000), *_SHA_TAIL]
        return _SHA_IV[0] + _sha256_rounds(midstate, w, 6, 64)[0]
    return lane_hash


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


def _lookup(vk: VoteKey, blocks: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``_prp`` read from the key's round table; blocks the table lacks are
    computed here and not stored, so foreign tokens cannot grow it."""
    keys, values = vk._table[inverse]
    pos = np.searchsorted(keys, blocks)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == blocks[hit]
    out = np.empty_like(blocks)
    out[hit] = values[pos[hit]]
    out[~hit] = _prp(vk, blocks[~hit], inverse)
    return out


def tokenize_round(vk: VoteKey, proposals) -> VoteKey:
    """Run the PRP once over the union of the round's proposals (an iterable
    of ``PartitionMask``) and return ``vk`` with the result as its round
    table; ``vk`` itself is left as it was."""
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


def encrypt_indices(mask: PartitionMask, vk: VoteKey) -> VoteMessage:
    """Turn a proposal into opaque tokens; deterministic per (key, round, index)."""
    tokens = _lookup(vk, mask.he_indices.astype(np.uint64))
    return VoteMessage(tokens=np.sort(tokens))


def tally_votes(msgs, k: int) -> np.ndarray:
    """Server-side count over one round's tokens (never indices): the k tokens
    with the most votes, ties to the smaller token, returned sorted.

    Fewer than k distinct proposals simply yield fewer tokens (clients pad
    when decoding).
    """
    check_int("k", k, 0)
    tokens = np.concatenate([_NO_BLOCKS, *(msg.tokens for msg in msgs)])
    tokens, counts = np.unique(tokens, return_counts=True)
    return np.sort(tokens[np.argsort(-counts, kind="stable")[:k]])


def decode_partition(tokens, vk: VoteKey, dim: int, k: int) -> PartitionMask:
    """Client-side inversion of the winning tokens into the global mask.

    The server's tokens are checked here: the strictly increasing ``uint64``
    array that ``tally_votes`` returns, at most ``k`` tokens, each decoding
    below ``dim``.  A shortfall below ``k`` is padded with the smallest
    unselected indices so the encrypted part keeps size ``k``.
    """
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
    return PartitionMask(he_indices=np.flatnonzero(chosen), dim=dim)
