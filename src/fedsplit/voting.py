"""Partition proposals, encrypted index tokens, and top-k vote tallying.

Each client proposes the coordinates of its update that should receive
encrypted protection (by largest magnitude, smallest magnitude, or at
random) as a boolean ``PartitionMask``.  Proposed indices travel as tokens
of a keyed pseudorandom permutation shared by clients but unknown to the
server; the server counts token frequencies only, picks the top-k, and
clients read the winning tokens back as the round's mask.

The PRP is a 4-round Feistel network over 64-bit blocks with an
SHA-256-based round function keyed by (vote key, round index), so a token
is deterministic within a round, distinct across rounds, and injective
over the index space.  A token is the block as a ``uint64``.  One top-k
rule picks both proposals and winners: the k smallest keys, ties to the
lower position, so equal magnitudes prefer the lower index and equal vote
counts the smaller token.

Each round's tokens come from one PRP batch.  The runtime derives the
``VoteKey`` afresh each round from the experiment seed and the round index;
after the first pass, ``tokenize_round`` runs the PRP once over the union of
the round's proposals and returns the round table over dim: the union as a
``bool`` array and each union coordinate's token (0 elsewhere) as a
``uint64`` array.  ``encrypt_indices`` and ``decode_partition`` read only
that table (a simulator shortcut; in a deployment each client computes its
own k PRPs) and raise ``ProtocolError`` for a table over another dim, a
proposal outside the union, a winner list of other than k tokens, or a
winner that is not one of the round's tokens.  Vote messages and the
server's winners pass one more check: a strictly increasing 1-D ``uint64``
array (what ``tally_votes`` returns).

``_prp`` is the one Feistel network, run forward on the blocks' ``uint32``
halves.  Its round function has two kernels, picked per call by batch size.
From ``_BATCH_LANES`` blocks on it is numpy SHA-256 with one lane per block,
a fixed cost of about 9 ms (some 11,000 numpy calls); below, one
``hashlib`` call per half and round, about a microsecond each.  They cross
between 3,000 and 4,000 blocks (2 cores, x86-64); the timed benchmark
workloads all tokenize above that.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
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
    """Secret shared by clients; the server only ever sees tokens."""

    key: bytes
    round_binding: int

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


def _smallest_k(key: np.ndarray, k: int) -> np.ndarray:
    """The k smallest keys as a ``bool`` array: every key below the k-th
    smallest, then the lowest-position ties at it."""
    if not k:
        return np.zeros(key.size, dtype=bool)
    kth = np.partition(key, k - 1)[k - 1]
    chosen = key < kth
    chosen[np.flatnonzero(key == kth)[:k - np.count_nonzero(chosen)]] = True
    return chosen


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
        chosen = np.zeros(dim, dtype=bool)
        chosen[np.random.default_rng(seed).choice(dim, size=k, replace=False)] = True
    else:
        chosen = _smallest_k((-1.0 if strategy == PartitionStrategy.MAX_NORM else 1.0)
                             * np.abs(u), k)
    return PartitionMask(chosen)


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


def _prp(vk: VoteKey, blocks: np.ndarray) -> np.ndarray:
    """The PRP of each ``uint64`` block: the Feistel network on the blocks'
    ``uint32`` halves."""
    left, right = (blocks >> 32).astype(np.uint32), blocks.astype(np.uint32)
    with np.errstate(over="ignore"):
        round_hash = _round_hash(vk, lanes=blocks.size >= _BATCH_LANES)
        for i in range(_FEISTEL_ROUNDS):
            left, right = right, left ^ round_hash(i, right)
    return (left.astype(np.uint64) << 32) | right


def tokenize_round(vk: VoteKey, proposals) -> tuple:
    """Run the PRP once over the union of the round's proposals (a non-empty
    iterable of ``PartitionMask`` of one dim) and return the round table
    ``(union, tokens)`` over dim: the union as a ``bool`` array and each
    union coordinate's token (0 elsewhere) as a ``uint64`` array."""
    proposals = [mask.encrypted for mask in proposals]
    if not proposals:
        raise DimensionError("a round needs at least one proposal to name its dim")
    if len({p.size for p in proposals}) > 1:
        raise DimensionError(f"the round's proposals differ in dim: {[p.size for p in proposals]}")
    union = np.logical_or.reduce(proposals)
    union_tokens = _prp(vk, np.flatnonzero(union).astype(np.uint64))
    tokens = np.zeros(union.size, dtype=np.uint64)
    np.place(tokens, union, union_tokens)
    return union, tokens


def encrypt_indices(mask: PartitionMask, table: tuple) -> VoteMessage:
    """Turn a proposal into opaque tokens, read from the round table."""
    union, tokens = table
    if union.size != mask.dim:
        raise ProtocolError(f"the round table spans dim {union.size}, "
                            f"not the proposal's {mask.dim}")
    if np.any(mask.encrypted & ~union):
        raise ProtocolError("the proposal marks a coordinate outside the round's union")
    return VoteMessage(tokens=np.sort(np.compress(mask.encrypted, tokens)))


def tally_votes(msgs, k: int) -> np.ndarray:
    """Server-side count over one round's tokens (never indices): the k tokens
    with the most votes, ties to the smaller token, returned sorted; all of
    them when fewer than k are distinct."""
    check_int("k", k, 0)
    tokens, counts = np.unique(np.concatenate([_NO_BLOCKS, *(msg.tokens for msg in msgs)]),
                               return_counts=True)
    return tokens[_smallest_k(-counts, min(k, tokens.size))]


def decode_partition(winners, table: tuple, k: int) -> PartitionMask:
    """Client-side reading of the winning tokens as the global mask.

    The server's winners are checked here: the strictly increasing
    ``uint64`` array that ``tally_votes`` returns, exactly ``k`` tokens,
    each one of the round's tokens in ``table``.  Every proposal marks k
    coordinates, so an honest tally always returns k.
    """
    union, round_tokens = table
    check_int("k", k, 0, union.size)
    _check_tokens(winners, "winning tokens")
    if winners.size != k:
        raise ProtocolError(f"expected {k} winning tokens, got {winners.size}")
    # a round token won where the first winner at or above it equals it; a
    # union coordinate's token is unique, so each winner marks at most one
    at = np.searchsorted(winners, round_tokens)
    chosen = union & (at < k) & (np.append(winners, np.uint64(0))[at] == round_tokens)
    if np.count_nonzero(chosen) < k:
        foreign = np.setdiff1d(winners, round_tokens[union])[0]
        raise ProtocolError(f"token {foreign:016x} is not one of this round's tokens")
    return PartitionMask(chosen)
