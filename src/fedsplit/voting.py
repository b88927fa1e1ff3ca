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
over the index space.  Tie-breaks are deterministic everywhere: equal vote
counts prefer the lexicographically smaller token, and equal magnitudes
prefer the lower index.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ProtocolError
from .seeds import as_rng
from .vectors import PartitionMask

__all__ = [
    "PartitionStrategy",
    "VoteKey",
    "VoteMessage",
    "new_vote_key",
    "target_count",
    "propose_partition",
    "encrypt_indices",
    "tally_votes",
    "decode_partition",
    "encode_vote_message",
    "decode_vote_message",
]

TOKEN_BYTES = 8
_FEISTEL_ROUNDS = 4


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
        if len(self.key) != 16:
            raise ValueError(f"vote key must be 16 bytes, got {len(self.key)}")

    def for_round(self, round_index: int) -> "VoteKey":
        return VoteKey(key=self.key, round_binding=round_index)


@dataclass(frozen=True)
class VoteMessage:
    client_id: int
    tokens: frozenset


def new_vote_key(seed, round_binding: int = 0) -> VoteKey:
    rng = as_rng(seed)
    return VoteKey(key=rng.bytes(16), round_binding=round_binding)


def target_count(r: float, dim: int) -> int:
    """Number of encrypted coordinates for ratio ``r``: round-half-up of r*dim."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return min(dim, max(0, int(math.floor(r * dim + 0.5))))


def propose_partition(u: np.ndarray, r: float, strategy: PartitionStrategy,
                      seed=0) -> PartitionMask:
    """Client-side proposal: a k-subset of coordinates chosen by ``strategy``.

    The per-coordinate "norm" is the absolute value; magnitude ties break
    toward the lower index.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("update contains non-finite values")
    dim = u.size
    k = target_count(r, dim)
    strategy = PartitionStrategy(strategy)
    if k == 0:
        chosen = np.empty(0, dtype=np.int64)
    elif strategy is PartitionStrategy.MAX_NORM:
        order = np.argsort(-np.abs(u), kind="stable")
        chosen = order[:k]
    elif strategy is PartitionStrategy.MIN_NORM:
        order = np.argsort(np.abs(u), kind="stable")
        chosen = order[:k]
    else:
        rng = as_rng(seed)
        chosen = rng.choice(dim, size=k, replace=False)
    return PartitionMask(he_indices=np.sort(chosen.astype(np.int64)), dim=dim)


# -- keyed PRP over 64-bit index blocks ------------------------------------------


def _round_value(key: bytes, round_binding: int, feistel_round: int, half: int) -> int:
    digest = hashlib.sha256(
        key + struct.pack(">qBI", round_binding, feistel_round, half)
    ).digest()
    return struct.unpack(">I", digest[:4])[0]


def _prp_encrypt(vk: VoteKey, index: int) -> bytes:
    left, right = index >> 32, index & 0xFFFFFFFF
    for i in range(_FEISTEL_ROUNDS):
        left, right = right, left ^ _round_value(vk.key, vk.round_binding, i, right)
    return struct.pack(">II", left, right)


def _prp_decrypt(vk: VoteKey, token: bytes) -> int:
    left, right = struct.unpack(">II", token)
    for i in reversed(range(_FEISTEL_ROUNDS)):
        left, right = right ^ _round_value(vk.key, vk.round_binding, i, left), left
    return (left << 32) | right


def encrypt_indices(mask: PartitionMask, vk: VoteKey, client_id: int = 0) -> VoteMessage:
    """Turn a proposal into opaque tokens; deterministic per (key, round, index)."""
    tokens = frozenset(_prp_encrypt(vk, int(i)) for i in mask.he_indices)
    return VoteMessage(client_id=client_id, tokens=tokens)


def tally_votes(msgs, k: int) -> frozenset:
    """Server-side top-k token count over one round's messages.

    Operates on tokens only (the server never sees indices).  Returns the k
    most frequent tokens, ties to the lexicographically smaller token; fewer
    than k distinct proposals simply yield fewer tokens (clients pad when
    decoding).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    counts = Counter()
    for msg in msgs:
        counts.update(msg.tokens)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return frozenset(token for token, _ in ranked[:k])


def decode_partition(tokens, vk: VoteKey, dim: int, k: int) -> PartitionMask:
    """Client-side inversion of the winning tokens into the global mask.

    If fewer than ``k`` distinct indices won, the shortfall is padded with
    the smallest unselected indices so the encrypted part keeps size ``k``.
    """
    if not 0 <= k <= dim:
        raise ValueError(f"k must lie in [0, {dim}], got {k}")
    indices = set()
    for token in tokens:
        idx = _prp_decrypt(vk, token)
        if idx < 0 or idx >= dim:
            raise ProtocolError(
                f"token {token.hex()} does not decode to a valid index under "
                f"this vote key (got {idx}, dim {dim})"
            )
        indices.add(idx)
    pad = 0
    while len(indices) < k:
        if pad not in indices:
            indices.add(pad)
        pad += 1
    return PartitionMask(he_indices=np.array(sorted(indices), dtype=np.int64), dim=dim)


# -- wire encoding ------------------------------------------------------------------


def encode_vote_message(msg: VoteMessage) -> bytes:
    """client_id (u32 BE), token count (u32 BE), tokens sorted and concatenated."""
    body = b"".join(sorted(msg.tokens))
    return struct.pack(">II", msg.client_id, len(msg.tokens)) + body


def decode_vote_message(blob: bytes) -> VoteMessage:
    if len(blob) < 8:
        raise ProtocolError(f"vote message of {len(blob)} bytes has no 8-byte header")
    client_id, count = struct.unpack_from(">II", blob, 0)
    body = blob[8:]
    if len(body) != count * TOKEN_BYTES:
        raise ProtocolError(
            f"vote message declares {count} tokens but carries {len(body)} bytes"
        )
    tokens = frozenset(body[i * TOKEN_BYTES: (i + 1) * TOKEN_BYTES]
                       for i in range(count))
    if len(tokens) != count:
        raise ProtocolError("vote message contains duplicate tokens")
    return VoteMessage(client_id=client_id, tokens=tokens)
