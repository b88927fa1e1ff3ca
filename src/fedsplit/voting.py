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
over the index space.  A token is the block as a ``uint64``, big-endian on
the wire, so byte order and numeric order agree.  Tie-breaks are
deterministic everywhere: equal vote counts prefer the smaller token, and
equal magnitudes prefer the lower index.

Tokens are memoized on the ``VoteKey`` object, which the runtime derives
afresh each round from the experiment seed and the round index, so the memo
covers one round: every client of the round shares the key, and an index's
token is computed once however many clients propose it.
This is a simulator shortcut; in a deployment each client still computes its
own k PRPs.  Decoding a token no client of the round proposed (a foreign
token) bypasses the memo and does not grow it.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
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
    "rank_tokens",
    "tally_votes",
    "decode_partition",
    "encode_vote_message",
    "decode_vote_message",
]

_FEISTEL_ROUNDS = 4
_WIRE_TOKEN = np.dtype(">u8")


class PartitionStrategy(str, Enum):
    MAX_NORM = "max"
    MIN_NORM = "min"
    RANDOM = "random"


@dataclass(frozen=True)
class VoteKey:
    """Secret shared by clients; the server only ever sees tokens.

    Also holds this (key, round)'s PRP memo, index -> token and token ->
    index; equality and hashing see only the key and the round.
    """

    key: bytes
    round_binding: int
    _tokens: dict = field(default_factory=dict, compare=False, repr=False)
    _indices: dict = field(default_factory=dict, compare=False, repr=False)
    # SHA-256 state after each Feistel round's fixed prefix (key, round,
    # Feistel round); the round function only appends the half-block.
    _prefixes: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.key) != 16:
            raise ValueError(f"vote key must be 16 bytes, got {len(self.key)}")
        object.__setattr__(self, "_prefixes", tuple(
            hashlib.sha256(self.key + struct.pack(">qB", self.round_binding, i))
            for i in range(_FEISTEL_ROUNDS)))


@dataclass(frozen=True, eq=False)
class VoteMessage:
    """One client's proposal as a strictly increasing ``uint64`` token array."""

    client_id: int
    tokens: np.ndarray


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
    if strategy is PartitionStrategy.RANDOM:
        chosen = as_rng(seed).choice(dim, size=k, replace=False)
    else:
        largest_first = -1.0 if strategy is PartitionStrategy.MAX_NORM else 1.0
        chosen = np.argsort(largest_first * np.abs(u), kind="stable")[:k]
    return PartitionMask(he_indices=np.sort(chosen), dim=dim)


# -- keyed PRP over 64-bit index blocks ------------------------------------------


def _feistel(prefixes, block: int) -> int:
    left, right = block >> 32, block & 0xFFFFFFFF
    for prefix in prefixes:
        h = prefix.copy()
        h.update(right.to_bytes(4, "big"))
        left, right = right, left ^ int.from_bytes(h.digest()[:4], "big")
    return (left << 32) | right


def _swap_halves(block: int) -> int:
    return ((block & 0xFFFFFFFF) << 32) | (block >> 32)


def _prp_encrypt(vk: VoteKey, index: int) -> int:
    token = vk._tokens.get(index)
    if token is None:  # threads that race here store equal values
        token = _feistel(vk._prefixes, index)
        vk._tokens[index] = token
        vk._indices[token] = index
    return token


def _prp_decrypt(vk: VoteKey, token: int) -> int:
    """Memo hit for a token proposed this round; else the inverse network,
    whose result is not stored, so server-supplied tokens cannot grow it."""
    index = vk._indices.get(token)
    if index is None:  # the network run backwards: swapped halves, rounds reversed
        index = _swap_halves(_feistel(reversed(vk._prefixes), _swap_halves(token)))
    return index


def encrypt_indices(mask: PartitionMask, vk: VoteKey, client_id: int = 0) -> VoteMessage:
    """Turn a proposal into opaque tokens; deterministic per (key, round, index)."""
    tokens = [_prp_encrypt(vk, i) for i in mask.he_indices.tolist()]
    return VoteMessage(client_id=client_id, tokens=np.sort(np.array(tokens, dtype=np.uint64)))


def rank_tokens(msgs) -> tuple[np.ndarray, np.ndarray]:
    """Server-side count over one round's tokens (never indices): the distinct
    tokens and their votes, most votes first, ties to the smaller token."""
    tokens = np.concatenate([np.empty(0, np.uint64), *(msg.tokens for msg in msgs)])
    tokens, counts = np.unique(tokens, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return tokens[order], counts[order]


def tally_votes(msgs, k: int) -> np.ndarray:
    """The k top-ranked tokens of ``rank_tokens``, sorted.

    Fewer than k distinct proposals simply yield fewer tokens (clients pad
    when decoding).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return np.sort(rank_tokens(msgs)[0][:k])


def decode_partition(tokens, vk: VoteKey, dim: int, k: int) -> PartitionMask:
    """Client-side inversion of the winning tokens into the global mask.

    The server's tokens are checked here: at most ``k``, all distinct, each
    decoding below ``dim``.  A shortfall below ``k`` is padded with the
    smallest unselected indices so the encrypted part keeps size ``k``.
    """
    if not 0 <= k <= dim:
        raise ValueError(f"k must lie in [0, {dim}], got {k}")
    tokens = np.fromiter(tokens, dtype=np.uint64)
    distinct = np.unique(tokens).size
    if tokens.size > k or distinct < tokens.size:
        raise ProtocolError(f"expected at most {k} distinct winning tokens, got "
                            f"{tokens.size} with {distinct} distinct")
    indices = np.array([_prp_decrypt(vk, t) for t in tokens.tolist()], dtype=np.uint64)
    if np.any(indices >= dim):
        raise ProtocolError(f"token {tokens[indices >= dim][0]:016x} does not decode "
                            f"to an index below {dim} under this vote key")
    pad = np.setdiff1d(np.arange(k, dtype=np.uint64), indices)[:k - indices.size]
    return PartitionMask(he_indices=np.union1d(indices, pad), dim=dim)


# -- wire encoding ------------------------------------------------------------------


def encode_vote_message(msg: VoteMessage) -> bytes:
    """client_id (u32 BE), token count (u32 BE), tokens (u64 BE, strictly increasing)."""
    return (struct.pack(">II", msg.client_id, len(msg.tokens))
            + msg.tokens.astype(_WIRE_TOKEN).tobytes())


def decode_vote_message(blob: bytes) -> VoteMessage:
    if len(blob) < 8:
        raise ProtocolError(f"vote message of {len(blob)} bytes has no 8-byte header")
    client_id, count = struct.unpack_from(">II", blob, 0)
    body = blob[8:]
    if len(body) != count * _WIRE_TOKEN.itemsize:
        raise ProtocolError(
            f"vote message declares {count} tokens but carries {len(body)} bytes"
        )
    tokens = np.frombuffer(body, dtype=_WIRE_TOKEN).astype(np.uint64)
    if np.any(tokens[1:] <= tokens[:-1]):
        raise ProtocolError("vote message tokens are not strictly increasing")
    return VoteMessage(client_id=client_id, tokens=tokens)
