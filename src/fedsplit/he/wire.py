"""Length-prefixed binary container for ciphertexts and keys.

Layout: magic b"PAHE", version byte, kind byte, then two length-prefixed
blocks (u32 little-endian lengths): the params block and the payload block.
A ciphertext payload starts with (slots_used, add_count) as two u32; the
rest of every payload is the little-endian arrays that ``_LAYOUTS`` lists
for its (kind, backend), one row driving both directions.  Deserializing a
serialized ciphertext decrypts bit-identically, and every blob that
``serialize`` could not have produced raises ``ProtocolError``.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import ProtocolError
from .base import Ciphertext, KeyPair
from .ckks import CkksPublicKey, CkksSecretKey
from .mock import MockPayload
from .params import HeParams
from .ring import find_ntt_prime

__all__ = ["serialize", "serialize_secret", "deserialize"]

MAGIC = b"PAHE"
VERSION = 1

_KIND_CIPHERTEXT, _KIND_PUBLIC_KEY, _KIND_SECRET_KEY = 1, 2, 3
_BACKEND_CODES = {"ckks": 1, "mock": 2}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_CODES.items()}

# ring_degree, scale_bits, modulus_bits, max_additions, backend code
_PARAMS = struct.Struct("<IHHIB")
_CT_HEAD = struct.Struct("<II")  # slots_used, add_count
_LENGTH = struct.Struct("<I")

# Array element types: residues are ring coefficients, each below the
# modulus q; reals are finite.  Lengths are ints or read from the blob.
_RESIDUES, _INT, _REALS = np.dtype("<u8"), np.dtype("<i8"), np.dtype("<f8")
_N, _SLOTS = "ring_degree", "slots_used"

# (kind, backend) -> (payload arrays as (dtype, length), take the ciphertext
# payload or key half apart into those arrays, rebuild it from them).
_LAYOUTS = {
    (_KIND_CIPHERTEXT, "ckks"): (((_RESIDUES, _N), (_RESIDUES, _N)),
                                 lambda c: c, lambda c0, c1: (c0, c1)),
    (_KIND_CIPHERTEXT, "mock"): (((_INT, 1), (_REALS, _SLOTS)),
                                 lambda p: ([p.nonce], p.values),
                                 lambda nonce, values: MockPayload(values, int(nonce[0]))),
    (_KIND_PUBLIC_KEY, "ckks"): (((_RESIDUES, _N), (_RESIDUES, _N)),
                                 lambda k: (k.a_eval, k.b_eval), CkksPublicKey),
    (_KIND_PUBLIC_KEY, "mock"): (((_INT, 1),), lambda k: ([k],), lambda k: int(k[0])),
    (_KIND_SECRET_KEY, "ckks"): (((_RESIDUES, _N),), lambda k: (k.s_eval,), CkksSecretKey),
    (_KIND_SECRET_KEY, "mock"): (((_INT, 1),), lambda k: ([k],), lambda k: int(k[0])),
}


def _pack(kind: int, obj, inner, head: bytes = b"") -> bytes:
    if obj.backend not in _BACKEND_CODES:
        raise ProtocolError(f"unknown backend {obj.backend!r}")
    arrays, take_apart, _rebuild = _LAYOUTS[kind, obj.backend]
    p = obj.params
    params_block = _PARAMS.pack(p.ring_degree, p.scale_bits, p.modulus_bits,
                                p.max_additions, _BACKEND_CODES[obj.backend])
    payload = head + b"".join(np.ascontiguousarray(a, dtype=dtype).tobytes()
                              for (dtype, _n), a in zip(arrays, take_apart(inner)))
    return (MAGIC + bytes([VERSION, kind])
            + _LENGTH.pack(len(params_block)) + params_block
            + _LENGTH.pack(len(payload)) + payload)


def serialize(obj) -> bytes:
    """Serialize a Ciphertext or KeyPair key half to the PAHE container."""
    if isinstance(obj, Ciphertext):
        return _pack(_KIND_CIPHERTEXT, obj, obj.payload,
                     _CT_HEAD.pack(obj.slots_used, obj.add_count))
    if isinstance(obj, KeyPair):
        return _pack(_KIND_PUBLIC_KEY, obj, obj.public_key)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize_secret(kp: KeyPair) -> bytes:
    return _pack(_KIND_SECRET_KEY, kp, kp.secret_key)


def _read_block(blob: bytes, offset: int) -> tuple[bytes, int]:
    if len(blob) < offset + _LENGTH.size:
        raise ProtocolError(f"container truncated at byte {len(blob)}")
    (length,) = _LENGTH.unpack_from(blob, offset)
    start = offset + _LENGTH.size
    if len(blob) < start + length:
        raise ProtocolError(f"block declares {length} bytes but {len(blob) - start} remain")
    return blob[start: start + length], start + length


def _unpack_params(block: bytes) -> tuple[HeParams, str]:
    if len(block) != _PARAMS.size:
        raise ProtocolError(f"params block has {len(block)} bytes, expected {_PARAMS.size}")
    ring_degree, scale_bits, modulus_bits, max_additions, code = _PARAMS.unpack(block)
    if code not in _BACKEND_NAMES:
        raise ProtocolError(f"unknown backend code {code}")
    try:
        return HeParams(ring_degree=ring_degree, scale_bits=scale_bits,
                        modulus_bits=modulus_bits,
                        max_additions=max_additions), _BACKEND_NAMES[code]
    except ValueError as exc:
        raise ProtocolError(f"invalid params: {exc}") from None


def _modulus(params: HeParams) -> int:
    try:
        return find_ntt_prime(params.modulus_bits, params.ring_degree)
    except ValueError as exc:
        raise ProtocolError(f"invalid params: {exc}") from None


def deserialize(blob: bytes):
    """Parse a PAHE container back into a Ciphertext or key material.

    Returns a Ciphertext for ciphertext containers, otherwise a
    (kind, params, backend, payload_object) tuple for keys.
    """
    blob = bytes(blob)
    if blob[:4] != MAGIC:
        raise ProtocolError("bad magic bytes")
    if len(blob) < 6:
        raise ProtocolError("container truncated in its header")
    version, kind = blob[4], blob[5]
    if version != VERSION:
        raise ProtocolError(f"unsupported container version {version}")
    params_block, offset = _read_block(blob, 6)
    payload, end = _read_block(blob, offset)
    if end != len(blob):
        raise ProtocolError(f"{len(blob) - end} bytes follow the payload block")
    params, backend = _unpack_params(params_block)
    if (kind, backend) not in _LAYOUTS:
        raise ProtocolError(f"unknown container kind {kind}")
    arrays, _take_apart, rebuild = _LAYOUTS[kind, backend]

    head_size = _CT_HEAD.size if kind == _KIND_CIPHERTEXT else 0
    if len(payload) < head_size:
        raise ProtocolError("ciphertext payload truncated in its header")
    slots_used, add_count = _CT_HEAD.unpack_from(payload) if head_size else (0, 0)
    if head_size and not (1 <= slots_used <= params.slot_count
                          and add_count <= params.max_additions):
        raise ProtocolError(f"ciphertext header out of range: slots_used={slots_used}, "
                            f"add_count={add_count}")
    lengths = [{_N: params.ring_degree, _SLOTS: slots_used}.get(n, n) for _dt, n in arrays]
    expected = head_size + sum(dt.itemsize * n for (dt, _n), n in zip(arrays, lengths))
    if len(payload) != expected:
        raise ProtocolError(f"payload has {len(payload)} bytes, the layout needs {expected}")

    values, offset = [], head_size
    for (dtype, _n), n in zip(arrays, lengths):
        a = np.frombuffer(payload, dtype=dtype, count=n, offset=offset).astype(dtype.type)
        offset += dtype.itemsize * n
        if dtype == _RESIDUES and np.any(a >= _modulus(params)):
            raise ProtocolError("ring coefficient not below the modulus q")
        if dtype == _REALS and not np.all(np.isfinite(a)):
            raise ProtocolError("non-finite value in payload")
        values.append(a)
    inner = rebuild(*values)
    if head_size:
        return Ciphertext(payload=inner, slots_used=slots_used, add_count=add_count,
                          params=params, backend=backend)
    return (kind, params, backend, inner)
