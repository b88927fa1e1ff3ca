"""Length-prefixed binary container for ciphertexts.

Only ciphertexts cross the wire: the clients share one keypair out of band
and the server holds ciphertexts alone, so no key has a container.
Layout: magic b"PAHE", version byte, kind byte (1, a ciphertext), then two
length-prefixed blocks (u32 little-endian lengths): the params block and
the payload block.  The payload starts with (slots_used, add_count) as two
u32; the rest is the ciphertext's payload tuple as the little-endian arrays
that ``_LAYOUTS`` lists for its backend, one row driving both directions.
Deserializing a serialized ciphertext decrypts bit-identically, and every
blob that ``serialize`` could not have produced raises ``ProtocolError``.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import ProtocolError, check_choice
from .base import Ciphertext
from .params import HeParams
from .ring import find_ntt_prime

__all__ = ["serialize", "deserialize"]

MAGIC = b"PAHE"
VERSION = 1

_KIND_CIPHERTEXT = 1
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

# backend -> its payload tuple's arrays as (dtype, length): ckks (c0, c1),
# mock (nonce, values).
_LAYOUTS = {
    "ckks": ((_RESIDUES, _N), (_RESIDUES, _N)),
    "mock": ((_INT, 1), (_REALS, _SLOTS)),
}


def serialize(ct: Ciphertext) -> bytes:
    """Serialize a Ciphertext to the PAHE container."""
    check_choice("ciphertext backend", ct.backend, tuple(_BACKEND_CODES), ProtocolError)
    p = ct.params
    params_block = _PARAMS.pack(p.ring_degree, p.scale_bits, p.modulus_bits,
                                p.max_additions, _BACKEND_CODES[ct.backend])
    payload = _CT_HEAD.pack(ct.slots_used, ct.add_count) + b"".join(
        np.ascontiguousarray(a, dtype=dtype).tobytes()
        for (dtype, _n), a in zip(_LAYOUTS[ct.backend], ct.payload))
    return (MAGIC + bytes([VERSION, _KIND_CIPHERTEXT])
            + _LENGTH.pack(len(params_block)) + params_block
            + _LENGTH.pack(len(payload)) + payload)


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
    check_choice("backend code", code, tuple(_BACKEND_NAMES), ProtocolError)
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


def deserialize(blob: bytes) -> Ciphertext:
    """Parse a PAHE container back into a Ciphertext."""
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise ProtocolError(f"a PAHE container must be bytes, got {type(blob).__name__}")
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
    if kind != _KIND_CIPHERTEXT:
        raise ProtocolError(f"unknown container kind {kind}")

    if len(payload) < _CT_HEAD.size:
        raise ProtocolError("ciphertext payload truncated in its header")
    slots_used, add_count = _CT_HEAD.unpack_from(payload)
    if not (1 <= slots_used <= params.slot_count and add_count <= params.max_additions):
        raise ProtocolError(f"ciphertext header out of range: slots_used={slots_used}, "
                            f"add_count={add_count}")
    arrays = [(dtype, {_N: params.ring_degree, _SLOTS: slots_used}.get(n, n))
              for dtype, n in _LAYOUTS[backend]]
    expected = _CT_HEAD.size + sum(dtype.itemsize * n for dtype, n in arrays)
    if len(payload) != expected:
        raise ProtocolError(f"payload has {len(payload)} bytes, the layout needs {expected}")

    values, offset = [], _CT_HEAD.size
    for dtype, n in arrays:
        a = np.frombuffer(payload, dtype=dtype, count=n, offset=offset).astype(dtype.type)
        offset += dtype.itemsize * n
        if dtype == _RESIDUES and np.any(a >= _modulus(params)):
            raise ProtocolError("ring coefficient not below the modulus q")
        if dtype == _REALS and not np.all(np.isfinite(a)):
            raise ProtocolError("non-finite value in payload")
        values.append(a)
    return Ciphertext(payload=tuple(values), slots_used=slots_used, add_count=add_count,
                      params=params, backend=backend)
