"""Hostile input to the decoder: every malformed blob raises ProtocolError.

Truncations and bit flips of a PAHE ciphertext blob per backend, and of a
blob in each retired key container kind, must either raise
``ProtocolError`` or decode to something sound: ``deserialize`` returns
only ciphertexts, and an accepted ckks blob carries only ring coefficients
below the modulus q.  ``deserialize`` takes ``bytes``, ``bytearray`` or
``memoryview`` and refuses any other object with ``ProtocolError``.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.errors import ProtocolError
from fedsplit.he import Ciphertext, HeParams, make_backend
from fedsplit.he.ring import find_ntt_prime
from fedsplit.he.wire import deserialize, serialize

PARAMS = HeParams(ring_degree=64)


def retired_key_blob(ct_blob: bytes, kind: int, arrays) -> bytes:
    """A container of retired kind 2 (public key) or 3 (secret key): the
    ciphertext blob's params block, then the key arrays with no header."""
    params_end = 10 + struct.unpack_from("<I", ct_blob, 6)[0]
    payload = b"".join(a.astype(a.dtype.newbyteorder("<")).tobytes() for a in arrays)
    return (ct_blob[:5] + bytes([kind]) + ct_blob[6:params_end]
            + struct.pack("<I", len(payload)) + payload)


def _blobs() -> dict:
    blobs = {}
    for name in ("ckks", "mock"):
        backend = make_backend(name, PARAMS)
        kp = backend.keygen(1)
        cts = backend.encrypt(kp, np.linspace(-1.0, 1.0, 80), 2)
        ct_blob = serialize(backend.hom_add(cts[1], cts[1]))
        blobs[name, "ciphertext"] = ct_blob
        public, secret = ((kp.public_key, (kp.secret_key,)) if name == "ckks" else
                          ((np.array([kp.public_key]),), (np.array([kp.secret_key]),)))
        blobs[name, "public_key"] = retired_key_blob(ct_blob, 2, public)
        blobs[name, "secret_key"] = retired_key_blob(ct_blob, 3, secret)
    return blobs


BLOBS = _blobs()
CIPHERTEXTS = sorted(key for key in BLOBS if key[1] == "ciphertext")


def assert_decodes_soundly(blob: bytes) -> None:
    try:
        decoded = deserialize(blob)
    except ProtocolError:
        return
    assert isinstance(decoded, Ciphertext)
    params = decoded.params
    q = find_ntt_prime(params.modulus_bits, params.ring_degree)
    for coeffs in decoded.payload if decoded.backend == "ckks" else ():
        assert coeffs.size == params.ring_degree
        assert np.all(coeffs < q)


def flip(blob: bytes, bits) -> bytes:
    out = bytearray(blob)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def bit_lists(blob: bytes):
    return st.lists(st.integers(min_value=0, max_value=8 * len(blob) - 1),
                    min_size=1, max_size=3)


@pytest.mark.parametrize("key", CIPHERTEXTS, ids="-".join)
def test_unmodified_blob_decodes(key):
    decoded = deserialize(BLOBS[key])
    assert serialize(decoded) == BLOBS[key]
    assert_decodes_soundly(BLOBS[key])


@pytest.mark.parametrize("key", sorted(set(BLOBS) - set(CIPHERTEXTS)), ids="-".join)
def test_retired_key_container_rejected(key):
    with pytest.raises(ProtocolError, match="unknown container kind"):
        deserialize(BLOBS[key])


@pytest.mark.parametrize("key", sorted(BLOBS), ids="-".join)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_pahe_blob(key, data):
    blob = BLOBS[key]
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(ProtocolError):
        deserialize(blob[:cut])


@pytest.mark.parametrize("key", sorted(BLOBS), ids="-".join)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bit_flipped_pahe_blob(key, data):
    blob = BLOBS[key]
    assert_decodes_soundly(flip(blob, data.draw(bit_lists(blob))))


@pytest.mark.parametrize("blob", ["PAHE" + "x" * 12, None, 3.5, [0] * 16, 7],
                         ids=["str", "None", "float", "list", "int"])
def test_a_blob_that_is_not_bytes_is_refused(blob):
    # refused before any conversion: bytes(n) of an int n allocates n zero bytes
    with pytest.raises(ProtocolError, match="must be bytes"):
        deserialize(blob)


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_a_bytes_like_blob_decodes(wrap):
    assert serialize(deserialize(wrap(BLOBS["ckks", "ciphertext"]))) == BLOBS["ckks", "ciphertext"]
