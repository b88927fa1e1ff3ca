"""Hostile input to both decoders: every malformed blob raises ProtocolError.

Truncations and bit flips of a PAHE ciphertext blob per backend, of a blob
in each retired key container kind, and of a vote message must either
raise ``ProtocolError`` or decode to something sound: ``deserialize``
returns only ciphertexts, an accepted ckks blob carries only ring
coefficients below the modulus q, and an accepted vote message only
strictly increasing tokens.  Each decoder takes ``bytes``, ``bytearray`` or
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
from fedsplit.vectors import PartitionMask
from fedsplit.voting import (decode_vote_message, encode_vote_message,
                             encrypt_indices, new_vote_key)

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
VOTE = encode_vote_message(encrypt_indices(
    PartitionMask(np.array([0, 3, 5, 9]), 12), new_vote_key(4), client_id=2))


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


@pytest.mark.parametrize("decode", [deserialize, decode_vote_message],
                         ids=["deserialize", "decode_vote_message"])
@pytest.mark.parametrize("blob", ["PAHE" + "x" * 12, None, 3.5, [0] * 16, 7],
                         ids=["str", "None", "float", "list", "int"])
def test_a_blob_that_is_not_bytes_is_refused(decode, blob):
    # refused before any conversion: bytes(n) of an int n allocates n zero bytes
    with pytest.raises(ProtocolError, match="must be bytes"):
        decode(blob)


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_a_bytes_like_blob_decodes(wrap):
    assert serialize(deserialize(wrap(BLOBS["ckks", "ciphertext"]))) == BLOBS["ckks", "ciphertext"]
    assert encode_vote_message(decode_vote_message(wrap(VOTE))) == VOTE


def test_empty_vote_message():
    with pytest.raises(ProtocolError):
        decode_vote_message(b"")


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(VOTE) - 1))
def test_truncated_vote_message(cut):
    with pytest.raises(ProtocolError):
        decode_vote_message(VOTE[:cut])


@settings(max_examples=300, deadline=None)
@given(bits=bit_lists(VOTE))
def test_bit_flipped_vote_message(bits):
    try:
        msg = decode_vote_message(flip(VOTE, bits))
    except ProtocolError:
        return
    assert len(msg.tokens) == 4
    assert msg.tokens.dtype == np.uint64
    assert np.all(msg.tokens[1:] > msg.tokens[:-1])
