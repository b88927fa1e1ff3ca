"""Golden bytes of the PAHE wire container for both backends.

A refactor of ``he/wire.py`` or of the backends must leave these bytes
unchanged: each case pins the sha256 of ``serialize``/``serialize_secret``
output at ring degree 64.
"""

import hashlib

import numpy as np
import pytest

from fedsplit.he import HeParams, make_backend
from fedsplit.he.wire import serialize, serialize_secret

PARAMS = HeParams(ring_degree=64, scale_bits=20, modulus_bits=50, max_additions=256)

WIRE_SHA256 = {
    ("ckks", "full_chunk"):
        "af802501573d67e91148b34153799aa8147542caf176552314259155597c456d",
    ("ckks", "partial_chunk"):
        "bf702d447b5936fa5227ced706b492b402f9b4a44b3b70042afbc9e8e9d0a7f9",
    ("ckks", "hom_add"):
        "37c04f97aa0e86faa5675d3a5ce2d39d47fba1bb7c023ac2a80d9dd634afbcb5",
    ("ckks", "public_key"):
        "75e1f19d97c5448d84f1e9d7f69138fb31249e5b492e977bcbcf63092ef341b5",
    ("ckks", "secret_key"):
        "21610dedb7122158e53629168b97243ae5ecf1f46084b3bc66242da29baed2d5",
    ("mock", "full_chunk"):
        "3f2c1f64f810fe360e6947bb38e373956f30d8e74f473e63ff44cbdb0a4c5fbf",
    ("mock", "partial_chunk"):
        "abc236b1b29c80732e0744c2ec78dbd38e744ce5c79e363e57b5c4b2f9fd4cbb",
    ("mock", "hom_add"):
        "73d8f16f4f8a76ca2e371408e5258efa34ffc432eb2069bf0bcb4113f6fea475",
    ("mock", "public_key"):
        "c3ebe24cc13b94d2ce69c3a6d1feec87a9b9044698f5c22c8783e19afbaae7bb",
    ("mock", "secret_key"):
        "1c1fe8a38577c2f44f1110ee75962c84e77b5f4239723ebe6413ce6cf55b5d21",
}


def wire_blob(backend_name: str, case: str) -> bytes:
    backend = make_backend(backend_name, PARAMS)
    kp = backend.keygen(7)
    x = np.linspace(-1.0, 1.0, 100)  # one full chunk of 64, one of 36
    first = backend.encrypt(kp, x, 11)
    second = backend.encrypt(kp, -0.5 * x, 12)
    if case == "full_chunk":
        return serialize(first[0])
    if case == "partial_chunk":
        return serialize(first[1])
    if case == "hom_add":
        return serialize(backend.hom_add(first[1], second[1]))
    if case == "public_key":
        return serialize(kp)
    return serialize_secret(kp)


@pytest.mark.parametrize("backend_name,case", sorted(WIRE_SHA256))
def test_wire_bytes_sha256(backend_name, case):
    digest = hashlib.sha256(wire_blob(backend_name, case)).hexdigest()
    assert digest == WIRE_SHA256[backend_name, case]
