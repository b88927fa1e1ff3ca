"""Plaintext-internal stand-in backend with exact arithmetic.

Satisfies the same operation contracts as the lattice backend with zero
decode error; the federated runtime charges it simulated time through
``params.simulated_cost`` so the efficiency metric stays reproducible and
free of wall-clock crypto noise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..seeds import as_rng
from .base import Ciphertext, HeBackend, KeyPair

__all__ = ["MockBackend", "MockPayload"]


class MockPayload:
    """Held plaintext plus a nonce so repeated encryptions differ as payloads."""

    __slots__ = ("values", "nonce")

    def __init__(self, values: np.ndarray, nonce: int):
        self.values = values
        self.nonce = nonce


class MockBackend(HeBackend):
    name = "mock"
    time_basis = "simulated"

    def keygen(self, seed) -> KeyPair:
        rng = as_rng(seed)
        key_id = int(rng.integers(0, 2**63, dtype=np.int64))
        return KeyPair(public_key=key_id, secret_key=key_id,
                       params=self.params, backend=self.name)

    def encrypt(self, pk: KeyPair, x: np.ndarray, seed) -> list[Ciphertext]:
        return self._encrypt(pk, x, seed)

    def hom_add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self._hom_add(a, b)

    def decrypt(self, sk: KeyPair, cts: Sequence[Ciphertext], original_len: int) -> np.ndarray:
        return self._decrypt(sk, cts, original_len)

    def _encrypt_chunk(self, public_key, chunk: np.ndarray, rng) -> MockPayload:
        return MockPayload(values=chunk.copy(),
                           nonce=int(rng.integers(0, 2**63, dtype=np.int64)))

    def _add_payloads(self, a: MockPayload, b: MockPayload) -> MockPayload:
        return MockPayload(values=a.values + b.values, nonce=a.nonce ^ b.nonce)

    def _decrypt_chunk(self, secret_key, payload: MockPayload) -> np.ndarray:
        return payload.values
