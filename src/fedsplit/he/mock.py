"""Plaintext-internal stand-in backend with exact arithmetic.

Satisfies the same operation contracts as the lattice backend with zero
decode error; the federated runtime charges it simulated time through
``params.simulated_cost`` so the efficiency metric stays reproducible and
free of wall-clock crypto noise.
"""

from __future__ import annotations

import numpy as np

from ..seeds import as_rng
from .base import HeBackend, KeyPair

__all__ = ["MockBackend"]


class MockBackend(HeBackend):
    name = "mock"
    time_basis = "simulated"

    def keygen(self, seed) -> KeyPair:
        rng = as_rng(seed)
        key_id = int(rng.integers(0, 2**63, dtype=np.int64))
        return KeyPair(public_key=key_id, secret_key=key_id,
                       params=self.params, backend=self.name)

    # Bound in this class body, not only inherited: bench/tracer.py wraps
    # each backend's own cls.__dict__ entries.
    encrypt, hom_add, decrypt = HeBackend.encrypt, HeBackend.hom_add, HeBackend.decrypt

    def _encrypt_chunk(self, public_key, chunk: np.ndarray, rng) -> tuple:
        """(nonce, values): the nonce makes repeated encryptions differ as payloads."""
        return rng.integers(0, 2**63, 1, dtype=np.int64), chunk.copy()

    def _add_payloads(self, a: tuple, b: tuple) -> tuple:
        return a[0] ^ b[0], a[1] + b[1]

    def _decrypt_chunk(self, secret_key, payload: tuple) -> np.ndarray:
        return payload[1]
