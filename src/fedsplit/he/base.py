"""Ciphertext and keypair containers and the backend contract.

Both backends (the lattice scheme in ``ckks.py`` and the cost-modeled mock
in ``mock.py``) run one shared path, written once in ``HeBackend``: the key
check, plaintext validation (finite values within the fixed-point
headroom), chunking into at most ``slot_count`` values per ciphertext,
slot-aligned addition with its depth check, the slot-count check (each
chunk's ``slots_used`` is an integer in [1, ``slot_count``]), the
chunk-layout check and decrypt stitching (every chunk's ``slots_used``
values, so decrypt returns exactly what was encrypted), and the
client-order fold: ``fold`` adds one client's chunks onto a running sum
as they arrive, and ``decrypt_mean`` decrypts that sum once and divides by
the client count.
Each operation has one name: ``encrypt``, ``hom_add`` and ``decrypt`` are
defined once here, and a backend supplies only its ``keygen`` and per-chunk
math: ``_encrypt_chunk``, ``_add_payloads`` and ``_decrypt_chunk``.

A ciphertext payload is a plain tuple of numpy arrays (ckks ``(c0, c1)``,
mock ``(nonce, values)``), and so are the ckks keys (public ``(a, b)``,
secret ``s``), so ``wire.py`` declares only each backend's array dtypes
and lengths.  Keys never cross the wire; only ciphertexts do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionError, EncodingOverflowError, ProtocolError, check_int
from .params import HeParams

__all__ = ["Ciphertext", "KeyPair", "HeBackend"]


@dataclass
class Ciphertext:
    """One encrypted chunk of a vector.

    ``add_count`` counts the homomorphic additions folded into this
    ciphertext; backends reject additions past ``params.max_additions``.
    """

    payload: tuple
    slots_used: int
    add_count: int
    params: HeParams
    backend: str


@dataclass
class KeyPair:
    public_key: object
    secret_key: object
    params: HeParams
    backend: str


class HeBackend:
    """Operation contract both backends implement.

    Each backend declares its config/wire ``name`` and the ``time_basis``
    of its reports ("simulated" or "wall"), defines ``keygen``, and binds
    this class's ``encrypt``, ``hom_add`` and ``decrypt`` in its own class
    body, because the benchmark's tracer (``bench/tracer.py``) wraps each
    backend's own ``cls.__dict__`` entries.  The three call the backend's
    per-chunk math: ``_encrypt_chunk(public_key, chunk, rng)``,
    ``_add_payloads(a, b)`` and ``_decrypt_chunk(secret_key, payload)``.

    decrypt with a mismatched secret key yields garbage without detection;
    only structural mismatches (params, chunk layout) raise.
    """

    name: str
    time_basis: str

    def __init__(self, params: HeParams):
        self.params = params

    def fold(self, summed: list[Ciphertext] | None,
             cts: Sequence[Ciphertext]) -> list[Ciphertext]:
        """One client's step of the client-order fold: its chunks added onto
        the running sum ``summed`` (None before the first client), the sum on
        the left.

        The sum is updated in place and returned, so each old chunk is freed
        as its successor is made; the first client's list is copied.
        """
        if summed is None:
            return list(cts)
        if len(cts) != len(summed):
            raise ProtocolError("clients produced differing ciphertext chunk counts")
        for i, ct in enumerate(cts):
            summed[i] = self.hom_add(summed[i], ct)
        return summed

    def decrypt_mean(self, kp: KeyPair, summed: list[Ciphertext] | None,
                     n: int) -> np.ndarray:
        """Decrypt the folded sum of ``n`` clients' chunks and divide by n."""
        if summed is None:
            raise ProtocolError("no client ciphertexts to aggregate")
        check_int("n", n, 1)
        return self.decrypt(kp, summed) / n

    # -- the shared path -------------------------------------------------------

    def _check_key(self, kp: KeyPair, half: str) -> None:
        if kp.backend != self.name or kp.params != self.params:
            raise DimensionError(f"{half} key params/backend mismatch")

    def _check_slots(self, ct: Ciphertext, what: str) -> None:
        check_int(f"{what} slots_used", ct.slots_used, 1, self.params.slot_count,
                  DimensionError)

    def _ciphertext(self, payload, slots_used: int, add_count: int = 0) -> Ciphertext:
        return Ciphertext(payload=payload, slots_used=slots_used, add_count=add_count,
                          params=self.params, backend=self.name)

    def encrypt(self, pk: KeyPair, x: np.ndarray, seed) -> list[Ciphertext]:
        self._check_key(pk, "public")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise DimensionError(f"plaintext must be a 1-D vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("plaintext contains non-finite values")
        worst = float(np.max(np.abs(x))) if x.size else 0.0
        p = self.params
        if worst > p.max_encodable:
            raise EncodingOverflowError(
                f"value magnitude {worst:g} exceeds fixed-point headroom "
                f"{p.max_encodable:g} (modulus_bits={p.modulus_bits}, "
                f"scale_bits={p.scale_bits}, max_additions={p.max_additions})")
        rng = np.random.default_rng(seed)
        chunks = [x[start: start + p.slot_count] for start in range(0, x.size, p.slot_count)]
        return [self._ciphertext(self._encrypt_chunk(pk.public_key, chunk, rng), chunk.size)
                for chunk in chunks]

    def hom_add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.backend != self.name or b.backend != self.name:
            raise DimensionError(f"ciphertext backend mismatch: {a.backend!r} + "
                                 f"{b.backend!r} under {self.name!r}")
        if a.params != b.params or a.params != self.params:
            raise DimensionError("ciphertext params mismatch in hom_add")
        self._check_slots(a, "left ciphertext")
        self._check_slots(b, "right ciphertext")
        if a.slots_used != b.slots_used:
            raise DimensionError(f"slot mismatch in hom_add: {a.slots_used} vs {b.slots_used}")
        add_count = a.add_count + b.add_count + 1
        if add_count > self.params.max_additions:
            raise ValueError(f"additive depth exhausted: {add_count} > "
                             f"max_additions={self.params.max_additions}")
        return self._ciphertext(self._add_payloads(a.payload, b.payload),
                                a.slots_used, add_count)

    def decrypt(self, sk: KeyPair, cts: Sequence[Ciphertext]) -> np.ndarray:
        """Join every chunk's ``slots_used`` decrypted values, in chunk order."""
        self._check_key(sk, "secret")
        for i, ct in enumerate(cts):
            if ct.backend != self.name or ct.params != self.params:
                raise DimensionError(f"ciphertext {i} params/backend mismatch")
            self._check_slots(ct, f"ciphertext {i}")
            if i < len(cts) - 1 and ct.slots_used != self.params.slot_count:
                raise DimensionError(f"non-final chunk {i} uses {ct.slots_used} slots, "
                                     f"expected {self.params.slot_count}")
        parts = [self._decrypt_chunk(sk.secret_key, ct.payload)[:ct.slots_used] for ct in cts]
        return np.concatenate([np.empty(0), *parts])
