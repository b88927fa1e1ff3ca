"""Addition-only homomorphic encryption backends for real-valued vectors."""

from .base import Ciphertext, HeBackend, KeyPair
from .ckks import CkksBackend
from .mock import MockBackend
from .params import (HeCostModel, HeParams, decode_tolerance, simulated_cost,
                     simulated_round_cost)

__all__ = [
    "Ciphertext", "KeyPair", "HeBackend", "CkksBackend", "MockBackend",
    "HeParams", "HeCostModel", "decode_tolerance", "simulated_cost",
    "simulated_round_cost", "make_backend", "BACKENDS",
]

BACKENDS = {cls.name: cls for cls in (CkksBackend, MockBackend)}


def make_backend(name: str, params: HeParams | None = None) -> HeBackend:
    """Instantiate a backend by its ``name`` (a key of ``BACKENDS``)."""
    if name not in BACKENDS:
        raise ValueError(f"unknown HE backend {name!r}; choose from {sorted(BACKENDS)}")
    return BACKENDS[name](params or HeParams())
