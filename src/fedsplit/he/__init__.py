"""Addition-only homomorphic encryption backends for real-valued vectors."""

from ..errors import check_choice
from .base import Ciphertext, HeBackend, KeyPair
from .ckks import CkksBackend
from .mock import MockBackend
from .params import HeCostModel, HeParams, decode_tolerance, simulated_round_cost

__all__ = [
    "Ciphertext", "KeyPair", "HeBackend", "CkksBackend", "MockBackend",
    "HeParams", "HeCostModel", "decode_tolerance", "simulated_round_cost",
    "make_backend", "BACKENDS",
]

BACKENDS = {cls.name: cls for cls in (CkksBackend, MockBackend)}


def make_backend(name: str, params: HeParams | None = None) -> HeBackend:
    """Instantiate a backend by its ``name`` (a key of ``BACKENDS``)."""
    check_choice("HE backend", name, tuple(BACKENDS))
    return BACKENDS[name](params or HeParams())
