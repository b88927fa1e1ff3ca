"""Clip-and-noise protection of the plaintext part of an update.

The mechanism is L2 clipping to a threshold ``theta`` followed by i.i.d.
zero-mean Gaussian noise with per-coordinate std ``sigma_z``:

    protected = u / max(1, ||u|| / theta) + z,   z_j ~ N(0, sigma_z)

``sigma_from_budget`` calibrates ``sigma_z`` once for the whole experiment
from the privacy budget (epsilon, delta), the client sampling ratio q, the
round count T and the mechanism sensitivity 2*theta / min_i |D_i|.

Gaussian sampling uses Box-Muller over the PCG64 uniform stream, so seeded
draws are reproducible bit-for-bit across platforms (see ``add_noise``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .seeds import as_rng

__all__ = [
    "DpParams",
    "PrivacyBudget",
    "clip",
    "add_noise",
    "sensitivity",
    "sigma_from_budget",
    "protect_dp",
]


@dataclass(frozen=True)
class DpParams:
    """Mechanism parameters: clipping threshold and noise std."""

    theta: float
    sigma_z: float

    def __post_init__(self):
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be a positive finite real, got {self.theta}")
        if not (self.sigma_z >= 0 and math.isfinite(self.sigma_z)):
            raise ValueError(f"sigma_z must be nonnegative, got {self.sigma_z}")


@dataclass(frozen=True)
class PrivacyBudget:
    """Full-experiment privacy budget and the quantities that calibrate noise.

    q is the client sampling ratio n/N; min_dataset_size is min_i |D_i| over
    the clients' local training sets.
    """

    epsilon: float
    delta: float
    q: float
    rounds_T: int
    theta: float
    min_dataset_size: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0 < self.q <= 1:
            raise ValueError(f"sampling ratio q must lie in (0, 1], got {self.q}")
        if self.rounds_T < 1:
            raise ValueError(f"rounds_T must be >= 1, got {self.rounds_T}")
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.min_dataset_size < 1:
            raise ValueError(
                f"min_dataset_size must be >= 1, got {self.min_dataset_size}"
            )


def clip(u: np.ndarray, theta: float) -> np.ndarray:
    """Scale ``u`` to L2 norm at most ``theta``: returns u / max(1, ||u||/theta)."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise DimensionError(f"update must be 1-D, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("update contains non-finite values")
    return u / max(1.0, float(np.linalg.norm(u)) / theta)


def gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard-normal draws via Box-Muller over uniforms.

    Fixed, platform-independent construction: each pair of uniforms
    (u1, u2) with u1 in (0, 1] yields sqrt(-2 ln u1) * (cos, sin)(2 pi u2).
    """
    if size == 0:
        return np.empty(0, dtype=np.float64)
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # (0, 1]: keeps log() finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:size]


def add_noise(u: np.ndarray, sigma_z: float, seed) -> np.ndarray:
    """Add i.i.d. N(0, sigma_z) noise to every coordinate; exact identity at 0."""
    if sigma_z < 0:
        raise ValueError(f"sigma_z must be nonnegative, got {sigma_z}")
    u = np.asarray(u, dtype=np.float64)
    if sigma_z == 0:
        return u.copy()
    rng = as_rng(seed)
    return u + sigma_z * gaussian(rng, u.size)


def sensitivity(theta: float, min_dataset_size: int) -> float:
    """Mechanism sensitivity 2*theta / min_i |D_i|."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if min_dataset_size < 1:
        raise ValueError(f"min_dataset_size must be >= 1, got {min_dataset_size}")
    return 2.0 * theta / min_dataset_size


def sigma_from_budget(b: PrivacyBudget) -> float:
    """Per-coordinate noise std implied by the budget:

    sigma_z = (delta_f / epsilon) * sqrt(2 q T ln(1/delta)).
    """
    df = sensitivity(b.theta, b.min_dataset_size)
    return (df / b.epsilon) * math.sqrt(2.0 * b.q * b.rounds_T * math.log(1.0 / b.delta))


def protect_dp(u_dp: np.ndarray, p: DpParams, seed) -> np.ndarray:
    """Clip then noise the plaintext part of a local update."""
    return add_noise(clip(u_dp, p.theta), p.sigma_z, seed)
