"""Clip-and-noise protection of the plaintext part of an update.

The mechanism is L2 clipping to a threshold ``theta`` followed by i.i.d.
zero-mean Gaussian noise with per-coordinate std ``sigma_z``:

    protected = u / max(1, ||u|| / theta) + z,   z_j ~ N(0, sigma_z)

``PrivacyBudget.sigma_z`` calibrates ``sigma_z`` once for the whole
experiment from the privacy budget (epsilon, delta), the client sampling
ratio q, the round count T and the mechanism sensitivity
``PrivacyBudget.delta_f`` = 2*theta / min_i |D_i|; a budget whose
``sigma_z`` is not finite cannot be built.

Gaussian sampling uses Box-Muller over the PCG64 uniform stream, so seeded
draws are reproducible bit-for-bit across platforms (see ``gaussian``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, check_int, check_real

__all__ = ["DpParams", "PrivacyBudget", "protect_dp"]


@dataclass(frozen=True)
class DpParams:
    """Mechanism parameters: clipping threshold and noise std."""

    theta: float
    sigma_z: float

    def __post_init__(self):
        check_real("theta", self.theta, "(0, inf)")
        check_real("sigma_z", self.sigma_z, "[0, inf)")


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
        check_real("epsilon", self.epsilon, "(0, inf]")
        check_real("delta", self.delta, "(0, 1)")
        check_real("sampling ratio q", self.q, "(0, 1]")
        check_int("rounds_T", self.rounds_T, 1)
        check_int("min_dataset_size", self.min_dataset_size, 1)
        check_real("theta", self.theta, "(0, inf]")
        if not math.isfinite(self.sigma_z):  # not finite whenever delta_f is not
            raise ValueError(f"delta_f = {self.delta_f:.10g} gives sigma_z = "
                             f"{self.sigma_z:.10g}, not a finite noise std")

    @property
    def delta_f(self) -> float:
        """Mechanism sensitivity 2*theta / min_i |D_i|, in Python floats, so an
        overflow gives inf without a numpy warning."""
        return 2.0 * float(self.theta) / self.min_dataset_size

    @property
    def sigma_z(self) -> float:
        """Per-coordinate noise std implied by the budget:

        sigma_z = (delta_f / epsilon) * sqrt(2 q T ln(1/delta)).
        """
        return (self.delta_f / float(self.epsilon)) * math.sqrt(
            2.0 * float(self.q) * self.rounds_T * math.log(1.0 / float(self.delta)))


def gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard-normal draws via Box-Muller over uniforms.

    Fixed, platform-independent construction: each pair of uniforms
    (u1, u2) with u1 in (0, 1] yields sqrt(-2 ln u1) * (cos, sin)(2 pi u2).
    """
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # (0, 1]: keeps log() finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:size]


def protect_dp(u_dp: np.ndarray, p: DpParams, seed) -> np.ndarray:
    """Clip the plaintext part of a local update to L2 norm at most ``p.theta``,
    then add i.i.d. N(0, p.sigma_z) noise to every coordinate (none at 0)."""
    u = np.asarray(u_dp, dtype=np.float64)
    if u.ndim != 1:
        raise DimensionError(f"update must be 1-D, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("update contains non-finite values")
    u = u / max(1.0, float(np.linalg.norm(u)) / p.theta)
    if p.sigma_z == 0:
        return u
    return u + p.sigma_z * gaussian(np.random.default_rng(seed), u.size)
