"""Exception types shared across the package, and ``check_int``, the one
check that a count or an index is an integer in its range."""

from __future__ import annotations

import math
import numbers


class FedSplitError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(FedSplitError, ValueError):
    """Vector/mask dimensions are inconsistent."""


class ConfigError(FedSplitError, ValueError):
    """A configuration file or override is invalid; message names the key."""


class ProtocolError(FedSplitError, RuntimeError):
    """A protocol-phase invariant was violated (voting, aggregation order)."""


class EncodingOverflowError(FedSplitError, ValueError):
    """A plaintext value exceeds the fixed-point headroom of the HE scheme."""


class DivergenceError(FedSplitError, RuntimeError):
    """Training produced a non-finite loss or metric; the run is aborted."""


def check_int(name: str, value, low: int, high: int | None = None,
              error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy integer, not a
    bool, in ``[low, high]`` (``[low, inf)`` when ``high`` is None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= int(value) <= (math.inf if high is None else high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        # repr() of an int past the interpreter's digit limit (4,300 by
        # default, 640 at least) raises ValueError in place of ``error``
        big = type(value) is int and value.bit_length() > 1024
        got = f"an integer of {value.bit_length()} bits" if big else repr(value)
        raise error(f"{name} must be an integer {bounds}, got {got}")
