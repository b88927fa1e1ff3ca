"""Exception types shared across the package, and the three checks every
parameter goes through: ``check_int`` that a count or an index is an integer
in its range, ``check_real`` that a real parameter is a real number in its
interval, and ``check_choice`` that a named choice is one of its choices."""

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


def _shown(value) -> str:
    # repr() of an int past the interpreter's digit limit (4,300 by default,
    # 640 at least) raises ValueError in place of the site's error
    if type(value) is int and value.bit_length() > 1024:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def check_int(name: str, value, low: int, high: int | None = None,
              error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy integer, not a
    bool, in ``[low, high]`` (``[low, inf)`` when ``high`` is None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= int(value) <= (math.inf if high is None else high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {bounds}, got {_shown(value)}")


def check_real(name: str, value, interval: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number that a float can
    hold (a Python or numpy int or float, not a bool) in ``interval``,
    written as the message prints it: ``"(0, 1]"``, ``"[0, inf)"``."""
    low, high = map(float, interval[1:-1].split(","))
    x = math.nan  # what no interval holds
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
    if not ((low < x if interval[0] == "(" else low <= x)
            and (x < high if interval[-1] == ")" else x <= high)):
        raise ValueError(f"{name} must be a real number in {interval}, got {_shown(value)}")


def check_choice(name: str, value, choices: tuple, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` equals one of ``choices`` and is an
    instance of that choice's type, so a ``str`` subclass passes for a string
    and ``1`` does not for ``True``.  ``value`` is never hashed."""
    if not any(isinstance(value, type(c)) and value == c for c in choices):
        raise error(f"{name} must be one of {list(choices)}, got {_shown(value)}")
