"""Exception types shared across the library, and how a caller's value is checked and shown."""

from __future__ import annotations

import math


class GeometryError(Exception):
    """Base class for all geometric domain errors."""


class DegenerateTriangle(GeometryError):
    """Vertices are (numerically) collinear; no triangle-based quantity is defined."""


class VertexCoincidence(GeometryError):
    """The query point coincides with a vertex, making a quantity undefined.

    ``vertex`` names the offending vertex ("A", "B" or "C") when known.
    """

    def __init__(self, message: str, vertex: str | None = None):
        super().__init__(message)
        self.vertex = vertex


class OutsideInterior(GeometryError):
    """An interior-only inequality was requested for a point outside the open triangle."""


class DomainError(GeometryError):
    """Scalar arguments outside the documented domain (negative lengths, bad angles...)."""


class UsageError(Exception):
    """Bad command-line invocation; maps to exit code 2."""


def _shown(value) -> str:
    """``repr(value)`` for a message, with an int too long to print named by its size."""
    try:
        return repr(value)
    except ValueError:  # more digits than ``sys.get_int_max_str_digits()``
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        items = ", ".join(map(_shown, value))
        return f"[{items}]" if isinstance(value, list) else f"({items})"


def _check_number(value, what: str, non_negative: bool = False) -> None:
    """Raise DomainError unless ``value`` is a finite int or float, and ``>= 0`` if asked.

    A bool would be written to the JSON as true or pass for a share of 1 or
    0; a string or None would reach ``math.isfinite``.  A NaN tolerance flags
    no violation, a NaN share passes the sum test, and neither NaN nor inf is JSON.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"{what} must be an int or a float, got {_shown(value)}")
    try:
        valid = math.isfinite(value) and (value >= 0.0 or not non_negative)
    except OverflowError:  # an int beyond the float range is not finite either
        valid = False
    if not valid:
        rule = "finite and non-negative" if non_negative else "finite"
        raise DomainError(f"{what} must be {rule}, got {_shown(value)}")
