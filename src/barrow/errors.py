"""Exception types shared across the library."""

from __future__ import annotations


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


class NumericalError(GeometryError):
    """Two independent float evaluations of one quantity disagree beyond their tolerance."""


class UsageError(Exception):
    """Bad command-line invocation; maps to exit code 2."""
