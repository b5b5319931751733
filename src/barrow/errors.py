"""Exception types shared across the library."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .geom import Point2
    from .regions import Region


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
    """An interior-only inequality was requested for a point outside the open triangle.

    ``point`` is the query point and ``region`` the region it classifies as.
    The message is formatted only when the exception is shown: a tightness
    search meets this error on many steps and discards it.
    """

    def __init__(self, point: Point2, region: Region):
        super().__init__(point, region)
        self.point = point
        self.region = region

    def __str__(self) -> str:
        return f"point {self.point} classifies as {self.region.value}, not the interior"


class DomainError(GeometryError):
    """Scalar arguments outside the documented domain (negative lengths, bad angles...)."""


class NumericalError(GeometryError):
    """Two independent float evaluations of one quantity disagree beyond their tolerance."""


class UsageError(Exception):
    """Bad command-line invocation; maps to exit code 2."""
