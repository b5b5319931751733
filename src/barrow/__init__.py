"""Distance and angle-bisector inequalities over the plane of a triangle.

The library classifies points of the plane by the sign pattern of their
barycentric coordinates, computes (signed) angle-bisector lengths from the
point toward each side, and evaluates a family of lower bounds on the sum
of vertex distances, together with a deterministic fuzzing/search harness
and a small CLI.
"""

from .bisectors import (
    BisectorTriple,
    SignedBisectorTriple,
    bisector_length,
    bisector_lengths,
    signed_bisectors,
)
from .errors import (
    DegenerateTriangle,
    DomainError,
    GeometryError,
    OutsideInterior,
    UsageError,
    VertexCoincidence,
)
from .geom import (
    BaryCoords,
    DistanceTriple,
    Point2,
    PointFrame,
    SignedDistanceTriple,
    Triangle,
    barycentric,
    dist,
    signed_area,
    signed_distances,
    vertex_distances,
)
from .harness import (
    FuzzConfig,
    FuzzReport,
    ScanGrid,
    ScanRow,
    fuzz,
    grid_scan,
    sample_point,
    sample_triangle,
    tightness_search,
)
from .inequalities import (
    IdentityResiduals,
    InequalityId,
    InequalityReport,
    Term,
    WeightTriple,
    bound_report,
    classic_reports,
    dergiades_report,
    evaluate,
    identity_residuals,
    lu_weights,
    stmt_slack,
)
from .regions import Region, classify, classify_pattern, sign_pattern

__version__ = "0.1.0"

__all__ = [
    "BaryCoords",
    "BisectorTriple",
    "DegenerateTriangle",
    "DistanceTriple",
    "DomainError",
    "FuzzConfig",
    "FuzzReport",
    "GeometryError",
    "IdentityResiduals",
    "InequalityId",
    "InequalityReport",
    "OutsideInterior",
    "Point2",
    "PointFrame",
    "Region",
    "ScanGrid",
    "ScanRow",
    "SignedBisectorTriple",
    "SignedDistanceTriple",
    "Term",
    "Triangle",
    "UsageError",
    "VertexCoincidence",
    "WeightTriple",
    "barycentric",
    "bisector_length",
    "bisector_lengths",
    "bound_report",
    "classic_reports",
    "classify",
    "classify_pattern",
    "dergiades_report",
    "dist",
    "evaluate",
    "fuzz",
    "grid_scan",
    "identity_residuals",
    "lu_weights",
    "sample_point",
    "sample_triangle",
    "sign_pattern",
    "signed_area",
    "signed_bisectors",
    "signed_distances",
    "stmt_slack",
    "tightness_search",
    "vertex_distances",
]
