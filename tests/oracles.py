"""Independent reference computations the tests compare the library against.

Nothing in here imports the package under test.  Each helper recomputes a
quantity from first principles along a different code path than the library
uses: bisector lengths by intersecting the bisector ray with the opposite
line, region membership by raw side-of-line tests against each sideline.
The simplex descent is kept in its earlier form, which holds its vertices
in lists and orders them with ``sorted``, as a reference for the points the
library's descent visits.  Every bound, the five of the package's table of
bounds and the three vertex bounds, has one 80-digit ``decimal`` evaluator,
:func:`decimal_slacks`, which names them by their labels: it holds the
float kernel to the mathematics and measures how much of its error budget
the kernel uses.  ``test_the_reference_imports_nothing_of_the_package``
keeps this module free of imports of the package.
"""

import math
from decimal import Decimal, localcontext


def ray_bisector_foot(M, B, C):
    """Foot of the bisector of angle BMC, by intersecting the bisector ray.

    Takes and returns plain (x, y) tuples.  The bisector direction is the
    sum of the two unit ray vectors; the foot solves M + t*dir on line BC.
    """
    ubx, uby = B[0] - M[0], B[1] - M[1]
    ucx, ucy = C[0] - M[0], C[1] - M[1]
    rb = math.hypot(ubx, uby)
    rc = math.hypot(ucx, ucy)
    dx = ubx / rb + ucx / rc
    dy = uby / rb + ucy / rc
    ex, ey = C[0] - B[0], C[1] - B[1]
    det = dy * ex - dx * ey
    t = ((B[1] - M[1]) * ex - (B[0] - M[0]) * ey) / det
    return (M[0] + t * dx, M[1] + t * dy)


def ray_bisector_length(M, B, C):
    fx, fy = ray_bisector_foot(M, B, C)
    return math.hypot(fx - M[0], fy - M[1])


def _side_sign(M, P, Q, ref, eps):
    """Side of line PQ that M lies on, +1 meaning the side of ``ref``.

    The raw cross product is normalized by the reference vertex's own cross
    product, which makes the result the barycentric coordinate of M for that
    line; |value| <= eps snaps to 0.
    """
    cross_m = (Q[0] - P[0]) * (M[1] - P[1]) - (Q[1] - P[1]) * (M[0] - P[0])
    cross_ref = (Q[0] - P[0]) * (ref[1] - P[1]) - (Q[1] - P[1]) * (ref[0] - P[0])
    value = cross_m / cross_ref
    if abs(value) <= eps:
        return 0
    return 1 if value > 0.0 else -1


def oracle_region(A, B, C, M, eps=1e-12):
    """Region label of M from brute-force side-of-line tests.

    Implements the documented ownership rules directly on the sign triple:
    vertices own double zeros, the boundary-inclusive strips own single
    zeros, wedges own only their open part plus their bounding rays.
    """
    s_a = _side_sign(M, B, C, A, eps)
    s_b = _side_sign(M, C, A, B, eps)
    s_c = _side_sign(M, A, B, C, eps)
    signs = (s_a, s_b, s_c)
    zeros = [i for i, s in enumerate(signs) if s == 0]
    negs = [i for i, s in enumerate(signs) if s < 0]
    strip = {0: "mu1", 1: "mu2", 2: "mu3"}
    wedge = {0: "mu4", 1: "mu5", 2: "mu6"}
    if len(zeros) >= 2:
        return {0: "vertexA", 1: "vertexB", 2: "vertexC"}[
            max(range(3), key=lambda i: signs[i])
        ]
    if len(zeros) == 1:
        if not negs:
            return strip[zeros[0]]
        if len(negs) == 1:
            return strip[negs[0]]
        return wedge[3 - negs[0] - negs[1]]
    if not negs:
        return "lambda0"
    if len(negs) == 1:
        return strip[negs[0]]
    return wedge[3 - negs[0] - negs[1]]


def point_line_distance(M, P, Q):
    """Unsigned distance from M to the line through P and Q."""
    cross = (Q[0] - P[0]) * (M[1] - P[1]) - (Q[1] - P[1]) * (M[0] - P[0])
    return abs(cross) / math.hypot(Q[0] - P[0], Q[1] - P[1])


def _simplex_size(pts) -> float:
    (x0, y0), (x1, y1), (x2, y2) = pts
    return max(
        math.hypot(x0 - x1, y0 - y1), math.hypot(x0 - x2, y0 - y2), math.hypot(x1 - x2, y1 - y2)
    )


_INDICES = (0, 1, 2)
_MAX_ITER = 500


def reference_nelder_mead(f, x0, step, tol):
    """Plain 2-D simplex descent (reflection 1, expansion 2, contraction 0.5)."""
    pts = [x0, (x0[0] + step, x0[1]), (x0[0], x0[1] + step)]
    vals = [f(*p) for p in pts]
    for _ in range(_MAX_ITER):
        # Ordered by (value, index): the index breaks ties and no point is compared.
        (v0, _, p0), (v1, _, p1), (v2, _, p2) = sorted(zip(vals, _INDICES, pts))
        pts = [p0, p1, p2]
        vals = [v0, v1, v2]
        if _simplex_size(pts) < tol:
            break
        cx = (pts[0][0] + pts[1][0]) / 2.0
        cy = (pts[0][1] + pts[1][1]) / 2.0
        xr = (cx + (cx - pts[2][0]), cy + (cy - pts[2][1]))
        fr = f(*xr)
        if fr < vals[0]:
            xe = (cx + 2.0 * (cx - pts[2][0]), cy + 2.0 * (cy - pts[2][1]))
            fe = f(*xe)
            if fe < fr:
                pts[2], vals[2] = xe, fe
            else:
                pts[2], vals[2] = xr, fr
            continue
        if fr < vals[1]:
            pts[2], vals[2] = xr, fr
            continue
        if fr < vals[2]:
            xc = (cx + 0.5 * (xr[0] - cx), cy + 0.5 * (xr[1] - cy))
            fc = f(*xc)
            if fc <= fr:
                pts[2], vals[2] = xc, fc
                continue
        else:
            xc = (cx - 0.5 * (cx - pts[2][0]), cy - 0.5 * (cy - pts[2][1]))
            fc = f(*xc)
            if fc < vals[2]:
                pts[2], vals[2] = xc, fc
                continue
        for i in (1, 2):
            pts[i] = (
                pts[0][0] + 0.5 * (pts[i][0] - pts[0][0]),
                pts[0][1] + 0.5 * (pts[i][1] - pts[0][1]),
            )
            vals[i] = f(*pts[i])
    best_val, _, best_pt = sorted(zip(vals, _INDICES, pts))[0]
    return best_pt, best_val


#: The weights and terms of each bound, by its name: the weights 2, the
#: triangle's side ratios or the two vertex distances off each side, on the
#: signed sideline distances or the signed bisectors.  The interior-only
#: bounds are read where every coordinate is positive, so their signed
#: terms are the unsigned ones.
_DECIMAL_BOUNDS = {
    "Barrow1": ("two", "bisectors"),
    "ErdosMordell2": ("two", "distances"),
    "Dergiades3": ("sides", "distances"),
    "LuWeighted13": ("pairs", "bisectors"),
    "SignedBarrow30": ("pairs", "bisectors"),
}


def decimal_slacks(A, B, C, M):
    """Every bound's slack at M, by name, and R_A + R_B + R_C, in 80-digit decimal arithmetic.

    Takes plain (x, y) tuples of floats, each converted exactly by
    ``Decimal(float)``, and returns a dict of ``Decimal`` slacks and the
    ``Decimal`` sum.  With side k opposite vertex k, its ends at distances
    R_y and R_z from M and t the angle it spans at M: the signed distance is
    the cross of the vectors from M to its ends over its length, positive on
    the side of vertex k; the bisector is 2 R_y R_z cos(t/2) / (R_y + R_z),
    with cos^2(t/2) = (1 + dot / (R_y R_z)) / 2, negative where the distance
    is.  Side k's weight is 2, z/y + y/z for the other two side lengths y, z,
    or sqrt(R_z / R_y) + sqrt(R_y / R_z).  Each of the five bounds is
    R_A + R_B + R_C against the weighted sum of its terms; vertex k's bound
    is R_y + R_z against that last weight times the unsigned bisector toward
    side k.  M must not be a vertex.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        P = [tuple(map(Decimal, V)) for V in (A, B, C)]
        mx, my = map(Decimal, M)
        (ax, ay), (bx, by), (cx, cy) = P
        orient = 1 if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0 else -1
        vectors = [(px - mx, py - my) for px, py in P]
        R = [(x * x + y * y).sqrt() for x, y in vectors]
        ends = [((k + 1) % 3, (k + 2) % 3) for k in range(3)]
        sides = [((P[j][0] - P[i][0]) ** 2 + (P[j][1] - P[i][1]) ** 2).sqrt() for i, j in ends]
        terms = {"distances": [], "bisectors": []}
        weights = {"two": [Decimal(2)] * 3, "sides": [], "pairs": []}
        for k, (i, j) in enumerate(ends):
            (px, py), (qx, qy), R_y, R_z = vectors[i], vectors[j], R[i], R[j]
            distance = orient * (px * qy - py * qx) / sides[k]
            cos_sq = (1 + (px * qx + py * qy) / (R_y * R_z)) / 2
            bisector = 2 * R_y * R_z * max(cos_sq, Decimal(0)).sqrt() / (R_y + R_z)
            terms["distances"].append(distance)
            terms["bisectors"].append(-bisector if distance < 0 else bisector)
            # Sides i and j are the two other sides, as side k lies opposite vertex k.
            weights["sides"].append(sides[j] / sides[i] + sides[i] / sides[j])
            weights["pairs"].append((R_z / R_y).sqrt() + (R_y / R_z).sqrt())
        R_sum = R[0] + R[1] + R[2]
        slacks = {
            name: R_sum - sum(w * t for w, t in zip(weights[weight], terms[term]))
            for name, (weight, term) in _DECIMAL_BOUNDS.items()
        }
        for k, (name, (i, j)) in enumerate(zip(("VertexA14", "VertexB15", "VertexC16"), ends)):
            slacks[name] = R[i] + R[j] - weights["pairs"][k] * abs(terms["bisectors"][k])
        return slacks, R_sum
