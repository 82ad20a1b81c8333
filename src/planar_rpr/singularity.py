"""Line-geometry singularity analysis for the 3-RPR platform.

Each leg transmits force along the line through its two revolute joints.
The robot loses stiffness (parallel singularity) exactly when the three
lines are concurrent or all parallel, i.e. when the 3x3 matrix of Pluecker
line coordinates drops rank.  Two determinant flavours are used here:

* ``parallel_singularity_measure`` uses unit leg directions.  It vanishes
  exactly at parallel singularities, is undefined when a leg has zero
  length, and is this package's proximity heuristic.  How to measure
  closeness to a parallel singularity is an open problem; the normalized
  |det| used here is a pragmatic choice that tests and the planner only
  rely on for sign and zero detection.
* ``unnormalized_determinant`` uses raw joint-to-joint vectors.  It is a
  polynomial in the pose, vanishes additionally at serial singularities
  (a zero row), and at fixed orientation is exactly quadratic in (x, y):
  the singularity locus is a conic.

The conic passes through the three serial points S_i(phi) = a_i - R(phi) b_i
where leg i has zero length.  Those points are ordinary (parallel) singular
positions only for designs where a base angle equals the corresponding
platform angle -- otherwise they are passages through the locus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArchitecturalSingularity, SerialDegenerate, ValidationError
from .model import MAX_SAMPLES, Pose, RobotGeometry, rotation

# Leg-length band (relative to L) below which a leg line is undefined.
LINE_DEGENERACY_REL = 1e-9
# Looser band used for configuration classification, so the planner has a
# usable passage window instead of a chattering classifier.
SERIAL_CLASSIFY_REL = 1e-6
# Zero band for the normalized measure.
MEASURE_ZERO = 1e-9


@dataclass(frozen=True)
class LegLine:
    """Pluecker coordinates (unit direction, moment about the origin) of one
    leg's force line.  ``degenerate`` is set when the two joints coincide."""

    direction: np.ndarray
    moment: float
    degenerate: bool

    def point_distance(self, p) -> float:
        """Unsigned distance from a point to the (infinite) line."""
        px, py = p
        return abs(self.direction[0] * py - self.direction[1] * px + self.moment)


@dataclass(frozen=True)
class SingularityConic:
    """Fixed-orientation singularity locus Q(x, y) = 0.

    ``coefficients`` = (q20, q11, q02, q10, q01, q00) so that
    Q = q20 x^2 + q11 xy + q02 y^2 + q10 x + q01 y + q00, matching the
    unnormalized determinant (length^4 units).  ``serial_points`` are the
    three passage candidates S_i(phi), always on the conic.
    """

    coefficients: np.ndarray
    phi: float
    serial_points: np.ndarray
    conic_class: str

    def evaluate(self, x, y):
        q20, q11, q02, q10, q01, q00 = self.coefficients
        return q20 * x * x + q11 * x * y + q02 * y * y + q10 * x + q01 * y + q00


@dataclass(frozen=True)
class ConfigurationClass:
    """Pointwise classification of a pose.

    ``singular_legs`` uses 1-based leg ids (matching rho_1..rho_3).
    ``measure`` is the normalized parallel-singularity measure, or None
    where undefined (some leg serially singular).  ``clearance`` is only
    set at serial poses: the distance from the intersection of the
    remaining leg lines to the coinciding joint (the serial point is also
    a parallel singularity only when that distance vanishes).
    """

    kind: str
    singular_legs: tuple[int, ...]
    measure: float | None
    clearance: float | None


def _leg_geometry(geom: RobotGeometry, x, y, phi):
    """Leg vectors B_i - a_i, leg lengths and the unnormalized determinant.

    ``x``, ``y``, ``phi`` may be scalars or broadcastable arrays.  Returns
    ``dx``, ``dy`` and ``dist`` with a trailing leg axis of 3, and ``det``
    with the broadcast shape.  The planner's edge scans, the crossing
    detector and the pointwise measures all evaluate the geometry here.
    """
    x, y, phi = (np.asarray(v, dtype=float) for v in (x, y, phi))
    # legs run along a leading axis here, so each leg's slice is contiguous
    legs = (3,) + (1,) * max(x.ndim, y.ndim, phi.ndim)
    ax, ay = (v.reshape(legs) for v in geom.base.T)
    bx, by = (v.reshape(legs) for v in geom.platform.T)
    c, s = np.cos(phi), np.sin(phi)
    dx = x + (c * bx - s * by) - ax
    dy = y + (s * bx + c * by) - ay
    m = ax * dy - ay * dx
    det = (
        m[0] * (dx[1] * dy[2] - dx[2] * dy[1])
        - m[1] * (dx[0] * dy[2] - dx[2] * dy[0])
        + m[2] * (dx[0] * dy[1] - dx[1] * dy[0])
    )
    to_last = (*range(1, dx.ndim), 0)
    return dx.transpose(to_last), dy.transpose(to_last), np.hypot(dx, dy).transpose(to_last), det


def _line_measure(dist, det, L: float):
    """Unit-direction determinant det / (rho_1 rho_2 rho_3) from kernel
    outputs; nan where some leg line is undefined."""
    rho = dist[..., 0] * dist[..., 1] * dist[..., 2]
    return det / np.where(np.any(dist <= LINE_DEGENERACY_REL * L, axis=-1), np.nan, rho)


def leg_lines(geom: RobotGeometry, pose: Pose) -> list[LegLine]:
    """Force line of each leg (through a_i and B_i) at the given pose."""
    dx, dy, dist, _ = _leg_geometry(geom, pose.x, pose.y, pose.phi)
    lines = []
    for i in range(3):
        if dist[i] <= LINE_DEGENERACY_REL * geom.L:
            lines.append(LegLine(np.zeros(2), 0.0, True))
            continue
        u = np.array([dx[i], dy[i]]) / dist[i]
        u.flags.writeable = False
        moment = float(geom.base[i, 0] * u[1] - geom.base[i, 1] * u[0])
        lines.append(LegLine(u, moment, False))
    return lines


def parallel_singularity_measure(geom: RobotGeometry, pose: Pose, normalized: bool = False) -> float:
    """Determinant of the unit-direction line matrix (length units).

    Computed as det / (rho_1 rho_2 rho_3) from the unnormalized
    determinant.  Zero exactly at parallel singularities.  Raises
    :class:`SerialDegenerate` when some leg line is undefined.  With
    ``normalized=True`` the value is divided by the characteristic scale.
    """
    L = geom.L
    _, _, dist, det = _leg_geometry(geom, pose.x, pose.y, pose.phi)
    for i in range(3):
        if dist[i] <= LINE_DEGENERACY_REL * L:
            raise SerialDegenerate(i + 1)
    measure = _line_measure(dist, det, L)
    return float(measure / L if normalized else measure)


def unnormalized_determinant(geom: RobotGeometry, pose: Pose) -> float:
    """Line-matrix determinant with raw (un-normalized) leg vectors.

    Equals rho_1 rho_2 rho_3 times the measure wherever the measure is
    defined, and vanishes with a zero row at serial configurations.  At
    fixed phi this is exactly quadratic in (x, y) -- the conic locus.
    """
    return float(_leg_geometry(geom, pose.x, pose.y, pose.phi)[3])


def serial_points(geom: RobotGeometry, phi: float) -> np.ndarray:
    """Positions S_i(phi) = a_i - R(phi) b_i where leg i has zero length."""
    return geom.base - geom.platform @ rotation(phi).T


def _conic_coefficients(geom: RobotGeometry, phi, origin=(0.0, 0.0)):
    """(q20, q11, q02, q10, q01, q00) of the determinant as a quadratic in
    (x - ox, y - oy), along a trailing axis; ``phi`` may be an array.

    Translating the platform by (x, y) adds (x, y) to every leg vector, so
    each moment m_i = (a_i - o) x d_i and each 2x2 minor d_j x d_k of the
    determinant is affine in (x, y), and their products give the six
    coefficients.  Taking the moments about ``o`` is a column operation on
    the line matrix, so the determinant is unchanged; about the base
    centroid the monomials stay small and so does the rounding.
    """
    ox, oy = origin
    dx, dy, _, q00 = _leg_geometry(geom, ox, oy, phi)
    ax, ay = geom.base[:, 0] - ox, geom.base[:, 1] - oy
    m0, mx, my = ax * dy - ay * dx, -ay, ax
    # minor opposite leg i, over the cyclic pair (j, k) = (i+1, i+2)
    j, k = [1, 2, 0], [2, 0, 1]
    c0 = dx[..., j] * dy[..., k] - dx[..., k] * dy[..., j]
    cx, cy = dy[..., k] - dy[..., j], dx[..., j] - dx[..., k]

    def dot(u, v):  # leg-axis dot product with the rounding of a 1-D `@`
        return (u[..., None, :] @ v[..., :, None])[..., 0, 0]

    return np.stack(
        [
            dot(mx, cx),
            dot(mx, cy) + dot(my, cx),
            dot(my, cy),
            dot(m0, cx) + dot(mx, c0),
            dot(m0, cy) + dot(my, c0),
            q00,
        ],
        axis=-1,
    )


def singularity_conic(geom: RobotGeometry, phi: float) -> SingularityConic:
    """Exact fixed-orientation singularity locus Q(x, y) = 0.

    The six coefficients about the world origin come in closed form from
    the affine dependence of the leg vectors on (x, y) (see
    ``_conic_coefficients``).  When every coefficient, taken relative to
    L^(4 - degree), is at most 1e-12, the locus is the whole plane and the
    design is rejected as architecturally singular.
    """
    singular, detail = is_architecturally_singular(geom)
    if singular:
        raise ArchitecturalSingularity(detail)
    coeffs = _conic_coefficients(geom, phi)
    relative = coeffs / geom.L ** np.array([2, 2, 2, 3, 3, 4])
    if np.max(np.abs(relative)) <= 1e-12:
        raise ArchitecturalSingularity(
            f"singularity locus degenerates to the whole plane at phi={phi:.6f}"
        )

    q20, q11, q02 = relative[:3]
    quad_scale = max(abs(q20), abs(q11), abs(q02))
    disc = q11 * q11 - 4.0 * q20 * q02
    if quad_scale <= 1e-12 * np.max(np.abs(relative)):
        conic_class = "degenerate"
    elif abs(disc) <= 1e-9 * quad_scale**2:
        conic_class = "parabola"
    elif disc < 0.0:
        conic_class = "ellipse"
    else:
        conic_class = "hyperbola"

    coeffs.flags.writeable = False
    sp = serial_points(geom, phi)
    sp.flags.writeable = False
    return SingularityConic(coeffs, float(phi), sp, conic_class)


# Marching-squares segments per cell key.  The key is the 4-bit cell code
# (bit k set when corner k is inside, Q < 0; corner order (i, j), (i+1, j),
# (i+1, j+1), (i, j+1)), plus 16 for the saddle codes 5 and 10 when the cell
# centre is inside.  Each segment pairs two edge indices 0:bottom 1:right
# 2:top 3:left; -1 pads the keys with a single segment.
_MS_SEGMENTS = np.full((32, 2, 2), -1)
for _key, _pairs in {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 5: [(3, 2), (1, 0)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)], 10: [(0, 3), (2, 1)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    21: [(3, 0), (1, 2)], 26: [(0, 1), (2, 3)],
}.items():
    _MS_SEGMENTS[_key, : len(_pairs)] = _pairs


def sample_conic_polyline(conic: SingularityConic, window, step: float) -> list[np.ndarray]:
    """Marching-squares contour of Q = 0 inside an axis-aligned window.

    ``window`` is (x0, y0, x1, y1).  Returns polylines as (n, 2) arrays
    with adjacent point spacing at most 2 * step; an empty list when the
    conic misses the window.  Fully deterministic.  Grids of more than
    ``MAX_SAMPLES`` nodes raise :class:`ValidationError`.
    """
    if step <= 0.0:
        raise ValidationError("step must be positive")
    x0, y0, x1, y1 = window
    if x1 <= x0 or y1 <= y0:
        raise ValidationError("window must have positive extent")
    nodes = np.maximum(np.ceil([(x1 - x0) / step, (y1 - y0) / step]) + 1, 2)
    if not nodes.prod() <= MAX_SAMPLES:  # also rejects inf and nan
        raise ValidationError(f"window / step gives more than {MAX_SAMPLES:,} grid nodes")
    nx, ny = map(int, nodes)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    Q = conic.evaluate(xs[:, None], ys[None, :])
    b = (Q < 0.0).astype(np.uint8)
    code = b[:-1, :-1] | b[1:, :-1] << 1 | b[1:, 1:] << 2 | b[:-1, 1:] << 3
    i, j = np.nonzero((code != 0) & (code != 15))  # row-major: i, then j
    key = code[i, j].astype(np.intp)
    saddle = np.nonzero((key == 5) | (key == 10))[0]
    si, sj = i[saddle], j[saddle]
    centre = conic.evaluate(0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1]))
    key[saddle] += 16 * (centre < 0.0)

    # edges 0..3 run from their lower lattice node to the upper one, so the
    # two cells sharing an edge emit bit-identical points (otherwise chains
    # would not stitch); t is only computed where Q changes sign, which are
    # exactly the edges the table picks
    lo_i, lo_j = i[:, None] + [0, 1, 0, 0], j[:, None] + [0, 0, 1, 0]
    hi_i, hi_j = i[:, None] + [1, 1, 1, 0], j[:, None] + [0, 1, 1, 1]
    qa, qb = Q[lo_i, lo_j], Q[hi_i, hi_j]
    t = np.divide(qa, qa - qb, out=np.zeros_like(qa), where=(qa < 0.0) != (qb < 0.0))
    edge_pts = np.stack(
        [xs[lo_i] + t * (xs[hi_i] - xs[lo_i]), ys[lo_j] + t * (ys[hi_j] - ys[lo_j])], axis=-1
    )
    pairs = _MS_SEGMENTS[key]
    cell, slot = np.nonzero(pairs[:, :, 0] >= 0)
    segments = edge_pts[cell[:, None], pairs[cell, slot]]
    return _stitch_segments(segments.tolist(), 1e-9 * step)


def _stitch_segments(segments, tol: float) -> list[np.ndarray]:
    """Chain marching-squares segments into polylines (deterministic order)."""

    def key(p):
        return (round(p[0] / tol), round(p[1] / tol))

    # zero-length corner clips (contour grazing a lattice node) carry no
    # information and would foul the endpoint matching
    segments = [(a, b) for a, b in segments if key(a) != key(b)]

    adjacency: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append(idx)
        adjacency.setdefault(key(b), []).append(idx)

    used = [False] * len(segments)
    polylines = []

    def walk(idx, start_pt):
        used[idx] = True
        a, b = segments[idx]
        chain = [start_pt, b if key(a) == key(start_pt) else a]
        while True:
            k = key(chain[-1])
            nxt = next((m for m in adjacency.get(k, ()) if not used[m]), None)
            if nxt is None:
                break
            used[nxt] = True
            a, b = segments[nxt]
            chain.append(b if key(a) == k else a)
        return chain

    # open chains first: start from endpoints that belong to a single segment
    for idx in range(len(segments)):
        if used[idx]:
            continue
        a, b = segments[idx]
        start = None
        if len(adjacency[key(a)]) == 1:
            start = a
        elif len(adjacency[key(b)]) == 1:
            start = b
        if start is not None:
            polylines.append(np.array(walk(idx, start)))
    for idx in range(len(segments)):  # leftover closed loops
        if not used[idx]:
            polylines.append(np.array(walk(idx, segments[idx][0])))
    return polylines


def _serial_clearance(geom: RobotGeometry, pose: Pose, leg: int) -> float:
    """Clearance where leg ``leg`` (0-based) has zero length: the distance
    from the intersection of the other two leg lines to the joint a_leg;
    for (near-)parallel lines, the larger of the two point-line distances;
    zero when one of those lines is undefined."""
    lines = leg_lines(geom, pose)
    first, second = (lines[j] for j in range(3) if j != leg)
    point = geom.base[leg]
    if first.degenerate or second.degenerate:
        return 0.0
    u1, u2 = first.direction, second.direction
    cross = u1[0] * u2[1] - u1[1] * u2[0]
    if abs(cross) < 1e-12:
        return max(first.point_distance(point), second.point_distance(point))
    # line i: -u_iy x + u_ix y + m_i = 0
    mat = np.array([[-u1[1], u1[0]], [-u2[1], u2[0]]])
    p = np.linalg.solve(mat, -np.array([first.moment, second.moment]))
    return float(np.hypot(p[0] - point[0], p[1] - point[1]))


def classify_configuration(geom: RobotGeometry, pose: Pose) -> ConfigurationClass:
    """Classify a pose as regular / parallel / serial / both.

    A leg counts as serially singular inside the loose 1e-6*L band.  At a
    serial pose the parallel test follows the line-through-the-coinciding-
    joint criterion with whatever legs remain regular (the two- and
    three-leg cases extrapolate the same test; the single-leg case is the
    generic one).
    """
    L = geom.L
    _, _, dist, det = _leg_geometry(geom, pose.x, pose.y, pose.phi)
    singular = [i for i in range(3) if dist[i] <= SERIAL_CLASSIFY_REL * L]

    if not singular:
        measure = float(_line_measure(dist, det, L) / L)
        kind = "parallel_singular" if abs(measure) <= MEASURE_ZERO else "regular"
        return ConfigurationClass(kind, (), measure, None)

    measure = None
    if len(singular) == 1:
        clearance = _serial_clearance(geom, pose, singular[0])
    elif len(singular) == 2:
        line = leg_lines(geom, pose)[next(i for i in range(3) if i not in singular)]
        clearance = 0.0 if line.degenerate else max(line.point_distance(geom.base[i]) for i in singular)
    else:
        clearance = 0.0  # platform pinned onto the base: nothing regular remains
    kind = "serial_and_parallel" if clearance <= SERIAL_CLASSIFY_REL * L else "serial_singular"
    return ConfigurationClass(kind, tuple(i + 1 for i in singular), measure, float(clearance))


def triangle_angles(points: np.ndarray) -> np.ndarray:
    """Unsigned interior angle at each vertex of a point triple (radians).

    A vertex with a coincident neighbour gets angle 0.
    """
    out = np.zeros(3)
    for i in range(3):
        e1 = points[(i + 1) % 3] - points[i]
        e2 = points[(i + 2) % 3] - points[i]
        n1, n2 = np.hypot(*e1), np.hypot(*e2)
        if n1 == 0.0 or n2 == 0.0:
            continue
        cross = e1[0] * e2[1] - e1[1] * e2[0]
        dot = e1 @ e2
        out[i] = abs(np.arctan2(cross, dot))
    return out


def is_architecturally_singular(geom: RobotGeometry) -> tuple[bool, str]:
    """Similar-triangle test for architectural singularity.

    True when base and platform triangles are similar under the leg-index
    correspondence (side ratios equal within 1e-9 relative), covering both
    direct and reflected similarity.  This is the classical example of an
    architecturally singular 3-RPR design; more exotic criteria are out of
    scope.  ``singularity_conic`` backs this up at each orientation by
    rejecting a determinant whose exact coefficients all vanish.
    """
    a, b = geom.base, geom.platform
    sa = np.array([np.hypot(*(a[(i + 1) % 3] - a[(i + 2) % 3])) for i in range(3)])
    sb = np.array([np.hypot(*(b[(i + 1) % 3] - b[(i + 2) % 3])) for i in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            lhs, rhs = sa[i] * sb[j], sa[j] * sb[i]
            if abs(lhs - rhs) > 1e-9 * max(lhs, rhs, 1e-300):
                return False, "base and platform triangles are not similar"
    ratio = float(np.sqrt(np.sum(sb**2) / np.sum(sa**2)))

    def signed_area(p):
        e1, e2 = p[1] - p[0], p[2] - p[0]
        return e1[0] * e2[1] - e1[1] * e2[0]

    area_a, area_b = signed_area(a), signed_area(b)
    if area_a == 0.0 or area_b == 0.0:
        orientation = "degenerate"
    elif (area_a > 0.0) == (area_b > 0.0):
        orientation = "direct"
    else:
        orientation = "reflected"
    return True, f"platform is a {orientation} similar copy of the base (ratio {ratio:.9g})"


def passage_safety(geom: RobotGeometry) -> np.ndarray:
    """Per-leg flag: True when the leg's serial point is never a parallel
    singularity, for any orientation.

    Leg i is unsafe exactly when the base angle at a_i equals the platform
    angle at b_i (within 1e-6 rad) -- the special designs where the two
    regular leg lines can pass through the coinciding joints.
    """
    ang_a = triangle_angles(geom.base)
    ang_b = triangle_angles(geom.platform)
    return np.abs(ang_a - ang_b) > 1e-6
