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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArchitecturalSingularity, SerialDegenerate, ValidationError
from .model import MAX_SAMPLES, Pose, RobotGeometry, _entries

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
        """Q at (x, y), scalars or broadcastable arrays.

        The sum starts from q11 x y, the one term with the full broadcast
        shape, and adds the other five in place, so no other array takes that
        shape, and each point's value is the same whatever array holds it.
        Addition commutes, so this rounds exactly as the left-to-right sum
        q20 x^2 + q11 xy + q02 y^2 + q10 x + q01 y + q00.
        """
        q20, q11, q02, q10, q01, q00 = self.coefficients
        out = q11 * x * y
        out += q20 * x * x
        out += q02 * y * y
        out += q10 * x
        out += q01 * y
        out += q00
        return out


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


def _leg_vectors(geom: RobotGeometry, x, y, phi):
    """Leg vectors B_i - a_i as ``(dx, dy)``, legs along a leading axis of 3
    so that each leg's slice is contiguous.  ``x``, ``y``, ``phi`` may be
    scalars or broadcastable arrays."""
    x, y, phi = (np.asarray(v, dtype=float) for v in (x, y, phi))
    ax, ay, bx, by = geom.leg_columns(max(x.ndim, y.ndim, phi.ndim))
    c, s = np.cos(phi), np.sin(phi)
    return x + (c * bx - s * by) - ax, y + (s * bx + c * by) - ay


def _leg_det(geom: RobotGeometry, dx, dy):
    """The unnormalized determinant from the leg vectors of
    :func:`_leg_vectors`, with their broadcast shape less the leg axis."""
    ax, ay = geom.leg_columns(dx.ndim - 1)[:2]
    m = ax * dy - ay * dx
    return (
        m[0] * (dx[1] * dy[2] - dx[2] * dy[1])
        - m[1] * (dx[0] * dy[2] - dx[2] * dy[0])
        + m[2] * (dx[0] * dy[1] - dx[1] * dy[0])
    )


def _float_leg_vectors(legs, x: float, y: float, phi: float):
    """:func:`_leg_vectors` at one pose in Python floats, as lists of the
    three legs' ``dx`` and ``dy``; ``legs`` holds each leg's (ax, ay, bx,
    by).  The float twin of the kernel: the same operations in the same
    order, so the same bits wherever ``math.cos`` and ``math.sin`` give
    numpy's (a test holds them to it)."""
    c, s = math.cos(phi), math.sin(phi)
    dx = [x + (c * bx - s * by) - ax for ax, _, bx, by in legs]
    return dx, [y + (s * bx + c * by) - ay for _, ay, bx, by in legs]


def _float_leg_det(legs, dx, dy) -> float:
    """:func:`_leg_det` on the leg vectors of :func:`_float_leg_vectors`,
    operation for operation in Python floats."""
    m = [ax * ddy - ay * ddx for (ax, ay, _, _), ddx, ddy in zip(legs, dx, dy)]
    return (
        m[0] * (dx[1] * dy[2] - dx[2] * dy[1])
        - m[1] * (dx[0] * dy[2] - dx[2] * dy[0])
        + m[2] * (dx[0] * dy[1] - dx[1] * dy[0])
    )


def _leg_geometry(geom: RobotGeometry, x, y, phi):
    """Leg vectors B_i - a_i, leg lengths and the unnormalized determinant.

    ``x``, ``y``, ``phi`` may be scalars or broadcastable arrays.  Returns
    ``dx``, ``dy`` and ``dist`` with a trailing leg axis of 3, and ``det``
    with the broadcast shape: :func:`_leg_vectors` and :func:`_leg_det`,
    which steps that need only some of these outputs call alone.  The
    planner's edge scans, the crossing detector and the pointwise measures
    all evaluate the geometry here.
    """
    dx, dy = _leg_vectors(geom, x, y, phi)
    to_last = (*range(1, dx.ndim), 0)
    return dx.transpose(to_last), dy.transpose(to_last), np.hypot(dx, dy).transpose(to_last), _leg_det(geom, dx, dy)


def _pose_geometry(geom: RobotGeometry, x, y, phi):
    """:func:`_leg_geometry` at one pose with its bits, in floats: the float
    twin's (:func:`_float_leg_det`) lists ``dx``, ``dy`` and float ``det``, and
    ``dist`` by one ``np.hypot`` (``math.hypot`` rounds otherwise).  Values that
    overflow (such as a platform frame ~1e300 away) raise :class:`ValidationError`."""
    legs = geom.leg_floats
    angle = float(phi) if math.isfinite(phi) else math.nan  # math.cos raises on inf, np.cos gives nan
    dx, dy = _float_leg_vectors(legs, float(x), float(y), angle)
    det = _float_leg_det(legs, dx, dy)
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.hypot(dx, dy).tolist()
    if not (math.isfinite(det) and all(map(math.isfinite, dist))):
        raise ValidationError(
            f"the line-matrix determinant at pose ({x:.6g}, {y:.6g}, {phi:.6g}) "
            "is not finite: the design's coordinates are too large"
        )
    return dx, dy, dist, det


def _line_measure(dist, det, L: float):
    """Unit-direction determinant det / (rho_1 rho_2 rho_3) from kernel
    outputs; nan where some leg line is undefined."""
    rho = dist[..., 0] * dist[..., 1] * dist[..., 2]
    return det / np.where(np.any(dist <= LINE_DEGENERACY_REL * L, axis=-1), np.nan, rho)


def _pose_measure(dist, det: float, L: float) -> float:
    """:func:`_line_measure` on the floats of :func:`_pose_geometry`."""
    if min(dist) <= LINE_DEGENERACY_REL * L:
        return math.nan
    rho = dist[0] * dist[1] * dist[2]
    return det / rho if rho else float(np.float64(det) / rho)  # numpy's inf or nan where Python raises


def _leg_line(geom: RobotGeometry, dx, dy, dist, i: int):
    """Unit direction and moment ``(ux, uy, m)`` of leg ``i``'s (0-based)
    force line from one pose's leg vectors and lengths, in floats; None
    where its joints coincide."""
    if dist[i] <= LINE_DEGENERACY_REL * geom.L:
        return None
    ux, uy = dx[i] / dist[i], dy[i] / dist[i]
    ax, ay = geom.leg_floats[i][:2]
    return ux, uy, ax * uy - ay * ux


def _line_distance(line, p) -> float:
    """Unsigned distance from the point ``p`` to a line of :func:`_leg_line`."""
    ux, uy, m = line
    return abs(ux * p[1] - uy * p[0] + m)


def leg_lines(geom: RobotGeometry, pose: Pose) -> list[LegLine]:
    """Force line of each leg (through a_i and B_i) at the given pose."""
    legs = [v.tolist() for v in _leg_geometry(geom, pose.x, pose.y, pose.phi)[:3]]
    lines = [_leg_line(geom, *legs, i) for i in range(3)]
    u = np.array([(0.0, 0.0) if line is None else line[:2] for line in lines])
    u.flags.writeable = False
    return [LegLine(u[i], 0.0 if line is None else line[2], line is None) for i, line in enumerate(lines)]


def parallel_singularity_measure(geom: RobotGeometry, pose: Pose, normalized: bool = False) -> float:
    """Determinant of the unit-direction line matrix (length units).

    Computed as det / (rho_1 rho_2 rho_3) from the unnormalized
    determinant.  Zero exactly at parallel singularities.  Raises
    :class:`SerialDegenerate` when some leg line is undefined, and
    :class:`ValidationError` when the determinant is not finite.  With
    ``normalized=True`` the value is divided by the characteristic scale.
    """
    L = geom.L
    _, _, dist, det = _pose_geometry(geom, pose.x, pose.y, pose.phi)
    for i in range(3):
        if dist[i] <= LINE_DEGENERACY_REL * L:
            raise SerialDegenerate(i + 1)
    measure = _pose_measure(dist, det, L)
    return measure / L if normalized else measure


def unnormalized_determinant(geom: RobotGeometry, pose: Pose) -> float:
    """Line-matrix determinant with raw (un-normalized) leg vectors.

    Equals rho_1 rho_2 rho_3 times the measure wherever the measure is
    defined, and vanishes with a zero row at serial configurations.  At
    fixed phi this is exactly quadratic in (x, y) -- the conic locus.
    Raises :class:`ValidationError` when it is not finite.
    """
    return _pose_geometry(geom, pose.x, pose.y, pose.phi)[3]


def serial_points(geom: RobotGeometry, phi: float) -> np.ndarray:
    """Positions S_i(phi) = a_i - R(phi) b_i where leg i has zero length, one
    row per leg: zero minus the leg vectors (:func:`_leg_vectors`) at (0, 0, phi)."""
    return 0.0 - np.stack(_leg_vectors(geom, 0.0, 0.0, phi), axis=-1)


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
    design is rejected as architecturally singular.  Coefficients that
    overflow (coordinates too large for their products, such as a platform
    frame ~1e300 away) raise :class:`ValidationError`.
    """
    singular, detail = geom.architectural_singularity
    if singular:
        raise ArchitecturalSingularity(detail)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _conic_coefficients(geom, phi)
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError(
            f"the singularity conic at phi={phi:.6f} has non-finite coefficients: "
            "the design's coordinates are too large"
        )
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


# Edge e of cell (i, j) runs from node (i, j) + _EDGE_NODES[e, 0] up to node (i, j) + _EDGE_NODES[e, 1].
_EDGE_NODES = np.array([[[0, 0], [1, 0]], [[1, 0], [1, 1]], [[0, 1], [1, 1]], [[0, 0], [0, 1]]])
_BLOCK = 4  # side, in cells, of the blocks on which the contour bounds Q


def sample_conic_polyline(conic: SingularityConic, window, step: float) -> list[np.ndarray]:
    """Marching-squares contour of Q = 0 inside an axis-aligned window.

    ``window`` is (x0, y0, x1, y1); another length raises
    :class:`ValidationError`.  Returns polylines as (n, 2) arrays
    with adjacent point spacing at most 2 * step; an empty list when the
    conic misses the window.  Fully deterministic.  Grids of more than
    ``MAX_SAMPLES`` nodes, a step whose join tolerance 1e-9 * step
    underflows and a window on whose lattice Q overflows raise
    :class:`ValidationError`.  Q is evaluated, to the whole lattice's bits,
    only on the blocks of cells where a bound allows a sign change, so the
    work follows the contour's length and not the window's area.
    """
    if step <= 0.0:
        raise ValidationError("step must be positive")
    if not 1e-9 * step > 0.0:  # segment ends join at multiples of 1e-9 * step
        raise ValidationError(f"step {step:g} is too small: its join tolerance 1e-9 * step underflows to 0")
    x0, y0, x1, y1 = _entries(window, 4, "window")
    if x1 <= x0 or y1 <= y0:
        raise ValidationError("window must have positive extent")
    nodes = np.maximum(np.ceil([(x1 - x0) / step, (y1 - y0) / step]) + 1, 2)
    if not nodes.prod() <= MAX_SAMPLES:  # also rejects inf and nan
        raise ValidationError(f"window / step gives more than {MAX_SAMPLES:,} grid nodes")
    nx, ny = map(int, nodes)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    # Q is quadratic: on a block with centre c and half-widths at most (hx, hy)
    # |Q| >= |Q(c)| - |Qx(c)| hx - |Qy(c)| hy - |q20| hx^2 - |q11| hx hy - |q02| hy^2.
    # err, 64 u times the terms' absolute values at the window's extreme corner
    # summed as evaluate sums (so it overflows where a node's Q can), bounds the
    # rounding of both.  A block whose bound exceeds 2 err has nodes of one
    # exact sign and emits nothing; a non-finite err or bound keeps it.
    xb, yb = (v[np.minimum(np.arange(0, len(v) - 1 + _BLOCK, _BLOCK), len(v) - 1)] for v in (xs, ys))
    cx, cy = (0.5 * xb[:-1] + 0.5 * xb[1:])[:, None], 0.5 * yb[:-1] + 0.5 * yb[1:]  # halved before adding: finite
    hx, hy = np.max(0.5 * xb[1:] - 0.5 * xb[:-1]), np.max(0.5 * yb[1:] - 0.5 * yb[:-1])
    xm, ym = max(abs(x0), abs(x1)), max(abs(y0), abs(y1))
    q20, q11, q02, q10, q01, _ = conic.coefficients
    a20, a11, a02, a10, a01, a00 = np.abs(conic.coefficients)
    with np.errstate(over="ignore", invalid="ignore"):
        err = 64.0 * (2.0**-53 * (a11 * xm * ym + a20 * xm * xm + a02 * ym * ym + a10 * xm + a01 * ym + a00) + 5e-324)
        lower = np.abs(conic.evaluate(cx, cy)) - hx * np.abs(2.0 * q20 * cx + q10 + q11 * cy)
        lower -= hy * np.abs(q11 * cx + (2.0 * q02 * cy + q01))
        bi, bj = np.nonzero(~(lower > 2.0 * err + (a20 * hx * hx + a11 * hx * hy + a02 * hy * hy)))
        if len(bi) == lower.size:  # every block kept: one block spans the lattice
            ni, nj = np.arange(nx)[None], np.arange(ny)[None]
        else:
            # a kept block past the last row or column repeats its last node; the
            # stitcher drops the zero-length segments of its zero-width cells
            ni = np.minimum(_BLOCK * bi[:, None] + np.arange(_BLOCK + 1), nx - 1)
            nj = np.minimum(_BLOCK * bj[:, None] + np.arange(_BLOCK + 1), ny - 1)
        X, Y = xs[ni], ys[nj]
        Q = conic.evaluate(X[:, :, None], Y[:, None, :])
    if not np.all(np.isfinite(Q)):
        raise ValidationError(
            f"the singularity conic at phi={conic.phi:.6f} is not finite on the window's lattice: "
            "the window's coordinates are too large"
        )
    b = (Q < 0.0).astype(np.uint8)
    code = b[:, :-1, :-1] | b[:, 1:, :-1] << 1 | b[:, 1:, 1:] << 2 | b[:, :-1, 1:] << 3
    k, i, j = np.nonzero((code != 0) & (code != 15))
    order = np.argsort(ni[k, i] * ny + nj[k, j])  # the lattice's row-major cell order
    k, i, j = k[order], i[order], j[order]
    key = code[k, i, j].astype(np.intp)
    saddle = np.nonzero((key == 5) | (key == 10))[0]
    sk, si, sj = k[saddle], i[saddle], j[saddle]
    centre = conic.evaluate(0.5 * (X[sk, si] + X[sk, si + 1]), 0.5 * (Y[sk, sj] + Y[sk, sj + 1]))
    key[saddle] += 16 * (centre < 0.0)

    # each segment joins two edges of its cell on which Q changes sign; as
    # an edge runs from its lower node, the two cells sharing it emit
    # bit-identical points (otherwise chains would not stitch)
    pairs = _MS_SEGMENTS[key]
    cell, slot = np.nonzero(pairs[:, :, 0] >= 0)
    ends = _EDGE_NODES[pairs[cell, slot]]  # segment, end, lower/upper node, i/j
    k, i, j = k[cell, None, None], i[cell, None, None] + ends[..., 0], j[cell, None, None] + ends[..., 1]
    q, x, y = Q[k, i, j], X[k, i], Y[k, j]
    t = q[..., 0] / (q[..., 0] - q[..., 1])
    segments = np.stack([x[..., 0] + t * (x[..., 1] - x[..., 0]), y[..., 0] + t * (y[..., 1] - y[..., 0])], axis=-1)
    return _stitch_segments(segments, 1e-9 * step)


def _stitch_segments(segments: np.ndarray, tol: float) -> list[np.ndarray]:
    """Chain marching-squares segments, an (n, 2, 2) array of end points,
    into polylines (deterministic order).

    Ends join when their coordinates agree after rounding to multiples of
    ``tol``.  Each end is rounded once and gets the integer id of its
    rounded point; end 2 s + e is end e of segment s, so end p ^ 1 is the
    other end of p's segment.  Where exactly two ends share a point each is
    the other's mate, found once for all; a chain steps to its mate unless
    that segment is used.  Only at a junction of more ends does the walk
    scan them, for the first whose segment is unused, in segment order.
    Open chains come first, each from the first segment with an end that
    no other segment shares (its a end before its b end); then the
    leftover loops, each from its a end.
    """
    points = segments.reshape(-1, 2)
    _, ids = np.unique(np.round(points / tol).view(np.complex128).ravel(), return_inverse=True)
    # zero-length corner clips (contour grazing a lattice node) carry no
    # information and would foul the endpoint matching
    keep = np.repeat(ids[0::2] != ids[1::2], 2)
    points, ids = points[keep], ids[keep]
    # the ends with id k are ends[first[k]:first[k + 1]], in segment order
    ends = np.argsort(ids, kind="stable")
    degree = np.bincount(ids)
    first = np.concatenate([[0], np.cumsum(degree)])
    # mate[p]: the other end at p's point, -1 at an open end, -2 at a junction
    mate = np.where(degree == 1, -1, -2)[ids]
    pair = first[:-1][degree == 2]
    mate[ends[pair]], mate[ends[pair + 1]] = ends[pair + 1], ends[pair]
    open_ends = np.flatnonzero(mate == -1).tolist()
    ids, ends, first, mate = ids.tolist(), ends.tolist(), first.tolist(), mate.tolist()
    used = [False] * (len(ids) // 2)

    def walk(p):
        chain = [p]
        while p >= 0:
            used[p >> 1] = True
            p ^= 1
            chain.append(p)
            q = mate[p]
            if q == -2:
                k = ids[p]
                p = next((e for e in ends[first[k] : first[k + 1]] if not used[e >> 1]), -1)
            else:
                p = q if q < 0 or not used[q >> 1] else -1
        return points[chain]

    polylines = [walk(p) for p in open_ends if not used[p >> 1]]
    return polylines + [walk(2 * s) for s in range(len(used)) if not used[s]]


def _serial_clearance(geom: RobotGeometry, legs, leg: int) -> float:
    """Clearance where leg ``leg`` (0-based) has zero length: the distance
    from the intersection of the other two leg lines to the joint a_leg;
    for (near-)parallel lines, the larger of the two point-line distances;
    zero when one of those lines is undefined.  ``legs`` are one pose's
    ``(dx, dy, dist)`` of :func:`_pose_geometry`.  In floats, but for the
    ``np.linalg.solve`` of the two lines, whose bits are the BLAS's."""
    first, second = (_leg_line(geom, *legs, j) for j in range(3) if j != leg)
    if first is None or second is None:
        return 0.0
    (u1x, u1y, m1), (u2x, u2y, m2) = first, second
    point = geom.leg_floats[leg]
    if abs(u1x * u2y - u1y * u2x) < 1e-12:
        return max(_line_distance(first, point), _line_distance(second, point))
    # line i: -u_iy x + u_ix y + m_i = 0
    p = np.linalg.solve([[-u1y, u1x], [-u2y, u2x]], [-m1, -m2])
    return float(np.hypot(p[0] - point[0], p[1] - point[1]))


def classify_configuration(geom: RobotGeometry, pose: Pose) -> ConfigurationClass:
    """Classify a pose as regular / parallel / serial / both.

    A leg counts as serially singular inside the loose 1e-6*L band.  At a
    serial pose the parallel test follows the line-through-the-coinciding-
    joint criterion with whatever legs remain regular (the two- and
    three-leg cases extrapolate the same test; the single-leg case is the
    generic one).  A determinant that is not finite raises
    :class:`ValidationError`.
    """
    L = geom.L
    dx, dy, dist, det = _pose_geometry(geom, pose.x, pose.y, pose.phi)
    singular = [i for i in range(3) if dist[i] <= SERIAL_CLASSIFY_REL * L]

    if not singular:
        measure = _pose_measure(dist, det, L) / L
        kind = "parallel_singular" if abs(measure) <= MEASURE_ZERO else "regular"
        return ConfigurationClass(kind, (), measure, None)

    measure = None
    if len(singular) == 1:
        clearance = _serial_clearance(geom, (dx, dy, dist), singular[0])
    elif len(singular) == 2:
        line = _leg_line(geom, dx, dy, dist, next(i for i in range(3) if i not in singular))
        clearance = 0.0 if line is None else max(_line_distance(line, geom.leg_floats[i]) for i in singular)
    else:
        clearance = 0.0  # platform pinned onto the base: nothing regular remains
    kind = "serial_and_parallel" if clearance <= SERIAL_CLASSIFY_REL * L else "serial_singular"
    return ConfigurationClass(kind, tuple(i + 1 for i in singular), measure, clearance)


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
    """Similar-triangle test for architectural singularity, the classical
    singular 3-RPR design (more exotic criteria are out of scope).

    With the joints as complex numbers, the triangles are similar under the
    leg correspondence when (b2 - b1)(a3 - a1) = (a2 - a1)(b3 - b1) within
    1e-9 relative: directly, or reflected with b conjugated; a collinear
    design passes both (degenerate).  ``singularity_conic`` backs this up
    at each orientation by rejecting a determinant whose coefficients vanish.
    """
    a, b = geom.base @ [1, 1j], geom.platform @ [1, 1j]

    def similar(p):
        lhs, rhs = (p[1] - p[0]) * (a[2] - a[0]), (a[1] - a[0]) * (p[2] - p[0])
        return abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-300)

    direct, reflected = similar(b), similar(np.conj(b))
    if not (direct or reflected):
        return False, "base and platform triangles are not similar"
    sa, sb = (np.abs(np.roll(p, -1) - np.roll(p, -2)) for p in (a, b))
    ratio = float(np.sqrt(np.sum(sb**2) / np.sum(sa**2)))
    orientation = "degenerate" if direct and reflected else "direct" if direct else "reflected"
    return True, f"platform is a {orientation} similar copy of the base (ratio {ratio:.9g})"


def passage_safety(geom: RobotGeometry) -> np.ndarray:
    """Per-leg flag: True when the leg's serial point is never a parallel
    singularity, for any orientation.

    At leg i's serial point a_i and b_i coincide, and the other two leg
    lines meet there at some phi exactly when the signed base angle at a_i
    and the signed platform angle at b_i agree modulo pi.  With per triangle
    z_i = (p_{i+2} - p_i) conj(p_{i+1} - p_i) and w = z_a conj(z_b), leg i
    is safe when |Im w| > sin(1e-6) |w|; a coincident joint gives w = 0.
    """
    a, b = geom.base @ [1, 1j], geom.platform @ [1, 1j]
    z_a, z_b = ((np.roll(c, -2) - c) * np.conj(np.roll(c, -1) - c) for c in (a, b))
    w = z_a * np.conj(z_b)
    return np.abs(w.imag) > np.sin(1e-6) * np.abs(w)
