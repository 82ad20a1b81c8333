"""Assembly-mode-change planning and certification.

A workspace path is piecewise linear in (x, y, phi), with phi interpolated
along the shorter wrap.  Three layers sit on top of that:

* :func:`continue_joints` carries the signs of the directed leg lengths
  along a path.  A sign flips exactly where a leg length passes through
  zero transversally (leg direction reverses across an isolated zero);
  a touch without reversal, or a length pinned at zero over consecutive
  samples, cannot be continued and raises AmbiguousContinuation.
* :func:`detect_crossings` locates zeros of the line-matrix determinant
  along the path and classifies each: inside the eps_pass window around a
  serial point with positive clearance of the remaining leg lines, it is a
  ``passage`` if the sign flips and ``grazing`` if not; any other zero,
  touch or crossing, is ``parallel``.  Sample gaps are certified.
* :func:`verify_mode_change` assembles a ModeChangeCertificate: assembly
  mode changed iff the endpoint squared joint values agree while the poses
  differ.  The verdict ``changed_without_parallel`` additionally requires
  an event list free of parallel crossings.

:func:`plan_mode_change` searches a uniform (x, y, phi) grid whose edges
are admissible when they do not meet the singularity surface, which it
crosses only through doors built from the serial points of the
passage-safe legs.  A mode change must demonstrably cross the surface, so
the planner forces the cheapest door into the route whenever the shortest
path would sneak around the surface entirely.

How close a "real" crossing must pass to the serial point is not dictated
by the geometry; eps_pass = 1e-3 * L is this package's default window and
is exposed as a knob.  The same caveat applies to the uncontrollable
passive leg motion at an exact serial configuration: the certificate only
certifies the geometric path and flags every passage event so the caller
can apply whatever practical margin the hardware needs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousContinuation,
    ArchitecturalSingularity,
    InvalidStart,
    NoPathFound,
    ValidationError,
)
from .kinematics import _bracket_root, inverse_kinematics, solve_fk
from .model import MAX_SAMPLES, Pose, RobotGeometry, _entries, _whole_count, pose_distance, wrap_angle
from .singularity import (
    SERIAL_CLASSIFY_REL,
    classify_configuration,
    _conic_coefficients,
    _float_leg_det,
    _float_leg_vectors,
    _leg_det,
    _leg_geometry,
    _leg_vectors,
    _line_measure,
    _pose_geometry,
    _pose_measure,
    _serial_clearance,
)

# Passage window around a serial point, relative to L.
EPS_PASS_REL = 1e-3
# Leg-length band treated as an exact zero during sign continuation.
ZERO_TOUCH_REL = 1e-9
# Distance band that triggers adaptive sample refinement.
REFINE_BAND_REL = 0.05
REFINE_FACTOR = 8
# |det| band, relative to the bound on |det| over a path step or the grid's box, that counts as zero.
ZERO_DET_REL = 1e-12
# Bracket width to which crossing parameters are refined.
CROSSING_T_TOL = 1e-10
# Segments of one crossing-check call, which bounds its memory on long
# routes; on the reference robot's default grid a shortcut pass checks at
# most 7 on its pinned plans and 51 over 12 seeded starts.
BATCH_SEGMENTS = 2**10


@dataclass(frozen=True)
class WorkspacePath:
    """Piecewise-linear pose path; phi takes the shorter wrap per segment.

    ``waypoints`` must be :class:`Pose` objects.  ``samples_per_segment``
    is a count: a real number with a whole value, not a string, and at
    least 16."""

    waypoints: tuple[Pose, ...]
    samples_per_segment: int = 16

    def __post_init__(self):
        wps = tuple(self.waypoints)
        if len(wps) < 2:
            raise ValidationError("a workspace path needs at least two waypoints")
        if not all(isinstance(w, Pose) for w in wps):
            raise ValidationError("waypoints must be Pose objects")
        samples = _whole_count(self.samples_per_segment, "samples_per_segment must be a whole number")
        if samples < 16:
            raise ValidationError("samples_per_segment must be at least 16")
        object.__setattr__(self, "samples_per_segment", samples)
        if not (len(wps) - 1) * self.samples_per_segment <= MAX_SAMPLES:
            raise ValidationError(f"the path has more than {MAX_SAMPLES:,} base samples")
        table = np.array([w.as_tuple() for w in wps], dtype=float)
        if not np.all(np.isfinite(table)):
            raise ValidationError("waypoints must have finite coordinates")
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "_paths", _Paths(table[None], self.samples_per_segment))

    def poses_at(self, ts):
        """Arrays (x, y, phi) at global parameters ``ts``, clamped to [0, 1]."""
        return self._paths.poses_at(ts, 0)

    def pose_at(self, t: float) -> Pose:
        """Pose at global parameter t in [0, 1]."""
        return Pose(*(float(v) for v in self.poses_at(t)))


@dataclass(frozen=True)
class _Paths:
    """Piecewise-linear pose paths of one segment count n, one per row.

    Row r runs through the n + 1 waypoints ``table[r]`` with ``samples``
    base samples on each of its n segments, and has its own parameter t in
    [0, 1].  A :class:`WorkspacePath` is one row; the planner's batched
    crossing check makes one row per segment.  ``steps[r, k]`` is the step
    from waypoint k of row r to waypoint k + 1, phi wrapped.
    """

    table: np.ndarray
    samples: int
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        steps = self.table[:, 1:] - self.table[:, :-1]
        steps[..., 2] = wrap_angle(steps[..., 2])
        object.__setattr__(self, "steps", steps)

    def poses_at(self, ts, rows):
        """Arrays (x, y, phi) at parameters ``ts`` of rows ``rows``, clamped to [0, 1]."""
        t = np.minimum(np.maximum(ts, 0.0), 1.0)
        return _step_pose(self.step_at(t, rows), t, self.steps.shape[1])

    def step_at(self, ts, rows):
        """The path step of rows ``rows`` that holds each parameter ``ts``
        (in [0, 1]), as ``(k, x, y, phi, dx, dy, dphi)``: the step's index
        in its row, its start ``table[rows, k]`` and its rate
        ``steps[rows, k]``.  Every point of a path is placed on the step
        read here (:func:`_step_pose`)."""
        n = self.steps.shape[1]
        k = np.minimum((np.asarray(ts) * n).astype(int), n - 1)
        a, d = self.table[rows, k], self.steps[rows, k]
        return k, a[..., 0], a[..., 1], a[..., 2], d[..., 0], d[..., 1], d[..., 2]


def _step_pose(step, t, n):
    """The pose (x, y, phi) at parameters ``t`` on ``step``, a path step of
    :meth:`_Paths.step_at` on rows of ``n`` segments: as arrays, or as one
    step's floats, which round the same way.  A parameter inside the step gets the bits of
    :meth:`_Paths.poses_at`."""
    k, x, y, phi, dx, dy, dphi = step
    s = t * n - k
    return x + s * dx, y + s * dy, phi + s * dphi


@dataclass(frozen=True)
class CrossingEvent:
    """One zero of the determinant along a path.

    ``kind`` is "parallel", "passage" or "grazing" (a touch without a sign
    change inside a passage window); ``leg`` (1-based) is set for the last
    two.  ``measure_at`` is the normalized measure magnitude at the event
    and ``clearance_at`` the serial clearance where ``leg`` is set.
    """

    t: float
    kind: str
    leg: int | None
    measure_at: float
    clearance_at: float | None


@dataclass(frozen=True)
class JointPath:
    """Densely sampled signed joint trace along a path.

    ``rho[k, i]`` is the signed length of leg i+1 at parameter ``ts[k]``;
    ``sign_flips`` lists (t, leg) for every transversal zero crossing.
    """

    ts: np.ndarray
    rho: np.ndarray
    sign_flips: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class ModeChangeCertificate:
    """Verification record for one workspace path."""

    path: WorkspacePath
    joint_path: JointPath | None
    events: tuple[CrossingEvent, ...]
    start_pose: Pose
    end_pose: Pose
    start_joints_sq: np.ndarray
    end_joints_sq: np.ndarray
    verdict: str
    min_measure_outside_passages: float
    measure_trace: np.ndarray | None = None
    diagnostic: str | None = None

    def to_dict(self) -> dict:
        def _clean(v):
            if v is None or (isinstance(v, float) and not np.isfinite(v)):
                return None
            return float(v)

        out = {
            "verdict": self.verdict,
            "start_pose": {"x": self.start_pose.x, "y": self.start_pose.y, "phi": self.start_pose.phi},
            "end_pose": {"x": self.end_pose.x, "y": self.end_pose.y, "phi": self.end_pose.phi},
            "start_joints_sq": [float(v) for v in self.start_joints_sq],
            "end_joints_sq": [float(v) for v in self.end_joints_sq],
            "events": [
                {
                    "t": e.t,
                    "kind": e.kind,
                    "leg": e.leg,
                    "measure_at": _clean(e.measure_at),
                    "clearance_at": _clean(e.clearance_at),
                }
                for e in self.events
            ],
            "min_measure_outside_passages": _clean(self.min_measure_outside_passages),
            "diagnostic": self.diagnostic,
        }
        if self.joint_path is not None:
            out["sign_flips"] = [{"t": t, "leg": leg} for t, leg in self.joint_path.sign_flips]
            out["trace"] = {
                "t": [float(v) for v in self.joint_path.ts],
                "measure": [_clean(v) for v in self.measure_trace],
                "rho1": [float(v) for v in self.joint_path.rho[:, 0]],
                "rho2": [float(v) for v in self.joint_path.rho[:, 1]],
                "rho3": [float(v) for v in self.joint_path.rho[:, 2]],
            }
        return out


def _sample_params(geom: RobotGeometry, paths: _Paths):
    """Dense parameters ``ts`` of every row, their rows, and the kernel
    outputs of :func:`_leg_geometry` at them, sorted by row and by t within
    a row: uniform per segment, refined x8 where any leg length drops below
    the refinement band.  Each sample is evaluated once: the base samples'
    outputs are kept, and only the refinement samples are evaluated after
    them.  A refinement sample lies strictly inside its gap, so no two
    samples of a row are equal.
    """
    m, n, _ = paths.steps.shape
    # the base parameters of a row: each segment's but its end, which starts the next one, then t = 1
    u = np.append((np.arange(n)[:, None] + np.linspace(0.0, 1.0, paths.samples + 1)[:-1]).ravel(), n) / n
    ts, rows = np.tile(u, m), np.repeat(np.arange(m), len(u))
    legs = _leg_geometry(geom, *paths.poses_at(ts, rows))
    dmin = legs[2].min(axis=-1)
    band = REFINE_BAND_REL * geom.L
    k = np.nonzero(((dmin[:-1] < band) | (dmin[1:] < band)) & (rows[:-1] == rows[1:]))[0]
    if not len(k):
        return ts, rows, legs
    frac = np.arange(1, REFINE_FACTOR) / REFINE_FACTOR
    extra = (ts[k, None] + (ts[k + 1] - ts[k])[:, None] * frac).ravel()
    extra_rows = np.repeat(rows[k], len(frac))
    more = _leg_geometry(geom, *paths.poses_at(extra, extra_rows))
    ts, rows = np.concatenate([ts, extra]), np.concatenate([rows, extra_rows])
    order = np.lexsort((ts, rows))
    return ts[order], rows[order], tuple(np.concatenate([a, b])[order] for a, b in zip(legs, more))


@dataclass(frozen=True)
class _SampledPath:
    """Rows of paths, their dense parameters (:func:`_sample_params`), the
    row of each, and the kernel outputs ``(dx, dy, dist, det)`` of
    :func:`_leg_geometry` at them."""

    paths: _Paths
    ts: np.ndarray
    rows: np.ndarray
    legs: tuple


def _short_steps(geom: RobotGeometry, steps):
    """Mask of the path steps ``steps`` (..., 3), phi wrapped, that are at
    most 1e-9 * L long in pose distance max(|(dx, dy)|, L |dphi|): such a
    step joins two waypoints that are not distinct and crosses nothing."""
    length = np.maximum(np.hypot(steps[..., 0], steps[..., 1]), geom.L * np.abs(steps[..., 2]))
    return length <= 1e-9 * geom.L


def _sampled(geom: RobotGeometry, path: WorkspacePath | _Paths | _SampledPath) -> _SampledPath:
    """Check the waypoints, draw the samples and evaluate the kernel on them
    (:func:`_sample_params`).

    A path sampled already passes through, so the verifier's crossing
    detector, sign continuation and measure trace share one sampling.
    Overflowing leg lengths or determinants raise :class:`ValidationError`.
    """
    if isinstance(path, _SampledPath):
        return path
    if isinstance(path, WorkspacePath):
        path = path._paths
        if _short_steps(geom, path.steps).any():
            raise ValidationError("consecutive waypoints must be distinct")
    with np.errstate(over="ignore", invalid="ignore"):
        ts, rows, legs = _sample_params(geom, path)
    if not (np.isfinite(legs[3]).all() and math.isfinite(legs[2].max())):
        raise ValidationError(
            "the line-matrix determinant along the path is not finite: the design's coordinates are too large"
        )
    return _SampledPath(path, ts, rows, legs)


def continue_joints(geom: RobotGeometry, path: WorkspacePath) -> JointPath:
    """Signed joint lengths along the path, signs carried by continuity.

    Starts all-positive.  A leg's sign flips at an isolated zero of its
    length with direction reversal (transversal pass through the serial
    point).  Where the leg vector d turns by more than a right angle between
    samples, it flips iff |d| <= ZERO_TOUCH_REL * L at the root of
    d(t) . d(t_k), found to 1e-14 (exact at constant phi) per bracket in
    Python floats (:func:`_bracket_root`), from the kernel's one-pose form
    on the path step that holds the bracket.  The steps of all brackets
    are read in one :meth:`_Paths.step_at` call, and :func:`_step_pose`
    places each point, the root included, as :meth:`_Paths.poses_at` does.
    A zero without reversal, or a length pinned below the zero band across
    consecutive samples, raises :class:`AmbiguousContinuation`.
    """
    s = _sampled(geom, path)
    paths, ts, (dx, dy, dist, _) = s.paths, s.ts, s.legs
    zero_tol = ZERO_TOUCH_REL * geom.L
    d = np.stack([dx, dy])  # leg vectors, (2, sample, leg)
    # leg-vector dot products between samples k and k + lag, lag = 1, 2
    dots, dots2 = (np.sum(d[:, :-lag] * d[:, lag:], axis=0) for lag in (1, 2))
    below = dist <= zero_tol
    flips: list[tuple[float, int]] = []
    for leg in np.flatnonzero(below.any(axis=0)).tolist():  # legs with a zero sample
        if np.any(below[:-1, leg] & below[1:, leg]):
            raise AmbiguousContinuation(
                f"leg {leg + 1} length stays below {ZERO_TOUCH_REL:g}*L across "
                "consecutive samples; the sign cannot be continued"
            )
        # a zero at the first or last sample has nothing to continue past
        for k in np.nonzero(below[1:-1, leg])[0] + 1:
            if dots2[k - 1, leg] >= 0.0:
                raise AmbiguousContinuation(
                    f"leg {leg + 1} touches zero tangentially at t={ts[k]:.6g}"
                )
            flips.append((float(ts[k]), leg))
    k, leg = np.nonzero(~below[:-1] & ~below[1:] & (dots < 0.0))
    if len(k):
        legs, lo, hi, n = geom.leg_floats, ts[k], ts[k + 1], paths.steps.shape[1]
        steps = paths.step_at(0.5 * (lo + hi), s.rows[k])
        brackets = (lo, hi, dist[k, leg] ** 2, dots[k, leg], leg, dx[k, leg], dy[k, leg], *steps)
        for lo, hi, flo, fhi, i, dx_k, dy_k, *step in zip(*(v.tolist() for v in brackets)):

            def dot(t):
                """Leg i's vector at t, dotted with it at t_k."""
                vx, vy = _float_leg_vectors(legs, *_step_pose(step, t, n))
                return vx[i] * dx_k + vy[i] * dy_k

            t = _bracket_root(dot, lo, hi, flo, fhi, 1e-14)
            # above the zero band the leg swings past its base joint: a near miss
            vx, vy = _float_leg_vectors(legs, *_step_pose(step, t, n))
            if np.hypot(vx[i], vy[i]) <= zero_tol:
                flips.append((t, i))

    flips.sort()
    signs = np.ones(dist.shape)
    for t_flip, leg in flips:
        signs[ts > t_flip, leg] *= -1.0
    return JointPath(ts, dist * signs, tuple((t, leg + 1) for t, leg in flips))


def _classify_zeros(geom: RobotGeometry, x, y, phi, eps_pass: float) -> list[tuple]:
    """Kind, leg (1-based), measure and clearance of the determinant zeros
    at the poses (x, y, phi) (1-D arrays), one tuple per pose, each taken
    in floats by the kernel's float twin (:func:`_pose_geometry`).

    A zero whose shortest leg is longer than ``eps_pass`` is parallel; a
    nearer one is a passage when the serial clearance of that leg is
    positive, and parallel otherwise.
    """
    L = geom.L
    out = []
    for pose in zip(x.tolist(), y.tolist(), phi.tolist()):
        dx, dy, d, det = _pose_geometry(geom, *pose)
        measure = abs(_pose_measure(d, det, L)) / L
        leg = d.index(min(d))
        if d[leg] > eps_pass:
            out.append(("parallel", None, measure, None))
            continue
        clear = _serial_clearance(geom, (dx, dy, d), leg)
        kind = "passage" if clear > SERIAL_CLASSIFY_REL * L else "parallel"
        out.append((kind, leg + 1, 0.0 if math.isnan(measure) else measure, clear))
    return out


def _trig_basis(phi):
    """(1, cos phi, sin phi, cos 2phi, sin 2phi) along a new trailing axis."""
    return np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)], -1)


# At fixed (x, y) the determinant and each conic coefficient are trigonometric
# polynomials of degree 2 in phi (each moment and each 2x2 minor of the line
# matrix is of degree 1), so their values at n >= 5 equally spaced angles give
# their coefficients (a0, a1, b1, a2, b2) on _trig_basis by a discrete Fourier transform.
_TRIG_ANGLES = 2.0 * np.pi * np.arange(5) / 5


# Flat indices, in the outer product of z = (dx, dy, dphi, u, v, 1) with
# itself, of the monomials R = (dx^2, dx dy, dy^2, dx dphi, dy dphi, dphi^2)
# and W = (u^2, uv, v^2, u, v, 1).
_RATE_PAIRS = np.array([0, 1, 7, 2, 8, 14])
_END_PAIRS = np.array([21, 22, 28, 23, 29, 35])


def _gap_forms(geom: RobotGeometry):
    """The design's gap forms ``(o, curv, size)``: with the monomials W of
    the larger |u| and |v| at a path step's ends, about the base centroid
    o, and R of its rates (see ``_RATE_PAIRS``), R @ curv @ W bounds
    |det''| / 8 on the step and W @ size bounds |det| (:func:`_step_bounds`).
    Built once per design (``RobotGeometry.gap_forms``).

    Along the step det = sum_c m_c q_c over the monomials m_c of (u, v), and
    |det''| <= sum_c |m_c''| |q_c| + 2 |m_c'| |q_c'| + |m_c| |q_c''|.  The
    coefficient bounds are the rows b_j = sum_k k^j (|a_k| + |b_k|) >= max
    |d^j q_c / dphi^j|, j = 0, 1, 2, from the trigonometric coefficients of
    the six conic coefficients q_c.
    """
    o = geom.base.mean(axis=0)
    coef = _conic_coefficients(geom, _TRIG_ANGLES, o).T
    coef = coef @ (_trig_basis(_TRIG_ANGLES) * [1, 2, 2, 2, 2] / 5)
    b0, b1, b2 = np.array([[1, 1, 1, 1, 1], [0, 1, 1, 2, 2], [0, 1, 1, 4, 4]]) @ np.abs(coef).T
    curv = np.zeros((6, 6))
    curv[:3, 5] = 2 * b0[:3]  # |m_c''| |q_c|
    curv[3, 3:] = 2 * np.array([2 * b1[0], b1[1], b1[3]])  # 2 |m_c'| |q_c'|, dx dphi
    curv[4, 3:] = 2 * np.array([b1[1], 2 * b1[2], b1[4]])  # dy dphi
    curv[5] = b2  # |m_c| |q_c''|
    curv /= 8
    for a in (o, curv, b0):
        a.flags.writeable = False
    return o, curv, b0


def _step_bounds(geom: RobotGeometry, paths: _Paths):
    """Per step of ``paths``, as arrays (rows, n) indexed like ``steps``:
    the bound M on |det''| / 8 per unit of the step's own parameter, and
    the bound T on |det|, from the design's gap forms (:func:`_gap_forms`).
    Both are sums of elementwise terms in a fixed order, so a step gets
    the same bits in any batch (a matrix product rounds by the batch's
    size)."""
    o, curv, size = geom.gap_forms
    z = np.ones((6, *paths.steps.shape[:2]))  # monomials leading
    np.abs(paths.steps.transpose(2, 0, 1), out=z[:3])
    ends = np.abs(paths.table[..., :2] - o).transpose(2, 0, 1)
    np.maximum(ends[..., :-1], ends[..., 1:], out=z[3:5])
    pairs = (z[:, None] * z).reshape(36, *z.shape[1:])
    R, W = pairs[_RATE_PAIRS], pairs[_END_PAIRS]
    # the 36 terms of R @ curv @ W, padded with zeros to 64 and summed by halves
    terms = np.zeros((64, *z.shape[1:]))
    np.multiply((R[:, None] * W).reshape(36, *z.shape[1:]), curv.reshape(36, 1, 1), out=terms[:36])
    while len(terms) > 1:
        terms = terms[: len(terms) // 2] + terms[len(terms) // 2 :]
    return terms[0], _det_bound(size, z[3], z[4])


def _det_bound(size, u, v):
    """The bound T on |det| where |u| <= u, |v| <= v about the base centroid: ``size``
    (:func:`_gap_forms`) times (u^2, uv, v^2, u, v, 1), summed in a fixed order."""
    T = [c * w for c, w in zip(size, (u * u, u * v, v * v, u, v, 1.0))]
    return (T[0] + T[1]) + (T[2] + T[3]) + (T[4] + T[5])


def _split_gaps(geom: RobotGeometry, s: _SampledPath):
    """Samples ``(ts, rows, dets)`` of ``s``, plus one of the other sign in
    every same-sign gap that hides zeros, and the bound T on |det| of each
    path step (:func:`_step_bounds`).

    The bounds M and T of each path step (:func:`_step_bounds`) are
    computed once and indexed per gap by its row and step.  A gap of width
    h (in its row's t, on rows of n segments) whose end values both exceed
    M n^2 h^2 (the bound on its distance from the chord) keeps their sign;
    one whose ends exceed the largest M n^2 h^2 of the paths keeps it
    without looking up its step.  The others read their steps once
    (:meth:`_Paths.step_at`) and are halved, all per round in one
    determinant call on their steps (:func:`_step_pose`), until certified
    or CROSSING_T_TOL wide; a midpoint of the other sign (or zero) joins
    the samples.  Ends in the step's zero band are not tested: |det| <=
    ZERO_DET_REL * T, below which rounding decides the sign.  A bound that
    is not finite raises :class:`ValidationError`.
    """
    paths, ts, rows, dets = s.paths, s.ts, s.rows, s.legs[3]
    a = np.abs(dets)
    n = paths.steps.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        curvature, size = _step_bounds(geom, paths)
        largest = curvature.max() * n**2
    if not (math.isfinite(largest) and math.isfinite(size.max())):
        raise ValidationError(
            "the bounds on the line-matrix determinant along the path are not finite: "
            "the path's coordinates are too large"
        )
    h, f = ts[1:] - ts[:-1], np.minimum(a[:-1], a[1:])
    k = (rows[:-1] == rows[1:]) & (dets[:-1] * dets[1:] > 0.0) & ~(f > largest * h**2) & (h > CROSSING_T_TOL)
    k = k.nonzero()[0]
    if not len(k):
        return ts, rows, dets, size
    lo, hi, flo, fhi, row = ts[k], ts[k + 1], dets[k], dets[k + 1], rows[k]
    step = paths.step_at(0.5 * (lo + hi), row)
    seg = row, step[0]
    bound, zero = curvature[seg] * n**2, ZERO_DET_REL * size[seg]
    step = np.stack(step)
    found, f, g = [], f[k], np.arange(len(k))
    while (keep := (f > zero[g]) & (f <= bound[g] * (hi - lo) ** 2) & (hi - lo > CROSSING_T_TOL)).any():
        lo, hi, flo, fhi, g = (w[keep] for w in (lo, hi, flo, fhi, g))
        mid = 0.5 * (lo + hi)
        fmid = _leg_det(geom, *_leg_vectors(geom, *_step_pose(step[:, g], mid, n)))
        other = fmid * flo <= 0.0
        found.append((row[g[other]], mid[other], fmid[other]))
        go = ~other
        lo, hi = np.concatenate([lo[go], mid[go]]), np.concatenate([mid[go], hi[go]])
        flo, fhi = np.concatenate([flo[go], fmid[go]]), np.concatenate([fmid[go], fhi[go]])
        g = np.tile(g[go], 2)
        f = np.minimum(abs(flo), abs(fhi))
    if found:
        rows, ts, dets = (np.concatenate([v, *w]) for v, w in zip((rows, ts, dets), zip(*found)))
        order = np.lexsort((ts, rows))
        ts, rows, dets = ts[order], rows[order], dets[order]
    return ts, rows, dets, size


def _crossing_roots(geom: RobotGeometry, paths: _Paths, ts, rows, dets, k) -> list[float]:
    """The sign changes of ``dets`` between samples ``k`` and ``k + 1`` of
    ``paths``, each refined on its own to CROSSING_T_TOL
    (:func:`_bracket_root`) in Python floats, on the determinant of the
    kernel's one-pose form (:func:`_float_leg_det`) along the path step
    that holds the bracket's midpoint.  One :meth:`_Paths.step_at` call
    reads every bracket's step."""
    if not len(k):
        return []
    legs, roots, lo, hi, n = geom.leg_floats, [], ts[k], ts[k + 1], paths.steps.shape[1]
    brackets = (lo, hi, dets[k], dets[k + 1], *paths.step_at(0.5 * (lo + hi), rows[k]))
    for lo, hi, flo, fhi, *step in zip(*(v.tolist() for v in brackets)):

        def det_at(t):
            return _float_leg_det(legs, *_float_leg_vectors(legs, *_step_pose(step, t, n)))

        roots.append(_bracket_root(det_at, lo, hi, flo, fhi, CROSSING_T_TOL))
    return roots


def _crossing_events(geom: RobotGeometry, s: _SampledPath, eps_pass: float) -> list[list[CrossingEvent]]:
    """The crossing events of every row of ``s``: one list per row, sorted
    by t (see :func:`detect_crossings`).  Each sign change is refined on
    its own in Python floats (:func:`_crossing_roots`), and each zero is
    classified in floats (:func:`_classify_zeros`).  Same-sign gaps are
    certified or split first (:func:`_split_gaps`); a path with no zero
    reads no pose."""
    paths = s.paths
    ts, rows, dets, size = _split_gaps(geom, s)
    same = rows[:-1] == rows[1:]  # consecutive samples of one row
    inner = same[:-1] & same[1:]  # samples with both neighbours in their row
    around = dets[:-2] * dets[2:]  # product of the neighbours' values
    # a zero sample between samples of opposite signs crosses; any other touches
    zero = np.flatnonzero(dets == 0.0)
    crosses = np.zeros(len(ts), dtype=bool)
    crosses[1:-1] = inner & (around < 0.0)
    crosses = crosses[zero]
    k = np.flatnonzero(same & (dets[:-1] * dets[1:] < 0.0))
    refined = _crossing_roots(geom, paths, ts, rows, dets, k)
    # interior minima without a sign change in their step's zero band (tangential touches)
    a = np.abs(dets)
    here = a[1:-1]
    graze = np.flatnonzero(inner & (0.0 < here) & (here <= a[:-2]) & (here <= a[2:]) & (around > 0.0)) + 1
    if len(graze):
        graze = graze[a[graze] <= ZERO_DET_REL * size[rows[graze], paths.step_at(ts[graze], rows[graze])[0]]]
    events = [[] for _ in paths.table]
    if not (len(zero) or len(k) or len(graze)):
        return events

    # zero samples, refined roots and touching minima, in that order before the stable
    # sort by row and t, all classified: a touch grazes in a passage window, else parallel
    t_ev = np.concatenate([ts[zero], refined, ts[graze]])
    r_ev = np.concatenate([rows[zero], rows[k], rows[graze]])
    crossing = np.concatenate([crosses, np.ones(len(refined), dtype=bool), np.zeros(len(graze), dtype=bool)])
    info = _classify_zeros(geom, *paths.poses_at(t_ev, r_ev), eps_pass)
    info = [c if x or c[0] != "passage" else ("grazing", *c[1:]) for c, x in zip(info, crossing.tolist())]
    for j in np.lexsort((t_ev, r_ev)).tolist():
        events[r_ev[j]].append(CrossingEvent(float(t_ev[j]), *info[j]))
    return events


def _eps_pass(geom: RobotGeometry, eps_pass: float | None) -> float:
    """The passage window: EPS_PASS_REL * L by default; a given one must be
    a positive, finite real number (not a string), as
    :class:`~planar_rpr.robotfile.RunConfig` requires of its override."""
    if eps_pass is None:
        return EPS_PASS_REL * geom.L
    if not (isinstance(eps_pass, numbers.Real) and 0.0 < eps_pass < math.inf):
        raise ValidationError(f"eps_pass must be positive and finite, got {eps_pass!r}")
    return eps_pass


def detect_crossings(
    geom: RobotGeometry, path: WorkspacePath, eps_pass: float | None = None
) -> list[CrossingEvent]:
    """Locate and classify zeros of the determinant along the path.

    Sign changes are refined to |dt| <= 1e-10, each on its own.  A zero
    within ``eps_pass`` of a serial point whose remaining leg lines clear
    the coinciding joint is a passage where the sign changes and grazing
    where not; any other zero, crossing or touching, is parallel.  A
    curvature bound certifies each gap between samples of one sign, or
    halving splits it (:func:`_split_gaps`), so two crossings in one
    sample gap are both found, on any segment.  An ``eps_pass`` that is not
    positive and finite raises :class:`ValidationError`.
    """
    eps_pass = _eps_pass(geom, eps_pass)
    return _crossing_events(geom, _sampled(geom, path), eps_pass)[0]


def verify_mode_change(
    geom: RobotGeometry, path: WorkspacePath, eps_pass: float | None = None
) -> ModeChangeCertificate:
    """Certify whether the path changes assembly mode, and how.

    The verdict is ``changed_without_parallel`` iff the endpoint squared
    joint values agree to 1e-9*L^2, the endpoint poses differ by at least
    1e-3*L, and no crossing event is parallel.  An ambiguous sign
    continuation is reported as ``invalid_endpoints`` with a diagnostic.
    An ``eps_pass`` that is not positive and finite raises
    :class:`ValidationError`.
    """
    eps_pass = _eps_pass(geom, eps_pass)
    samples = _sampled(geom, path)
    L = geom.L
    start, end = path.waypoints[0], path.waypoints[-1]
    start_sq = inverse_kinematics(geom, start).squared
    end_sq = inverse_kinematics(geom, end).squared
    events = tuple(detect_crossings(geom, samples, eps_pass))

    diagnostic = None
    joint_path = None
    measure_trace = None
    min_measure = float("inf")
    try:
        joint_path = continue_joints(geom, samples)
        measure_trace = np.abs(_line_measure(*samples.legs[2:], L)) / L
        away = np.abs(joint_path.rho).min(axis=1) > eps_pass
        if np.any(away):
            min_measure = float(np.nanmin(measure_trace[away]))
    except AmbiguousContinuation as exc:
        diagnostic = str(exc)

    if diagnostic is not None:
        verdict = "invalid_endpoints"
    elif float(np.max(np.abs(start_sq - end_sq))) > 1e-9 * (L * L):
        verdict = "invalid_endpoints"
        diagnostic = "endpoint squared joint values differ: not the same actuator inputs"
    elif pose_distance(start, end, L) < 1e-3 * L:
        verdict = "no_change"
    elif any(e.kind == "parallel" for e in events):
        verdict = "changed_with_parallel"
    else:
        verdict = "changed_without_parallel"

    return ModeChangeCertificate(
        path=path,
        joint_path=joint_path,
        events=events,
        start_pose=start,
        end_pose=end,
        start_joints_sq=start_sq,
        end_joints_sq=end_sq,
        verdict=verdict,
        min_measure_outside_passages=min_measure,
        measure_trace=measure_trace,
        diagnostic=diagnostic,
    )


# ---------------------------------------------------------------------------
# grid planner


def _segments_crossings(geom, p0s, p1s, eps_pass, safe):
    """Crossing events of each pose segment ``p0s[r] -> p1s[r]`` ((m, 3)
    arrays of x, y, phi) in one pass, or None where it is inadmissible: where
    a zero of the determinant on it, crossing or touching, is parallel, or
    a passage through a leg that is not passage-safe.  The segments are the
    one-segment rows of one batch, a table of shape (m, 2, 3), each sampled
    as a one-segment :class:`WorkspacePath`, so its events are those
    :func:`detect_crossings` finds on it alone; one at most 1e-9 * L long in
    pose distance (:func:`_short_steps`) crosses nothing and is not sampled.
    """
    step = p1s - p0s
    step[:, 2] = wrap_angle(step[:, 2])
    live = np.flatnonzero(~_short_steps(geom, step))
    out = [[] for _ in p0s]
    if len(live):
        rows = _Paths(np.stack([p0s[live], p1s[live]], axis=1), WorkspacePath.samples_per_segment)
        for r, events in zip(live.tolist(), _crossing_events(geom, _sampled(geom, rows), eps_pass)):
            if any(e.kind == "parallel" or (e.kind == "passage" and not safe[e.leg - 1]) for e in events):
                events = None
            out[r] = events
    return out


def _nonzero(a):
    """``np.nonzero(a)`` by way of the flat indices, which is several times
    faster on a mask of more than one dimension."""
    return np.unravel_index(np.flatnonzero(a), a.shape)


def _node_signs(geom, x, y, q, band):
    """The determinant ``det`` of conic coefficients ``q`` (n, 6) about the
    base centroid at nodes (x, y), whose last axis runs along the rows of
    ``q``, elementwise: a node has the same bits on any lattice or alone.
    ``sgn``, its int8 sign, is 0 where |det| <= band, the box's zero band,
    wider than the conic's spread from the kernel, which has every other sign."""
    o = geom.base.mean(axis=0)
    q20, q11, q02, q10, q01, q00 = q.T
    u, v = x - o[0], y - o[1]
    det = q20 * u + (q11 * v + q10)  # Q = (q20 u + b) u + c, in place: one full-size array
    det *= u
    det += (q02 * v + q01) * v + q00
    return det, (det > band).view(np.int8) - (det < -band).view(np.int8)


def _axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn, band):
    """Exact mask of one grid axis's edges on which the determinant has a
    zero: the end signs differ or one is zero (``sgn * sgn <= 0``, so every
    edge at a zero node), or a value inside the edge has the other sign or
    lies in the zero band ``band``, so an edge that touches the locus
    tangentially is marked too.  ``det`` and ``sgn`` come from
    :func:`_node_signs`; the scan evaluates no node.  Along x and y the
    determinant is the conic's quadratic, whose one extremum is its
    vertex.  Along phi it is a trigonometric polynomial f of degree 2 whose
    coefficients (a_k, b_k) are the discrete Fourier transform of the node
    values at the np_ angles; f keeps the sign on a piece of width h whose
    end values both exceed sum_k k^2 (|a_k| + |b_k|) h^2 / 8 (the bound on
    its distance from the chord).  A column is opened when its smallest
    |det| is within that bound at h = dphi, and each same-sign edge the
    bound leaves open is halved on it until every piece is certified or a
    midpoint, valued from the coefficients, has the other sign, is zero or
    is in the band.  An end outside the band is certified once the bound
    falls below the band, so the halving ends and a tangency is caught.  A
    column constant in phi is not opened; the open edges of one whose bound
    is not finite cross unhalved.  ``phis`` must be uniform from 0 over the
    full circle.
    """
    if axis < 2:
        # the scanned axis runs along rows, the other spatial axis along columns
        along, other = (xs, ys) if axis == 0 else (ys, xs)
        o = geom.base.mean(axis=0)[[axis, 1 - axis]]
        q20, q11, q02, q10, q01, q00 = q.T[[2, 1, 0, 4, 3, 5]] if axis else q.T
        sgn = sgn.transpose(1, 0, 2) if axis else sgn
        u, v = along - o[0], (other - o[1])[:, None]
        b = q11 * v + q10  # along each row, Q = q20 u^2 + b u + c
        c = (q02 * v + q01) * v + q00
        cross = sgn[:-1] * sgn[1:] <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = -b / (2.0 * q20)
            at_vertex = c - b * b / (4.0 * q20)
        i = np.searchsorted(u, vertex) - 1  # u[i] < vertex <= u[i + 1]
        ic = np.clip(i, 0, len(u) - 2)
        j, m = _nonzero((i == ic) & (vertex < u[ic + 1]))
        at_vertex = at_vertex[j, m]
        hit = (np.sign(at_vertex) * sgn[ic[j, m], j, m] <= 0) | (np.abs(at_vertex) <= band)
        cross[ic[j, m][hit], j[hit], m[hit]] = True
        return cross.transpose(1, 0, 2) if axis == 1 else cross
    np_ = len(phis)
    dphi = 2.0 * np.pi / np_
    coef = det @ (_trig_basis(phis) * [1, 2, 2, 2, 2] / np_)
    cross = sgn * np.roll(sgn, -1, axis=2) <= 0
    # the bound at h = dphi, a quarter of it on each halving: 0 where f is
    # constant in phi, not finite where a node value or the sum is not
    chord = (np.abs(coef) @ [0, 1, 1, 4, 4]) * dphi**2 / 8

    def uncertified(flo, fhi, bound):
        return ~(np.minimum(np.abs(flo), np.abs(fhi)) > bound)

    i, j = _nonzero(~(np.abs(det).min(axis=2) > chord) & (chord != 0.0))
    f, coef = det[i, j], coef[i, j]
    f1 = np.roll(f, -1, axis=1)
    k, m = _nonzero(~cross[i, j] & uncertified(f, f1, chord[i, j, None]))  # the open edges
    i, j, coef, bound = i[k], j[k], coef[k], chord[i[k], j[k]]
    hit = ~np.isfinite(bound)
    e = np.flatnonzero(~hit)  # the open edge of each piece
    lo, flo, fhi, scale = phis[m[e]], f[k[e], m[e]], f1[k[e], m[e]], 1.0
    hi = lo + dphi
    while len(e):
        mid = 0.5 * (lo + hi)
        fmid = np.einsum("kt,kt->k", coef[e], _trig_basis(mid))
        hit[e[~(fmid * flo > 0.0) | (np.abs(fmid) <= band)]] = True
        go, scale = ~hit[e], scale / 4
        e, lo, hi = np.tile(e[go], 2), np.concatenate([lo[go], mid[go]]), np.concatenate([mid[go], hi[go]])
        flo, fhi = np.concatenate([flo[go], fmid[go]]), np.concatenate([fmid[go], fhi[go]])
        keep = uncertified(flo, fhi, bound[e] * scale)
        e, lo, hi, flo, fhi = (w[keep] for w in (e, lo, hi, flo, fhi))
    cross[i[hit], j[hit], m[hit]] = True
    return cross


def _serial_doors(geom, xs, ys, phis, safe, q, band):
    """Doors through the serial points S = S_l(phi_m) of the passage-safe
    legs at the grid angles, each in its cell (i, j): x_i < S_x <= x_{i+1},
    y_j < S_y <= y_{j+1}.

    An x door runs at phi_m from a corner (x_i, y), y = y_j or y_{j+1},
    along the cell's left side to (x_i, S_y), along the row through S to
    (x_{i+1}, S_y) and back along the right side to (x_{i+1}, y); it stands
    in for the x edge (0, i, j, m) or (0, i, j + 1, m).  It is admissible
    when S lies farther than the zero band ZERO_TOUCH_REL * L from both
    sides (else the leg's zero would sit at a turn of the path), the row's
    other zero (by Vieta) is not in [x_i, x_{i+1}], and the determinant has
    no zero on the parts of the two sides that the door runs on: each
    corner's node sign (:func:`_node_signs` of the grid's ``q`` and
    ``band``, at the corners alone) is its row point's, so no door ends at
    a zero node, and no vertex between has the other sign or lies in the
    zero band, so a side that touches the locus is refused.  x and y
    swapped give the y doors.  Each serial point takes the first admissible
    of its x doors from the lower and the upper corners and its y doors
    from the left and the right corners.

    Returns the door edges (axis, i, j, m), sorted (the first serial point
    in (m, leg) order wins an edge), their row points (k, 2, 3) from the
    lower corner's side, and the number of those serial points in the box.
    """
    sx, sy = (-v.ravel() for v in _leg_geometry(geom, 0.0, 0.0, phis)[:2])  # (m, leg) order
    in_box = np.tile(safe, len(phis)) & (xs[0] <= sx) & (sx <= xs[-1]) & (ys[0] <= sy) & (sy <= ys[-1])
    i = np.clip(np.searchsorted(xs, sx) - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, sy) - 1, 0, len(ys) - 2)
    k = np.flatnonzero(in_box & (xs[i] < sx) & (sx <= xs[i + 1]) & (ys[j] < sy) & (sy <= ys[j + 1]))
    cell, m, s = np.stack([i[k], j[k]]), k // 3, np.stack([sx[k], sy[k]])
    o = geom.base.mean(axis=0)
    q = q[m]
    tol = ZERO_TOUCH_REL * geom.L
    admissible = []
    for axis, (along, other) in enumerate(((xs, ys), (ys, xs))):
        # the row through S runs along ``axis``, the sides along the other axis
        q20, q11, q02, q10, q01, q00 = q.T[[2, 1, 0, 4, 3, 5]] if axis else q.T
        u, v = s[axis] - o[axis], s[1 - axis] - o[1 - axis]
        side, corner = cell[axis] + [[0], [1]], (cell[1 - axis] + [[0], [1]])[:, None]
        sides, corners = along[side] - o[axis], other[corner] - o[1 - axis]
        b = q11 * v + q10  # along the row, Q = q20 u^2 + b u + c
        bs, cs = q11 * sides + q01, (q20 * sides + q10) * sides + q00  # along the sides, Q = q02 v^2 + bs v + cs
        with np.errstate(divide="ignore", invalid="ignore"):  # nan, and no door, on a row of zeros
            u2 = -b / q20 - u
            vertex, at_vertex = -bs / (2.0 * q02), cs - bs * bs / (4.0 * q02)
        row = (sides[0] + tol < u) & (u < sides[1] - tol) & ((u2 < sides[0]) | (u2 > sides[1]))
        # S is the row's one zero between the sides, so the sign at their
        # ends follows from the slope at S
        at_row = np.sign(2.0 * q20 * u + b) * [[-1], [1]]
        # per (corner, side): a zero between the row and the corner
        ij = (corner, side) if axis else (side, corner)
        meets = _node_signs(geom, xs[ij[0]], ys[ij[1]], q, band)[1] * at_row <= 0
        between = (np.minimum(v, corners) < vertex) & (vertex < np.maximum(v, corners))
        meets |= between & ((np.sign(at_vertex) * at_row <= 0) | (np.abs(at_vertex) <= band))
        admissible += list(row & ~meets.any(axis=1))
    kind = np.argmax(admissible, axis=0)  # the first admissible door
    k = np.flatnonzero(np.any(admissible, axis=0))
    axis, upper, (i, j), m, (sx, sy) = kind[k] // 2, kind[k] % 2, cell[:, k], m[k], s[:, k]
    rows = np.stack([axis, i + axis * upper, j + (1 - axis) * upper, m], axis=-1)
    ends = [np.stack([np.where(axis, sx, xs[i + d]), np.where(axis, ys[j + d], sy), phis[m]], -1) for d in (0, 1)]
    _, first = np.unique(np.ravel_multi_index(rows.T, (2, len(xs), len(ys), len(phis))), return_index=True)
    return rows[first], np.stack(ends, axis=1)[first], int(np.count_nonzero(in_box))


def _padded_masks(ok):
    """The per-axis edge masks ``ok``, of shapes (nx - 1, ny, np_),
    (nx, ny - 1, np_) and (nx, ny, np_), as one (3, nx, ny, np_) array
    padded with False: each edge at its lower node (a minus move's target),
    so a minus step off the grid's lower side lands on the padding by a
    negative index (:class:`_TwoEndedSearch`)."""
    masks = np.zeros((3, *ok[2].shape), dtype=bool)
    masks[0, :-1], masks[1, :, :-1], masks[2] = ok
    return masks


def _grid_distance(shape, costs, p, q):
    """The least cost of a grid route between flat nodes ``p`` and ``q``
    with nothing in its way: the steps along each axis times their costs,
    phi the shorter way round."""
    (ip, jp, mp), (iq, jq, mq) = np.unravel_index(p, shape), np.unravel_index(q, shape)
    dm = np.abs(mp - mq)
    return np.abs(ip - iq) * costs[0] + np.abs(jp - jq) * costs[1] + np.minimum(dm, shape[2] - dm) * costs[2]


def _search_window(shape, costs, ends, doors, crossing):
    """The window ((i0, i1), (j0, j1)) of grid nodes, every angle, that the
    route search between the flat nodes ``ends`` = (s, t) reaches when
    nothing is in its way.

    The search certifies a route of cost mu once every node within
    (mu + c) / 2 of both ends is written (:func:`_grid_route`), c the
    largest edge cost.  With ``crossing`` (the ends' node signs differ)
    every route passes a door of ``doors`` = (lo, hi, w), so mu is at least
    the least :func:`_grid_distance` from s to one end of a door, plus its
    cost, plus from its other end to t; else mu is at least the distance
    from s to t.  The window holds every node within (mu + c) / 2 of an end
    along x and along y, and one ring more.  A search that leaves its
    window is redone on the whole grid, so a window of more than half the
    grid's nodes, which would save less than such a search can waste, gives
    way to the whole grid."""
    (s, t), (lo, hi, w) = ends, doors
    mu = _grid_distance(shape, costs, s, t)
    if crossing:
        via = np.minimum(_grid_distance(shape, costs, s, lo) + _grid_distance(shape, costs, hi, t),
                         _grid_distance(shape, costs, s, hi) + _grid_distance(shape, costs, lo, t))
        mu = np.min(via + w, initial=np.inf)
    if np.isfinite(mu):
        (i, j, _), reach = np.unravel_index(ends, shape), (mu + max(costs)) / 2
        ri, rj = int(reach // costs[0]) + 1, int(reach // costs[1]) + 1
        i0, i1 = max(int(i.min()) - ri, 0), min(int(i.max()) + ri + 1, shape[0])
        j0, j1 = max(int(j.min()) - rj, 0), min(int(j.max()) + rj + 1, shape[1])
        if 2 * (i1 - i0) * (j1 - j0) <= shape[0] * shape[1]:
            return (i0, i1), (j0, j1)
    return (0, shape[0]), (0, shape[1])


def _window_masks(geom, axes, window, q, band, doors, costs):
    """The nodes of ``window`` = ((i0, i1), (j0, j1)), every angle, of the
    grid with node coordinates ``axes`` = (xs, ys, phis), as a grid of their
    own: its padded admissible masks (:func:`_padded_masks`), with each
    axis's edges scanned on those nodes (:func:`_axis_edge_scan`, on their
    :func:`_node_signs` of the grid's ``q`` and ``band``, the whole grid's
    bits, and on no other node) and the door edges among them, of the
    grid's ``doors`` (:func:`_serial_doors`), set in; those doors as
    (lo, hi, cost), flat nodes of the window in door order; and the flat
    mask of the window's nodes whose every edge of the grid is in the
    window, None when the window is the whole grid."""
    xs, ys, phis = axes
    nx, ny = len(xs), len(ys)
    (i0, i1), (j0, j1) = window
    xs, ys = xs[i0:i1], ys[j0:j1]
    det, sgn = _node_signs(geom, xs[:, None, None], ys[:, None], q, band)
    masks = _padded_masks([~_axis_edge_scan(geom, xs, ys, phis, a, q, det, sgn, band) for a in range(3)])
    shape = wx, wy, _ = masks.shape[1:]
    axis, i, j, m = (doors - [0, i0, j0, 0]).T
    inside = (i >= 0) & (i + (axis == 0) < wx) & (j >= 0) & (j + (axis == 1) < wy)
    axis, i, j, m = axis[inside], i[inside], j[inside], m[inside]
    masks[axis, i, j, m] = True
    lo, hi = (np.ravel_multi_index((i + d * (axis == 0), j + d * (axis == 1), m), shape) for d in (0, 1))
    inner = None
    if window != ((0, nx), (0, ny)):
        inner = np.zeros(shape, dtype=bool)
        inner[(i0 > 0) : wx - (i1 < nx), (j0 > 0) : wy - (j1 < ny)] = True
        inner = inner.ravel()
    return masks, (lo, hi, np.asarray(costs)[axis]), inner


# The axes of the six moves between grid nodes, in walk order -x, -y, -phi, +phi, +y, +x.
_MOVE_AXES = (0, 1, 2, 2, 1, 0)


class _TwoEndedSearch:
    """Shortest distances from both ends (s, t) of a grid route, searched
    until a value read off them is certified.

    A label-correcting search on the admissible masks from both ends at
    once.  Each round writes the waiting relaxations up to the least of
    them plus the smallest edge cost (Dial's buckets, so a node's distance
    is written about once), and relaxes the nodes whose distance fell along
    the six moves.  :meth:`until` writes no relaxation beyond the bound it
    is given, so with a fixed bound ``dist`` (rows s and t) is a Dijkstra's
    bounded by it.  ``best`` is the least d_s + d_t and ``meets`` the nodes
    where it is reached.

    ``masks`` are the padded (3, nx, ny, np_) admissible masks of
    :func:`_padded_masks`, read and never written.
    """

    def __init__(self, masks, costs, ends):
        self.shape = nx, ny, np_ = masks.shape[1:]
        self.n = n = nx * ny * np_
        self.masks = masks.reshape(3, n)
        self.axes = np.array(_MOVE_AXES)[:, None]  # (6, 1), as are steps and costs
        self.steps = np.array([[-ny * np_], [-np_], [-1], [1], [np_], [ny * np_]])
        self.costs = np.asarray(costs)[self.axes]
        self.flat = np.full(2 * n, np.inf)
        self.dist = self.flat.reshape(2, n)
        self.best, self.meets = np.inf, []
        self.waiting = np.asarray(ends) + [0, n], np.zeros(2)

    def until(self, needed):
        """Search while the least waiting relaxation is within ``needed()``,
        the least bound on the distances at which the value it reads off the
        search is exact (inf while there is none); each round writes up to
        that bound.  On return every node within the certified value has its
        exact distance, and so has every other finite node (written before
        the bound fell); when no relaxation waits, the finite distances span
        each end's whole component.  Returns ``dist``."""
        d_at, n, np_ = self.flat, self.n, self.shape[2]
        v, d = self.waiting
        while len(d) and (low := d.min()) <= (need := needed()):
            now = d <= min(need, low + self.costs.min())
            (lv, ld), v, d = (v[~now], d[~now]), v[now], d[now]
            np.minimum.at(d_at, v, d)
            v = np.unique(v[d == d_at[v]])  # the nodes whose distance fell
            dv, u = d_at[v], v % n
            both = dv + d_at[(v + n) % (2 * n)]  # d_s + d_t at them
            least = np.min(both, initial=np.inf)
            if least < self.best:
                self.best, self.meets = least, []
            if least == self.best < np.inf:
                self.meets += u[both == least].tolist()
            t, m = u + self.steps, u % np_
            t[2:4] = u - m + (m + self.steps[2:4]) % np_  # phi wraps
            go = self.masks[self.axes, np.where(self.steps < 0, t, u)]
            v, d = np.concatenate([(t + (v - u))[go], lv]), np.concatenate([(dv + self.costs)[go], ld])
            keep = d < d_at[v]  # drop the relaxations that lower nothing
            v, d = v[keep], d[keep]
        self.waiting = v, d
        return self.dist

    def walk(self, end, node):
        """Grid nodes from ``node`` back to the end ``end`` (0 for s, 1 for
        t), each step to the first neighbour, in move order, joined by an
        admissible edge whose distance plus its cost is exactly the node's.
        So a route depends only on the masks and on float sums."""
        d, np_ = self.dist[end], self.shape[2]
        moves = list(zip(_MOVE_AXES, self.steps.ravel().tolist(), self.costs.ravel().tolist()))
        out = [int(node)]
        while d[u := out[-1]] > 0.0:
            m = u % np_
            for axis, step, w in moves:
                t = u - m + (m + step) % np_ if axis == 2 else u + step
                if self.masks[axis, t if step < 0 else u] and d[t] + w == d[u]:
                    out.append(t)
                    break
        return out


def _grid_route(masks, doors, costs, ends, require_crossing, serial, inner=None):
    """Grid nodes of the cheapest route between ``ends`` = (s, t).

    ``masks`` holds, per axis, the admissible mask of the grid's edges,
    padded (:func:`_padded_masks`), the phi edge of node m joining m + 1,
    wrapped.  The edges of each axis cost ``costs``.
    ``doors`` = (lo, hi, w) gives the ends and cost of each door edge, all
    admissible, in door order.  The route meets at the first node where
    d_s + d_t is least (:class:`_TwoEndedSearch`) and walks back from it to
    both ends.  With ``require_crossing`` a route without a door is
    replaced by the cheapest route through one, the first cheapest door in
    door order.  Every admissible non-door edge joins two nodes of one
    nonzero sign of the determinant and every door two of opposite signs,
    so a route holds an odd number of doors exactly when the signs of s and
    t differ; a route between ends of one sign may still hold two.  On
    failure the NoPathFound's ``explored`` counts the nodes reachable from
    s; with no door the message says that none of the ``serial`` serial
    points gives one.  With ``inner`` (flat, a window's nodes whose edges
    the masks hold) and no splice needed, it returns None if the search
    wrote a distance outside ``inner`` or found no route.  Else it read only
    edges of nodes of ``inner``, whose distances it wrote, as on the whole
    grid.
    """
    search = _TwoEndedSearch(masks, costs, ends)
    # a shortest route of length mu has a node within (mu + c) / 2 of both ends,
    # so min(d_s + d_t) is exact once every node within (best + c) / 2 is written
    dist = search.until(lambda: (search.best + max(costs)) / 2)
    if inner is not None and (not search.meets or np.isfinite(dist[:, ~inner]).any()):
        return None
    if not search.meets:
        raise NoPathFound(
            "grid search exhausted without reaching the target",
            explored=int(np.count_nonzero(np.isfinite(dist[0]))),
        )
    meet = min(search.meets)
    route = search.walk(0, meet)[::-1] + search.walk(1, meet)[1:]
    lo, hi, w = doors
    # both orientations of every door, in door order, so that the first
    # cheapest splice wins
    a, b, w = np.stack([lo, hi]).T.ravel(), np.stack([hi, lo]).T.ravel(), np.repeat(w, 2)
    if not require_crossing or set(zip(route[:-1], route[1:])) & set(zip(a.tolist(), b.tolist())):
        return route

    # the cheapest splice is exact once every node within its cost is written
    dist = search.until(lambda: np.min(search.dist[0, a] + w + search.dist[1, b], initial=np.inf))
    total = dist[0, a] + w + dist[1, b]
    if not np.isfinite(np.min(total, initial=np.inf)):
        # the first search met, so s and t share one component: count s's
        raise NoPathFound(
            "no passage edge is reachable from both endpoints"
            if len(lo)
            else f"no passage edge exists: the box holds {serial} serial point(s) of "
            "passage-safe legs at the grid's angles, and none gives a door",
            explored=int(np.count_nonzero(np.isfinite(dist[0]))),
        )
    k = int(np.argmin(total))
    return search.walk(0, a[k])[::-1] + search.walk(1, b[k])


def _cell_corners(axes, poses, L: float):
    """The eight corners of the cell of the grid with node coordinates
    ``axes`` = (xs, ys, phis) around each of ``poses`` ((k, 3) rows of x, y,
    phi), as a (k, 8) array of flat node indices, nearest first: keyed by
    :func:`pose_distance` with its operations on arrays (so with its bits),
    ties in corner order (i, then j, then m), as a stable sort leaves them."""
    xs, ys, phis = axes
    shape = nx, ny, np_ = len(xs), len(ys), len(phis)
    x, y, phi = (v[:, None] for v in poses.T)
    ci = np.clip(np.searchsorted(xs, x) - 1, 0, nx - 2)
    cj = np.clip(np.searchsorted(ys, y) - 1, 0, ny - 2)
    cm = np.floor(wrap_angle(phi) % (2.0 * np.pi) / (2.0 * np.pi / np_)).astype(int) % np_
    di, dj, dm = np.unravel_index(np.arange(8), (2, 2, 2))
    i, j, m = ci + di, cj + dj, (cm + dm) % np_
    key = np.maximum(np.hypot(x - xs[i], y - ys[j]), L * np.abs(wrap_angle(phi - phis[m])))
    return np.take_along_axis(np.ravel_multi_index((i, j, m), shape), np.argsort(key, axis=1, kind="stable"), 1)


def _shortcuts(geom, table, firsts, eps_pass, safe) -> list[int]:
    """The waypoints of ``table`` that a plan keeps.  On each stretch, from 0
    or a door's second row point to the next door's first (``firsts``) or
    the last waypoint, it goes from each kept waypoint k to the farthest
    waypoint joined to k admissibly, or to k + 1, checking the farthest
    alone (it is most often admissible), then the others.  Each round
    checks every stretch's next shortcuts in one pass (calls of at most
    BATCH_SEGMENTS segments), which does not change a segment's events."""
    his = firsts + [len(table) - 1]
    kept = [[k] for k in [0] + [p + 1 for p in firsts]]
    todo, size = [np.arange(hi, w[0] + 1, -1) for w, hi in zip(kept, his)], [1] * len(his)
    while any(len(js) for js in todo):
        batches = [js[:n] for js, n in zip(todo, size)]
        ks, js = np.repeat([w[-1] for w in kept], [len(b) for b in batches]), np.concatenate(batches)
        ok = []
        for c in range(0, len(js), BATCH_SEGMENTS):
            rows = slice(c, c + BATCH_SEGMENTS)
            ok += [e is not None for e in _segments_crossings(geom, table[ks[rows]], table[js[rows]], eps_pass, safe)]
        for s, batch in enumerate(batches):
            fits, ok = batch[ok[: len(batch)]], ok[len(batch) :]
            todo[s], size[s] = todo[s][len(batch) :], BATCH_SEGMENTS
            if len(fits) or (len(batch) and not len(todo[s])):
                kept[s].append(int(fits[0]) if len(fits) else kept[s][-1] + 1)
                todo[s], size[s] = np.arange(his[s], kept[s][-1] + 1, -1), 1
    # a stretch left one short of its end takes the end unchecked
    return [k for w, hi in zip(kept, his) for k in (w if w[-1] == hi else w + [hi])]


def plan_mode_change(
    geom: RobotGeometry,
    start: Pose,
    target: Pose | None = None,
    box=None,
    resolution=(64, 64, 64),
    eps_pass: float | None = None,
    require_crossing: bool = True,
) -> WorkspacePath:
    """Plan a workspace path that changes assembly mode through passages.

    When ``target`` is omitted it is the forward-kinematics solution of the
    start's joint values farthest from the start, so the endpoints share
    their squared joint vector by construction.  The search runs on a
    uniform grid over ``box`` = (x0, y0, x1, y1) times the full circle of
    orientations.  A grid edge is admissible when it does not meet the
    singularity surface (:func:`_axis_edge_scan`); the surface is crossed
    only through doors, constant-phi paths through the serial points of the
    passage-safe legs that stand in for grid edges (:func:`_serial_doors`).
    Both read one determinant sign per node (:func:`_node_signs`), taken
    only where read; a node within ZERO_DET_REL times the bound on |det|
    over the box (:func:`_det_bound`, which must be finite) has sign 0,
    and no edge, door or snap ends at one.  With ``require_crossing`` (the
    default) the returned path is guaranteed to cross the surface through
    at least one passage: if the unconstrained shortest route dodges the
    surface entirely, the cheapest door is spliced into it.  The result
    always passes verification with verdict ``changed_without_parallel``.

    Segments are checked by the crossing detector in batched passes, each
    segment sampled as a one-segment :class:`WorkspacePath`.  Before the
    search the start and the target each snap to the nearest nonzero corner
    of their grid cells joined to them admissibly: one pass checks the
    nearest nonzero corner of each, and a second the other nonzero corners
    of an endpoint whose nearest is not joined.  After it, from each kept
    waypoint the route skips to the farthest admissible shortcut, keeping
    the two points where each door's path crosses its cell; one pass per
    round checks every stretch between them, its farthest shortcut alone
    or, after a refusal, its others (:func:`_shortcuts`).  ``resolution``
    must be three counts, each a real number with a whole value and not a
    string (the rule of ``samples_per_segment``),
    ``box`` four real numbers with finite corners and extent, and
    ``eps_pass`` a positive, finite real number; each raises
    :class:`ValidationError` otherwise.

    The grid search runs from both ends on the admissible masks until the
    route (and then the splice) is certified exact (:class:`_TwoEndedSearch`);
    among equal-cost routes it takes the one its tie rule gives.  It runs
    first on the window of the grid that it reaches with nothing in its way
    (:func:`_search_window`), with only the window's nodes evaluated, and
    again on the whole grid if it wrote a distance outside the window's
    inner nodes or found no route; either way it returns the whole grid's
    route.  A route that may need a splice is searched on the whole grid at
    once.  A ``NoPathFound`` from the search counts in ``explored`` every node
    reachable from the start; "no passage edge exists" means that the grid
    has no door, and says how many serial points lay in the box.
    """
    L = geom.L
    eps_pass = _eps_pass(geom, eps_pass)
    if box is None:
        box = (-L, -L, 2.0 * L, 2.0 * L)
    x0, y0, x1, y1 = (float(v) if isinstance(v, numbers.Real) else math.nan for v in _entries(box, 4, "box"))
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1, x1 - x0, y1 - y0)):
        raise ValidationError(f"box must have finite corners and extent, got {box!r}")
    resolution = _entries(resolution, 3, "resolution")
    nx, ny, np_ = (_whole_count(v, "resolution must be whole numbers") for v in resolution)
    if min(nx, ny, np_) < 8:
        raise ValidationError("resolution must be at least 8 per axis")
    if not nx * ny * np_ <= MAX_SAMPLES:
        raise ValidationError(f"resolution gives more than {MAX_SAMPLES:,} grid nodes")
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("box must have positive extent")

    singular, detail = geom.architectural_singularity
    if singular:
        raise ArchitecturalSingularity(detail)
    safe = geom.passage_safe
    if not np.any(safe):
        raise NoPathFound("no leg is passage-safe: every serial point can be a parallel singularity")

    if classify_configuration(geom, start).kind != "regular":
        raise InvalidStart("start pose is singular")
    if not (x0 <= start.x <= x1 and y0 <= start.y <= y1):
        raise InvalidStart("start pose lies outside the search box")

    if target is None:
        sols = solve_fk(geom, inverse_kinematics(geom, start))
        candidates = [p for p in sols if pose_distance(p, start, L) >= 1e-3 * L]
        if not candidates:
            raise NoPathFound("the start joint values admit no other assembly mode")
        target = max(candidates, key=lambda p: pose_distance(p, start, L))
    if classify_configuration(geom, target).kind != "regular":
        raise InvalidStart("target pose is singular")
    if not (x0 <= target.x <= x1 and y0 <= target.y <= y1):
        raise InvalidStart("target pose lies outside the search box")

    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    phis = np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)

    shape = (nx, ny, np_)
    costs = (float(xs[1] - xs[0]), float(ys[1] - ys[0]), float(L * 2.0 * np.pi / np_))

    def node_poses(nodes):
        i, j, m = np.unravel_index(nodes, shape)
        return np.stack([xs[i], ys[j], phis[m]], axis=-1)

    o, _, size = geom.gap_forms  # the zero band of the nodes, from the bound on |det| over the box
    with np.errstate(over="ignore", invalid="ignore"):
        band = ZERO_DET_REL * _det_bound(size, *np.abs([[x0, y0], [x1, y1]] - o).max(axis=0))
    if not math.isfinite(band):
        raise ValidationError("the line-matrix determinant on the grid is not finite: the box is too large")
    q = _conic_coefficients(geom, phis, o)

    # Each endpoint snaps to the nearest nonzero corner of its cell joined to
    # it admissibly.  One pass checks the nearest nonzero corner of each; a
    # second checks the other nonzero corners of an endpoint not yet snapped.
    poses = (start, target)
    corners = _cell_corners((xs, ys, phis), np.array([p.as_tuple() for p in poses], dtype=float), L)
    i, j, m = np.unravel_index(flat := corners.ravel(), shape)
    sign = dict(zip(flat.tolist(), _node_signs(geom, xs[i], ys[j], q[m], band)[1].tolist()))
    near = [[c for c in cs if sign[c]] for cs in corners.tolist()]
    snapped = [None, None]
    for ranks in (slice(0, 1), slice(1, None)):
        todo = [(end, c) for end in (0, 1) if snapped[end] is None for c in near[end][ranks]]
        if todo:
            p0s = np.array([poses[end].as_tuple() for end, _ in todo])
            checked = _segments_crossings(geom, p0s, node_poses([c for _, c in todo]), eps_pass, safe)
            for (end, c), events in zip(todo, checked):
                if events is not None and snapped[end] is None:
                    snapped[end] = c
    for label, node in zip(("start", "target"), snapped):
        if node is None:
            raise NoPathFound(f"could not connect the {label} pose to the search grid")
    doors, door_points, serial = _serial_doors(geom, xs, ys, phis, safe, q, band)
    axis, i, j, m = doors.T  # x and y doors, at one phi
    lo, hi = (np.ravel_multi_index((i + d * (axis == 0), j + d * (axis == 1), m), shape) for d in (0, 1))
    # The route is searched first on the window of the grid that the search
    # reaches with nothing in its way (:func:`_search_window`), and again on
    # the whole grid if that search wrote a distance outside the window's
    # inner nodes or found no route; a route that may need a splice is
    # searched on the whole grid at once.
    crossing = sign[snapped[0]] != sign[snapped[1]]
    whole = ((0, nx), (0, ny))
    window = whole
    if crossing or not require_crossing:
        window = _search_window(shape, costs, snapped, (lo, hi, np.asarray(costs)[axis]), crossing)
    for window in dict.fromkeys([window, whole]):
        (i0, i1), (j0, j1) = window
        masks, edges, inner = _window_masks(geom, (xs, ys, phis), window, q, band, doors, costs)
        i, j, m = np.unravel_index(snapped, shape)
        ends = np.ravel_multi_index((i - i0, j - j0, m), masks.shape[1:])
        nodes = _grid_route(masks, edges, costs, ends, require_crossing, serial, inner)
        if nodes is not None:
            break
    i, j, m = np.unravel_index(nodes, masks.shape[1:])
    nodes = np.ravel_multi_index((i + i0, j + j0, m), shape).tolist()

    # every door on the route goes through its two row points, which the
    # simplification keeps: door_at maps each door edge to its door d, and
    # the edge the other way to ~d, which takes the row points in reverse;
    # firsts lists the waypoint of each door's first row point
    lo, hi, n = lo.tolist(), hi.tolist(), len(lo)
    door_at = dict(zip(zip(lo, hi), range(n))) | dict(zip(zip(hi, lo), range(-1, -n - 1, -1)))
    route, table, firsts = node_poses(nodes), [[start.as_tuple()]], []
    for r, edge in enumerate(zip([None] + nodes[:-1], nodes)):
        if (d := door_at.get(edge)) is not None:
            firsts.append(r + 1 + 2 * len(firsts))
            table.append(door_points[d] if d >= 0 else door_points[~d, ::-1])
        table.append(route[r : r + 1])
    table = np.concatenate([*table, [target.as_tuple()]])

    kept = _shortcuts(geom, table, firsts, eps_pass, safe)
    simplified = [start] + [Pose(*table[k].tolist()) for k in kept[1:-1]] + [target]
    final = [simplified[0]]
    for p in simplified[1:]:
        if pose_distance(p, final[-1], L) > 1e-9 * L:
            final.append(p)
    if len(final) < 2:
        raise NoPathFound("degenerate plan: start and target coincide on the grid")

    plan = WorkspacePath(tuple(final))
    cert = verify_mode_change(geom, plan, eps_pass)
    if cert.verdict != "changed_without_parallel":
        raise NoPathFound(
            f"planned path failed verification with verdict {cert.verdict}"
            + (f" ({cert.diagnostic})" if cert.diagnostic else "")
        )
    if require_crossing and not any(e.kind == "passage" for e in cert.events):
        raise NoPathFound("planned path lost its passage crossing during simplification")
    return plan
