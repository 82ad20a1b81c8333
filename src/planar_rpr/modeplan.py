"""Assembly-mode-change planning and certification.

A workspace path is piecewise linear in (x, y, phi), with phi interpolated
along the shorter wrap.  Three layers sit on top of that:

* :func:`continue_joints` carries the signs of the directed leg lengths
  along a path.  A sign flips exactly where a leg length passes through
  zero transversally (leg direction reverses across an isolated zero);
  a touch without reversal, or a length pinned at zero over consecutive
  samples, cannot be continued and raises AmbiguousContinuation.
* :func:`detect_crossings` locates zeros of the line-matrix determinant
  along the path and classifies each crossing: a ``passage`` happens inside
  the eps_pass window around a serial point with positive clearance of the
  remaining leg lines; anything else that flips the sign is ``parallel``;
  zeros without a sign change are ``grazing``.
* :func:`verify_mode_change` assembles a ModeChangeCertificate: assembly
  mode changed iff the endpoint squared joint values agree while the poses
  differ.  The verdict ``changed_without_parallel`` additionally requires
  an event list free of parallel crossings.

:func:`plan_mode_change` searches a uniform (x, y, phi) grid whose edges
are admissible when they do not cross the singularity surface, or cross it
only inside the passage window of a passage-safe leg.  Because a mode
change must demonstrably cross the surface through such a passage, the
planner forces the cheapest passage edge into the route whenever the
unconstrained shortest path would sneak around the surface entirely.

How close a "real" crossing must pass to the serial point is not dictated
by the geometry; eps_pass = 1e-3 * L is this package's default window and
is exposed as a knob.  The same caveat applies to the uncontrollable
passive leg motion at an exact serial configuration: the certificate only
certifies the geometric path and flags every passage event so the caller
can apply whatever practical margin the hardware needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousContinuation,
    ArchitecturalSingularity,
    InvalidStart,
    NoPathFound,
    ValidationError,
)
from .kinematics import _bracket_roots, inverse_kinematics, solve_fk
from .model import MAX_SAMPLES, Pose, RobotGeometry, pose_distance, wrap_angle
from .singularity import (
    SERIAL_CLASSIFY_REL,
    classify_configuration,
    is_architecturally_singular,
    passage_safety,
    _conic_coefficients,
    _leg_geometry,
    _line_measure,
    _serial_clearance,
)

# Passage window around a serial point, relative to L.
EPS_PASS_REL = 1e-3
# Leg-length band treated as an exact zero during sign continuation.
ZERO_TOUCH_REL = 1e-9
# Distance band that triggers adaptive sample refinement.
REFINE_BAND_REL = 0.05
REFINE_FACTOR = 8
# Bracket width to which crossing parameters are refined.
CROSSING_T_TOL = 1e-10
# Sample density of door and shortcut checks: at least one crossing-detector
# sample per 1/EDGE_SUBSAMPLES of the smallest grid step (``fine_step``).
# The edge scans themselves are exact and do not sample.
EDGE_SUBSAMPLES = 9


@dataclass(frozen=True)
class WorkspacePath:
    """Piecewise-linear pose path; phi takes the shorter wrap per segment."""

    waypoints: tuple[Pose, ...]
    samples_per_segment: int = 16

    def __post_init__(self):
        wps = tuple(self.waypoints)
        if len(wps) < 2:
            raise ValidationError("a workspace path needs at least two waypoints")
        if self.samples_per_segment < 16:
            raise ValidationError("samples_per_segment must be at least 16")
        if not (len(wps) - 1) * self.samples_per_segment <= MAX_SAMPLES:
            raise ValidationError(f"the path has more than {MAX_SAMPLES:,} base samples")
        table = np.array([w.as_tuple() for w in wps], dtype=float)
        if not np.all(np.isfinite(table)):
            raise ValidationError("waypoints must have finite coordinates")
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "_table", table)

    @property
    def segment_count(self) -> int:
        return len(self.waypoints) - 1

    def poses_at(self, ts):
        """Arrays (x, y, phi) at global parameters ``ts``, clamped to [0, 1]."""
        n = self.segment_count
        t = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
        k = np.minimum((t * n).astype(int), n - 1)
        s = t * n - k
        a, b = self._table[k], self._table[k + 1]
        d = b - a
        return (
            a[..., 0] + s * d[..., 0],
            a[..., 1] + s * d[..., 1],
            a[..., 2] + s * wrap_angle(d[..., 2]),
        )

    def pose_at(self, t: float) -> Pose:
        """Pose at global parameter t in [0, 1]."""
        return Pose(*(float(v) for v in self.poses_at(t)))


@dataclass(frozen=True)
class CrossingEvent:
    """One zero of the determinant along a path.

    ``kind`` is "parallel", "passage" or "grazing"; ``leg`` (1-based) is set
    for passages.  ``measure_at`` is the normalized measure magnitude at the
    event and ``clearance_at`` the serial clearance for passages.
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


def _sample_params(geom: RobotGeometry, path: WorkspacePath) -> np.ndarray:
    """Dense global parameters: uniform per segment, refined x8 where any
    leg length drops below the refinement band."""
    n = path.segment_count
    S = path.samples_per_segment
    base = np.unique(np.concatenate([(k + np.linspace(0.0, 1.0, S + 1)) / n for k in range(n)]))
    dmin = _leg_geometry(geom, *path.poses_at(base))[2].min(axis=-1)
    k = np.nonzero((dmin[:-1] < REFINE_BAND_REL * geom.L) | (dmin[1:] < REFINE_BAND_REL * geom.L))[0]
    frac = np.arange(1, REFINE_FACTOR) / REFINE_FACTOR
    extra = base[k, None] + (base[k + 1] - base[k])[:, None] * frac
    return np.unique(np.concatenate([base, extra.ravel()]))


@dataclass(frozen=True)
class _SampledPath:
    """A path, its dense parameters (:func:`_sample_params`) and the kernel
    outputs ``(dx, dy, dist, det)`` of :func:`_leg_geometry` at them."""

    path: WorkspacePath
    ts: np.ndarray
    legs: tuple


def _sampled(geom: RobotGeometry, path: WorkspacePath | _SampledPath) -> _SampledPath:
    """Check the waypoints, draw the samples and evaluate the kernel on them.

    A path sampled already passes through, so the verifier's crossing
    detector, sign continuation and measure trace share one sampling.
    """
    if isinstance(path, _SampledPath):
        return path
    for a, b in zip(path.waypoints[:-1], path.waypoints[1:]):
        if pose_distance(a, b, geom.L) <= 1e-9 * geom.L:
            raise ValidationError("consecutive waypoints must be distinct")
    ts = _sample_params(geom, path)
    return _SampledPath(path, ts, _leg_geometry(geom, *path.poses_at(ts)))


def continue_joints(geom: RobotGeometry, path: WorkspacePath) -> JointPath:
    """Signed joint lengths along the path, signs carried by continuity.

    Starts all-positive.  A leg's sign flips at an isolated zero of its
    length with direction reversal (transversal pass through the serial
    point).  Where the leg vector d turns by more than a right angle between
    samples, it flips iff |d| <= ZERO_TOUCH_REL * L at the root of
    d(t) . d(t_k), found to 1e-14 (exact at constant phi).  A zero without
    reversal, or a length pinned below the zero band across consecutive
    samples, raises :class:`AmbiguousContinuation`.
    """
    s = _sampled(geom, path)
    path, ts, (dx, dy, dist, _) = s.path, s.ts, s.legs
    zero_tol = ZERO_TOUCH_REL * geom.L
    d = np.stack([dx, dy])  # leg vectors, (2, sample, leg)
    # leg-vector dot products between samples k and k + lag, lag = 1, 2
    dots, dots2 = (np.sum(d[:, :-lag] * d[:, lag:], axis=0) for lag in (1, 2))
    below = dist <= zero_tol
    flips: list[tuple[float, int]] = []
    for leg in range(3):
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
    rows, d_k = np.arange(len(k)), d[:, k, leg]
    t_star = _bracket_roots(
        lambda t: np.sum(np.stack(_leg_geometry(geom, *path.poses_at(t))[:2])[:, rows, leg] * d_k, axis=0),
        ts[k], ts[k + 1], dist[k, leg] ** 2, dots[k, leg], 1e-14,
    )
    # above the zero band the leg swings past its base joint: a near miss
    hit = _leg_geometry(geom, *path.poses_at(t_star))[2][rows, leg] <= zero_tol
    flips += zip(t_star[hit].tolist(), leg[hit].tolist())

    flips.sort()
    signs = np.ones(dist.shape)
    for t_flip, leg in flips:
        signs[ts > t_flip, leg] *= -1.0
    return JointPath(ts, dist * signs, tuple((t, leg + 1) for t, leg in flips))


def _classify_zero(geom: RobotGeometry, pose: Pose, eps_pass: float):
    """Kind, leg (1-based), measure and clearance for one determinant zero."""
    L = geom.L
    _, _, d, det = _leg_geometry(geom, pose.x, pose.y, pose.phi)
    measure = float(abs(_line_measure(d, det, L)) / L)
    leg = int(np.argmin(d))
    if d[leg] <= eps_pass:
        clear = _serial_clearance(geom, pose, leg)
        kind = "passage" if clear > SERIAL_CLASSIFY_REL * L else "parallel"
        return kind, leg + 1, (0.0 if np.isnan(measure) else measure), float(clear)
    return "parallel", None, measure, None


def _with_vertices(geom: RobotGeometry, path: WorkspacePath, ts, dets):
    """Samples plus the vertex of every constant-phi segment's quadratic
    that hides two sign changes (or a touch) inside one sample gap.

    Along a constant-phi segment the determinant is exactly quadratic in
    the segment parameter, so the samples at its ends and middle give the
    quadratic.  Its vertex is added only when it falls strictly inside a
    gap whose end values share a sign and the value there has the other
    sign or is zero, so every other sample set is unchanged.
    """
    w, n = path._table, path.segment_count
    k = np.nonzero(wrap_angle(w[1:, 2] - w[:-1, 2]) == 0.0)[0]
    i0, im, i1 = (np.searchsorted(ts, (k + f) / n) for f in (0.0, 0.5, 1.0))
    s, f0, fm, f1 = ts[im] * n - k, dets[i0], dets[im], dets[i1]
    curvature = (fm - f0 - s * (f1 - f0)) / (s * s - s)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = 0.5 - 0.5 * (f1 - f0) / curvature
    inside = (vertex > 0.0) & (vertex < 1.0)
    t = (k[inside] + vertex[inside]) / n
    g = np.searchsorted(ts, t) - 1
    at_vertex = f0[inside] - curvature[inside] * vertex[inside] ** 2
    keep = (t < ts[g + 1]) & (dets[g] * dets[g + 1] > 0.0) & (at_vertex * dets[g] <= 0.0)
    if not np.any(keep):
        return ts, dets
    # the detector's own value at the vertex decides
    t, g = t[keep], g[keep]
    d = _leg_geometry(geom, *path.poses_at(t))[3]
    hide = d * dets[g] <= 0.0
    return np.insert(ts, g[hide] + 1, t[hide]), np.insert(dets, g[hide] + 1, d[hide])


def detect_crossings(
    geom: RobotGeometry, path: WorkspacePath, eps_pass: float | None = None
) -> list[CrossingEvent]:
    """Locate and classify zeros of the determinant along the path.

    Sign changes are refined to |dt| <= 1e-10, all at once.  A crossing
    within ``eps_pass`` of a serial point whose remaining leg lines clear
    the coinciding joint is a passage; other sign changes are parallel
    crossings.  Zeros without a sign change are reported as grazing.  On
    constant-phi segments the exact vertex of the quadratic joins the
    samples where two crossings would otherwise hide in one sample gap.
    """
    s = _sampled(geom, path)
    path = s.path
    if eps_pass is None:
        eps_pass = EPS_PASS_REL * geom.L
    ts, dets = _with_vertices(geom, path, s.ts, s.legs[3])
    dscale = float(np.max(np.abs(dets))) or 1.0

    events = []
    for k in np.nonzero(dets == 0.0)[0]:
        t_star = float(ts[k])
        if 0 < k < len(ts) - 1 and dets[k - 1] * dets[k + 1] < 0.0:
            kind, leg, measure, clear = _classify_zero(geom, path.pose_at(t_star), eps_pass)
            events.append(CrossingEvent(t_star, kind, leg, measure, clear))
        else:
            events.append(CrossingEvent(t_star, "grazing", None, 0.0, None))
    k = np.nonzero(dets[:-1] * dets[1:] < 0.0)[0]
    refined = _bracket_roots(
        lambda t: _leg_geometry(geom, *path.poses_at(t))[3], ts[k], ts[k + 1], dets[k], dets[k + 1],
        CROSSING_T_TOL,
    )
    for t_star in refined.tolist():
        kind, leg, measure, clear = _classify_zero(geom, path.pose_at(t_star), eps_pass)
        events.append(CrossingEvent(t_star, kind, leg, measure, clear))
    # interior near-zero minima without a sign change (tangential grazing)
    prev, here, nxt = np.abs(dets[:-2]), np.abs(dets[1:-1]), np.abs(dets[2:])
    graze = (0.0 < here) & (here <= 1e-12 * dscale) & (here <= prev) & (here <= nxt)
    for k in np.nonzero(graze & (dets[:-2] * dets[2:] > 0.0))[0] + 1:
        events.append(CrossingEvent(float(ts[k]), "grazing", None, 0.0, None))
    events.sort(key=lambda e: e.t)
    return events


def verify_mode_change(
    geom: RobotGeometry, path: WorkspacePath, eps_pass: float | None = None
) -> ModeChangeCertificate:
    """Certify whether the path changes assembly mode, and how.

    The verdict is ``changed_without_parallel`` iff the endpoint squared
    joint values agree to 1e-9*L^2, the endpoint poses differ by at least
    1e-3*L, and no crossing event is parallel.  An ambiguous sign
    continuation is reported as ``invalid_endpoints`` with a diagnostic.
    """
    samples = _sampled(geom, path)
    L = geom.L
    if eps_pass is None:
        eps_pass = EPS_PASS_REL * L
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
    elif float(np.max(np.abs(start_sq - end_sq))) > 1e-9 * L**2:
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


def _segment_crossings(geom, p0: Pose, p1: Pose, eps_pass, safe, L, fine_step):
    """Crossing events of an admissible pose segment, or None when the
    segment is inadmissible.

    A segment is admissible when every determinant sign change on it is a
    passage through a passage-safe leg.  The crossing detector samples it
    at least once per ``fine_step`` of pose distance, whatever its length,
    so a shortcut spanning many cells is sampled as densely as a door.
    """
    length = pose_distance(p0, p1, L)
    if length <= 1e-9 * L:
        return []
    samples = max(2 * EDGE_SUBSAMPLES, int(np.ceil(length / fine_step)))
    seg = WorkspacePath((p0, p1), samples_per_segment=samples)
    events = detect_crossings(geom, seg, eps_pass)
    for e in events:
        if e.kind == "parallel":
            return None
        if e.kind == "passage" and not safe[e.leg - 1]:
            return None
    return events


def _trig_basis(phi):
    """(1, cos phi, sin phi, cos 2phi, sin 2phi) along a new trailing axis."""
    return np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)], -1)


# At fixed (x, y) the determinant is a trigonometric polynomial of degree 2
# in phi (each moment and each 2x2 minor of the line matrix is of degree 1),
# so its values at five equally spaced angles give its coefficients
# (a0, a1, b1, a2, b2) on _trig_basis through this discrete Fourier matrix.
_TRIG_ANGLES = 2.0 * np.pi * np.arange(5) / 5
_TRIG_FIT = _trig_basis(_TRIG_ANGLES) * [0.2, 0.4, 0.4, 0.4, 0.4]
# Re(G1 e^{i phi} + G2 e^{2i phi}) (1 + t^2)^2 with t = tan(phi / 2) is
# Re(G @ _TAN_HALF) on t^0 .. t^4, from e^{ik phi} = ((1 + it) / (1 - it))^k.
_TAN_HALF = np.array([[1, 2j, 0, 2j, -1], [1, 4j, -6, -4j, 1]])


def _critical_angles(coef):
    """Four angles per row of coefficients (a0, a1, b1, a2, b2) that include
    every critical point: the real parts of the roots of the derivative's
    tan-half quartic (a non-real root only adds a harmless angle)."""
    # the derivative is Re(G1 e^{i phi} + G2 e^{2i phi})
    G = (coef[:, 1::2] - 1j * coef[:, 2::2]) * [1j, 2j]
    # t = tan((phi - alpha) / 2): the t^4 coefficient is the derivative at
    # alpha + pi, the sample angle where it is largest, so it is never zero
    at_samples = (G @ np.exp(1j * np.outer([1, 2], _TRIG_ANGLES))).real
    alpha = _TRIG_ANGLES[np.argmax(np.abs(at_samples), axis=1)] - np.pi
    poly = ((G * np.exp(1j * np.outer(alpha, [1, 2]))) @ _TAN_HALF).real
    companion = np.zeros((len(coef), 4, 4))
    companion[:, 1:, :3] = np.eye(3)
    companion[:, :, 3] = -poly[:, :4] / poly[:, 4:]
    return alpha[:, None] + 2.0 * np.arctan(np.linalg.eigvals(companion).real)


def _axis_edge_scan(geom, xs, ys, phis, axis, eps_pass):
    """Exact sign-change and passage-candidate masks for one grid axis.

    ``cross`` marks every edge on which the determinant has a zero: its end
    values differ in sign or one is zero (``sgn * sgn <= 0``), or an
    interior extremum has the ends' opposite sign or is zero, so an edge
    that touches the locus tangentially is inadmissible too.  Along x and y
    the determinant is the conic's quadratic (coefficients about the base
    centroid), whose one extremum is its vertex.  Along phi it is a
    trigonometric polynomial of degree 2 with coefficients (a_k, b_k);
    an edge whose end values both exceed sum_k k^2 (|a_k| + |b_k|) times
    dphi^2 / 8 keeps one sign (the bound on its distance from the chord),
    and the remaining edges are tested at every real critical point.

    ``cand`` marks the crossing edges along which some leg comes within
    ``eps_pass`` of zero length, from the exact minimum of each leg length
    over the edge: the distance from the serial point S_i(phi) to an x or y
    edge, and from a_i - (x, y) to the arc that R(phi) b_i sweeps along a
    phi edge.  ``phis`` must be uniform from 0 over the full circle.
    """
    if axis < 2:
        # the scanned axis runs along rows, the other spatial axis along columns
        along, other = (xs, ys) if axis == 0 else (ys, xs)
        o = geom.base.mean(axis=0)
        q20, q11, q02, q10, q01, q00 = _conic_coefficients(geom, phis, o).T
        sx, sy = (-v for v in _leg_geometry(geom, 0.0, 0.0, phis)[:2])  # serial points
        if axis == 1:
            q20, q02, q10, q01, o, sx, sy = q02, q20, q01, q10, o[::-1], sy, sx
        u, v = along - o[0], (other - o[1])[:, None]
        b = q11 * v + q10  # along each row, Q = q20 u^2 + b u + c
        c = (q02 * v + q01) * v + q00
        sgn = np.sign((q20 * u[:, None, None] + b) * u[:, None, None] + c)
        cross = sgn[:-1] * sgn[1:] <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = -b / (2.0 * q20)
            at_vertex = c - b * b / (4.0 * q20)
        i = np.searchsorted(u, vertex) - 1  # u[i] < vertex <= u[i + 1]
        ic = np.clip(i, 0, len(u) - 2)
        j, m = np.nonzero((i == ic) & (vertex < u[ic + 1]))
        hit = np.sign(at_vertex[j, m]) * sgn[ic[j, m], j, m] <= 0
        cross[ic[j, m][hit], j[hit], m[hit]] = True

        i, j, m = np.nonzero(cross)
        near = np.clip(sx[m], along[i, None], along[i + 1, None])
        dmin = np.hypot(near - sx[m], other[j, None] - sy[m])
    else:
        np_ = len(phis)
        dphi = 2.0 * np.pi / np_
        coef = _leg_geometry(geom, xs[:, None, None], ys[None, :, None], _TRIG_ANGLES)[3] @ _TRIG_FIT
        f = coef @ _trig_basis(phis).T
        f_next = np.roll(f, -1, axis=2)
        sgn = np.sign(f)
        cross = sgn * np.sign(f_next) <= 0
        # |f''| <= sum_k k^2 (|a_k| + |b_k|), so f keeps the ends' sign on an
        # edge where both end values exceed that bound times dphi^2 / 8
        curvature = np.abs(coef) @ [0, 1, 1, 4, 4]
        uncertified = ~cross & (np.minimum(np.abs(f), np.abs(f_next)) <= curvature[..., None] * dphi**2 / 8)
        i, j = np.nonzero(uncertified.any(axis=2))
        phc = _critical_angles(coef[i, j]) % (2.0 * np.pi)
        at_phc = np.einsum("kt,kct->kc", coef[i, j], _trig_basis(phc))
        i, j, m = np.broadcast_arrays(i[:, None], j[:, None], (phc // dphi).astype(int) % np_)
        hit = np.sign(at_phc) * sgn[i, j, m] <= 0
        cross[i[hit], j[hit], m[hit]] = True

        i, j, m = np.nonzero(cross)
        wx, wy = geom.base[:, 0] - xs[i, None], geom.base[:, 1] - ys[j, None]  # a_l - (x, y)
        bx, by = geom.platform.T
        # the arc passes closest to a_l - (x, y) where R(phi) b_l points along it
        closest = (np.arctan2(wy, wx) - np.arctan2(by, bx) - phis[m, None]) % (2.0 * np.pi) <= dphi
        ends = np.minimum(
            _leg_geometry(geom, xs[i], ys[j], phis[m])[2],
            _leg_geometry(geom, xs[i], ys[j], phis[m] + dphi)[2],
        )
        dmin = np.where(closest, np.abs(np.hypot(wx, wy) - np.hypot(bx, by)), ends)
    cand = np.zeros_like(cross)
    cand[i, j, m] = dmin.min(axis=-1) <= eps_pass
    if axis == 1:
        cross, cand = cross.transpose(1, 0, 2), cand.transpose(1, 0, 2)
    return cross, cand


def _edge_ends(shape):
    """Flat node indices (lower end, upper end) of every grid edge, per axis.

    Node (i, j, m) has index ``ravel_multi_index((i, j, m), shape)``; the
    phi edges wrap from m = np_ - 1 back to 0.
    """
    idx = np.arange(np.prod(shape)).reshape(shape)
    return (
        (idx[:-1], idx[1:]),
        (idx[:, :-1], idx[:, 1:]),
        (idx, np.roll(idx, -1, axis=2)),
    )


def _grid_graph(ok, costs, shape):
    """Symmetric CSR graph of the admissible grid edges, both directions.

    Every node lists its six neighbour slots in increasing node index:
    x - 1, y - 1, the two phi neighbours, y + 1, x + 1.  The phi slots swap
    at m = 0 and m = np_ - 1, where one of them wraps, so the rows come out
    with sorted columns and no COO conversion.
    """
    from scipy.sparse import csr_matrix

    nx, ny, np_ = shape
    n = nx * ny * np_
    ok_x, ok_y, ok_p = ok
    adj = np.zeros((nx, ny, np_, 6), dtype=bool)
    adj[1:, :, :, 0], adj[:-1, :, :, 5] = ok_x, ok_x
    adj[:, 1:, :, 1], adj[:, :-1, :, 4] = ok_y, ok_y
    adj[..., 2], adj[..., 3] = np.roll(ok_p, 1, axis=2), ok_p
    adj[:, :, [0, -1], 2:4] = adj[:, :, [0, -1], 3:1:-1]
    # neighbour index minus that of node (i, j, 0), per (m, slot)
    step = np.tile(np.array([-ny * np_, -np_, -1, 1, np_, ny * np_], dtype=np.int32), (np_, 1))
    step[0, 2:4], step[-1, 2:4] = (1, np_ - 1), (1 - np_, -1)
    step += np.arange(np_, dtype=np.int32)[:, None]
    keep = adj.ravel()
    indices = np.add.outer(np.arange(0, n, np_, dtype=np.int32), step.ravel()).ravel()[keep]
    data = np.tile(np.array(costs)[[0, 1, 2, 2, 1, 0]], n)[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    # row lengths; a uint8 product sums the six slots faster than .sum(axis=1)
    np.cumsum(adj.reshape(n, 6).view(np.uint8) @ np.ones(6, dtype=np.uint8), out=indptr[1:])
    return csr_matrix((data, indices, indptr), shape=(n, n))


class _TwoEndedSearch:
    """Dijkstra from both ends (s, t) of a grid route, bounded by a limit
    that grows until a value read off the distances is certified.

    With ``limit``, scipy settles exactly the nodes within the limit of a
    source and leaves the others at inf.  The limit starts at the largest
    edge cost ``c`` and keeps its value between calls of :meth:`until`.
    """

    def __init__(self, graph, ends, c):
        self.graph, self.ends, self.c = graph, list(ends), c
        self.limit = c
        self._search()

    def _search(self):
        from scipy.sparse.csgraph import dijkstra

        self.dist = self.pred = None  # free the last search's arrays first
        self.dist, self.pred = dijkstra(self.graph, indices=self.ends, limit=self.limit, return_predecessors=True)

    def until(self, needed):
        """Search until ``needed(dist)`` is within the limit, or the search
        is complete.

        ``needed(dist)`` is the least limit at which the value it reads off
        the (2, n) distances is exact (inf when there is none yet); the
        limit grows to min(2 limit, needed).  The search is complete when
        every finite distance plus ``c`` is within the limit: no relaxation
        was cut off, so the finite entries span each end's whole component.
        """
        while True:
            need = needed(self.dist)
            if need <= self.limit or self._farthest() + self.c <= self.limit:
                return self.dist, self.pred
            self.limit = min(2.0 * self.limit, need)
            self._search()

    def _farthest(self):
        return np.max(self.dist, where=np.isfinite(self.dist), initial=0.0)


def _walk_back(pred, node):
    """Node indices from the search source to ``node`` along ``pred``."""
    out = [int(node)]
    while pred[out[-1]] >= 0:
        out.append(int(pred[out[-1]]))
    return out[::-1]


def _grid_route(graph, ends, c, doors, require_crossing):
    """Grid nodes of the cheapest route between ``ends`` = (s, t), and the
    doors it uses.

    ``doors`` lists (lo, hi, cost) of the passage edges of ``graph``, and
    ``c`` is its largest edge cost.  The route joins the two predecessor
    trees at the node where d_s + d_t is least.  With ``require_crossing``
    a route without a door is replaced by the cheapest route through one,
    the first cheapest door in door order.  On failure the NoPathFound's
    ``explored`` counts the nodes reachable from s (from s and t together
    for an unreachable door).
    """
    search = _TwoEndedSearch(graph, ends, c)
    # a shortest route of length mu has a node within limit of s whose rest is
    # shorter than limit, so min(d_s + d_t) is exact once mu <= 2 limit - c
    dist, pred = search.until(lambda d: (np.min(d[0] + d[1]) + c) / 2)
    meet = int(np.argmin(dist[0] + dist[1]))
    if not np.isfinite(dist[0, meet] + dist[1, meet]):
        raise NoPathFound(
            "grid search exhausted without reaching the target",
            explored=int(np.count_nonzero(np.isfinite(dist[0]))),
        )
    nodes = _walk_back(pred[0], meet) + _walk_back(pred[1], meet)[::-1][1:]
    used_doors = {frozenset(e) for e in zip(nodes[:-1], nodes[1:])} & {frozenset(d[:2]) for d in doors}
    if not require_crossing or used_doors:
        return nodes, used_doors

    # both orientations of every door, in door order, so the first cheapest
    # splice wins; a splice of cost mu is exact once mu <= limit
    pairs = np.array([d[:2] for d in doors], dtype=np.intp).reshape(-1, 2)
    a, b, w = pairs.ravel(), pairs[:, ::-1].ravel(), np.repeat([d[2] for d in doors], 2)

    def splice_costs(d):
        return d[0, a] + w + d[1, b]

    del dist, pred  # so the search can free them before it searches again
    dist, pred = search.until(lambda d: np.min(splice_costs(d), initial=np.inf))
    reached = np.isfinite(dist)
    if not doors:
        raise NoPathFound(
            "no passage edge exists at this resolution; try a finer grid "
            "or a wider eps_pass",
            explored=int(np.count_nonzero(reached[0])),
        )
    total = splice_costs(dist)
    k = int(np.argmin(total))
    if not np.isfinite(total[k]):
        raise NoPathFound(
            "no passage edge is reachable from both endpoints",
            explored=int(np.count_nonzero(reached[0] | reached[1])),
        )
    nodes = _walk_back(pred[0], a[k]) + _walk_back(pred[1], b[k])[::-1]
    return nodes, {frozenset((int(a[k]), int(b[k])))}


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
    orientations; edges crossing the singularity surface are admissible only
    inside the passage window of a passage-safe leg.  With
    ``require_crossing`` (the default) the returned path is guaranteed to
    cross the surface through at least one passage: if the unconstrained
    shortest route dodges the surface entirely, the cheapest passage edge is
    spliced into it.  The result always passes verification with verdict
    ``changed_without_parallel``.

    The grid search is a two-ended Dijkstra from the start and target grid
    nodes, bounded by a distance limit that grows, at most doubling, until
    the route (and then the splice) is certified exact, so it settles only
    the nodes near the two ends.  Among equal-cost routes the one found may
    differ from a one-ended search's.  A ``NoPathFound`` raised by the
    search counts in ``explored`` every node reachable from the start (and
    from the target too when no door is reachable from both).
    """
    L = geom.L
    if eps_pass is None:
        eps_pass = EPS_PASS_REL * L
    if box is None:
        box = (-L, -L, 2.0 * L, 2.0 * L)
    x0, y0, x1, y1 = (float(v) for v in box)
    nx, ny, np_ = (int(v) for v in resolution)
    if min(nx, ny, np_) < 8:
        raise ValidationError("resolution must be at least 8 per axis")
    if not nx * ny * np_ <= MAX_SAMPLES:
        raise ValidationError(f"resolution gives more than {MAX_SAMPLES:,} grid nodes")
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("box must have positive extent")

    singular, detail = is_architecturally_singular(geom)
    if singular:
        raise ArchitecturalSingularity(detail)
    safe = passage_safety(geom)
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
    fine_step = min(xs[1] - xs[0], ys[1] - ys[0], L * 2.0 * np.pi / np_) / EDGE_SUBSAMPLES
    costs = (float(xs[1] - xs[0]), float(ys[1] - ys[0]), float(L * 2.0 * np.pi / np_))
    scans = [_axis_edge_scan(geom, xs, ys, phis, axis, eps_pass) for axis in range(3)]
    ok = [~cross for cross, _ in scans]
    ends = _edge_ends(shape)

    def node_pose(node):
        i, j, m = np.unravel_index(node, shape)
        return Pose(float(xs[i]), float(ys[j]), float(phis[m]))

    def crossings(p0, p1):
        return _segment_crossings(geom, p0, p1, eps_pass, safe, L, fine_step)

    # a door is a candidate edge whose single crossing check finds it
    # admissible with at least one passage
    doors = []
    for axis, (_, cand) in enumerate(scans):
        lo, hi = ends[axis]
        for idx in map(tuple, np.argwhere(cand)):
            p0 = node_pose(lo[idx])
            if axis < 2:
                p1 = node_pose(hi[idx])
            else:
                p1 = Pose(p0.x, p0.y, p0.phi + 2.0 * np.pi / np_)
            events = crossings(p0, p1)
            if events is not None and any(e.kind == "passage" for e in events):
                doors.append((int(lo[idx]), int(hi[idx]), costs[axis]))
                ok[axis][idx] = True

    def snap(pose: Pose, label: str):
        ci = int(np.clip(np.searchsorted(xs, pose.x) - 1, 0, nx - 2))
        cj = int(np.clip(np.searchsorted(ys, pose.y) - 1, 0, ny - 2))
        cm = int(np.floor(wrap_angle(pose.phi) % (2.0 * np.pi) / (2.0 * np.pi / np_))) % np_
        corners = [
            int(np.ravel_multi_index((ci + di, cj + dj, (cm + dm) % np_), shape))
            for di in (0, 1)
            for dj in (0, 1)
            for dm in (0, 1)
        ]
        corners.sort(key=lambda c: pose_distance(pose, node_pose(c), L))
        for c in corners:
            if crossings(pose, node_pose(c)) is not None:
                return c
        raise NoPathFound(f"could not connect the {label} pose to the search grid")

    s_node = snap(start, "start")
    t_node = snap(target, "target")

    graph = _grid_graph(ok, costs, shape)
    nodes, used_doors = _grid_route(graph, (s_node, t_node), max(costs), doors, require_crossing)

    waypoints = [start] + [node_pose(nd) for nd in nodes] + [target]
    protected = set()
    for k in range(1, len(waypoints) - 2):
        if frozenset(nodes[k - 1 : k + 1]) in used_doors:
            protected.update((k, k + 1))

    kept = [0]
    k = 0
    while k < len(waypoints) - 1:
        hi = len(waypoints) - 1
        for p in sorted(protected):
            if p > k:
                hi = min(hi, p)
                break
        j = hi
        while j > k + 1:
            if crossings(waypoints[k], waypoints[j]) is not None:
                break
            j -= 1
        kept.append(j)
        k = j
    simplified = [waypoints[k] for k in kept]
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
