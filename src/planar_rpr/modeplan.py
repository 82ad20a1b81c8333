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
  zeros without a sign change are ``grazing``.  Sample gaps are certified.
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

import functools
import math
from dataclasses import dataclass, field

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
# |det| band, relative to the largest on a path's samples or grid nodes, that counts as zero.
ZERO_DET_REL = 1e-12
# Bracket width to which crossing parameters are refined.
CROSSING_T_TOL = 1e-10
# Segments of one pass over shortcuts, which bounds its memory on long
# routes; the reference robot's default-grid passes take at most 11.
BATCH_SEGMENTS = 2**10


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
        one_row = _Paths(table, np.array([0]), np.array([len(wps) - 1]), self.samples_per_segment)
        object.__setattr__(self, "_paths", one_row)

    def poses_at(self, ts):
        """Arrays (x, y, phi) at global parameters ``ts``, clamped to [0, 1]."""
        return self._paths.poses_at(ts, 0)

    def pose_at(self, t: float) -> Pose:
        """Pose at global parameter t in [0, 1]."""
        return Pose(*(float(v) for v in self.poses_at(t)))


@dataclass(frozen=True)
class _Paths:
    """Piecewise-linear pose paths stored end to end, one per row.

    Row r runs through the waypoints ``table[first[r] : first[r] + n[r] + 1]``
    with ``samples`` base samples on each of its ``n[r]`` segments, and has
    its own parameter t in [0, 1].  A :class:`WorkspacePath` is one row; the
    planner's batched crossing check makes one row per segment.
    ``steps[i]`` is the step from waypoint i to i + 1, phi wrapped.
    """

    table: np.ndarray
    first: np.ndarray
    n: np.ndarray
    samples: int
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        steps = self.table[1:] - self.table[:-1]
        steps[:, 2] = wrap_angle(steps[:, 2])
        object.__setattr__(self, "steps", steps)

    def poses_at(self, ts, rows):
        """Arrays (x, y, phi) at parameters ``ts`` of rows ``rows``, clamped to [0, 1]."""
        n = self.n[rows]
        t = np.minimum(np.maximum(ts, 0.0), 1.0)
        k = np.minimum((t * n).astype(int), n - 1)
        s = t * n - k
        i = self.first[rows] + k
        a, d = self.table[i], self.steps[i]
        return a[..., 0] + s * d[..., 0], a[..., 1] + s * d[..., 1], a[..., 2] + s * d[..., 2]


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


def _sample_params(geom: RobotGeometry, paths: _Paths) -> np.ndarray:
    """Dense parameters of every row: uniform per segment, refined x8 where
    any leg length drops below the refinement band.

    Sample t of row r is the key ``r + 1j * t``.  Numpy orders complex
    numbers by real part, then imaginary part, so the keys sort row by row
    and by t within a row, and sorting or searching them stays in a row.
    """
    ns, S = paths.n.tolist(), paths.samples
    # the base parameters of each distinct segment count
    uniform = {n: (np.arange(n)[:, None] + np.linspace(0.0, 1.0, S + 1)).ravel() / n for n in set(ns)}
    base = [uniform[n] for n in ns]
    base = np.repeat(np.arange(len(base)), [len(b) for b in base]) + 1j * np.concatenate(base)
    base = base[_first_of_runs(base)]  # sorted already; a segment's end starts the next one
    ts, rows = base.imag, base.real
    dmin = _leg_geometry(geom, *paths.poses_at(ts, rows.astype(int)))[2].min(axis=-1)
    band = REFINE_BAND_REL * geom.L
    k = np.nonzero(((dmin[:-1] < band) | (dmin[1:] < band)) & (rows[:-1] == rows[1:]))[0]
    frac = np.arange(1, REFINE_FACTOR) / REFINE_FACTOR
    extra = ts[k, None] + (ts[k + 1] - ts[k])[:, None] * frac
    keys = np.sort(np.concatenate([base, (rows[k, None] + 1j * extra).ravel()]))
    return keys[_first_of_runs(keys)]  # np.unique, which is slower on complex numbers


def _first_of_runs(a):
    """Mask of the entries of ``a`` that differ from their predecessor."""
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return first


@dataclass(frozen=True)
class _SampledPath:
    """Rows of paths, their dense parameters (:func:`_sample_params`), the
    row of each, and the kernel outputs ``(dx, dy, dist, det)`` of
    :func:`_leg_geometry` at them."""

    paths: _Paths
    ts: np.ndarray
    rows: np.ndarray
    legs: tuple


def _sampled(geom: RobotGeometry, path: WorkspacePath | _Paths | _SampledPath) -> _SampledPath:
    """Check the waypoints, draw the samples and evaluate the kernel on them.

    A path sampled already passes through, so the verifier's crossing
    detector, sign continuation and measure trace share one sampling.
    Overflowing leg lengths or determinants raise :class:`ValidationError`.
    """
    if isinstance(path, _SampledPath):
        return path
    if isinstance(path, WorkspacePath):
        for a, b in zip(path.waypoints[:-1], path.waypoints[1:]):
            if pose_distance(a, b, geom.L) <= 1e-9 * geom.L:
                raise ValidationError("consecutive waypoints must be distinct")
        path = path._paths
    with np.errstate(over="ignore", invalid="ignore"):
        keys = _sample_params(geom, path)
        ts, rows = keys.imag.copy(), keys.real.astype(int)
        legs = _leg_geometry(geom, *path.poses_at(ts, rows))
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
    d(t) . d(t_k), found to 1e-14 (exact at constant phi).  A zero without
    reversal, or a length pinned below the zero band across consecutive
    samples, raises :class:`AmbiguousContinuation`.
    """
    s = _sampled(geom, path)
    paths, ts, (dx, dy, dist, _) = s.paths, s.ts, s.legs
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
        lambda t: np.sum(np.stack(_leg_geometry(geom, *paths.poses_at(t, 0))[:2])[:, rows, leg] * d_k, axis=0),
        ts[k], ts[k + 1], dist[k, leg] ** 2, dots[k, leg], 1e-14,
    )
    # above the zero band the leg swings past its base joint: a near miss
    hit = _leg_geometry(geom, *paths.poses_at(t_star, 0))[2][rows, leg] <= zero_tol
    flips += zip(t_star[hit].tolist(), leg[hit].tolist())

    flips.sort()
    signs = np.ones(dist.shape)
    for t_flip, leg in flips:
        signs[ts > t_flip, leg] *= -1.0
    return JointPath(ts, dist * signs, tuple((t, leg + 1) for t, leg in flips))


def _classify_zeros(geom: RobotGeometry, x, y, phi, eps_pass: float) -> list[tuple]:
    """Kind, leg (1-based), measure and clearance of the determinant zeros
    at the poses (x, y, phi) (1-D arrays), one tuple per pose.

    A zero whose shortest leg is longer than ``eps_pass`` is parallel; a
    nearer one is a passage when the serial clearance of that leg is
    positive, and parallel otherwise.
    """
    L = geom.L
    _, _, d, det = _leg_geometry(geom, x, y, phi)
    measures = (np.abs(_line_measure(d, det, L)) / L).tolist()
    legs = np.argmin(d, axis=-1)
    near = np.flatnonzero(d.min(axis=-1) <= eps_pass)
    out = [("parallel", None, m, None) for m in measures]
    for j in near.tolist():
        clear = _serial_clearance(geom, Pose(float(x[j]), float(y[j]), float(phi[j])), int(legs[j]))
        kind = "passage" if clear > SERIAL_CLASSIFY_REL * L else "parallel"
        out[j] = (kind, int(legs[j]) + 1, (0.0 if np.isnan(measures[j]) else measures[j]), float(clear))
    return out


def _trig_basis(phi):
    """(1, cos phi, sin phi, cos 2phi, sin 2phi) along a new trailing axis."""
    return np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)], -1)


# At fixed (x, y) the determinant and each conic coefficient are trigonometric
# polynomials of degree 2 in phi (each moment and each 2x2 minor of the line
# matrix is of degree 1), so their values at n >= 5 equally spaced angles give
# their coefficients (a0, a1, b1, a2, b2) on _trig_basis by a discrete Fourier transform.
_TRIG_ANGLES = 2.0 * np.pi * np.arange(5) / 5


@functools.lru_cache(maxsize=64)
def _conic_trig_bounds(geom: RobotGeometry):
    """Rows: sum_k k^j (|a_k| + |b_k|) >= max |d^j q_c / dphi^j|, j = 0, 1, 2,
    of the six conic coefficients q_c about the base centroid."""
    coef = _conic_coefficients(geom, _TRIG_ANGLES, geom.base.mean(axis=0)).T
    coef = coef @ (_trig_basis(_TRIG_ANGLES) * [1, 2, 2, 2, 2] / 5)
    return np.array([[1, 1, 1, 1, 1], [0, 1, 1, 2, 2], [0, 1, 1, 4, 4]]) @ np.abs(coef).T


def _split_gaps(geom: RobotGeometry, s: _SampledPath):
    """Samples ``(ts, rows, dets)`` of ``s``, plus one of the other sign in
    every same-sign gap that hides zeros, and each row's zero band.

    Along a segment det = sum_c m_c q_c over the monomials m_c = (u^2, uv,
    v^2, u, v, 1) of (u, v) = (x, y) - base centroid.  The q_c bounds, the
    segment's rates and the larger |u| and |v| at its ends bound |det''| on
    it by M, so a gap of width h whose end values both exceed M h^2 / 8
    (the bound on its distance from the chord) keeps their sign.  The others
    are halved, all per round in one kernel call, until certified or
    CROSSING_T_TOL wide; a midpoint of the other sign (or zero) joins the
    samples.  Ends in the zero band are not tested: |det| <= ZERO_DET_REL
    times the row's largest, or times the bound T on |det| over the segment
    from the same q_c bounds, below which rounding decides the sign.
    """
    paths, ts, rows, dets = s.paths, s.ts, s.rows, s.legs[3]
    band = ZERO_DET_REL * np.maximum.reduceat(np.abs(dets), np.flatnonzero(_first_of_runs(rows)))
    band[band == 0.0] = ZERO_DET_REL
    k = np.flatnonzero((rows[:-1] == rows[1:]) & (dets[:-1] * dets[1:] > 0.0))
    lo, hi, flo, fhi, row = ts[k], ts[k + 1], dets[k], dets[k + 1], rows[k]
    n = paths.n[row]
    seg = paths.first[row] + np.minimum((0.5 * (lo + hi) * n).astype(int), n - 1)
    dx, dy, dphi = np.abs(paths.steps[seg].T * n)  # rates per unit t
    o = geom.base.mean(axis=0)
    u, v = np.maximum(np.abs(paths.table[seg, :2] - o), np.abs(paths.table[seg + 1, :2] - o)).T
    # |det''| <= sum_c |m_c''| |q_c| + 2 |m_c'| |q_c'| + |m_c| |q_c''|, and |det| <= sum_c |m_c| |q_c| = T
    b0, b1, b2 = _conic_trig_bounds(geom).tolist()
    m2 = 2 * ((b0[0] * dx + b0[1] * dy) * dx + b0[2] * dy * dy)
    m1 = (2 * b1[0] * u + b1[1] * v + b1[3]) * dx + (b1[1] * u + 2 * b1[2] * v + b1[4]) * dy
    m0 = (b2[0] * u + b2[1] * v + b2[3]) * u + (b2[2] * v + b2[4]) * v + b2[5]
    bound = (m2 + 2 * dphi * m1 + dphi**2 * m0) / 8
    top = (b0[0] * u + b0[1] * v + b0[3]) * u + (b0[2] * v + b0[4]) * v + b0[5]
    zero = np.maximum(band[row], ZERO_DET_REL * top)
    found, f = [], np.minimum(abs(flo), abs(fhi))
    while np.any(keep := (f > zero) & (f <= bound * (hi - lo) ** 2) & (hi - lo > CROSSING_T_TOL)):
        lo, hi, flo, fhi, row, bound, zero = (w[keep] for w in (lo, hi, flo, fhi, row, bound, zero))
        mid = 0.5 * (lo + hi)
        fmid = _leg_geometry(geom, *paths.poses_at(mid, row))[3]
        other = fmid * flo <= 0.0
        found.append((row[other], mid[other], fmid[other]))
        go = ~other
        lo, hi = np.concatenate([lo[go], mid[go]]), np.concatenate([mid[go], hi[go]])
        flo, fhi = np.concatenate([flo[go], fmid[go]]), np.concatenate([fmid[go], fhi[go]])
        row, bound, zero = (np.tile(w[go], 2) for w in (row, bound, zero))
        f = np.minimum(abs(flo), abs(fhi))
    if found:
        rows, ts, dets = (np.concatenate([v, *w]) for v, w in zip((rows, ts, dets), zip(*found)))
        order = np.lexsort((ts, rows))
        ts, rows, dets = ts[order], rows[order], dets[order]
    return ts, rows, dets, band


def _crossing_events(geom: RobotGeometry, s: _SampledPath, eps_pass: float) -> list[list[CrossingEvent]]:
    """The crossing events of every row of ``s``: one list per row, sorted
    by t (see :func:`detect_crossings`).  All rows' sign changes are
    refined in one :func:`_bracket_roots` call, which refines each bracket
    on its own, and all their zeros are classified in one kernel pass.
    Same-sign gaps are certified or split first (:func:`_split_gaps`)."""
    paths = s.paths
    ts, rows, dets, band = _split_gaps(geom, s)
    same = rows[:-1] == rows[1:]  # consecutive samples of one row
    inner = same[:-1] & same[1:]  # samples with both neighbours in their row
    around = dets[:-2] * dets[2:]  # product of the neighbours' values
    # a zero sample between samples of opposite signs crosses; any other grazes
    zero = np.flatnonzero(dets == 0.0)
    crosses = np.zeros(len(ts), dtype=bool)
    crosses[1:-1] = inner & (around < 0.0)
    crosses = crosses[zero]
    k = np.flatnonzero(same & (dets[:-1] * dets[1:] < 0.0))
    bracket_rows = rows[k]
    refined = _bracket_roots(
        lambda t: _leg_geometry(geom, *paths.poses_at(t, bracket_rows))[3], ts[k], ts[k + 1], dets[k], dets[k + 1],
        CROSSING_T_TOL,
    )
    # interior near-zero minima without a sign change (tangential grazing)
    a = np.abs(dets)
    here = a[1:-1]
    graze = inner & (0.0 < here) & (here <= band[rows[1:-1]]) & (here <= a[:-2]) & (here <= a[2:])
    graze = np.flatnonzero(graze & (around > 0.0)) + 1

    # zero samples, refined roots and grazing minima, in that order before
    # the stable sort by row and t; the crossings among them are classified
    t_ev = np.concatenate([ts[zero], refined, ts[graze]])
    r_ev = np.concatenate([rows[zero], rows[k], rows[graze]])
    crossing = np.concatenate([crosses, np.ones(len(refined), dtype=bool), np.zeros(len(graze), dtype=bool)])
    info = [("grazing", None, 0.0, None)] * len(t_ev)
    classified = _classify_zeros(geom, *paths.poses_at(t_ev[crossing], r_ev[crossing]), eps_pass)
    for j, c in zip(np.flatnonzero(crossing).tolist(), classified):
        info[j] = c
    events = [[] for _ in paths.n]
    for j in np.lexsort((t_ev, r_ev)).tolist():
        events[r_ev[j]].append(CrossingEvent(float(t_ev[j]), *info[j]))
    return events


def detect_crossings(
    geom: RobotGeometry, path: WorkspacePath, eps_pass: float | None = None
) -> list[CrossingEvent]:
    """Locate and classify zeros of the determinant along the path.

    Sign changes are refined to |dt| <= 1e-10, all at once.  A crossing
    within ``eps_pass`` of a serial point whose remaining leg lines clear
    the coinciding joint is a passage; other sign changes are parallel
    crossings.  Zeros without a sign change are reported as grazing.  A
    curvature bound certifies each gap between samples of one sign, or
    halving splits it (:func:`_split_gaps`), so two crossings in one
    sample gap are both found, on any segment.
    """
    s = _sampled(geom, path)
    if eps_pass is None:
        eps_pass = EPS_PASS_REL * geom.L
    return _crossing_events(geom, s, eps_pass)[0]


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


def _segments_crossings(geom, p0s, p1s, eps_pass, safe):
    """Crossing events of each pose segment ``p0s[r] -> p1s[r]`` ((m, 3)
    arrays of x, y, phi) in one pass, or None where it is inadmissible: where
    a determinant sign change on it is not a passage through a passage-safe
    leg.  Each segment is one row, sampled as a one-segment
    :class:`WorkspacePath`, so its events are those :func:`detect_crossings`
    finds on it alone; one shorter than 1e-9 * L in pose distance crosses
    nothing.
    """
    step = p1s - p0s
    length = np.maximum(np.hypot(step[:, 0], step[:, 1]), geom.L * np.abs(wrap_angle(step[:, 2])))
    live = np.flatnonzero(length > 1e-9 * geom.L)
    out = [[] for _ in p0s]
    if len(live):
        table = np.stack([p0s[live], p1s[live]], axis=1).reshape(-1, 3)
        rows = _Paths(table, 2 * np.arange(len(live)), np.ones(len(live), dtype=int), WorkspacePath.samples_per_segment)
        for r, events in zip(live.tolist(), _crossing_events(geom, _sampled(geom, rows), eps_pass)):
            if any(e.kind == "parallel" or (e.kind == "passage" and not safe[e.leg - 1]) for e in events):
                events = None
            out[r] = events
    return out


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


def _nonzero(a):
    """``np.nonzero(a)`` by way of the flat indices, which is several times
    faster on a mask of more than one dimension."""
    return np.unravel_index(np.flatnonzero(a), a.shape)


def _node_signs(geom, xs, ys, phis):
    """Conic coefficients ``q`` (np_, 6) about the base centroid at the grid
    angles, the determinant ``det`` they give at the nodes and its int8
    signs ``sgn``: 0 where |det| <= ZERO_DET_REL * max |det|, a band wider
    than the conic's spread from the kernel, which has every other sign."""
    o = geom.base.mean(axis=0)
    q = _conic_coefficients(geom, phis, o)
    q20, q11, q02, q10, q01, q00 = q.T
    u, v = (xs - o[0])[:, None, None], (ys - o[1])[:, None]
    det = q20 * u + (q11 * v + q10)  # Q = (q20 u + b) u + c, in place: one full-size array
    det *= u
    det += (q02 * v + q01) * v + q00
    tol = ZERO_DET_REL * max(det.max(), -det.min())
    return q, det, (det > tol).view(np.int8) - (det < -tol).view(np.int8)


def _axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn):
    """Exact mask of one grid axis's edges on which the determinant has a
    zero: the end signs differ or one is zero (``sgn * sgn <= 0``, so every
    edge at a zero node), or an interior extremum has the ends' opposite
    sign or is zero, so an edge that touches the locus tangentially is
    marked too.  ``q``, ``det`` and ``sgn`` come from :func:`_node_signs`;
    the scan evaluates no node.  Along x and y the determinant is the
    conic's quadratic, whose one extremum is its vertex.  Along phi it is a
    trigonometric polynomial of degree 2 whose coefficients (a_k, b_k) are
    the discrete Fourier transform of the node values at the np_ angles; an
    edge whose end values both exceed sum_k k^2 (|a_k| + |b_k|) times
    dphi^2 / 8 keeps one sign (the bound on its distance from the chord),
    and the remaining edges are tested at every real critical point.
    ``phis`` must be uniform from 0 over the full circle.
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
        hit = np.sign(at_vertex[j, m]) * sgn[ic[j, m], j, m] <= 0
        cross[ic[j, m][hit], j[hit], m[hit]] = True
        return cross.transpose(1, 0, 2) if axis == 1 else cross
    np_ = len(phis)
    dphi = 2.0 * np.pi / np_
    coef = det @ (_trig_basis(phis) * [1, 2, 2, 2, 2] / np_)
    cross = sgn * np.roll(sgn, -1, axis=2) <= 0
    # |f''| <= sum_k k^2 (|a_k| + |b_k|), so f keeps the ends' sign on an
    # edge where both end values exceed that bound times dphi^2 / 8
    low = np.abs(det) <= (np.abs(coef) @ [0, 1, 1, 4, 4])[..., None] * dphi**2 / 8
    uncertified = ~cross & (low | np.roll(low, -1, axis=2))
    i, j = _nonzero(uncertified.any(axis=2))
    phc = _critical_angles(coef[i, j]) % (2.0 * np.pi)
    at_phc = np.einsum("kt,kct->kc", coef[i, j], _trig_basis(phc))
    i, j, m = np.broadcast_arrays(i[:, None], j[:, None], (phc // dphi).astype(int) % np_)
    hit = np.sign(at_phc) * sgn[i, j, m] <= 0
    cross[i[hit], j[hit], m[hit]] = True
    return cross


def _serial_doors(geom, xs, ys, phis, safe, q, sgn):
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
    corner's node sign (``sgn``, with ``q``, of :func:`_node_signs`) is its
    row point's, so no door ends at a zero node, and no vertex between has
    the other sign.  x and y swapped give the y doors.  Each serial point
    takes the first admissible of its x doors from the lower and the upper
    corners and its y doors from the left and the right corners.

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
    q = q[m].T
    tol = ZERO_TOUCH_REL * geom.L
    admissible = []
    for axis, (along, other) in enumerate(((xs, ys), (ys, xs))):
        # the row through S runs along ``axis``, the sides along the other axis
        q20, q11, q02, q10, q01, q00 = q[[2, 1, 0, 4, 3, 5]] if axis else q
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
        meets = sgn[ij[0], ij[1], m] * at_row <= 0
        between = (np.minimum(v, corners) < vertex) & (vertex < np.maximum(v, corners))
        meets |= between & (np.sign(at_vertex) * at_row <= 0)
        admissible += list(row & ~meets.any(axis=1))
    kind = np.argmax(admissible, axis=0)  # the first admissible door
    k = np.flatnonzero(np.any(admissible, axis=0))
    axis, upper, (i, j), m, (sx, sy) = kind[k] // 2, kind[k] % 2, cell[:, k], m[k], s[:, k]
    rows = np.stack([axis, i + axis * upper, j + (1 - axis) * upper, m], axis=-1)
    ends = [np.stack([np.where(axis, sx, xs[i + d]), np.where(axis, ys[j + d], sy), phis[m]], -1) for d in (0, 1)]
    _, first = np.unique(np.ravel_multi_index(rows.T, (2, len(xs), len(ys), len(phis))), return_index=True)
    return rows[first], np.stack(ends, axis=1)[first], int(np.count_nonzero(in_box))


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

    ``masks`` pads each axis's edge mask to the grid's shape with False,
    indexed by the edge's lower node (a minus move's target); a minus step
    off the grid's lower side lands on the padding by a negative index.
    """

    def __init__(self, ok, costs, ends):
        self.shape = nx, ny, np_ = ok[2].shape
        self.n = n = nx * ny * np_
        masks = np.zeros((3, nx, ny, np_), dtype=bool)
        masks[0, :-1], masks[1, :, :-1], masks[2] = ok
        self.masks = masks.reshape(3, -1)
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


def _grid_route(ok, doors, costs, ends, require_crossing, serial):
    """Grid nodes of the cheapest route between ``ends`` = (s, t).

    ``ok`` holds, per axis, the admissible mask of the grid's edges: shapes
    (nx - 1, ny, np_), (nx, ny - 1, np_) and (nx, ny, np_), the phi edge of
    node m joining m + 1, wrapped.  The edges of each axis cost ``costs``.
    ``doors`` = (lo, hi, w) gives the ends and cost of each door edge, all
    admissible, in door order.  The route meets at the first node where
    d_s + d_t is least (:class:`_TwoEndedSearch`) and walks back from it to
    both ends.  With ``require_crossing`` a route without a door is
    replaced by the cheapest route through one, the first cheapest door in
    door order.  On failure the NoPathFound's ``explored`` counts the nodes
    reachable from s (from s and t together for an unreachable door); with
    no door the message says that none of the ``serial`` serial points
    gives one.
    """
    search = _TwoEndedSearch(ok, costs, ends)
    # a shortest route of length mu has a node within (mu + c) / 2 of both ends,
    # so min(d_s + d_t) is exact once every node within (best + c) / 2 is written
    dist = search.until(lambda: (search.best + max(costs)) / 2)
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
        reached = np.isfinite(dist)
        if not len(lo):
            raise NoPathFound(
                f"no passage edge exists: the box holds {serial} serial point(s) of "
                "passage-safe legs at the grid's angles, and none gives a door",
                explored=int(np.count_nonzero(reached[0])),
            )
        raise NoPathFound(
            "no passage edge is reachable from both endpoints",
            explored=int(np.count_nonzero(reached[0] | reached[1])),
        )
    k = int(np.argmin(total))
    return search.walk(0, a[k])[::-1] + search.walk(1, b[k])


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
    Both read one determinant sign per node, from one conic evaluation over
    the grid (:func:`_node_signs`); a node in its zero band has sign 0, and
    no edge, door or snap ends at one.  With ``require_crossing`` (the
    default) the returned path is guaranteed to cross the surface through
    at least one passage: if the unconstrained shortest route dodges the
    surface entirely, the cheapest door is spliced into it.  The result
    always passes verification with verdict ``changed_without_parallel``.

    Segments are checked by the crossing detector in batched passes, each
    segment sampled as a one-segment :class:`WorkspacePath`: one pass,
    before the search, checks the segments joining the start and target to
    the corners of their grid cells (each snaps to its nearest nonzero
    corner joined admissibly); then one pass per kept waypoint checks its
    shortcuts, farthest first, and the route skips to the farthest
    admissible one, keeping the two points where each door's path crosses
    its cell.  ``resolution`` must be whole numbers.

    The grid search runs from both ends on the admissible masks until the
    route (and then the splice) is certified exact (:class:`_TwoEndedSearch`);
    among equal-cost routes it takes the one its tie rule gives.  A
    ``NoPathFound`` from the search counts in ``explored`` every node
    reachable from the start (and from the target when no door is reachable
    from both); "no passage edge exists" means that the grid has no door,
    and says how many serial points lay in the box.
    """
    L = geom.L
    if eps_pass is None:
        eps_pass = EPS_PASS_REL * L
    if box is None:
        box = (-L, -L, 2.0 * L, 2.0 * L)
    x0, y0, x1, y1 = (float(v) for v in box)
    if not all(float(v).is_integer() for v in resolution):
        raise ValidationError("resolution must be whole numbers")
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
    costs = (float(xs[1] - xs[0]), float(ys[1] - ys[0]), float(L * 2.0 * np.pi / np_))

    def node_poses(nodes):
        i, j, m = np.unravel_index(nodes, shape)
        return np.stack([xs[i], ys[j], phis[m]], axis=-1)

    def node_pose(node):
        return Pose(*node_poses(node).tolist())

    def corners(pose: Pose):
        """The eight corners of the grid cell around ``pose``, nearest first."""
        ci = int(np.clip(np.searchsorted(xs, pose.x) - 1, 0, nx - 2))
        cj = int(np.clip(np.searchsorted(ys, pose.y) - 1, 0, ny - 2))
        cm = int(np.floor(wrap_angle(pose.phi) % (2.0 * np.pi) / (2.0 * np.pi / np_))) % np_
        out = [
            int(np.ravel_multi_index((ci + di, cj + dj, (cm + dm) % np_), shape))
            for di in (0, 1)
            for dj in (0, 1)
            for dm in (0, 1)
        ]
        return sorted(out, key=lambda c: pose_distance(pose, node_pose(c), L))

    # One pass checks the segments from each endpoint to the corners of its
    # cell; it snaps to the nearest nonzero corner joined admissibly.
    q, det, sgn = _node_signs(geom, xs, ys, phis)
    near = corners(start) + corners(target)
    ends = np.repeat([start.as_tuple(), target.as_tuple()], 8, axis=0)
    checked = _segments_crossings(geom, ends, node_poses(near), eps_pass, safe)
    snapped = []
    for label, end in (("start", 0), ("target", 8)):
        linked = [c for c, e in zip(near[end : end + 8], checked[end : end + 8]) if e is not None and sgn.flat[c]]
        if not linked:
            raise NoPathFound(f"could not connect the {label} pose to the search grid")
        snapped.append(linked[0])
    ok = [~_axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn) for axis in range(3)]
    doors, door_points, serial = _serial_doors(geom, xs, ys, phis, safe, q, sgn)
    del det, sgn  # the search needs only the masks
    for a, i, j, m in doors.tolist():
        ok[a][i, j, m] = True
    axis, i, j, m = doors.T  # x and y doors, at one phi
    lo, hi = (np.ravel_multi_index((i + d * (axis == 0), j + d * (axis == 1), m), shape) for d in (0, 1))
    nodes = _grid_route(ok, (lo, hi, np.asarray(costs)[axis]), costs, snapped, require_crossing, serial)

    # every door on the route goes through its two row points, which the
    # simplification keeps
    lo, hi = lo.tolist(), hi.tolist()
    door_at = dict(zip(zip(lo, hi), door_points.tolist())) | dict(zip(zip(hi, lo), door_points[:, ::-1].tolist()))
    waypoints, protected = [start, node_pose(nodes[0])], set()
    for a, b in zip(nodes[:-1], nodes[1:]):
        if (a, b) in door_at:
            protected.update((len(waypoints), len(waypoints) + 1))
            waypoints += [Pose(*p) for p in door_at[a, b]]
        waypoints.append(node_pose(b))
    waypoints.append(target)

    # From each kept waypoint k, go to the farthest waypoint j <= hi (the next
    # protected door end) joined to it by an admissible shortcut, or to k + 1,
    # checking the shortcuts farthest first, at most BATCH_SEGMENTS per pass.
    table = np.array([w.as_tuple() for w in waypoints])
    kept = [0]
    k = 0
    while k < len(waypoints) - 1:
        hi = min([p for p in protected if p > k], default=len(waypoints) - 1)
        js = np.arange(hi, k + 1, -1)
        j = k + 1
        while j == k + 1 and len(js):
            batch, js = js[:BATCH_SEGMENTS], js[BATCH_SEGMENTS:]
            events = _segments_crossings(geom, np.tile(table[k], (len(batch), 1)), table[batch], eps_pass, safe)
            j = next((int(jj) for jj, e in zip(batch, events) if e is not None), j)
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
