"""Inverse and forward kinematics of the 3-RPR planar parallel robot.

Each leg imposes F_i(x, y, phi) = ||(x, y) + R(phi) b_i - a_i||^2 - rho_i^2
= 0.  The differences F_j - F_sigma are affine in (x, y); solving them and
substituting into F_sigma with t = tan(phi/2) gives a degree-10 polynomial
with an exact factor (1 + t^2)^2, whose deflated real roots are the assembly
modes (at most six; phi = pi is checked directly when the degree drops).
Only the constant terms of the w_i carry rho, so the seven coefficients are
a quadratic form in r_i = rho_i^2 fixed by the design: :func:`compile_fk`
expands it once per design into a 7x10 matrix, cached on first use as
``RobotGeometry.fk_design``, and :func:`build_fk_polynomial` is one
matrix-vector product.  A zero leg makes the roots double; :func:`solve_fk`
then intersects two lines in (cos phi, sin phi) with the unit circle instead.

A deliberately independent verification path, :func:`oracle_fk`, sweeps phi
over a dense grid, solves the same affine system pointwise and brackets sign
changes of the remaining residual.  It shares no polynomial machinery with
:func:`solve_fk` and exists for tests and the ``oracle-fk`` CLI command.

Everything here depends on the joint values only through rho_i^2, so the
results are invariant under sign flips of the directed distances.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateElimination, ValidationError
from .model import (
    MAX_SAMPLES,
    JointVector,
    Pose,
    RobotGeometry,
    platform_points,
    pose_distance,
    wrap_angle,
)

# Relative coefficient floor below which trailing polynomial terms are dropped.
TRIM_REL = 1e-12
# Cluster radius for nearby real roots in t (multiplicity counting).
ROOT_CLUSTER_RADIUS = 1e-6
# Newton refinement: iteration cap and residual target (relative to L^2).
NEWTON_MAX_ITER = 50
RESIDUAL_REL = 1e-9
# Pose-space deduplication radius, relative to L.
DEDUP_REL = 1e-6
# Default orientation grid of the oracle sweep.
ORACLE_GRID = 4096
# Columns of FkDesign.M: index pairs into (1, r1, r2, r3), i.e. the monomials
# 1, r1, r2, r3, r1^2, r1 r2, r1 r3, r2^2, r2 r3, r3^2 (np.triu_indices order).
_MONOMIALS = [(a, b) for a in range(4) for b in range(a, 4)]
_ONE_PLUS_T2 = np.array([1.0, 0.0, 1.0])
_SINGULAR_ELIMINATION = "the (x, y) elimination system is singular for every orientation"


@dataclass(frozen=True)
class UnivariateFkPolynomial:
    """Univariate image of the forward problem under t = tan(phi/2).

    ``coeffs`` are ascending powers of t after trimming.  ``base_leg`` is the
    index of the leg whose constraint was substituted into (the other two
    supplied the affine differences).  ``check_phi_pi`` is set when the
    trimmed degree dropped below six, i.e. a root at t = infinity (phi = pi)
    is possible and must be checked directly.  ``degenerate`` marks an
    identically-vanishing polynomial (non-isolated solution set).
    """

    coeffs: np.ndarray
    base_leg: int
    check_phi_pi: bool
    degenerate: bool

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class FkDesign:
    """The joint-independent part of forward kinematics for one design.

    ``u``, ``v``, ``w0`` are :func:`_linear_forms` at rho = 0; ``legs`` is
    (a_x, a_y, b_x, b_y) per leg in plain floats; ``M`` is None when the
    elimination is singular for every orientation.
    """

    sigma: int
    u: np.ndarray
    v: np.ndarray
    w0: np.ndarray
    legs: tuple
    M: np.ndarray | None


@dataclass
class FkSolutionSet:
    """Assembly modes for one joint vector.

    ``residuals`` holds the per-solution max constraint error (length^2
    units); ``multiplicities`` the root-cluster sizes.  The total counted
    with multiplicity never exceeds six.
    """

    solutions: list[Pose]
    residuals: list[float]
    multiplicities: list[int]

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    @property
    def total_multiplicity(self) -> int:
        return int(sum(self.multiplicities))


def inverse_kinematics(geom: RobotGeometry, pose: Pose, sign_hint=None) -> JointVector:
    """Signed directed leg lengths for a pose.

    ``|rho_i|`` is the distance from a_i to B_i(pose) exactly; the sign is
    copied from ``sign_hint`` when given (zero hints count as positive) and
    defaults to all-positive.  A zero-length leg gets rho_i = 0.
    """
    b = platform_points(geom, pose)
    dist = np.hypot(b[:, 0] - geom.base[:, 0], b[:, 1] - geom.base[:, 1])
    if sign_hint is None:
        signs = np.ones(3)
    else:
        signs = np.where(np.asarray(sign_hint, dtype=float) < 0.0, -1.0, 1.0)
    return JointVector(dist * signs)


def _leg_floats(geom: RobotGeometry) -> tuple:
    return tuple(tuple(a + b) for a, b in zip(geom.base.tolist(), geom.platform.tolist()))


def _constraint_rows(legs, rho_sq, x: float, y: float, phi: float) -> list[tuple]:
    """Per leg, (dF_i/dx, dF_i/dy, dF_i/dphi, F_i) in plain floats; dB_i/dphi
    is R(phi) b_i turned a quarter turn."""
    c, s = math.cos(phi), math.sin(phi)
    rows = []
    for (ax, ay, bx, by), r in zip(legs, rho_sq):
        rbx, rby = c * bx - s * by, s * bx + c * by
        dx, dy = x + rbx - ax, y + rby - ay
        rows.append((2.0 * dx, 2.0 * dy, 2.0 * (rbx * dy - rby * dx), dx * dx + dy * dy - r))
    return rows


def constraint_residuals(geom: RobotGeometry, pose, rho_sq) -> np.ndarray:
    """F_i = ||B_i - a_i||^2 - rho_i^2 per leg, at a Pose or (x, y, phi)."""
    xyphi = pose.as_tuple() if isinstance(pose, Pose) else pose
    rows = _constraint_rows(_leg_floats(geom), np.asarray(rho_sq, dtype=float).tolist(), *xyphi)
    return np.array(rows)[:, 3]


def _constraint_jacobian(geom: RobotGeometry, pose) -> np.ndarray:
    """3x3 Jacobian of (F_1, F_2, F_3) in (x, y, phi), at a Pose or (x, y, phi)."""
    xyphi = pose.as_tuple() if isinstance(pose, Pose) else pose
    return np.array(_constraint_rows(_leg_floats(geom), (0.0,) * 3, *xyphi))[:, :3]


def _linear_forms(geom: RobotGeometry, rho_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of u_i, v_i, w_i in the (1, cos phi, sin phi) basis.

    F_i = x^2 + y^2 + u_i x + v_i y + w_i with each linear form returned as
    a row (constant, cos coefficient, sin coefficient).
    """
    ax, ay = geom.base[:, 0], geom.base[:, 1]
    bx, by = geom.platform[:, 0], geom.platform[:, 1]
    u = np.column_stack([-2.0 * ax, 2.0 * bx, -2.0 * by])
    v = np.column_stack([-2.0 * ay, 2.0 * by, 2.0 * bx])
    w0 = ax**2 + ay**2 + bx**2 + by**2 - rho_sq
    return u, v, np.column_stack([w0, -2.0 * (ax * bx + ay * by), 2.0 * (ax * by - ay * bx)])


def _tan_half_numerator(form: np.ndarray) -> np.ndarray:
    """Numerator of (p0 + pc*cos + ps*sin) over (1 + t^2), ascending in t,
    for each row of ``form``."""
    p0, pc, ps = np.moveaxis(form, -1, 0)
    return np.stack([p0 + pc, 2.0 * ps, p0 - pc], axis=-1)


def _solve_affine_xy(u, v, w, sigma: int, phi: np.ndarray, L: float):
    """Solve the elimination system J (x, y) = r at each angle of ``phi``.

    Row k of J comes from F_j - F_sigma for the k-th leg j != sigma.
    Returns arrays (x, y, |det J|).  Where |det J| <= 1e-14 L^2, J counts as
    rank one and gets the minimum-norm least-squares solution J^T r / |J|_F^2
    (the caller gates on the returned det).
    """
    c, s = np.cos(phi), np.sin(phi)
    (a1, b1, r1), (a2, b2, r2) = [
        [f[0] + f[1] * c + f[2] * s for f in (u[j] - u[sigma], v[j] - v[sigma], w[sigma] - w[j])]
        for j in range(3) if j != sigma
    ]
    det = a1 * b2 - a2 * b1
    full = np.abs(det) > 1e-14 * L**2
    norm = a1**2 + a2**2 + b1**2 + b2**2
    den = np.where(full, det, np.where(norm > 0.0, norm, 1.0))
    x = np.where(full, r1 * b2 - r2 * b1, a1 * r1 + a2 * r2) / den
    y = np.where(full, a1 * r2 - a2 * r1, b1 * r1 + b2 * r2) / den
    return x, y, np.abs(det)


def _pmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials in t (last axis, ascending), broadcasting the
    leading axes: those index the monomials of r in a linear or quadratic form."""
    out = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1]) + (p.shape[-1] + q.shape[-1] - 1,))
    for k in range(q.shape[-1]):
        out[..., k : k + p.shape[-1]] += p * q[..., k : k + 1]
    return out


def compile_fk(geom: RobotGeometry) -> FkDesign:
    """Substitution leg, degeneracy verdict and coefficient matrix of a design.

    The substitution leg maximizes the minimum |elimination determinant| over
    a coarse angle grid (ties, the normal case, go to the lowest index).
    Column k of ``M`` is the degree-10 polynomial's exact expansion on
    monomial k of r, deflated by (1 + t^2)^2; a visible remainder means
    catastrophic cancellation and warns.
    """
    L = geom.L
    u, v, w0 = _linear_forms(geom, np.zeros(3))
    phis = np.linspace(-np.pi * 0.95, np.pi * 0.95, 19)
    sigma, best_score, dets = None, -np.inf, None
    for cand in range(3):
        cand_dets = _solve_affine_xy(u, v, w0, cand, phis, L)[2]
        if float(np.min(cand_dets)) > best_score + 1e-15:
            sigma, best_score, dets = cand, float(np.min(cand_dets)), cand_dets
    if float(np.max(dets)) <= 1e-10 * L**2:
        return FkDesign(sigma, u, v, w0, _leg_floats(geom), None)

    U, V = _tan_half_numerator(u), _tan_half_numerator(v)
    # W_i is linear in (1, r1, r2, r3): only its constant term holds r_i.
    W = np.zeros((3, 4, 3))
    W[:, 0] = _tan_half_numerator(w0)
    W[[0, 1, 2], [1, 2, 3]] = -_ONE_PLUS_T2
    j1, j2 = [j for j in range(3) if j != sigma]
    A1, B1, C1 = U[j1] - U[sigma], V[j1] - V[sigma], W[j1] - W[sigma]
    A2, B2, C2 = U[j2] - U[sigma], V[j2] - V[sigma], W[j2] - W[sigma]
    d_num = _pmul(A1, B2) - _pmul(A2, B1)
    x_num = _pmul(B1, C2) - _pmul(B2, C1)
    y_num = _pmul(A2, C1) - _pmul(A1, C2)
    # quadratic form: Q[a, b] is the coefficient polynomial of z_a z_b, z = (1, r)
    Q = _pmul(_ONE_PLUS_T2, _pmul(x_num[:, None], x_num) + _pmul(y_num[:, None], y_num))
    Q[0] += _pmul(_pmul(U[sigma], d_num), x_num) + _pmul(_pmul(V[sigma], d_num), y_num)
    Q[0] += _pmul(W[sigma], _pmul(d_num, d_num))
    Q = Q + Q.swapaxes(0, 1)
    Q[range(4), range(4)] /= 2.0

    M = np.zeros((7, len(_MONOMIALS)))
    for k, col in enumerate(Q[np.triu_indices(4)]):
        quotient, rem1 = npoly.polydiv(col, _ONE_PLUS_T2)
        quotient, rem2 = npoly.polydiv(quotient, _ONE_PLUS_T2)
        M[: len(quotient), k] = quotient
        scale = float(np.max(np.abs(col)))
        rem = max(float(np.max(np.abs(rem1))), float(np.max(np.abs(rem2))))
        if scale > 0.0 and rem > 1e-8 * scale:
            msg = f"tan-half deflation left a relative remainder of {rem / scale:.2e}"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return FkDesign(sigma, u, v, w0, _leg_floats(geom), M)


def build_fk_polynomial(geom: RobotGeometry, joints: JointVector) -> UnivariateFkPolynomial:
    """Eliminate (x, y) and return the trimmed univariate polynomial in t:
    the design's compiled matrix (:func:`compile_fk`) on the monomials of
    rho^2."""
    design = geom.fk_design
    if design.M is None:
        raise DegenerateElimination(_SINGULAR_ELIMINATION)
    z = [1.0, *joints.squared.tolist()]
    coeffs = design.M @ np.array([z[a] * z[b] for a, b in _MONOMIALS])
    cmax = float(np.max(np.abs(coeffs)))
    if cmax == 0.0:
        return UnivariateFkPolynomial(np.zeros(1), design.sigma, True, True)
    keep = np.nonzero(np.abs(coeffs) > TRIM_REL * cmax)[0]
    coeffs = coeffs[: keep[-1] + 1]
    return UnivariateFkPolynomial(coeffs, design.sigma, len(coeffs) - 1 < 6, False)


def _refine_newton(legs, rho_sq, x, y, phi, res_tol):
    """Newton iteration on (F_1, F_2, F_3); returns (pose, residual, ok)."""
    x, y, phi = float(x), float(y), float(phi)
    rows = _constraint_rows(legs, rho_sq, x, y, phi)
    best = max(abs(row[3]) for row in rows)
    for _ in range(NEWTON_MAX_ITER):
        # polish far below the acceptance residual: near-singular Jacobians
        # amplify residual into pose error, so spare digits are cheap insurance
        if best <= 1e-6 * res_tol:
            break
        jac = np.array(rows)
        try:
            step = np.linalg.solve(jac[:, :3], -jac[:, 3])
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac[:, :3], -jac[:, 3], rcond=None)
        sx, sy, sphi = step.tolist()
        for _ in range(9):  # the full step, then up to 8 halvings
            cand = (x + sx, y + sy, phi + sphi)
            cand_rows = _constraint_rows(legs, rho_sq, *cand)
            cand_best = max(abs(row[3]) for row in cand_rows)
            if cand_best < best or best <= res_tol:
                break
            sx, sy, sphi = 0.5 * sx, 0.5 * sy, 0.5 * sphi
        if cand_best >= best:
            break  # stalled inside tolerance, or the line search failed
        (x, y, phi), rows, best = cand, cand_rows, cand_best
    return Pose(x, y, phi), best, best <= res_tol


def _zero_leg_starts(design: FkDesign, rho_sq, L: float):
    """Closed-form (x, y, phi, 1) starts when a leg i has length zero.

    (x, y) = a_i - R(phi) b_i, and each other leg j is the line
    2(e.f) cos phi + 2(e x f) sin phi = rho_j^2 - |e|^2 - |f|^2 with
    e = b_j - b_i, f = a_i - a_j.  Independent lines meet in one point,
    projected onto the unit circle; parallel ones leave the at most two
    points where the stronger cuts (or, clamped, touches) the circle.
    None when neither line constrains phi.
    """
    i = rho_sq.index(0.0)
    axi, ayi, bxi, byi = design.legs[i]
    lines = []
    for j, (ax, ay, bx, by) in enumerate(design.legs):
        ex, ey, fx, fy = bx - bxi, by - byi, axi - ax, ayi - ay
        if j != i:
            gamma = rho_sq[j] - ex * ex - ey * ey - fx * fx - fy * fy
            lines.append((2.0 * (ex * fx + ey * fy), 2.0 * (ex * fy - ey * fx), gamma))
    (p1, q1, g1), (p2, q2, g2) = lines
    det = p1 * q2 - p2 * q1
    if abs(det) > 1e-12 * math.hypot(p1, q1) * math.hypot(p2, q2):
        phis = [math.atan2((p1 * g2 - p2 * g1) / det, (g1 * q2 - g2 * q1) / det)]
    else:
        p, q, g = max(lines, key=lambda line: math.hypot(line[0], line[1]))
        n = math.hypot(p, q)
        if n <= 1e-12 * L**2:
            return None
        # p cos phi + q sin phi = n cos(phi - theta)
        theta, half = math.atan2(q, p), math.acos(max(-1.0, min(1.0, g / n)))
        phis = [theta + half, theta - half]
    return [
        (axi - (math.cos(p) * bxi - math.sin(p) * byi), ayi - (math.sin(p) * bxi + math.cos(p) * byi), p, 1)
        for p in phis
    ]


def solve_fk(geom: RobotGeometry, joints: JointVector) -> FkSolutionSet:
    """All assembly modes for the given joint vector.

    Real roots of the univariate polynomial (or, with a zero leg, the closed
    form of :func:`_zero_leg_starts`, whose solutions report multiplicity 1)
    are lifted to poses, refined by Newton iteration on the three
    constraints and deduplicated.  An empty set is a valid outcome
    (infeasible joints).  Results depend on the joints only through rho^2.
    """
    design = geom.fk_design
    L = geom.L
    res_tol = RESIDUAL_REL * L**2
    rho_sq = joints.squared.tolist()
    poly = None
    starts = _zero_leg_starts(design, rho_sq, L) if 0.0 in rho_sq else None
    if starts is None:
        poly = build_fk_polynomial(geom, joints)
        if poly.degenerate:
            raise DegenerateElimination("forward-kinematics polynomial vanishes identically")
        w = design.w0 - np.outer(rho_sq, [1.0, 0.0, 0.0])
        clusters = []
        if poly.degree >= 1:
            roots = npoly.polyroots(poly.coeffs)
            # Root pairs split off the real axis by a tangency stay eligible: the
            # acceptance band is on the equivalent angle error 2*Im(t)/(1+Re^2).
            angle_im = 2.0 * np.abs(roots.imag) / (1.0 + roots.real**2)
            # real parts within the cluster radius count as one root
            real = np.sort(roots.real[angle_im <= 1e-5])
            groups = np.split(real, np.flatnonzero(np.diff(real) > ROOT_CLUSTER_RADIUS) + 1)
            clusters = [(float(np.mean(group)), len(group)) for group in groups if len(group)]
        # |det| is the same for every substitution leg (twice a triangle's area):
        # where it is small the lift is least squares, and Newton decides
        phi0 = 2.0 * np.arctan([t for t, _ in clusters])
        x0, y0, _ = _solve_affine_xy(design.u, design.v, w, poly.base_leg, phi0, L)
        starts = [(x0[k], y0[k], phi0[k], mult) for k, (_, mult) in enumerate(clusters)]

    entries = []
    for x0, y0, phi0, mult in starts:
        pose, resid, ok = _refine_newton(design.legs, rho_sq, x0, y0, phi0, res_tol)
        if ok:
            entries.append((pose, resid, mult))
        elif resid <= 1e4 * res_tol:
            msg = f"dropped a near-solution at phi={phi0:.6f} with residual {resid:.3e}"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)

    if poly is not None and poly.check_phi_pi:
        x0, y0, det = _solve_affine_xy(design.u, design.v, w, poly.base_leg, np.array([np.pi]), L)
        if det[0] > 1e-12 * L**2:
            pose, resid, ok = _refine_newton(design.legs, rho_sq, x0[0], y0[0], np.pi, res_tol)
            if ok and abs(wrap_angle(pose.phi - np.pi)) <= 1e-6:
                entries.append((pose, resid, 1))

    return _assemble_solution_set(entries, L)


def _assemble_solution_set(entries, L: float) -> FkSolutionSet:
    """Deduplicate refined candidates and sort them deterministically.

    Solution angles are normalized into (-pi, pi] so the solver and the
    oracle report identical poses.
    """
    merged: list[list] = []
    entries = [(Pose(p.x, p.y, wrap_angle(p.phi)), r, m) for p, r, m in entries]
    for pose, resid, mult in entries:
        for item in merged:
            if pose_distance(pose, item[0], L) < DEDUP_REL * L:
                item[2] += mult
                if resid < item[1]:
                    item[0], item[1] = pose, resid
                break
        else:
            merged.append([pose, resid, mult])
    merged.sort(key=lambda it: (wrap_angle(it[0].phi), it[0].x, it[0].y))
    return FkSolutionSet(*([it[k] for it in merged] for k in range(3)))


def _bracket_roots(f, lo, hi, flo, fhi, tol):
    """Midpoints of the sign-change brackets [lo, hi] (float arrays) of ``f``,
    which maps one parameter per bracket to values, refined all at once to
    width <= tol by false position with the Illinois step (Dowell & Jarratt,
    BIT 11, 1971).  A bracket not halved over two steps takes its midpoint,
    no step lands within tol / 2 of an end, and a zero closes its bracket."""
    was_left = was_right = np.zeros(lo.shape, dtype=bool)
    width1 = width2 = np.full(lo.shape, np.inf)  # one and two steps back
    while np.any(active := hi - lo > tol):
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(hi - lo > 0.5 * width2, 0.5 * (lo + hi), (lo * fhi - hi * flo) / (fhi - flo))
        c = np.where(active, np.clip(c, lo + 0.5 * tol, hi - 0.5 * tol), lo)
        width1, width2 = hi - lo, width1
        fc = f(c)
        left, right = active & (np.sign(fc) == np.sign(flo)), active & (np.sign(fc) == np.sign(fhi))
        # c replaces the end of its sign; the end kept twice in a row is halved
        flo = np.where(left, fc, np.where(right & was_right, 0.5 * flo, flo))
        fhi = np.where(right, fc, np.where(left & was_left, 0.5 * fhi, fhi))
        lo, hi = np.where(active & ~right, c, lo), np.where(active & ~left, c, hi)
        was_left, was_right = left, right
    return 0.5 * (lo + hi)


def oracle_fk(geom: RobotGeometry, joints: JointVector, grid: int = ORACLE_GRID) -> FkSolutionSet:
    """Brute-force forward kinematics by sweeping the orientation.

    At every grid angle the affine elimination gives the unique candidate
    (x, y); the leftover residual g(phi) = F_sigma changes sign across a
    solution.  Sign changes are refined to 1e-12 in phi by false position
    (:func:`_bracket_roots`) and polished by the same Newton refinement as
    the solver.  Intended for verification only: slower than
    :func:`solve_fk` and blind to tangential (even-multiplicity) roots.  The
    sweep wraps around 2*pi; ``grid`` must lie in [8, ``MAX_SAMPLES``].
    """
    if grid < 8:
        raise ValidationError("grid must be at least 8")
    if grid > MAX_SAMPLES:
        raise ValidationError(f"grid must be at most {MAX_SAMPLES:,}")
    L = geom.L
    res_tol = RESIDUAL_REL * L**2
    rho_sq = joints.squared.tolist()
    u, v, w = _linear_forms(geom, joints.squared)
    legs = _leg_floats(geom)
    sigma = 0

    def lift(phi):
        """(x, y, |det|, g) at the angles ``phi``."""
        x, y, abs_det = _solve_affine_xy(u, v, w, sigma, phi, L)
        trig = np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
        return x, y, abs_det, x**2 + y**2 + (u[sigma] @ trig) * x + (v[sigma] @ trig) * y + w[sigma] @ trig

    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    _, _, abs_det, g = lift(phis)
    valid = abs_det > 1e-10 * L**2
    if not np.any(valid):
        raise DegenerateElimination(_SINGULAR_ELIMINATION)
    # brackets [phi_k, phi_k + 2 pi / grid] with both ends valid: a sign
    # change is refined to 1e-12, a zero at the left end closes its bracket
    both = valid & np.roll(valid, -1)
    k = np.flatnonzero(both & ((g == 0.0) | (g * np.roll(g, -1) < 0.0)))
    hi = phis[k] + np.where(g[k] == 0.0, 0.0, 2.0 * np.pi / grid)
    roots = _bracket_roots(lambda phi: lift(phi)[3], phis[k], hi, g[k], g[(k + 1) % grid], 1e-12)
    x0, y0, det0, _ = lift(roots)
    entries = []
    for j in np.flatnonzero(det0 > 1e-12 * L**2):
        pose, resid, ok = _refine_newton(legs, rho_sq, x0[j], y0[j], roots[j], res_tol)
        if ok:
            entries.append((pose, resid, 1))
    return _assemble_solution_set(entries, L)


def fk_root_multiplicity(geom: RobotGeometry, joints: JointVector) -> list[tuple[Pose, int]]:
    """Solutions with their root-cluster multiplicities.

    Multiplicity 2 marks a tangency (the joint vector sits on the forward
    problem's solution-count boundary); 3 marks a triple coincidence.
    Zero-leg solutions come from a closed form and report 1.
    """
    sols = solve_fk(geom, joints)
    return list(zip(sols.solutions, sols.multiplicities))
