"""Inverse and forward kinematics of the 3-RPR planar parallel robot.

Each leg imposes F_i(x, y, phi) = ||(x, y) + R(phi) b_i - a_i||^2 - rho_i^2
= 0.  The differences F_j - F_1 are affine in (x, y); solving them and
substituting into F_1 with t = tan(phi/2) gives a degree-10 polynomial
with an exact factor (1 + t^2)^2, whose deflated real roots are the assembly
modes (at most six; phi = pi is checked directly when the degree drops).
Only the constant terms of the w_i carry rho, so the seven coefficients are
a quadratic form in r_i = rho_i^2 fixed by the design: :func:`compile_fk`
expands it once per design into a 7x10 matrix, cached on first use as
``RobotGeometry.fk_design``, and :func:`build_fk_polynomial` is one
matrix-vector product.  The roots are the eigenvalues of its companion
matrix (:func:`_companion_roots`); each real one is lifted to (x, y) and
polished by Newton iteration in plain floats, the lift by the float twin
:func:`_float_solve_affine_xy` of the array elimination.  A zero leg makes
the roots double; :func:`solve_fk` then intersects two lines in
(cos phi, sin phi) with the unit circle instead.

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
    _entries,
    _whole_count,
    platform_points,
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
_SHIFTS = [np.eye(n, k=-1) for n in range(1, 7)]  # a companion matrix's ones, at its size - 1
_SINGULAR_ELIMINATION = "the (x, y) elimination system is singular for every orientation"


@dataclass(frozen=True)
class UnivariateFkPolynomial:
    """Univariate image of the forward problem under t = tan(phi/2).

    ``coeffs`` are ascending powers of t after trimming; leg 1's constraint
    was substituted into (legs 2 and 3 supplied the affine differences).
    ``check_phi_pi`` is set when the trimmed degree dropped below six, i.e.
    a root at t = infinity (phi = pi) is possible and must be checked
    directly.  ``degenerate`` marks an identically-vanishing polynomial
    (non-isolated solution set).
    """

    coeffs: np.ndarray
    check_phi_pi: bool
    degenerate: bool

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class FkDesign:
    """The joint-independent part of forward kinematics for one design.

    ``legs`` is ``RobotGeometry.leg_floats`` and ``rows`` the elimination
    rows of :func:`_elimination_rows` at rho = 0, both in plain floats;
    ``M`` is None when the elimination is singular for every orientation.
    """

    legs: tuple
    rows: tuple
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
    copied from ``sign_hint`` when given (three entries; zero hints count
    as positive) and defaults to all-positive.  A zero-length leg gets rho_i = 0.
    """
    b = platform_points(geom, pose)
    dist = np.hypot(b[:, 0] - geom.base[:, 0], b[:, 1] - geom.base[:, 1])
    if sign_hint is None:
        signs = np.ones(3)
    else:
        signs = np.where(np.asarray(_entries(sign_hint, 3, "sign_hint"), dtype=float) < 0.0, -1.0, 1.0)
    return JointVector(dist * signs)


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


def _elimination_rows(u, v, w) -> np.ndarray:
    """The forms (constant, cos, sin) of a1, b1, r1, a2, b2, r2 in
    :func:`_solve_affine_xy`, one per row."""
    return np.concatenate([u[1:] - u[0], v[1:] - v[0], w[0] - w[1:]], axis=1).reshape(6, 3)


def _solve_affine_xy(u, v, w, phi: np.ndarray, L: float):
    """Solve the elimination system J (x, y) = r at each angle of ``phi``.

    The rows of J come from F_2 - F_1 and F_3 - F_1.
    Returns arrays (x, y, |det J|).  Where |det J| <= 1e-14 L^2, J counts as
    rank one and gets the minimum-norm least-squares solution J^T r / |J|_F^2
    (the caller gates on the returned det).
    """
    F = _elimination_rows(u, v, w)
    a1, b1, r1, a2, b2, r2 = F[:, :1] + F[:, 1:2] * np.cos(phi) + F[:, 2:3] * np.sin(phi)
    det = a1 * b2 - a2 * b1
    abs_det = np.abs(det)
    x, y = r1 * b2 - r2 * b1, a1 * r2 - a2 * r1
    rank_one = ~(abs_det > 1e-14 * (L * L))
    if rank_one.any():
        norm = a1**2 + a2**2 + b1**2 + b2**2
        det = np.where(rank_one, np.where(norm > 0.0, norm, 1.0), det)
        x = np.where(rank_one, a1 * r1 + a2 * r2, x)
        y = np.where(rank_one, b1 * r1 + b2 * r2, y)
    return x / det, y / det, abs_det


def _float_rows(design: FkDesign, rho_sq) -> list[tuple]:
    """The elimination rows of :func:`_elimination_rows` for rho^2 in plain
    floats: the design's rows, whose r rows take their constants from w at
    rho^2, as ``w0 - rho^2`` gives them (w0's constant is the leg's sum of
    squares)."""
    w = [ax * ax + ay * ay + bx * bx + by * by - r for (ax, ay, bx, by), r in zip(design.legs, rho_sq)]
    rows = list(design.rows)
    rows[2], rows[5] = (w[0] - w[1], *rows[2][1:]), (w[0] - w[2], *rows[5][1:])
    return rows


def _float_solve_affine_xy(rows, phi: float, L: float) -> tuple[float, float, float]:
    """:func:`_solve_affine_xy` at one angle in Python floats, on the rows of
    :func:`_float_rows`.  Its float twin: the same operations in the same
    order, so the same bits wherever ``math.cos`` and ``math.sin`` give
    numpy's (a test holds them to it)."""
    c, s = math.cos(phi), math.sin(phi)
    a1, b1, r1, a2, b2, r2 = [p0 + pc * c + ps * s for p0, pc, ps in rows]
    det = a1 * b2 - a2 * b1
    abs_det = abs(det)
    x, y = r1 * b2 - r2 * b1, a1 * r2 - a2 * r1
    if not abs_det > 1e-14 * (L * L):
        norm = a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2
        det = norm if norm > 0.0 else 1.0
        x, y = a1 * r1 + a2 * r2, b1 * r1 + b2 * r2
    return x / det, y / det, abs_det


def _pmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials in t (last axis, ascending), broadcasting the
    leading axes: those index the monomials of r in a linear or quadratic form."""
    out = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1]) + (p.shape[-1] + q.shape[-1] - 1,))
    for k in range(q.shape[-1]):
        out[..., k : k + p.shape[-1]] += p * q[..., k : k + 1]
    return out


def _require_finite(finite: bool, what: str) -> None:
    """Raise :class:`ValidationError` about ``what`` unless ``finite``."""
    if not finite:
        raise ValidationError(
            f"the forward-kinematics {what}: the design's coordinates or the joint values are too large"
        )


@np.errstate(over="ignore", invalid="ignore")
def compile_fk(geom: RobotGeometry) -> FkDesign:
    """Degeneracy verdict and coefficient matrix of a design.

    The substitution leg is leg 1 (index 0), as in :func:`oracle_fk`: the
    elimination rows are -2 (S_j - S_1) in the serial points, so |det J| is
    eight times the area of S_1 S_2 S_3 whichever leg is substituted.  The
    elimination is singular when |det J| stays within 1e-10 L^2 over a
    coarse angle grid.  Column k of ``M`` is the degree-10 polynomial's
    exact expansion on monomial k of r, deflated by (1 + t^2)^2; a visible
    remainder means catastrophic cancellation and warns.  Overflow leaves
    non-finite entries, on which :func:`build_fk_polynomial` raises, and no
    RuntimeWarning.
    """
    L = geom.L
    u, v, w0 = _linear_forms(geom, np.zeros(3))
    rows = tuple(map(tuple, _elimination_rows(u, v, w0).tolist()))
    phis = np.linspace(-np.pi * 0.95, np.pi * 0.95, 19)
    if float(np.max(_solve_affine_xy(u, v, w0, phis, L)[2])) <= 1e-10 * (L * L):
        return FkDesign(geom.leg_floats, rows, None)

    U, V = _tan_half_numerator(u), _tan_half_numerator(v)
    # W_i is linear in (1, r1, r2, r3): only its constant term holds r_i.
    W = np.zeros((3, 4, 3))
    W[:, 0] = _tan_half_numerator(w0)
    W[[0, 1, 2], [1, 2, 3]] = -_ONE_PLUS_T2
    A1, B1, C1 = U[1] - U[0], V[1] - V[0], W[1] - W[0]
    A2, B2, C2 = U[2] - U[0], V[2] - V[0], W[2] - W[0]
    d_num = _pmul(A1, B2) - _pmul(A2, B1)
    x_num = _pmul(B1, C2) - _pmul(B2, C1)
    y_num = _pmul(A2, C1) - _pmul(A1, C2)
    # quadratic form: Q[a, b] is the coefficient polynomial of z_a z_b, z = (1, r)
    Q = _pmul(_ONE_PLUS_T2, _pmul(x_num[:, None], x_num) + _pmul(y_num[:, None], y_num))
    Q[0] += _pmul(_pmul(U[0], d_num), x_num) + _pmul(_pmul(V[0], d_num), y_num)
    Q[0] += _pmul(W[0], _pmul(d_num, d_num))
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
    return FkDesign(geom.leg_floats, rows, M)


@np.errstate(over="ignore", invalid="ignore")
def build_fk_polynomial(geom: RobotGeometry, joints: JointVector) -> UnivariateFkPolynomial:
    """Eliminate (x, y) and return the trimmed univariate polynomial in t:
    the design's compiled matrix (:func:`compile_fk`) on the monomials of
    rho^2, trimmed in plain floats.  Non-finite coefficients raise
    :class:`ValidationError`."""
    design = geom.fk_design
    if design.M is None:
        raise DegenerateElimination(_SINGULAR_ELIMINATION)
    z = [1.0, *joints.squared.tolist()]
    coeffs = design.M @ np.array([z[a] * z[b] for a, b in _MONOMIALS])
    values = coeffs.tolist()
    # every entry: Python's max skips a NaN that does not come first
    _require_finite(all(map(math.isfinite, values)), "polynomial has non-finite coefficients")
    cmax = max(map(abs, values))
    if cmax == 0.0:
        return UnivariateFkPolynomial(np.zeros(1), True, True)
    degree = next(k for k in range(len(values) - 1, -1, -1) if abs(values[k]) > TRIM_REL * cmax)
    return UnivariateFkPolynomial(coeffs[: degree + 1], degree < 6, False)


def _companion_roots(coeffs: np.ndarray) -> list:
    """The roots of a polynomial of degree >= 1 with ascending ``coeffs``
    whose last one is not zero, as floats or complex numbers:
    ``npoly.polyroots`` without its series conversion, so the same
    companion matrix, eigenvalues and order (Edelman & Murakami, Math.
    Comp. 64, 1995)."""
    if len(coeffs) == 2:
        return [float(-coeffs[0] / coeffs[1])]
    mat = _SHIFTS[len(coeffs) - 2].copy()
    mat[:, -1] -= coeffs[:-1] / coeffs[-1]
    roots = np.linalg.eigvals(mat)
    roots.sort()
    return roots.tolist()


def _min_norm_step(p, q):
    """The shortest step s with p . s = -p[3] and q . s = -q[3] for two rows
    of :func:`_constraint_rows`, J^T (J J^T)^-1 (-F) in plain floats; None
    when their gradients are parallel."""
    pp, pq, qq = (a[0] * b[0] + a[1] * b[1] + a[2] * b[2] for a, b in ((p, p), (p, q), (q, q)))
    det = pp * qq - pq * pq
    if not det > 0.0:
        return None
    lp, lq = (pq * q[3] - qq * p[3]) / det, (pq * p[3] - pp * q[3]) / det
    return [lp * a + lq * b for a, b in zip(p[:3], q[:3])]


def _newton_step(rows):
    """The Newton step s with J s = -F on the rows of :func:`_constraint_rows`, by cofactor
    expansion (Cramer's rule) in plain floats; where det J is 0 or not finite (a zero row makes
    it exactly 0), by ``np.linalg.solve``, then :func:`_min_norm_step` or least squares."""
    (a, b, c, f), (d, e, g, h), (p, q, r, k) = rows
    c00, c01, c02 = e * r - g * q, g * p - d * r, d * q - e * p
    det = a * c00 + b * c01 + c * c02
    if det != 0.0 and math.isfinite(det):
        c10, c11, c12 = c * q - b * r, a * r - c * p, b * p - a * q
        c20, c21, c22 = b * g - c * e, c * d - a * g, a * e - b * d
        return [-(u * f + v * h + w * k) / det for u, v, w in ((c00, c10, c20), (c01, c11, c21), (c02, c12, c22))]
    jac = np.array(rows)
    try:
        return np.linalg.solve(jac[:, :3], -jac[:, 3]).tolist()
    except np.linalg.LinAlgError:
        # B_i = a_i zeroes leg i's row (a zero-leg start): step on the live rows
        live = [row for row in rows if any(row[:3])]
        step = _min_norm_step(*live) if len(live) == 2 else None
        return step or np.linalg.lstsq(jac[:, :3], -jac[:, 3], rcond=None)[0].tolist()


def _refine_newton(legs, rho_sq, x, y, phi, res_tol):
    """Newton iteration on (F_1, F_2, F_3); returns ((x, y, phi), residual, ok)."""
    x, y, phi = float(x), float(y), float(phi)
    rows = _constraint_rows(legs, rho_sq, x, y, phi)
    best = max(abs(rows[0][3]), abs(rows[1][3]), abs(rows[2][3]))
    for _ in range(NEWTON_MAX_ITER):
        # polish far below the acceptance residual: near-singular Jacobians
        # amplify residual into pose error, so spare digits are cheap insurance
        if best <= 1e-6 * res_tol:
            break
        sx, sy, sphi = _newton_step(rows)
        for _ in range(9):  # the full step, then up to 8 halvings
            cand = (x + sx, y + sy, phi + sphi)
            cand_rows = _constraint_rows(legs, rho_sq, *cand)
            cand_best = max(abs(cand_rows[0][3]), abs(cand_rows[1][3]), abs(cand_rows[2][3]))
            if cand_best < best or best <= res_tol:
                break
            sx, sy, sphi = 0.5 * sx, 0.5 * sy, 0.5 * sphi
        if cand_best >= best:
            break  # stalled inside tolerance, or the line search failed
        (x, y, phi), rows, best = cand, cand_rows, cand_best
    return (x, y, phi), best, best <= res_tol


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
        if n <= 1e-12 * (L * L):
            return None
        # p cos phi + q sin phi = n cos(phi - theta)
        theta, half = math.atan2(q, p), math.acos(max(-1.0, min(1.0, g / n)))
        phis = [theta + half, theta - half]
    return [
        (axi - (math.cos(p) * bxi - math.sin(p) * byi), ayi - (math.sin(p) * bxi + math.cos(p) * byi), p, 1)
        for p in phis
    ]


def _root_clusters(real: list[float]) -> list[tuple[float, int]]:
    """Ascending (mean, size) of the clusters of ``real``: a sorted value within
    ``ROOT_CLUSTER_RADIUS`` of the one before it joins its cluster.  Members are
    summed in order from 0.0, as ``np.mean`` sums so few (3.12's ``sum`` compensates)."""
    groups = []  # [sum, size, last member]
    for t in sorted(real):
        if groups and t - groups[-1][2] <= ROOT_CLUSTER_RADIUS:
            groups[-1] = [groups[-1][0] + t, groups[-1][1] + 1, t]
        else:
            groups.append([0.0 + t, 1, t])
    return [(total / n, n) for total, n, _ in groups]


def solve_fk(geom: RobotGeometry, joints: JointVector) -> FkSolutionSet:
    """All assembly modes for the given joint vector.

    Real roots of the univariate polynomial (or, with a zero leg, the closed
    form of :func:`_zero_leg_starts`, whose solutions report multiplicity 1)
    are lifted to poses, refined by Newton iteration on the three
    constraints and deduplicated.  An empty set is a valid outcome
    (infeasible joints).  Results depend on the joints only through rho^2;
    squares that overflow raise :class:`ValidationError`.
    """
    rho_sq = [r * r for r in joints.rho.tolist()]  # plain floats: no overflow warning
    _require_finite(math.isfinite(max(rho_sq)), "polynomial has non-finite coefficients")
    design = geom.fk_design
    L = geom.L
    res_tol = RESIDUAL_REL * (L * L)
    poly = None
    starts = _zero_leg_starts(design, rho_sq, L) if 0.0 in rho_sq else None
    if starts is None:
        poly = build_fk_polynomial(geom, joints)
        if poly.degenerate:
            raise DegenerateElimination("forward-kinematics polynomial vanishes identically")
        rows = _float_rows(design, rho_sq)
        clusters = []
        if poly.degree >= 1:
            roots = _companion_roots(poly.coeffs)
            # Root pairs split off the real axis by a tangency stay eligible: the
            # acceptance band is on the equivalent angle error 2*Im(t)/(1+Re^2).
            eligible = [t.real for t in roots if 2.0 * abs(t.imag) / (1.0 + t.real * t.real) <= 1e-5]
            clusters = _root_clusters(eligible)
        phi0 = (2.0 * np.arctan([t for t, _ in clusters])).tolist()  # math.atan rounds some t otherwise
        # |det| is the same for every substitution leg (twice a triangle's area):
        # where it is small the lift is least squares, and Newton decides
        starts = [(*_float_solve_affine_xy(rows, p, L)[:2], p, m) for p, (_, m) in zip(phi0, clusters)]

    entries = []
    for x0, y0, phi0, mult in starts:
        xyphi, resid, ok = _refine_newton(design.legs, rho_sq, x0, y0, phi0, res_tol)
        if ok:
            entries.append((xyphi, resid, mult))
        elif resid <= 1e4 * res_tol:
            msg = f"dropped a near-solution at phi={phi0:.6f} with residual {resid:.3e}"
            warnings.warn(msg, RuntimeWarning, stacklevel=2)

    if poly is not None and poly.check_phi_pi:
        x0, y0, det = _float_solve_affine_xy(rows, math.pi, L)
        if det > 1e-12 * (L * L):
            xyphi, resid, ok = _refine_newton(design.legs, rho_sq, x0, y0, math.pi, res_tol)
            if ok and abs(wrap_angle(xyphi[2] - math.pi)) <= 1e-6:
                entries.append((xyphi, resid, 1))

    return _assemble_solution_set(entries, L)


def _assemble_solution_set(entries, L: float) -> FkSolutionSet:
    """Deduplicate refined candidates ((x, y, phi), residual, multiplicity) in
    plain floats and sort them deterministically.  Angles are normalized into
    (-pi, pi] once, so the solver and the oracle report identical poses, and
    candidates merge at :func:`pose_distance` < DEDUP_REL * L, taken with its
    np.hypot (math.hypot rounds differently); Poses are built at the end."""
    tol = DEDUP_REL * L
    merged: list[list] = []  # [x, y, phi, residual, multiplicity]
    for (x, y, phi), resid, mult in entries:
        phi = wrap_angle(phi)
        for item in merged:
            if L * abs(wrap_angle(phi - item[2])) < tol and np.hypot(x - item[0], y - item[1]) < tol:
                item[4] += mult
                if resid < item[3]:
                    item[:4] = x, y, phi, resid
                break
        else:
            merged.append([x, y, phi, resid, mult])
    merged.sort(key=lambda it: (wrap_angle(it[2]), it[0], it[1]))
    return FkSolutionSet([Pose(*it[:3]) for it in merged], [it[3] for it in merged], [it[4] for it in merged])


def _sign(v: float) -> float:
    """np.sign in Python floats: NaN for NaN."""
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0 if v == 0.0 else math.nan


def _bracket_root(f, lo: float, hi: float, flo: float, fhi: float, tol: float) -> float:
    """Midpoint of the sign-change bracket [lo, hi] of ``f`` (floats),
    refined to width <= tol by false position with the Illinois step
    (Dowell & Jarratt, BIT 11, 1971).  A bracket not halved over two steps
    takes its midpoint, no step lands within tol / 2 of an end, and a zero
    or NaN of ``f`` closes the bracket.  In Python floats, each step has
    the bits of the same step on numpy arrays."""
    was_left = was_right = False
    width1 = width2 = math.inf  # one and two steps back
    while (width := hi - lo) > tol:
        if width > 0.5 * width2:
            c = 0.5 * (lo + hi)
        else:  # numpy's inf or NaN where Python would raise ZeroDivisionError
            num, den = lo * fhi - hi * flo, fhi - flo
            c = num / den if den else num * math.copysign(math.inf, den)
        c = min(max(c, lo + 0.5 * tol), hi - 0.5 * tol)  # a NaN c stays NaN
        width1, width2 = width, width1
        fc = f(c)
        left, right = _sign(fc) == _sign(flo), _sign(fc) == _sign(fhi)
        # c replaces the end of its sign; the end kept twice in a row is halved
        flo = fc if left else 0.5 * flo if right and was_right else flo
        fhi = fc if right else 0.5 * fhi if left and was_left else fhi
        lo, hi = (lo if right else c), (hi if left else c)
        was_left, was_right = left, right
    return 0.5 * (lo + hi)


def oracle_fk(geom: RobotGeometry, joints: JointVector, grid: int = ORACLE_GRID) -> FkSolutionSet:
    """Brute-force forward kinematics by sweeping the orientation.

    At every grid angle the affine elimination gives the unique candidate
    (x, y); the leftover residual g(phi) = F_1 changes sign across a
    solution.  Each sign change is refined on its own to 1e-12 in phi by
    false position (:func:`_bracket_root`), lifting one angle per step, and
    polished by the same Newton refinement as the solver.  Intended for
    verification only: slower than :func:`solve_fk` and blind to tangential
    (even-multiplicity) roots.  The sweep wraps around 2*pi; ``grid`` must
    be a count in [8, ``MAX_SAMPLES``]: a real number with a whole value,
    not a string (the rule of ``samples_per_segment``).
    Overflowing linear forms or sweep residuals raise :class:`ValidationError`,
    as in :func:`build_fk_polynomial`, rather than leave no candidate.
    """
    grid = _whole_count(grid, "grid must be a whole number")
    if grid < 8:
        raise ValidationError("grid must be at least 8")
    if grid > MAX_SAMPLES:
        raise ValidationError(f"grid must be at most {MAX_SAMPLES:,}")
    L = geom.L
    res_tol = RESIDUAL_REL * (L * L)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v, w = _linear_forms(geom, joints.squared)
    _require_finite(np.all(np.isfinite([u, v, w])), "linear forms have non-finite coefficients")
    rho_sq = joints.squared.tolist()
    legs = geom.leg_floats
    forms = [f[0].tolist() for f in (u, v, w)]  # F_1's u, v and w

    def lift(phi):
        """(x, y, |det|, g) at the angles ``phi``, each entry computed
        elementwise, so independent of the other angles lifted with it."""
        x, y, abs_det = _solve_affine_xy(u, v, w, phi, L)
        c, s = np.cos(phi), np.sin(phi)
        p, q, r = (f0 + f1 * c + f2 * s for f0, f1, f2 in forms)
        return x, y, abs_det, x**2 + y**2 + p * x + q * y + r

    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, abs_det, g = lift(phis)
    _require_finite(np.all(np.isfinite([x, y, g])), "residual is not finite along the orientation sweep")
    valid = abs_det > 1e-10 * (L * L)
    if not np.any(valid):
        raise DegenerateElimination(_SINGULAR_ELIMINATION)
    # brackets [phi_k, phi_k + 2 pi / grid] with both ends valid: a sign
    # change is refined to 1e-12, a zero at the left end closes its bracket
    both = valid & np.roll(valid, -1)
    k = np.flatnonzero(both & ((g == 0.0) | (g * np.roll(g, -1) < 0.0)))
    hi = phis[k] + np.where(g[k] == 0.0, 0.0, 2.0 * np.pi / grid)

    def g_at(phi):
        return lift(np.array([phi]))[3].item()

    brackets = zip(phis[k].tolist(), hi.tolist(), g[k].tolist(), g[(k + 1) % grid].tolist())
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.array([_bracket_root(g_at, *b, 1e-12) for b in brackets])
    x0, y0, det0, _ = lift(roots)
    entries = []
    for j in np.flatnonzero(det0 > 1e-12 * (L * L)):
        xyphi, resid, ok = _refine_newton(legs, rho_sq, x0[j], y0[j], roots[j], res_tol)
        if ok:
            entries.append((xyphi, resid, 1))
    return _assemble_solution_set(entries, L)

