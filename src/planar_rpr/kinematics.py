"""Inverse and forward kinematics of the 3-RPR planar parallel robot.

The forward problem is solved by elimination.  Each leg imposes

    F_i(x, y, phi) = ||(x, y) + R(phi) b_i - a_i||^2 - rho_i^2 = 0,

and the differences F_j - F_sigma are affine in (x, y) with coefficients that
are degree-1 trigonometric polynomials in phi.  Solving that 2x2 linear
system for (x, y) and substituting into F_sigma gives a single equation in
phi; the tangent-half-angle substitution t = tan(phi/2) with denominators
cleared yields a degree-10 polynomial that always carries an exact factor
(1 + t^2)^2.  Deflating it leaves the degree <= 6 polynomial whose real roots
are the assembly modes (at most six).  The phi = pi pole of the substitution
is handled by a separate direct check whenever the trimmed degree drops
below six (a root at t = infinity).

A deliberately independent verification path, :func:`oracle_fk`, sweeps phi
over a dense grid, solves the same affine system pointwise and brackets sign
changes of the remaining residual.  It shares no polynomial machinery with
:func:`solve_fk` and exists for tests and the ``oracle-fk`` CLI command.

Everything here depends on the joint values only through rho_i^2, so the
results are invariant under sign flips of the directed distances.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateElimination, ValidationError
from .model import (
    JointVector,
    Pose,
    RobotGeometry,
    characteristic_scale,
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


def constraint_residuals(geom: RobotGeometry, pose: Pose, rho_sq: np.ndarray) -> np.ndarray:
    """F_i = ||B_i - a_i||^2 - rho_i^2 for each leg."""
    b = platform_points(geom, pose)
    d = b - geom.base
    return d[:, 0] ** 2 + d[:, 1] ** 2 - rho_sq


def _constraint_jacobian(geom: RobotGeometry, pose: Pose) -> np.ndarray:
    """3x3 Jacobian of (F_1, F_2, F_3) with respect to (x, y, phi)."""
    b = platform_points(geom, pose)
    d = b - geom.base
    # dB_i/dphi = R'(phi) b_i
    c, s = np.cos(pose.phi), np.sin(pose.phi)
    db = np.column_stack(
        [
            -s * geom.platform[:, 0] - c * geom.platform[:, 1],
            c * geom.platform[:, 0] - s * geom.platform[:, 1],
        ]
    )
    return np.column_stack([2.0 * d[:, 0], 2.0 * d[:, 1], 2.0 * np.sum(d * db, axis=1)])


def _linear_forms(geom: RobotGeometry, rho_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of u_i, v_i, w_i in the (1, cos phi, sin phi) basis.

    F_i = x^2 + y^2 + u_i x + v_i y + w_i with each linear form returned as
    a row (constant, cos coefficient, sin coefficient).
    """
    ax, ay = geom.base[:, 0], geom.base[:, 1]
    bx, by = geom.platform[:, 0], geom.platform[:, 1]
    u = np.column_stack([-2.0 * ax, 2.0 * bx, -2.0 * by])
    v = np.column_stack([-2.0 * ay, 2.0 * by, 2.0 * bx])
    w = np.column_stack(
        [
            ax**2 + ay**2 + bx**2 + by**2 - rho_sq,
            -2.0 * (ax * bx + ay * by),
            2.0 * (ax * by - ay * bx),
        ]
    )
    return u, v, w


def _tan_half_numerator(form: np.ndarray) -> np.ndarray:
    """Numerator of (p0 + pc*cos + ps*sin) over (1 + t^2), ascending in t."""
    p0, pc, ps = form
    return np.array([p0 + pc, 2.0 * ps, p0 - pc])


def _affine_system_at_angle(u, v, w, sigma: int, c, s):
    """2x2 matrix and right-hand side of the (x, y) elimination at one angle.

    Rows come from F_j - F_sigma for the two legs j != sigma; ``c`` and ``s``
    may be scalars or broadcastable arrays.
    """
    others = [j for j in range(3) if j != sigma]
    rows_a, rows_b, rhs = [], [], []
    for j in others:
        du = (u[j] - u[sigma])
        dv = (v[j] - v[sigma])
        dw = (w[j] - w[sigma])
        rows_a.append(du[0] + du[1] * c + du[2] * s)
        rows_b.append(dv[0] + dv[1] * c + dv[2] * s)
        rhs.append(-(dw[0] + dw[1] * c + dw[2] * s))
    return rows_a, rows_b, rhs


def _solve_affine_xy(u, v, w, sigma: int, phi: float):
    """Solve the elimination system for (x, y) at a fixed angle.

    Returns (x, y, |det|).  Falls back to a least-squares solution when the
    2x2 system is rank deficient (the caller gates on the returned det).
    """
    c, s = np.cos(phi), np.sin(phi)
    (a1, a2), (b1, b2), (r1, r2) = _affine_system_at_angle(u, v, w, sigma, c, s)
    det = a1 * b2 - a2 * b1
    if abs(det) > 1e-300:
        x = (r1 * b2 - r2 * b1) / det
        y = (a1 * r2 - a2 * r1) / det
    else:
        sol, *_ = np.linalg.lstsq(np.array([[a1, b1], [a2, b2]]), np.array([r1, r2]), rcond=None)
        x, y = sol
    return float(x), float(y), abs(det)


def build_fk_polynomial(geom: RobotGeometry, joints: JointVector) -> UnivariateFkPolynomial:
    """Eliminate (x, y) and return the trimmed univariate polynomial in t.

    The substitution leg is chosen, per design, as the one maximizing the
    minimum absolute elimination determinant over a coarse t-grid (ties go to
    the lowest index; the determinant magnitude is in fact pair-independent,
    so the tie-break is what normally decides).
    """
    L = characteristic_scale(geom)
    rho_sq = joints.squared
    u, v, w = _linear_forms(geom, rho_sq)

    phis = np.linspace(-np.pi * 0.95, np.pi * 0.95, 19)
    best_sigma, best_score = None, -np.inf
    for sigma in range(3):
        c, s = np.cos(phis), np.sin(phis)
        (a1, a2), (b1, b2), _ = _affine_system_at_angle(u, v, w, sigma, c, s)
        dets = np.abs(a1 * b2 - a2 * b1)
        score = float(np.min(dets))
        if score > best_score + 1e-15:
            best_sigma, best_score = sigma, score
    sigma = best_sigma

    c, s = np.cos(phis), np.sin(phis)
    (a1, a2), (b1, b2), _ = _affine_system_at_angle(u, v, w, sigma, c, s)
    if float(np.max(np.abs(a1 * b2 - a2 * b1))) <= 1e-10 * L**2:
        raise DegenerateElimination(
            "the (x, y) elimination system is singular for every orientation"
        )

    others = [j for j in range(3) if j != sigma]
    U = [_tan_half_numerator(u[i]) for i in range(3)]
    V = [_tan_half_numerator(v[i]) for i in range(3)]
    W = [_tan_half_numerator(w[i]) for i in range(3)]
    A1, B1, C1 = U[others[0]] - U[sigma], V[others[0]] - V[sigma], W[others[0]] - W[sigma]
    A2, B2, C2 = U[others[1]] - U[sigma], V[others[1]] - V[sigma], W[others[1]] - W[sigma]

    # np.convolve keeps explicit lengths (polymul would trim trailing zeros
    # and break the additions below).
    pm = np.convolve
    d_num = pm(A1, B2) - pm(A2, B1)
    x_num = pm(B1, C2) - pm(B2, C1)
    y_num = pm(A2, C1) - pm(A1, C2)

    one_plus_t2 = np.array([1.0, 0.0, 1.0])
    p10 = pm(one_plus_t2, pm(x_num, x_num) + pm(y_num, y_num))
    p10 += pm(U[sigma], pm(x_num, d_num))
    p10 += pm(V[sigma], pm(y_num, d_num))
    p10 += pm(W[sigma], pm(d_num, d_num))

    # (1 + t^2)^2 always divides exactly; a visible remainder means the
    # coefficients were computed with catastrophic cancellation.
    scale = float(np.max(np.abs(p10))) if np.max(np.abs(p10)) > 0 else 0.0
    quotient, rem1 = npoly.polydiv(p10, one_plus_t2)
    quotient, rem2 = npoly.polydiv(quotient, one_plus_t2)
    if scale > 0.0:
        rem = max(float(np.max(np.abs(rem1))), float(np.max(np.abs(rem2))))
        if rem > 1e-8 * scale:
            warnings.warn(
                f"tan-half deflation left a relative remainder of {rem / scale:.2e}",
                RuntimeWarning,
                stacklevel=2,
            )

    coeffs = np.atleast_1d(quotient)
    cmax = float(np.max(np.abs(coeffs)))
    if cmax == 0.0:
        return UnivariateFkPolynomial(np.zeros(1), sigma, True, True)
    keep = np.nonzero(np.abs(coeffs) > TRIM_REL * cmax)[0]
    coeffs = coeffs[: keep[-1] + 1].copy()
    check_pi = len(coeffs) - 1 < 6
    return UnivariateFkPolynomial(coeffs, sigma, check_pi, False)


def _cluster_real_roots(roots: np.ndarray) -> list[tuple[float, int]]:
    """Group accepted real parts within the cluster radius; returns (t, count)."""
    if len(roots) == 0:
        return []
    vals = np.sort(roots)
    clusters = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > ROOT_CLUSTER_RADIUS:
            group = vals[start:k]
            clusters.append((float(np.mean(group)), len(group)))
            start = k
    return clusters


def _refine_newton(geom, rho_sq, x, y, phi, res_tol):
    """Newton iteration on (F_1, F_2, F_3); returns (pose, residual, ok)."""
    pose = Pose(float(x), float(y), float(phi))
    res = constraint_residuals(geom, pose, rho_sq)
    best = float(np.max(np.abs(res)))
    for _ in range(NEWTON_MAX_ITER):
        # polish far below the acceptance residual: near-singular Jacobians
        # amplify residual into pose error, so spare digits are cheap insurance
        if best <= 1e-6 * res_tol:
            break
        jac = _constraint_jacobian(geom, pose)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        cand = Pose(pose.x + step[0], pose.y + step[1], pose.phi + step[2])
        cand_res = constraint_residuals(geom, cand, rho_sq)
        cand_best = float(np.max(np.abs(cand_res)))
        if cand_best >= best and best <= res_tol:
            break  # stalled inside tolerance
        if cand_best >= best:
            # simple halving line search before giving up
            improved = False
            for _ in range(8):
                step *= 0.5
                cand = Pose(pose.x + step[0], pose.y + step[1], pose.phi + step[2])
                cand_res = constraint_residuals(geom, cand, rho_sq)
                cand_best = float(np.max(np.abs(cand_res)))
                if cand_best < best:
                    improved = True
                    break
            if not improved:
                break
        pose, res, best = cand, cand_res, cand_best
    return pose, best, best <= res_tol


def solve_fk(geom: RobotGeometry, joints: JointVector) -> FkSolutionSet:
    """All assembly modes for the given joint vector.

    Real roots of the univariate polynomial are lifted through the affine
    elimination, refined by Newton iteration on the three constraints, then
    deduplicated in pose space.  An empty set is a valid outcome (infeasible
    joints).  Results depend on the joints only through rho_i^2.
    """
    L = characteristic_scale(geom)
    res_tol = RESIDUAL_REL * L**2
    rho_sq = joints.squared
    poly = build_fk_polynomial(geom, joints)
    if poly.degenerate:
        raise DegenerateElimination("forward-kinematics polynomial vanishes identically")
    u, v, w = _linear_forms(geom, rho_sq)

    candidates: list[tuple[float, int]] = []
    if poly.degree >= 1:
        roots = npoly.polyroots(poly.coeffs)
        # Root pairs split off the real axis by a tangency stay eligible: the
        # acceptance band is on the equivalent angle error 2*Im(t)/(1+Re^2).
        angle_im = 2.0 * np.abs(roots.imag) / (1.0 + roots.real**2)
        real_parts = roots.real[angle_im <= 1e-5]
        candidates = _cluster_real_roots(real_parts)

    entries: list[tuple[Pose, float, int]] = []
    for t_val, mult in candidates:
        phi0 = 2.0 * np.arctan(t_val)
        x0, y0, det = _solve_affine_xy(u, v, w, poly.base_leg, phi0)
        if det <= 1e-12 * L**2:
            # try the other substitution legs before falling back to lstsq
            for sigma in range(3):
                x1, y1, det1 = _solve_affine_xy(u, v, w, sigma, phi0)
                if det1 > det:
                    x0, y0, det = x1, y1, det1
        pose, resid, ok = _refine_newton(geom, rho_sq, x0, y0, phi0, res_tol)
        if ok:
            entries.append((pose, resid, mult))
        elif resid <= 1e4 * res_tol:
            warnings.warn(
                f"dropped a near-solution at phi={phi0:.6f} with residual {resid:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )

    if poly.check_phi_pi:
        x0, y0, det = _solve_affine_xy(u, v, w, poly.base_leg, np.pi)
        if det > 1e-12 * L**2:
            pose, resid, ok = _refine_newton(geom, rho_sq, x0, y0, np.pi, res_tol)
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
    return FkSolutionSet(
        solutions=[it[0] for it in merged],
        residuals=[it[1] for it in merged],
        multiplicities=[it[2] for it in merged],
    )


def oracle_fk(geom: RobotGeometry, joints: JointVector, grid: int = 4096) -> FkSolutionSet:
    """Brute-force forward kinematics by sweeping the orientation.

    At every grid angle the affine elimination gives the unique candidate
    (x, y); the leftover residual g(phi) = F_sigma changes sign across a
    solution.  Sign changes are bisected to 1e-12 in phi and polished by the
    same Newton refinement as the solver.  Intended for verification only:
    slower than :func:`solve_fk` and blind to tangential (even-multiplicity)
    roots.  The sweep wraps around 2*pi.
    """
    if grid < 8:
        raise ValidationError("grid must be at least 8")
    L = characteristic_scale(geom)
    res_tol = RESIDUAL_REL * L**2
    rho_sq = joints.squared
    u, v, w = _linear_forms(geom, rho_sq)
    sigma = 0

    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    c, s = np.cos(phis), np.sin(phis)
    (a1, a2), (b1, b2), (r1, r2) = _affine_system_at_angle(u, v, w, sigma, c, s)
    det = a1 * b2 - a2 * b1
    valid = np.abs(det) > 1e-10 * L**2
    if not np.any(valid):
        raise DegenerateElimination(
            "the (x, y) elimination system is singular for every orientation"
        )
    safe_det = np.where(valid, det, 1.0)
    x = (r1 * b2 - r2 * b1) / safe_det
    y = (a1 * r2 - a2 * r1) / safe_det
    g = (
        x**2
        + y**2
        + (u[sigma, 0] + u[sigma, 1] * c + u[sigma, 2] * s) * x
        + (v[sigma, 0] + v[sigma, 1] * c + v[sigma, 2] * s) * y
        + (w[sigma, 0] + w[sigma, 1] * c + w[sigma, 2] * s)
    )

    def g_at(phi: float) -> float:
        xx, yy, _ = _solve_affine_xy(u, v, w, sigma, phi)
        pose = Pose(xx, yy, phi)
        return float(constraint_residuals(geom, pose, rho_sq)[sigma])

    entries = []
    for k in range(grid):
        k2 = (k + 1) % grid
        if not (valid[k] and valid[k2]):
            continue
        lo, hi = phis[k], phis[k] + 2.0 * np.pi / grid
        glo, ghi = g[k], g[k2]
        if glo == 0.0:
            phi_root = lo
        elif glo * ghi < 0.0:
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                gm = g_at(mid)
                if gm == 0.0:
                    lo = hi = mid
                    break
                if glo * gm < 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            phi_root = 0.5 * (lo + hi)
        else:
            continue
        x0, y0, det0 = _solve_affine_xy(u, v, w, sigma, phi_root)
        if det0 <= 1e-12 * L**2:
            continue
        pose, resid, ok = _refine_newton(geom, rho_sq, x0, y0, phi_root, res_tol)
        if ok:
            entries.append((pose, resid, 1))

    return _assemble_solution_set(entries, L)


def fk_root_multiplicity(geom: RobotGeometry, joints: JointVector) -> list[tuple[Pose, int]]:
    """Solutions with their root-cluster multiplicities.

    Multiplicity 2 marks a tangency (the joint vector sits on the forward
    problem's solution-count boundary); 3 marks a triple coincidence.
    """
    sols = solve_fk(geom, joints)
    return list(zip(sols.solutions, sols.multiplicities))
