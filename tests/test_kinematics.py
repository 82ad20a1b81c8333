import dataclasses
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from planar_rpr import (
    DegenerateElimination,
    JointVector,
    Pose,
    RobotGeometry,
    build_fk_polynomial,
    characteristic_scale,
    inverse_kinematics,
    oracle_fk,
    parallel_singularity_measure,
    platform_points,
    pose_distance,
    serial_points,
    solve_fk,
)
from planar_rpr import ValidationError, kinematics
from planar_rpr.kinematics import TRIM_REL, UnivariateFkPolynomial
from planar_rpr.model import rotation, wrap_angle
from planar_rpr.singularity import _leg_geometry, _leg_vectors

from conftest import RANDOM0, REF_BASE, REF_PLATFORM, REF_SCALE, bracket_roots_over_all, random_pose_tuple

L = REF_SCALE
REF_JOINTS = np.sqrt([5.0, 65.0, 52.0])

# Full assembly-mode list for rho = (sqrt5, sqrt65, sqrt52), frozen from an
# independent phi-sweep oracle run at grid 8192 (agreement 2.7e-12).
REF_MODES = [
    (2.6027226028420403, 0.27848719228004004, -1.302590618547349),
    (0.0, 0.0, 0.0),
    (-0.12953516674479373, 0.23725138291514838, 0.09658617539983982),
    (1.5672066995700928, 1.9674999553490753, 1.4079566686886649),
]


def _same_solution_sets(a, b, tol=1e-6 * L):
    if len(a) != len(b):
        return False
    return all(pose_distance(p, q, L) <= tol for p, q in zip(a.solutions, b.solutions))


def test_ik_zero_leg(ref):
    joints = inverse_kinematics(ref, Pose(2, 1, 0))
    assert joints.rho[0] == 0.0


def test_ik_reference_pose(ref):
    joints = inverse_kinematics(ref, Pose(0, 0, 0))
    assert np.allclose(joints.rho, REF_JOINTS)


def test_ik_sign_hint(ref):
    joints = inverse_kinematics(ref, Pose(0, 0, 0), sign_hint=(-1, 1, 1))
    assert np.allclose(joints.rho, REF_JOINTS * [-1, 1, 1])


def test_ik_sign_hint_of_two_entries_is_a_validation_error(ref):
    """A sign hint without its third entry names the argument; it was a
    bare ValueError from broadcasting."""
    with pytest.raises(ValidationError, match="sign_hint must have 3 entries, got \\(1, 1\\)"):
        inverse_kinematics(ref, Pose(0, 0, 0), sign_hint=(1, 1))


def test_ik_distance_contract(ref):
    rng = np.random.default_rng(21)
    for _ in range(100):
        pose = Pose(*random_pose_tuple(rng))
        joints = inverse_kinematics(ref, pose)
        b = platform_points(ref, pose)
        d = np.hypot(b[:, 0] - ref.base[:, 0], b[:, 1] - ref.base[:, 1])
        assert np.max(np.abs(np.abs(joints.rho) - d)) <= 1e-9 * L


def test_ik_and_serial_points_give_the_leg_kernel_bits():
    """inverse_kinematics gives the leg lengths of _leg_geometry and
    serial_points minus the leg vectors of _leg_vectors at (0, 0, phi), bit
    for bit, on 20,000 seeded poses and 2,001 angles in [-4, 4] of random0.
    The former rotation-matrix product rounded otherwise on about 8% of
    these poses: a design with integer coordinates does not show it.  A
    serial-point coordinate that is exactly zero is +0.0, as that product
    gave it."""
    geom = RobotGeometry(RANDOM0["base"], RANDOM0["platform"])
    rng = np.random.default_rng(28)
    x, y = rng.uniform(-geom.L, 2.0 * geom.L, (2, 20000))
    phi = rng.uniform(-4.0, 4.0, 20000)
    rho = [inverse_kinematics(geom, Pose(*p)).rho for p in zip(x.tolist(), y.tolist(), phi.tolist())]
    assert np.array(rho).tobytes() == _leg_geometry(geom, x, y, phi)[2].tobytes()
    phis = np.linspace(-4.0, 4.0, 2001)
    serial = np.array([serial_points(geom, p) for p in phis.tolist()])
    assert serial.tobytes() == (0.0 - np.stack(_leg_vectors(geom, 0.0, 0.0, phis), axis=-1)).transpose(1, 0, 2).tobytes()
    on_axis = RobotGeometry(REF_BASE, [[0.0, -1.0], *REF_PLATFORM[1:]])  # S_1(0) = (0, 1)
    serial = serial_points(on_axis, 0.0)
    assert serial.tobytes() == (on_axis.base - on_axis.platform @ rotation(0.0).T).tobytes()
    assert serial[0, 0] == 0.0 and not np.signbit(serial[0, 0])


def test_polynomial_round_trip_root(ref):
    poly = build_fk_polynomial(ref, inverse_kinematics(ref, Pose(0, 0, 0)))
    # t = tan(0/2) = 0 must be a root: the constant coefficient vanishes
    value_at_zero = poly.coeffs[0]
    assert abs(value_at_zero) <= 1e-9 * np.max(np.abs(poly.coeffs))


def test_polynomial_degree_and_root_count(ref):
    joints = JointVector(REF_JOINTS)
    poly = build_fk_polynomial(ref, joints)
    assert poly.degree == 6
    roots = np.polynomial.polynomial.polyroots(poly.coeffs)
    n_real = int(np.sum(np.abs(roots.imag) <= 1e-9 * (1 + roots.real**2)))
    assert n_real == len(oracle_fk(ref, joints, grid=4096))


def test_solve_fk_round_trip(ref):
    sols = solve_fk(ref, JointVector(REF_JOINTS))
    assert any(pose_distance(p, Pose(0, 0, 0), L) <= 1e-8 for p in sols)


def test_solve_fk_frozen_modes(ref):
    sols = solve_fk(ref, JointVector(REF_JOINTS))
    assert len(sols) == len(REF_MODES)
    assert sols.total_multiplicity == len(REF_MODES)
    for pose, expected in zip(sols.solutions, REF_MODES):
        assert pose_distance(pose, Pose(*expected), L) <= 1e-8 * L
    assert max(sols.residuals) <= 1e-9 * L**2


def test_solve_fk_sign_invariance(ref):
    """All eight sign patterns of the joints give identical solution sets."""
    base = solve_fk(ref, JointVector(REF_JOINTS))
    for bits in range(1, 8):
        signs = np.array([1 - 2 * ((bits >> i) & 1) for i in range(3)], dtype=float)
        flipped = solve_fk(ref, JointVector(REF_JOINTS * signs))
        assert _same_solution_sets(base, flipped, tol=1e-9)
        assert flipped.multiplicities == base.multiplicities


def test_zero_leg_collapse(ref):
    """With any zero-length leg the solution count drops to at most two."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        leg = int(rng.integers(0, 3))
        phi = rng.uniform(0, 2 * np.pi)
        xy = ref.base[leg] - rotation(phi) @ ref.platform[leg]
        rho = inverse_kinematics(ref, Pose(xy[0], xy[1], phi)).rho.copy()
        assert abs(rho[leg]) <= 1e-12 * L
        rho[leg] = 0.0
        sols = solve_fk(ref, JointVector(rho))
        assert sols.total_multiplicity <= 2
        # zero-leg solutions are tangencies (double roots): residual-bounded
        # localization is sqrt-limited, so the pose check is correspondingly loose
        assert any(pose_distance(p, Pose(xy[0], xy[1], phi), L) < 1e-4 * L for p in sols)


def test_infeasible_joints_empty(ref):
    sols = solve_fk(ref, JointVector([100.0, 0.5, 7.0]))
    assert len(sols) == 0


def test_oracle_contains_known_solution(ref):
    sols = oracle_fk(ref, JointVector(REF_JOINTS), grid=4096)
    assert any(pose_distance(p, Pose(0, 0, 0), L) <= 1e-8 for p in sols)


def test_oracle_matches_solver_on_random_joints(ref):
    rng = np.random.default_rng(13)
    for _ in range(20):
        joints = inverse_kinematics(ref, Pose(*random_pose_tuple(rng)))
        assert _same_solution_sets(solve_fk(ref, joints), oracle_fk(ref, joints, grid=4096))


def _recorded_oracle(geom, joints):
    """Run oracle_fk, recording per bracket the callback ``f`` and the
    arguments it hands _bracket_root and, per refinement step, the sizes of
    the angle arrays _solve_affine_xy received during that step."""
    lifted, calls = [], []
    solve, bracket_root = kinematics._solve_affine_xy, kinematics._bracket_root

    def lift(u, v, w, phi, L):
        lifted.append(len(phi))
        return solve(u, v, w, phi, L)

    def refine(f, *args):
        steps = []

        def step(c):
            before = len(lifted)
            out = f(c)
            steps.append(lifted[before:])
            return out

        calls.append((f, args, steps))
        return bracket_root(step, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kinematics, "_solve_affine_xy", lift)
        patch.setattr(kinematics, "_bracket_root", refine)
        oracle_fk(geom, joints)
    return calls


def test_oracle_lifts_only_the_open_brackets(ref):
    """Each refinement step of the oracle's sweep lifts one angle, that of
    the bracket it refines, and brackets close after different numbers of
    steps."""
    rng = np.random.default_rng(13)
    vectors = [JointVector(REF_JOINTS)] + [inverse_kinematics(ref, Pose(*random_pose_tuple(rng))) for _ in range(5)]
    uneven = 0
    for joints in vectors:
        calls = _recorded_oracle(ref, joints)
        assert calls and all(sizes == [1] for *_, steps in calls for sizes in steps)
        uneven += len({len(steps) for *_, steps in calls}) > 1
    assert uneven >= 3


def test_oracle_residual_does_not_depend_on_the_batch():
    """The oracle's residual g at an angle has the same bits whether that
    angle is lifted alone, as each refinement step lifts it, or among all
    the sweep's angles: the callback gives every bracket's end values at
    the grid angles.  The design is seeded: the reference robot's first
    leg has forms whose products are exact."""
    rng = np.random.default_rng(24)
    geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
    phis = np.linspace(0.0, 2.0 * np.pi, kinematics.ORACLE_GRID, endpoint=False)
    brackets = 0
    for _ in range(10):
        joints = inverse_kinematics(geom, Pose(*rng.uniform(-3.0, 3.0, 2), rng.uniform(0.0, 2.0 * np.pi)))
        for g, (lo, _, flo, fhi, _), _ in _recorded_oracle(geom, joints):
            k = int(np.searchsorted(phis, lo))
            assert phis[k] == lo
            got = [g(phis[k].item()), g(phis[(k + 1) % len(phis)].item())]
            assert np.array(got).tobytes() == np.array([flo, fhi]).tobytes()
            brackets += 1
    assert brackets >= 20


@pytest.mark.parametrize(
    "f, root",
    [(lambda t: math.exp(20.0 * t) - 2.0, math.log(2.0) / 20.0), (lambda t: math.tanh((t - 0.3) / 1e-4), 0.3)],
    ids=["exp", "tanh-step"],
)
@pytest.mark.parametrize("tol", [1e-10, 1e-14])
def test_bracket_root_terminates_on_adversarial_brackets(f, root, tol):
    """A convex bracket whose far end dominates and a flat tanh step close
    to ``tol`` within twice bisection's step count."""
    calls = []

    def counted(t):
        assert type(t) is float
        calls.append(t)
        return f(t)

    found = kinematics._bracket_root(counted, 0.0, 1.0, f(0.0), f(1.0), tol)
    assert abs(found - root) <= tol
    assert len(calls) <= 2 * math.ceil(math.log2(1.0 / tol))


def test_bracket_root_linear_brackets_close_in_one_step():
    """Linear brackets land on their exact zero after at most two
    evaluations, whatever their slope."""
    for slope, root in [(3.0, 1.0 / 3.0), (-0.5, 0.25), (1e-9, 0.75)]:
        calls = []

        def f(t):
            calls.append(t)
            return slope * (t - root)

        found = kinematics._bracket_root(f, 0.0, 1.0, -slope * root, slope * (1.0 - root), 1e-14)
        assert abs(found - root) <= 1e-15
        assert len(calls) <= 2


def _seeded_brackets(rng, m):
    """``m`` brackets of elementwise functions that close after different
    numbers of steps: a linear part plus a seeded exp, tanh-step or cubic
    term, each with a sign change on [lo, hi]."""
    kind, root = rng.integers(0, 3, m), rng.uniform(0.05, 0.95, m)
    slope, scale = rng.choice([-1.0, 1.0], m) * rng.uniform(0.1, 10.0, m), 10.0 ** rng.uniform(-6, 0, m)

    def f(t, j=slice(None)):
        k, r, a, w = kind[j], root[j], slope[j], scale[j]
        x = t - r
        return a * np.where(k == 0, np.expm1(np.minimum(x / w, 50.0)), np.where(k == 1, np.tanh(x / w), x + x**3 / w))

    lo, hi = np.minimum(root - rng.uniform(0.0, 1.0, m), 0.0), np.maximum(root + rng.uniform(0.0, 1.0, m), 1.0)
    return f, lo, hi


def _one_by_one(f, lo, hi, flo, fhi, tol):
    """_bracket_root on each bracket, ``f`` on the one-parameter array of
    that bracket; the number of steps of each."""
    roots, steps = [], []
    for j, args in enumerate(zip(lo.tolist(), hi.tolist(), flo.tolist(), fhi.tolist())):
        calls = []

        def one(t):
            calls.append(t)
            return f(np.array([t]), np.array([j])).item()

        roots.append(kinematics._bracket_root(one, *args, tol))
        steps.append(len(calls))
    return np.array(roots), steps


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
def test_bracket_root_equals_the_all_bracket_steps(tol):
    """Refining each bracket on its own in Python floats gives every bracket
    the bits the numpy steps over all brackets gave: the adversarial exp and
    tanh-step brackets, a zero at an end, a closed bracket, a step landing
    on an exact zero, seeded mixed batches whose brackets close at different
    steps, and the brackets that close on a NaN of ``f`` or take a false
    position over fhi == flo, where Python raises ZeroDivisionError and
    numpy divides to inf or NaN."""
    # each case maps parameters, and the indices of their brackets, to values
    exp = lambda t, j=None: np.exp(20.0 * t) - 2.0
    step = lambda t, j=None: np.tanh((t - 0.3) / 1e-4)
    half = lambda t, j=None: t - 0.5  # the first false-position step lands on 0.5 exactly
    nan_near_root = lambda t, j=None: np.where(abs(t - 0.3) < 1e-3, np.nan, np.tanh((t - 0.3) / 1e-4))
    cases = [(f, np.zeros(1), np.ones(1), None) for f in (exp, step, half, nan_near_root)]
    # a zero at the left end of an open bracket; a closed bracket
    cases.append((lambda t, j=None: t * (t - 2.0), np.zeros(2), np.array([1.0, 0.0]), None))
    # fhi == flo, so the first false position divides by zero: an inf (of
    # either sign) that the clamp moves inside, and 0 / 0
    signs = np.array([-1.0, 1.0, 1.0])
    flat = (np.array([1.0, -1.0, 0.0]),) * 2
    cases.append((lambda t, j=slice(None): signs[j] + 0.0 * t, np.zeros(3), np.ones(3), flat))
    rng = np.random.default_rng(int(-math.log10(tol)))
    cases += [(*_seeded_brackets(rng, m), None) for m in (1, 2, 5, 8, 64, 1024)]
    for f, lo, hi, ends in cases:
        flo, fhi = ends or (f(lo), f(hi))
        with np.errstate(invalid="ignore"):
            want = bracket_roots_over_all(f, lo, hi, flo, fhi, tol)
            got, steps = _one_by_one(f, lo, hi, flo, fhi, tol)
        assert got.tobytes() == want.tobytes()
        # the mixed brackets close after different numbers of steps
        assert len(lo) < 5 or len(set(steps)) > 1
    # fc == 0 closes the half bracket on its exact zero
    assert kinematics._bracket_root(half, 0.0, 1.0, -0.5, 0.5, tol) == 0.5


def test_round_trip_random_poses(ref):
    rng = np.random.default_rng(29)
    for _ in range(200):
        pose = Pose(*random_pose_tuple(rng))
        sols = solve_fk(ref, inverse_kinematics(ref, pose))
        err = min(pose_distance(p, pose, L) for p in sols)
        assert err <= 1e-8 * L


def test_residual_invariant(ref):
    rng = np.random.default_rng(31)
    for _ in range(50):
        joints = inverse_kinematics(ref, Pose(*random_pose_tuple(rng)))
        sols = solve_fk(ref, joints)
        for pose in sols:
            legs = platform_points(ref, pose) - ref.base
            res = np.max(np.abs(np.sum(legs**2, axis=1) - joints.squared))
            assert res <= 1e-9 * L**2


def test_generic_multiplicities_are_one(ref):
    rng = np.random.default_rng(37)
    for _ in range(20):
        joints = inverse_kinematics(ref, Pose(*random_pose_tuple(rng)))
        sols = solve_fk(ref, joints)
        assert sols.multiplicities == [1] * len(sols)


def _fk_count(geom, rho):
    return solve_fk(geom, JointVector(rho)).total_multiplicity


def test_multiplicity_on_solution_count_boundary(ref):
    """Bisecting a joint segment between counts 4 and 2 lands on a tangency."""
    j_hi = REF_JOINTS.copy()  # 4 assembly modes
    rng = np.random.default_rng(41)
    j_lo = None
    for _ in range(200):
        cand = inverse_kinematics(ref, Pose(*random_pose_tuple(rng))).rho
        if _fk_count(ref, cand) == 2:
            j_lo = cand
            break
    assert j_lo is not None
    lo, hi = 0.0, 1.0  # counts: lo side 2, hi side 4
    assert _fk_count(ref, j_hi) == 4
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        rho = j_lo + mid * (j_hi - j_lo)
        if _fk_count(ref, rho) >= 4:
            hi = mid
        else:
            lo = mid
    found = False
    for lam in (lo, hi):
        rho = j_lo + lam * (j_hi - j_lo)
        sols = solve_fk(ref, JointVector(rho))
        if any(m >= 2 for m in sols.multiplicities):
            found = True
            # the merging pair sits on the locus: its measure is tiny
            for pose, m in zip(sols.solutions, sols.multiplicities):
                if m >= 2:
                    measure = parallel_singularity_measure(ref, pose, normalized=True)
                    assert abs(measure) <= 1e-4
    assert found


def test_zero_leg_polynomial_solutions(ref):
    """Forward solutions with rho_1 = 0 number at most two, via the polynomial."""
    phi = 0.83
    xy = ref.base[0] - rotation(phi) @ ref.platform[0]
    joints = inverse_kinematics(ref, Pose(xy[0], xy[1], phi))
    poly = build_fk_polynomial(ref, joints)
    sols = solve_fk(ref, joints)
    assert poly.degree <= 6
    assert sols.total_multiplicity <= 2


def test_half_turn_pole(ref):
    """Poses at phi = pi sit at the tan-half-angle pole: the polynomial
    degree drops and the direct check recovers them."""
    for pose in (Pose(1.0, 2.0, np.pi), Pose(-3.0, 5.0, np.pi)):
        joints = inverse_kinematics(ref, pose)
        poly = build_fk_polynomial(ref, joints)
        assert poly.check_phi_pi
        sols = solve_fk(ref, joints)
        assert min(pose_distance(p, pose, L) for p in sols) <= 1e-10 * L


def test_round_trip_near_half_turn(ref):
    rng = np.random.default_rng(47)
    for _ in range(100):
        pose = Pose(
            rng.uniform(-L, 2 * L), rng.uniform(-L, 2 * L), np.pi + rng.uniform(-1e-5, 1e-5)
        )
        sols = solve_fk(ref, inverse_kinematics(ref, pose))
        assert min(pose_distance(p, pose, L) for p in sols) <= 1e-8 * L


def _reference_fk_polynomial(geom, joints):
    """The per-call elimination that the compiled matrix replaced, kept as
    the reference: substitution into leg 1, convolutions, (1 + t^2)^2
    deflation and trimming, all from the joints at hand."""
    L = characteristic_scale(geom)
    u, v, w = kinematics._linear_forms(geom, joints.squared)
    sigma = 0
    phis = np.linspace(-np.pi * 0.95, np.pi * 0.95, 19)
    c, s = np.cos(phis), np.sin(phis)
    (a1, b1), (a2, b2) = ([f[0] + f[1] * c + f[2] * s for f in (u[j] - u[sigma], v[j] - v[sigma])] for j in (1, 2))
    if float(np.max(np.abs(a1 * b2 - a2 * b1))) <= 1e-10 * L**2:
        raise DegenerateElimination("singular for every orientation")

    def tan_half(form):
        p0, pc, ps = form
        return np.array([p0 + pc, 2.0 * ps, p0 - pc])

    j1, j2 = [j for j in range(3) if j != sigma]
    U, V, W = ([tan_half(f[i]) for i in range(3)] for f in (u, v, w))
    A1, B1, C1 = U[j1] - U[sigma], V[j1] - V[sigma], W[j1] - W[sigma]
    A2, B2, C2 = U[j2] - U[sigma], V[j2] - V[sigma], W[j2] - W[sigma]
    pm = np.convolve
    d_num = pm(A1, B2) - pm(A2, B1)
    x_num = pm(B1, C2) - pm(B2, C1)
    y_num = pm(A2, C1) - pm(A1, C2)
    one_plus_t2 = np.array([1.0, 0.0, 1.0])
    p10 = pm(one_plus_t2, pm(x_num, x_num) + pm(y_num, y_num))
    p10 += pm(U[sigma], pm(x_num, d_num)) + pm(V[sigma], pm(y_num, d_num)) + pm(W[sigma], pm(d_num, d_num))
    quotient, _ = npoly.polydiv(p10, one_plus_t2)
    quotient, _ = npoly.polydiv(quotient, one_plus_t2)
    keep = np.nonzero(np.abs(quotient) > TRIM_REL * np.max(np.abs(quotient)))[0]
    coeffs = quotient[: keep[-1] + 1]
    return UnivariateFkPolynomial(coeffs, len(coeffs) < 7, False)


def _random_design(rng, scale=1.0):
    base = np.asarray(REF_BASE) + rng.normal(0.0, 1.5, (3, 2))
    platform = np.asarray(REF_PLATFORM) + rng.normal(0.0, 0.5, (3, 2))
    return RobotGeometry(base * scale, platform * scale)


def test_compiled_polynomial_matches_reference_builder():
    """M @ monomials(rho^2) equals the per-call elimination to 1e-12 of the
    largest coefficient, at three scales and for poses within 1e-3 of pi."""
    rng = np.random.default_rng(61)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(8):
            geom = _random_design(rng, scale)
            for k in range(6):
                x, y, phi = random_pose_tuple(rng, REF_SCALE * scale)
                if k % 2:
                    phi = np.pi + rng.uniform(-1e-3, 1e-3)
                joints = inverse_kinematics(geom, Pose(x, y, phi))
                ref = _reference_fk_polynomial(geom, joints)
                got = build_fk_polynomial(geom, joints)
                assert (got.degree, got.check_phi_pi) == (ref.degree, ref.check_phi_pi)
                assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-12 * np.max(np.abs(ref.coeffs))


def test_fk_design_is_compiled_once(monkeypatch):
    calls = []
    compile_fk = kinematics.compile_fk
    monkeypatch.setattr(kinematics, "compile_fk", lambda geom: calls.append(geom) or compile_fk(geom))
    geom = RobotGeometry(REF_BASE, REF_PLATFORM)
    first = solve_fk(geom, JointVector(REF_JOINTS))
    design = geom.fk_design
    second = solve_fk(geom, JointVector(REF_JOINTS))
    build_fk_polynomial(geom, JointVector(REF_JOINTS * 0.9))
    assert len(calls) == 1 and geom.fk_design is design
    assert first.solutions == second.solutions
    # the degenerate verdict is cached too, and still raised on every call
    swap = RobotGeometry(base=[(0, 0), (2, 0), (0, 2)], platform=[(0, 0), (0, 2), (2, 0)])
    for _ in range(2):
        with pytest.raises(DegenerateElimination):
            build_fk_polynomial(swap, JointVector([1.0, 1.0, 1.0]))
    assert len(calls) == 2


# Zero-leg joint vectors whose generating pose the sextic path missed (the
# double root split into a complex pair outside the acceptance band), from
# the seeded fk benchmark workload, seeds 106, 39, 44 and 956052188:
# (base, platform, rho, generating pose).
ZERO_LEG_MISSES = [
    ([(1.3239289457100187, 0.4863806789422517), (10.738186461831784, -0.2531182281329962),
      (5.436288313786495, 5.712880624569269)],
     [(-1.4350812910132964, -1.142913923279683), (1.9081636040583183, -1.531234805939248),
      (-0.8148509742847219, 1.767753811906528)],
     (12.808978271921797, 0.0, 12.259063739675735),
     (12.701979682903605, -1.712325052282677, 3.178793313767026)),
    ([(1.3239289457100187, 0.4863806789422517), (10.738186461831784, -0.2531182281329962),
      (5.436288313786495, 5.712880624569269)],
     [(-1.4350812910132964, -1.142913923279683), (1.9081636040583183, -1.531234805939248),
      (-0.8148509742847219, 1.767753811906528)],
     (6.077565707494776, 0.0, 3.703879762269106),
     (8.769406125097767, 1.1993528925651489, 0.040626252485041335)),
    ([(-0.7336560693610219, -1.4959253209529408), (9.802053791105358, 0.1968935895660076),
      (3.477516840551103, 7.830025590578587)],
     [(-1.4950248192818467, -0.3146601588582846), (2.6871842512363706, -1.3595280648122854),
      (-0.16637370451288955, 2.3297980130974327)],
     (7.2733642799149365, 5.2487415741684345, 0.0),
     (3.718943988008622, 5.5068054279903285, 0.032257314295604696)),
    ([(2.1689440993414193, 0.15345770946042267), (10.490129166646131, 1.7046935919636959),
      (5.236365903651953, 8.868434765667256)],
     [(-2.1895852918603653, -1.5094367754199318), (2.188084448096634, -1.2559797547744258),
      (0.41361743274953733, 2.1056272240253877)],
     (4.079621154388222, 0.0, 5.084609366584792),
     (8.1652140347519, 2.684473325319517, 0.12224949199704171)),
    ([(2.1689440993414193, 0.15345770946042267), (10.490129166646131, 1.7046935919636959),
      (5.236365903651953, 8.868434765667256)],
     [(-2.1895852918603653, -1.5094367754199318), (2.188084448096634, -1.2559797547744258),
      (0.41361743274953733, 2.1056272240253877)],
     (4.086129605316383, 0.0, 5.083571769203688),
     (8.125862358585733, 2.5852849595738228, 0.16454837381790463)),
    ([(-1.1179415274946922, 0.40158789426174013), (11.063770712206694, 0.2662801744220474),
      (2.8261463530793813, 8.393493499509654)],
     [(-1.8214991476393454, -0.5878563120117788), (2.361017211329602, -1.4541287564838363),
      (-0.24888567810147946, 2.3028565639766665)],
     (7.911234057639838, 0.0, 6.997460191177525),
     (8.471561718607521, 1.2508334975749407, 0.18903889960297482)),
    ([(-2.0343177342787833, 0.637208074516895), (11.119572123821857, 1.32978472433697),
      (8.023920103794516, 8.391226315075649)],
     [(-1.890476748555412, -1.6282442668562314), (1.5586845882478972, -1.4961708171852774),
      (0.26569583706838373, 2.057513214589271)],
     (9.723676284960566, 0.0, 3.9291753596634864),
     (9.485730492510932, 2.7434983741379577, 0.051644894014371855)),
]


@pytest.mark.parametrize("base, platform, rho, pose", ZERO_LEG_MISSES)
def test_zero_leg_closed_form_recovers_pinned_vectors(base, platform, rho, pose):
    geom = RobotGeometry(base, platform)
    Lg = characteristic_scale(geom)
    for signed in (rho, tuple(-v for v in rho)):  # -0.0 is a zero leg too
        sols = solve_fk(geom, JointVector(signed))
        assert len(sols) <= 2 and sols.total_multiplicity <= 2
        assert min(pose_distance(p, Pose(*pose), Lg) for p in sols) <= math.sqrt(1e-9) * Lg


def test_zero_leg_parallel_lines_give_two_mirror_modes(similar_design):
    """On a similar design the two leg lines are parallel: the closed form
    cuts the circle twice, at phi and -phi, both genuine."""
    Lg = characteristic_scale(similar_design)
    for leg in range(3):
        for phi in (0.7, -2.0, 3.0):
            xy = similar_design.base[leg] - rotation(phi) @ similar_design.platform[leg]
            rho = inverse_kinematics(similar_design, Pose(xy[0], xy[1], phi)).rho.copy()
            rho[leg] = 0.0
            sols = solve_fk(similar_design, JointVector(rho))
            assert sorted(p.phi for p in sols) == pytest.approx([-abs(phi), abs(phi)], abs=1e-12)
            assert sols.multiplicities == [1, 1]
            assert min(pose_distance(p, Pose(xy[0], xy[1], phi), Lg) for p in sols) <= 1e-12 * Lg


def _matched(a, b, scale):
    """Every pose of a within 1e-6 * scale of a distinct pose of b, with
    equal multiplicities, and no pose left over."""
    if len(a) != len(b):
        return False
    left = list(zip(b.solutions, b.multiplicities))
    for p, m in zip(a.solutions, a.multiplicities):
        k = min(range(len(left)), key=lambda i: pose_distance(p, left[i][0], scale))
        if pose_distance(p, left[k][0], scale) > 1e-6 * scale or left[k][1] != m:
            return False
        left.pop(k)
    return True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    zero_leg=st.sampled_from([None, 0, 1, 2]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    theta=st.floats(-np.pi, np.pi),
    shift=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
)
def test_fk_invariant_under_scaling_and_rigid_motion(seed, zero_leg, scale, theta, shift):
    """Scaling the design and joints by s scales every solution; moving the
    world frame by (R(theta), shift) moves every solution with it."""
    rng = np.random.default_rng(seed)
    geom = _random_design(rng)
    x, y, phi = random_pose_tuple(rng)
    if zero_leg is not None:
        x, y = geom.base[zero_leg] - rotation(phi) @ geom.platform[zero_leg]
    rho = inverse_kinematics(geom, Pose(x, y, phi)).rho.copy()
    if zero_leg is not None:
        rho[zero_leg] = 0.0
    sols = solve_fk(geom, JointVector(rho))
    Lg = characteristic_scale(geom)

    scaled = solve_fk(RobotGeometry(geom.base * scale, geom.platform * scale), JointVector(rho * scale))
    unscaled = kinematics.FkSolutionSet(
        [Pose(p.x / scale, p.y / scale, p.phi) for p in scaled], scaled.residuals, scaled.multiplicities
    )
    assert _matched(sols, unscaled, Lg)

    rot, t = rotation(theta), np.asarray(shift) * REF_SCALE
    moved = solve_fk(RobotGeometry(geom.base @ rot.T + t, geom.platform), JointVector(rho))
    back = kinematics.FkSolutionSet(
        [Pose(*(rot.T @ (np.array([p.x, p.y]) - t)), p.phi - theta) for p in moved],
        moved.residuals,
        moved.multiplicities,
    )
    assert _matched(sols, back, Lg)


@pytest.mark.parametrize(
    "platform, joints, nan_row",
    [
        # a platform frame ~1e300 away: the compiled matrix overflows to NaN
        ([[1e300, 0.0], [1.1e300, 0.0], [1e300, 1e299]], None, None),
        # joint values whose squares overflow
        (REF_PLATFORM, [1e300, 1e300, 1e300], None),
        # only the t^3 coefficient is NaN, which Python's max skips
        (REF_PLATFORM, REF_JOINTS.tolist(), 3),
    ],
    ids=["far_platform", "huge_joints", "nan_middle"],
)
def test_fk_polynomial_with_non_finite_coefficients_is_a_validation_error(platform, joints, nan_row):
    """build_fk_polynomial used to raise a bare IndexError (an empty trim)."""
    geom = RobotGeometry(base=REF_BASE, platform=platform)
    if nan_row is not None:
        M = geom.fk_design.M.copy()
        M[nan_row] = np.nan
        geom.__dict__["fk_design"] = dataclasses.replace(geom.fk_design, M=M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rho = inverse_kinematics(geom, Pose(0.0, 0.0, 0.0)) if joints is None else JointVector(joints)
        for solve in (build_fk_polynomial, solve_fk):
            with pytest.raises(ValidationError, match="non-finite coefficients"):
                solve(geom, rho)


@pytest.mark.parametrize(
    "platform, joints",
    [([[1e300, 0.0], [1.1e300, 0.0], [1e300, 1e299]], [5.0, 5.0, 5.0]), (REF_PLATFORM, [1e300, 1e300, 1e300])],
    ids=["far_platform", "huge_joints"],
)
def test_oracle_fk_with_non_finite_linear_forms_is_a_validation_error(platform, joints):
    """oracle_fk used to drop every candidate of an overflowing elimination
    and return no solution; it raises as build_fk_polynomial does, with no
    RuntimeWarning on the way."""
    geom = RobotGeometry(base=REF_BASE, platform=platform)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="linear forms have non-finite coefficients"):
            oracle_fk(geom, JointVector(joints))


@pytest.mark.parametrize("grid", [100.5, 8.5, np.nan, "64", None, [64]])
def test_oracle_fk_rejects_a_grid_that_is_not_a_whole_number(ref, grid):
    """A string or another object that is not a real number is refused as a
    fractional grid is, not with a TypeError from the range check."""
    with pytest.raises(ValidationError, match="grid must be a whole number"):
        oracle_fk(ref, JointVector(REF_JOINTS), grid)


def test_oracle_fk_takes_a_whole_float_grid_as_an_int(ref):
    assert oracle_fk(ref, JointVector(REF_JOINTS), 64.0) == oracle_fk(ref, JointVector(REF_JOINTS), 64)
    assert oracle_fk(ref, JointVector(REF_JOINTS), np.int64(64)) == oracle_fk(ref, JointVector(REF_JOINTS), 64)


def test_fk_with_an_overflowing_elimination_is_a_validation_error():
    """A platform frame ~1e154 away keeps the linear forms finite while the
    residual on the sweep and the compiled matrix overflow: oracle_fk used
    to return no solution, and both raise with no RuntimeWarning."""
    geom = RobotGeometry(base=REF_BASE, platform=[[1e154, 0.0], [1.1e154, 0.0], [1e154, 1e153]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="residual is not finite along the orientation sweep"):
            oracle_fk(geom, JointVector([5.0, 5.0, 5.0]))
        with pytest.raises(ValidationError, match="non-finite coefficients"):
            solve_fk(geom, JointVector([5.0, 5.0, 5.0]))


def _reference_root_clusters(real):
    """The numpy clustering that _root_clusters replaced, kept as the reference."""
    real = np.sort(real)
    groups = np.split(real, np.flatnonzero(np.diff(real) > kinematics.ROOT_CLUSTER_RADIUS) + 1)
    return [(float(np.mean(group)), len(group)) for group in groups if len(group)]


def test_root_clusters_are_bitwise_the_numpy_clusters():
    """Seeded sets of up to six roots with clusters of two and three members,
    and gaps equal to the cluster radius and one ulp either side of it."""
    radius = kinematics.ROOT_CLUSTER_RADIUS
    gaps = [radius, np.nextafter(radius, 0.0), np.nextafter(radius, 1.0), 0.0, 0.3 * radius, 1e-3]
    # about 0.0 the gaps are exact
    sets = [[0.0, gap] for gap in gaps] + [[-gap, 0.0, gap] for gap in gaps] + [[-0.0], [-0.0, -0.0, 0.0], []]
    assert [b - a for a, b in sets[:3]] == gaps[:3]
    rng = np.random.default_rng(22)
    for _ in range(400):
        real = []
        while len(real) < 6:
            start = float(rng.uniform(-50.0, 50.0)) * float(rng.choice([1e-6, 1.0]))
            real.append(start)
            for _ in range(int(rng.integers(0, 3))):
                real.append(real[-1] + float(rng.choice(gaps)))
        sets.append(rng.permutation(real[:6]).tolist())
    for real in sets:
        got = kinematics._root_clusters(real)
        want = _reference_root_clusters(np.array(real))
        assert [n for _, n in got] == [n for _, n in want]
        assert np.array([t for t, _ in got]).tobytes() == np.array([t for t, _ in want]).tobytes()
    assert [n for _, n in kinematics._root_clusters(sets[0])] == [2]
    assert [n for _, n in kinematics._root_clusters(sets[2])] == [1, 1]


def _reference_solve_affine_xy(u, v, w, phi, L):
    """The lift with one trigonometric form per list item, kept as the reference."""
    c, s = np.cos(phi), np.sin(phi)
    (a1, b1, r1), (a2, b2, r2) = [
        [f[0] + f[1] * c + f[2] * s for f in (u[j] - u[0], v[j] - v[0], w[0] - w[j])] for j in (1, 2)
    ]
    det = a1 * b2 - a2 * b1
    full = np.abs(det) > 1e-14 * L**2
    norm = a1**2 + a2**2 + b1**2 + b2**2
    den = np.where(full, det, np.where(norm > 0.0, norm, 1.0))
    x = np.where(full, r1 * b2 - r2 * b1, a1 * r1 + a2 * r2) / den
    y = np.where(full, a1 * r2 - a2 * r1, b1 * r1 + b2 * r2) / den
    return x, y, np.abs(det)


@pytest.mark.parametrize(
    "base, platform",
    [
        (REF_BASE, REF_PLATFORM),
        # the serial points are collinear at every angle: rank one throughout
        ([(0, 0), (2, 0), (0, 2)], [(0, 0), (0, 2), (2, 0)]),
        # the serial points coincide at phi = 0, where J is zero
        (REF_BASE, REF_BASE),
    ],
    ids=["ref", "rank_one", "zero_at_0"],
)
def test_solve_affine_xy_is_bitwise_the_list_version(base, platform):
    geom = RobotGeometry(base, platform)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u, v, w = kinematics._linear_forms(geom, rng.uniform(0.0, 200.0, 3))
        for phi in (rng.uniform(-np.pi, np.pi, 7), np.array([0.0, 1.0, np.pi]), np.array([np.pi]), np.zeros(0)):
            got = kinematics._solve_affine_xy(u, v, w, phi, geom.L)
            want = _reference_solve_affine_xy(u, v, w, phi, geom.L)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize(
    "base, platform",
    [
        (REF_BASE, REF_PLATFORM),
        ([(0, 0), (2, 0), (0, 2)], [(0, 0), (0, 2), (2, 0)]),
        # the same scaled by 1.37 and turned by 0.3: rank one, not integers
        tuple(
            np.array(points) @ rotation(0.3).T
            for points in ([(0, 0), (2.74, 0), (0, 2.74)], [(0, 0), (0, 2.74), (2.74, 0)])
        ),
        (REF_BASE, REF_BASE),
        (RANDOM0["base"], RANDOM0["platform"]),
    ],
    ids=["ref", "rank_one", "rank_one_turned", "zero_at_0", "random0"],
)
def test_float_lift_gives_the_array_lift_bits(base, platform):
    """_float_solve_affine_xy on the rows of _float_rows gives the bits of
    _solve_affine_xy on the linear forms at rho^2, one angle at a time: at
    seeded angles, at 2 arctan t of seeded roots t (as solve_fk lifts
    them), and at 0 and pi; on the design and on 20 seeded moves of it."""
    rng = np.random.default_rng(29)
    for k in range(21):
        move = rng.normal(0.0, 1.0, (2, 3, 2)) if k else np.zeros((2, 3, 2))
        geom = RobotGeometry(np.add(base, move[0]), np.add(platform, move[1]))
        rho_sq = rng.uniform(0.0, 200.0, 3)
        u, v, w = kinematics._linear_forms(geom, rho_sq)
        rows = kinematics._float_rows(geom.fk_design, rho_sq.tolist())
        phis = np.concatenate([rng.uniform(-np.pi, np.pi, 20), 2.0 * np.arctan(rng.standard_cauchy(20)), [0.0, np.pi]])
        want = np.stack(kinematics._solve_affine_xy(u, v, w, phis, geom.L), axis=-1)
        got = np.array([kinematics._float_solve_affine_xy(rows, phi, geom.L) for phi in phis.tolist()])
        assert got.tobytes() == want.tobytes()


def test_companion_roots_are_bitwise_polyroots(ref):
    """_companion_roots gives npoly.polyroots' roots, in its order and
    dtype, on seeded polynomials of degree 1 to 6 scaled by 1e-5 to 1e5:
    random coefficients, products of seeded real roots, and the trimmed
    forward-kinematics polynomials of seeded joints."""
    rng = np.random.default_rng(29)
    polys = []
    for k in range(1200):
        degree = 1 + k % 6
        coeffs = rng.normal(size=degree + 1) if k % 2 else npoly.polyfromroots(rng.normal(0.0, 3.0, degree))
        polys.append(coeffs * 10.0 ** rng.uniform(-5.0, 5.0))
    for geom in (ref, RobotGeometry(RANDOM0["base"], RANDOM0["platform"])):
        for _ in range(100):
            pose = Pose(*random_pose_tuple(rng, geom.L))
            polys.append(build_fk_polynomial(geom, inverse_kinematics(geom, pose)).coeffs)
    for coeffs in polys:
        got, want = np.array(kinematics._companion_roots(coeffs)), npoly.polyroots(coeffs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_min_norm_step_is_the_least_squares_step_of_a_zero_row():
    """The live-row step equals lstsq's on the 3x3 system with a zero row,
    and there is none when the two gradients are parallel."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        p, q = rng.normal(0.0, 10.0, 4).tolist(), rng.normal(0.0, 10.0, 4).tolist()
        jac = np.array([p, [0.0] * 4, q])
        want = np.linalg.lstsq(jac[:, :3], -jac[:, 3], rcond=None)[0]
        assert np.allclose(kinematics._min_norm_step(p, q), want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))
    assert kinematics._min_norm_step([1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 6.0, 5.0]) is None


def test_zero_leg_vectors_need_no_lstsq(monkeypatch):
    """At a zero-leg start B_i = a_i, so leg i's Jacobian row is zero and the
    3x3 solve fails; the Newton step comes from the two live rows, with no
    least squares.  Seeded zero-leg vectors as in the fk benchmark workload."""

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq was called")

    live_steps = []
    min_norm_step = kinematics._min_norm_step
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(kinematics, "_min_norm_step", lambda p, q: live_steps.append(1) or min_norm_step(p, q))
    rng = np.random.default_rng(1701)
    designs = [RobotGeometry(REF_BASE, REF_PLATFORM)] + [
        RobotGeometry(np.add(REF_BASE, rng.normal(0.0, 1.5, (3, 2))), np.add(REF_PLATFORM, rng.normal(0.0, 0.5, (3, 2))))
        for _ in range(3)
    ]
    for k in range(160):
        geom = designs[k % 4]
        Lg = characteristic_scale(geom)
        leg, phi = k % 3, float(rng.uniform(0.0, 2.0 * np.pi))
        xy = geom.base[leg] - rotation(phi) @ geom.platform[leg]
        pose = Pose(float(xy[0]), float(xy[1]), phi)
        rho = inverse_kinematics(geom, pose).rho.copy()
        rho[leg] = 0.0
        sols = solve_fk(geom, JointVector(rho))
        assert len(sols) <= 2
        assert min(pose_distance(p, pose, Lg) for p in sols) <= math.sqrt(1e-9) * Lg
        for p in oracle_fk(geom, JointVector(rho)):
            assert min(pose_distance(p, q, Lg) for q in sols) <= math.sqrt(1e-9) * Lg
    assert len(live_steps) >= 10  # the zero-row step did run


def test_solve_fk_equals_the_seeded_pin():
    """solve_fk gives, bit for bit, the solution sets pinned in
    tests/data/fk_seeded_solutions.json: 240 joint vectors built as the fk
    benchmark workload builds them (seed 97), in equal thirds generic, one
    leg exactly zero and phi within 1e-3 of pi, on the reference robot and
    three seeded designs.  Poses, residuals, multiplicities and their order
    are compared exactly, so a difference names its vector."""
    pin = json.loads((pathlib.Path(__file__).parent / "data" / "fk_seeded_solutions.json").read_text())
    designs = [RobotGeometry(d["base"], d["platform"], d["name"]) for d in pin["designs"]]
    assert len(pin["vectors"]) == 240
    for k, vec in enumerate(pin["vectors"]):
        sols = solve_fk(designs[vec["design"]], JointVector(vec["joints"]))
        got = ([[p.x, p.y, p.phi] for p in sols.solutions], sols.residuals, sols.multiplicities)
        assert got == (vec["solutions"], vec["residuals"], vec["multiplicities"]), (k, vec["kind"])


def _counting_solve(monkeypatch):
    """Wrap np.linalg.solve; the list grows by one per call."""
    calls, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
    return calls


def test_newton_step_by_cofactors_agrees_with_solve(monkeypatch):
    """On 1,000 seeded well-conditioned Jacobians (condition number below
    100, entries scaled by 1e-3 to 1e3) the cofactor step agrees with
    np.linalg.solve to 1e-12 relative, without calling it."""
    rng = np.random.default_rng(31)
    cases = []
    while len(cases) < 1000:
        rows = rng.normal(size=(3, 4)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if np.linalg.cond(rows[:, :3]) < 100.0:
            cases.append((rows.tolist(), np.linalg.solve(rows[:, :3], -rows[:, 3])))
    calls = _counting_solve(monkeypatch)
    for rows, want in cases:
        got = kinematics._newton_step(rows)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * np.max(np.abs(want))
    assert calls == []


def test_newton_step_falls_back_where_the_cofactor_determinant_is_zero_or_not_finite(monkeypatch):
    """A zero row (a zero-leg start) and an exactly singular J give det 0;
    entries that are inf or NaN, or whose det overflows, a det that is not
    finite.  Each step then is np.linalg.solve's, or, where that raises,
    the live-row step or least squares."""
    p, q = [1.5, -2.0, 0.25, 3.0], [0.5, 1.0, -4.0, -1.0]
    singular = [[1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 6.0, -1.0], [1.0, 0.0, 1.0, 2.0]]
    overflow = [[1e300, 2.0, 3.0, 1.0], [4.0, 1e300, 6.0, 1.0], [7.0, 8.0, 1e300, 1.0]]
    inf = [[1.0, 2.0, 3.0, 1.0], [4.0, 5.0, 6.0, 1.0], [7.0, 8.0, math.inf, 1.0]]
    nan = [[1.0, 2.0, 3.0, 1.0], [4.0, math.nan, 6.0, 1.0], [7.0, 8.0, 10.0, 1.0]]
    solve = lambda rows: np.linalg.solve(np.array(rows)[:, :3], -np.array(rows)[:, 3]).tolist()
    lstsq = np.linalg.lstsq(np.array(singular)[:, :3], -np.array(singular)[:, 3], rcond=None)[0].tolist()
    cases = [
        ([p, [0.0] * 4, q], kinematics._min_norm_step(p, q)),
        ([[0.0] * 4, p, q], kinematics._min_norm_step(p, q)),
        ([p, q, [0.0] * 4], kinematics._min_norm_step(p, q)),
        (singular, lstsq),
        (overflow, solve(overflow)),
        (inf, solve(inf)),
        (nan, solve(nan)),
    ]
    calls = _counting_solve(monkeypatch)
    for k, (rows, want) in enumerate(cases):
        assert np.array(kinematics._newton_step(rows)).tobytes() == np.array(want).tobytes(), k
        assert len(calls) == k + 1
    assert np.all(np.isfinite(cases[4][1]))


def test_solve_is_reached_only_where_the_cofactor_determinant_is_zero_or_not_finite(monkeypatch):
    """Over the pinned seeded vectors np.linalg.solve is called only on a
    Jacobian with an exactly zero row, at a zero-leg start."""
    pin = json.loads((pathlib.Path(__file__).parent / "data" / "fk_seeded_solutions.json").read_text())
    designs = [RobotGeometry(d["base"], d["platform"], d["name"]) for d in pin["designs"]]
    jacobians, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: jacobians.append(a.copy()) or solve(a, b))
    for vec in pin["vectors"]:
        solve_fk(designs[vec["design"]], JointVector(vec["joints"]))
    assert jacobians
    assert all(np.any(np.all(jac == 0.0, axis=1)) for jac in jacobians)


def _reference_assemble_solution_set(entries, L):
    """The assembly on Pose objects that _assemble_solution_set replaced,
    kept as the reference: ``entries`` are (Pose, residual, multiplicity)."""
    merged = []
    entries = [(Pose(p.x, p.y, wrap_angle(p.phi)), r, m) for p, r, m in entries]
    for pose, resid, mult in entries:
        for item in merged:
            if pose_distance(pose, item[0], L) < kinematics.DEDUP_REL * L:
                item[2] += mult
                if resid < item[1]:
                    item[0], item[1] = pose, resid
                break
        else:
            merged.append([pose, resid, mult])
    merged.sort(key=lambda it: (wrap_angle(it[0].phi), it[0].x, it[0].y))
    return kinematics.FkSolutionSet(*([it[k] for it in merged] for k in range(3)))


def test_float_assembly_gives_the_pose_assembly_bits():
    """_assemble_solution_set on (x, y, phi) floats gives the bits of the
    Pose-based reference on seeded candidate sets: pairs whose distance
    straddles DEDUP_REL * L within a few ulps (among them pairs on which
    np.hypot and math.hypot disagree about the bound), angles at and
    across +-pi, equal angles whose order falls to x and y, and residual
    ties."""
    rng = np.random.default_rng(31)
    pi = math.pi
    angles = [pi, -pi, 3 * pi, -3 * pi, np.nextafter(pi, 0.0), np.nextafter(-pi, 0.0), 0.0, -0.0, 1.0]
    sets, disagree = [], 0
    for L in (1e-3, 1.0, 10.0, 1e3):
        tol = kinematics.DEDUP_REL * L
        n = 5000
        x0, y0 = tol * rng.uniform(-2.0, 2.0, (2, n))
        theta, ulps = rng.uniform(0.0, 2.0 * pi, n), rng.integers(-2, 3, n)
        r = tol * (1.0 + ulps * 2.0**-53)
        dx, dy = (x0 + r * np.cos(theta)) - x0, (y0 + r * np.sin(theta)) - y0
        split = [(float(np.hypot(a, b)) < tol) != (math.hypot(a, b) < tol) for a, b in zip(dx.tolist(), dy.tolist())]
        disagree += sum(split)
        for k in np.flatnonzero(split).tolist() + list(range(100)):
            phi = float(rng.choice(angles))
            first = (float(x0[k]), float(y0[k]), phi)
            second = (float(x0[k] + dx[k]), float(y0[k] + dy[k]), phi + float(rng.choice([0.0, 2 * pi, -2 * pi])))
            sets.append((L, [(first, 1e-12, 1), (second, float(rng.choice([1e-12, 5e-13, 2e-12])), 2)]))
        for _ in range(100):
            # candidates on a few angles near and across +-pi, with ties in phi
            phis = rng.choice([pi, -pi, pi - 0.5 * tol / L, -pi + 0.5 * tol / L, pi - 3 * tol / L, 0.5], 6)
            xy = rng.choice([0.0, 0.5 * tol, 3 * tol, -2 * tol, L], (6, 2))
            res = rng.choice([1e-14, 2e-14, 1e-14], 6)
            sets.append((L, [((float(a), float(b), float(c)), float(d), 1) for (a, b), c, d in zip(xy, phis, res)]))
    assert disagree >= 5
    for L, entries in sets:
        got = kinematics._assemble_solution_set(entries, L)
        want = _reference_assemble_solution_set([(Pose(*p), r, m) for p, r, m in entries], L)
        poses = [np.array([p.as_tuple() for p in sols.solutions]).tobytes() for sols in (got, want)]
        assert poses[0] == poses[1], entries
        assert (got.residuals, got.multiplicities) == (want.residuals, want.multiplicities)
