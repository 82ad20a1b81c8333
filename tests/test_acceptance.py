"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
All tolerances are fixed here, relative to the characteristic scale L of the
reference design (base (0,0),(10,0),(4,8); platform (-2,-1),(2,-1),(0,2)).
"""
import json
import time

import numpy as np

from planar_rpr import (
    ArchitecturalSingularity,
    JointVector,
    Pose,
    RobotGeometry,
    WorkspacePath,
    classify_configuration,
    detect_crossings,
    inverse_kinematics,
    is_architecturally_singular,
    oracle_fk,
    passage_safety,
    plan_mode_change,
    pose_distance,
    serial_points,
    singularity_conic,
    solve_fk,
    unnormalized_determinant,
    verify_mode_change,
)
from planar_rpr.cli import main
from planar_rpr.model import rotation

from conftest import REF_BASE, REF_SCALE, random_pose_tuple

L = REF_SCALE


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_round_trip(ref):
    rng = np.random.default_rng(1001)
    failures = 0
    worst = 0.0
    for _ in range(1000):
        pose = Pose(*random_pose_tuple(rng))
        sols = solve_fk(ref, inverse_kinematics(ref, pose))
        err_pos = min(np.hypot(p.x - pose.x, p.y - pose.y) for p in sols) if len(sols) else np.inf
        err_all = min(pose_distance(p, pose, L) for p in sols) if len(sols) else np.inf
        worst = max(worst, err_all)
        # position within 1e-8*L and angle within 1e-8 rad
        ok = any(
            np.hypot(p.x - pose.x, p.y - pose.y) <= 1e-8 * L
            and abs(np.remainder(p.phi - pose.phi + np.pi, 2 * np.pi) - np.pi) <= 1e-8
            for p in sols
        )
        failures += 0 if ok else 1
    _report(1, failures == 0, f"1000 FK(IK) round trips, {failures} failures, worst pose error {worst:.2e}")


def test_criterion_2_oracle_equivalence(ref):
    rng = np.random.default_rng(1002)
    bad = 0
    max_count = 0
    for _ in range(100):
        joints = inverse_kinematics(ref, Pose(*random_pose_tuple(rng)))
        a = solve_fk(ref, joints)
        b = oracle_fk(ref, joints, grid=4096)
        max_count = max(max_count, a.total_multiplicity, len(b))
        if len(a) != len(b):
            bad += 1
            continue
        if any(pose_distance(p, q, L) > 1e-6 * L for p, q in zip(a.solutions, b.solutions)):
            bad += 1
    _report(
        2,
        bad == 0 and max_count <= 6,
        f"100 joint vectors, solver == oracle(4096) in every case, max count {max_count} <= 6",
    )


def test_criterion_3_zero_leg_collapse(ref):
    rng = np.random.default_rng(1003)
    worst = 0
    for k in range(100):
        if k % 2 == 0:
            # feasible: a pose with B1 exactly on A1
            phi = rng.uniform(0, 2 * np.pi)
            xy = ref.base[0] - rotation(phi) @ ref.platform[0]
            joints = inverse_kinematics(ref, Pose(xy[0], xy[1], phi))
        else:
            joints = JointVector([0.0, rng.uniform(0.2, 2.5) * L, rng.uniform(0.2, 2.5) * L])
        assert joints.rho[0] == 0.0
        worst = max(worst, solve_fk(ref, joints).total_multiplicity)
    _report(3, worst <= 2, f"100 zero-leg joint vectors, max solution count {worst} <= 2")


def test_criterion_4_conic_structure(ref):
    rng = np.random.default_rng(1004)
    center = ref.base.mean(axis=0)
    worst_cubic = 0.0
    worst_serial = 0.0
    for phi in rng.uniform(0, 2 * np.pi, size=10):
        pts = center + rng.uniform(-2 * L, 2 * L, size=(60, 2))
        xs, ys = (pts[:, 0] - center[0]) / L, (pts[:, 1] - center[1]) / L
        vals = np.array([unnormalized_determinant(ref, Pose(x, y, phi)) for x, y in pts])
        design = np.column_stack(
            [xs**3, xs**2 * ys, xs * ys**2, ys**3,
             xs**2, xs * ys, ys**2, xs, ys, np.ones_like(xs)]
        )
        coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
        ratio = np.max(np.abs(coeffs[:4])) / np.max(np.abs(coeffs[4:7]))
        worst_cubic = max(worst_cubic, ratio)

        conic = singularity_conic(ref, phi)
        scale = np.max(np.abs(conic.coefficients))
        for p in conic.serial_points:
            worst_serial = max(worst_serial, abs(conic.evaluate(*p)) / scale)
    _report(
        4,
        worst_cubic <= 1e-10 and worst_serial <= 1e-9,
        f"10 orientations: cubic/quadratic coefficient ratio {worst_cubic:.2e} <= 1e-10, "
        f"serial-point residual {worst_serial:.2e} <= 1e-9",
    )


def test_criterion_5_classification(ref):
    # (a) bisected conic point far from every serial point -> parallel_singular
    f = lambda y: unnormalized_determinant(ref, Pose(-5.0, y, 0.0))
    lo, hi, flo = 0.0, 2.0, f(0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < 1e-17:
            lo = hi = mid
            break
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    pose = Pose(-5.0, 0.5 * (lo + hi), 0.0)
    sp = serial_points(ref, 0.0)
    far = all(np.hypot(pose.x - p[0], pose.y - p[1]) >= 0.5 * L for p in sp)
    a_ok = far and classify_configuration(ref, pose).kind == "parallel_singular"

    # (b) the zero-leg pose is serial with positive clearance
    c = classify_configuration(ref, Pose(2, 1, 0))
    b_ok = c.kind == "serial_singular" and c.singular_legs == (1,) and c.clearance > 0

    # (c) matching one platform angle to the base angle flips passage safety
    theta = np.arctan(2)
    matched = RobotGeometry(
        base=REF_BASE, platform=[(0, 0), (3, 0), (1.5 * np.cos(theta), 1.5 * np.sin(theta))]
    )
    safe = passage_safety(matched)
    c_ok = (not safe[0]) and safe[1] and safe[2]

    _report(
        5,
        a_ok and b_ok and c_ok,
        f"bisected locus point parallel_singular: {a_ok}; serial pose clearance "
        f"{c.clearance:.3f} > 0: {b_ok}; angle-matched leg unsafe: {c_ok}",
    )


def test_criterion_6_architectural_gate(similar_design):
    flagged, detail = is_architecturally_singular(similar_design)
    rejected = False
    try:
        singularity_conic(similar_design, 0.25)
    except ArchitecturalSingularity:
        rejected = True
    _report(6, flagged and rejected, f"similar-triangle design flagged ({detail}) and conic fit rejected")


def test_criterion_7_mode_change_demo(ref):
    t0 = time.time()
    path = plan_mode_change(ref, Pose(0, 0, 0), resolution=(64, 64, 64))
    elapsed = time.time() - t0
    cert = verify_mode_change(ref, path)
    sq_err = float(np.max(np.abs(cert.start_joints_sq - cert.end_joints_sq)))
    dist = pose_distance(cert.start_pose, cert.end_pose, L)
    passages = sum(e.kind == "passage" for e in cert.events)
    parallels = sum(e.kind == "parallel" for e in cert.events)
    sols = solve_fk(ref, JointVector(np.sqrt(cert.start_joints_sq)))
    endpoints_found = all(
        any(pose_distance(p, e, L) <= 1e-6 * L for p in sols)
        for e in (cert.start_pose, cert.end_pose)
    )
    ok = (
        cert.verdict == "changed_without_parallel"
        and sq_err <= 1e-9 * L**2
        and dist >= 1e-3 * L
        and passages >= 1
        and parallels == 0
        and endpoints_found
        and elapsed <= 30.0
    )
    _report(
        7,
        ok,
        f"verdict={cert.verdict}, |d rho^2|={sq_err:.2e}, endpoint distance={dist:.2f}, "
        f"{passages} passage / {parallels} parallel events, endpoints in FK set: "
        f"{endpoints_found}, planned in {elapsed:.1f}s <= 30s",
    )


def test_criterion_8_parallel_contrast(ref):
    path = WorkspacePath((Pose(-5, 0, 0), Pose(-5, 2, 0)), 16)
    events = detect_crossings(ref, path)
    cert = verify_mode_change(ref, path)
    parallels = [e for e in events if e.kind == "parallel"]
    ok = len(events) == 1 and len(parallels) == 1 and cert.verdict != "changed_without_parallel"
    _report(
        8,
        ok,
        f"constant-phi crossing far from serial points: {len(parallels)} parallel event, "
        f"verdict={cert.verdict} (never changed_without_parallel)",
    )


def test_randomized_designs():
    """Desk-scale randomized designs: round trips and oracle agreement hold
    beyond the reference geometry."""
    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 5:
        base = rng.uniform(-5, 5, size=(3, 2))
        platform = rng.uniform(-2, 2, size=(3, 2))
        geom = RobotGeometry(base=base, platform=platform)
        if is_architecturally_singular(geom)[0]:
            continue
        L = max(np.hypot(*(base[i] - base[j])) for i in range(3) for j in range(i))
        checked += 1
        for _ in range(40):
            pose = Pose(
                rng.uniform(-L, 2 * L), rng.uniform(-L, 2 * L), rng.uniform(0, 2 * np.pi)
            )
            joints = inverse_kinematics(geom, pose)
            sols = solve_fk(geom, joints)
            assert sols.total_multiplicity <= 6
            assert min(pose_distance(p, pose, L) for p in sols) <= 1e-8 * L
        for _ in range(10):
            pose = Pose(
                rng.uniform(-L, 2 * L), rng.uniform(-L, 2 * L), rng.uniform(0, 2 * np.pi)
            )
            joints = inverse_kinematics(geom, pose)
            a, b = solve_fk(geom, joints), oracle_fk(geom, joints, grid=4096)
            assert len(a) == len(b)
            assert all(pose_distance(p, q, L) <= 1e-6 * L for p, q in zip(a.solutions, b.solutions))
    print("PASS randomized designs: 5 random geometries, 200 round trips, 50 oracle matches")


def test_criterion_9_determinism(ref_file, capfd):
    joints = "2.23606797749979,8.06225774829855,7.211102550927978"
    outputs = []
    for _ in range(2):
        assert main(["oracle-fk", "--robot", str(ref_file), "--joints", joints, "--grid", "4096"]) == 0
        outputs.append(capfd.readouterr().out)
    fk_same = outputs[0] == outputs[1]

    plans = []
    for _ in range(2):
        assert main(["plan", "--robot", str(ref_file), "--start", "0,0,0"]) == 0
        plans.append(capfd.readouterr().out)
    plan_same = plans[0] == plans[1] and json.loads(plans[0])["waypoints"]
    _report(
        9,
        fk_same and bool(plan_same),
        f"repeated oracle-fk byte-identical: {fk_same}; repeated plan byte-identical: "
        f"{plans[0] == plans[1]}",
    )
