import collections
import heapq
import itertools
import json
import math
import pathlib
import types
import warnings

import numpy as np
import pytest

from planar_rpr import (
    AmbiguousContinuation,
    ArchitecturalSingularity,
    InvalidStart,
    JointVector,
    NoPathFound,
    Pose,
    RobotGeometry,
    SerialDegenerate,
    ValidationError,
    WorkspacePath,
    continue_joints,
    detect_crossings,
    inverse_kinematics,
    parallel_singularity_measure,
    plan_mode_change,
    platform_points,
    pose_distance,
    solve_fk,
    unnormalized_determinant,
    verify_mode_change,
)
from planar_rpr import modeplan
from planar_rpr.model import characteristic_scale, rotation, wrap_angle
from planar_rpr.modeplan import (
    EPS_PASS_REL,
    ZERO_TOUCH_REL,
    ModeChangeCertificate,
    _TwoEndedSearch,
    _axis_edge_scan,
    _cell_corners,
    _classify_zeros,
    _grid_route,
    _node_signs,
    _nonzero,
    _padded_masks,
    _segments_crossings,
    _serial_doors,
)
from planar_rpr.singularity import (
    _float_leg_det,
    _float_leg_vectors,
    _leg_det,
    _leg_geometry,
    _leg_vectors,
    _line_measure,
    _pose_geometry,
    classify_configuration,
    is_architecturally_singular,
    leg_lines,
    passage_safety,
    serial_points,
    singularity_conic,
)

from conftest import REF_BASE, REF_PLATFORM, REF_SCALE, bracket_roots_over_all

L = REF_SCALE
DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def planned(ref):
    """One shared planner run; several tests inspect it."""
    path = plan_mode_change(ref, Pose(0, 0, 0))
    return path, verify_mode_change(ref, path)


def test_path_needs_two_waypoints():
    with pytest.raises(ValidationError):
        WorkspacePath((Pose(0, 0, 0),))
    with pytest.raises(ValidationError):
        WorkspacePath((Pose(0, 0, 0), Pose(1, 0, 0)), samples_per_segment=4)


@pytest.mark.parametrize("samples", [16.5, 20.5, np.nan, np.inf, "20", None, b"20"])
def test_path_rejects_sample_counts_that_are_not_whole_numbers(samples):
    """A fractional count is an error at construction, not a TypeError
    when the path is sampled; so is a count that is not a real number,
    such as a string, not a TypeError from the range check."""
    with pytest.raises(ValidationError, match="samples_per_segment must be a whole number"):
        WorkspacePath((Pose(0, 0, 0), Pose(1, 0, 0)), samples_per_segment=samples)


def test_path_rejects_waypoints_that_are_not_poses():
    """Tuples were an AttributeError when the path read their coordinates."""
    with pytest.raises(ValidationError, match="waypoints must be Pose objects"):
        WorkspacePath(((0, 0, 0), (1, 0, 0)))
    with pytest.raises(ValidationError, match="waypoints must be Pose objects"):
        WorkspacePath((Pose(0, 0, 0), (1, 0, 0)))


def test_path_takes_a_whole_float_sample_count_as_an_int(ref):
    """samples_per_segment=20.0 gives the path, crossings and certificate
    of samples_per_segment=20."""
    waypoints = (Pose(0.0, 0.0, 0.0), Pose(5.0, 5.0, 0.0), Pose(2.0, 3.0, 1.0))
    path, whole = WorkspacePath(waypoints, 20.0), WorkspacePath(waypoints, 20)
    assert path == whole and type(path.samples_per_segment) is int
    assert detect_crossings(ref, path) == detect_crossings(ref, whole)
    assert verify_mode_change(ref, path).to_dict() == verify_mode_change(ref, whole).to_dict()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_path_rejects_non_finite_waypoints(bad):
    with pytest.raises(ValidationError, match="finite"):
        WorkspacePath((Pose(0, 0, 0), Pose(1, bad, 0)))


def test_pose_interpolation_wraps_phi():
    path = WorkspacePath((Pose(0, 0, 0.1), Pose(0, 0, 2 * np.pi - 0.1)), 16)
    mid = path.pose_at(0.5)
    assert mid.phi == pytest.approx(0.0)  # short way through zero


def _scalar_pose(waypoints, t):
    """The scalar interpolation formula of WorkspacePath.pose_at in 0.1.0."""
    n = len(waypoints) - 1
    t = min(max(float(t), 0.0), 1.0)
    k = min(int(t * n), n - 1)
    s = t * n - k
    a, b = waypoints[k], waypoints[k + 1]
    return (a.x + s * (b.x - a.x), a.y + s * (b.y - a.y), a.phi + s * wrap_angle(b.phi - a.phi))


def _scalar_poses(paths, ts, rows):
    """_scalar_pose at each parameter of ``ts`` on its row of ``rows`` of
    ``paths`` (1-D arrays), as an (m, 3) array."""
    out = []
    for t, r in zip(ts.tolist(), rows.tolist()):
        out.append(_scalar_pose([Pose(*p) for p in paths.table[r].tolist()], t))
    return np.array(out).reshape(-1, 3)


def test_poses_at_matches_pose_at_bitwise():
    # phi wraps across pi on the first segment and across 0 on the last
    path = WorkspacePath(
        (Pose(0, 0, 3.0), Pose(4.5, -1.25, -3.0), Pose(-2.0, 7.0, 0.1), Pose(1.0, 1.0, 2 * np.pi - 0.1)),
        16,
    )
    ts = np.concatenate([
        [-0.5, -1e-300, 0.0, 1.0, 1.5, 1 / 3, 2 / 3, np.nextafter(1 / 3, 0.0)],
        np.linspace(0.0, 1.0, 97),
        np.random.default_rng(5).uniform(0.0, 1.0, 200),
    ])
    x, y, phi = path.poses_at(ts)
    arrays = np.column_stack([x, y, phi])
    scalar = np.array([path.pose_at(t).as_tuple() for t in ts])
    reference = np.array([_scalar_pose(path.waypoints, t) for t in ts])
    assert arrays.tobytes() == scalar.tobytes() == reference.tobytes()
    # any array shape comes back in the same shape
    assert path.poses_at(ts[:12].reshape(3, 4))[2].shape == (3, 4)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_measure_trace_matches_pointwise_measure(scale):
    """The verifier's trace and parallel_singularity_measure share one definition."""
    geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
    # the first segment runs through the serial point of leg 1, (2, 1) * scale
    waypoints = (Pose(4 * scale, 2 * scale, 0.0), Pose(0.0, 0.0, 0.0), Pose(-3 * scale, 5 * scale, 1.0))
    path = WorkspacePath(waypoints, 16)
    cert = verify_mode_change(geom, path)
    serial = 0
    for t, measure in zip(cert.joint_path.ts, cert.measure_trace):
        try:
            expected = abs(parallel_singularity_measure(geom, path.pose_at(t), normalized=True))
        except SerialDegenerate:
            assert np.isnan(measure)
            serial += 1
            continue
        assert measure == expected
    assert 0 < serial < len(cert.measure_trace)


def test_duplicate_waypoints_rejected(ref):
    path = WorkspacePath((Pose(0, 0, 0), Pose(0, 0, 1e-12), Pose(1, 1, 0)), 16)
    with pytest.raises(ValidationError):
        detect_crossings(ref, path)
    with pytest.raises(ValidationError):
        continue_joints(ref, path)


def test_continuation_through_serial_point(ref):
    path = WorkspacePath((Pose(4, 2, 0), Pose(0, 0, 0)), 16)
    jp = continue_joints(ref, path)
    assert jp.rho[0, 0] == pytest.approx(np.sqrt(5))
    assert jp.rho[-1, 0] == pytest.approx(-np.sqrt(5))
    assert jp.sign_flips == ((0.5, 1),)
    # the other two legs never flip
    assert np.all(jp.rho[:, 1] > 0) and np.all(jp.rho[:, 2] > 0)


def test_continuation_no_zero_no_flip(ref):
    jp = continue_joints(ref, WorkspacePath((Pose(0, 0, 0), Pose(1, 1, 0.3)), 16))
    assert jp.sign_flips == ()
    assert np.all(jp.rho > 0)


def _tangential_touch_path(geom, phi_star=0.3, w=0.3):
    """Straight segment whose leg-1 length touches zero with zero velocity.

    Midpoint at the serial point S_1(phi*); the (x, y) direction cancels the
    rotational velocity of B_1 there, so the approach is tangential.
    """
    b1 = geom.platform[0]
    s = geom.base[0] - rotation(phi_star) @ b1
    c, sn = np.cos(phi_star), np.sin(phi_star)
    rot_vel = np.array([-sn * b1[0] - c * b1[1], c * b1[0] - sn * b1[1]])
    v = -w * rot_vel
    return WorkspacePath(
        (
            Pose(s[0] - v[0], s[1] - v[1], phi_star - w),
            Pose(s[0] + v[0], s[1] + v[1], phi_star + w),
        ),
        16,
    )


def test_continuation_finds_every_serial_flip(ref):
    """200 seeded segments through a serial point S_i(phi) at a known t:
    every one reports leg i's flip within 1e-9 of that t.  Half keep phi
    fixed, half turn it by up to 0.3 over the segment."""
    rng = np.random.default_rng(20261018)
    for n in range(200):
        leg, phi0, heading = int(rng.integers(3)), rng.uniform(-np.pi, np.pi), rng.uniform(0, 2 * np.pi)
        length, t0 = rng.uniform(2.0, 8.0), rng.uniform(0.05, 0.95)
        dphi = rng.uniform(-0.3, 0.3) if n % 2 else 0.0
        s = ref.base[leg] - rotation(phi0) @ ref.platform[leg]
        d = length * np.array([np.cos(heading), np.sin(heading)])
        path = WorkspacePath(
            (Pose(*(s - t0 * d), phi0 - t0 * dphi), Pose(*(s + (1 - t0) * d), phi0 + (1 - t0) * dphi))
        )
        flips = [t for t, lg in continue_joints(ref, path).sign_flips if lg == leg + 1]
        assert flips and min(abs(t - t0) for t in flips) <= 1e-9, (n, flips, t0)


@pytest.mark.parametrize("band_multiple, flips", [(0.5, True), (2.0, False)])
def test_continuation_near_band_pair(ref, band_multiple, flips):
    """A constant-phi segment passing S_1(0.83) at a distance of 0.5x the
    zero band flips leg 1 at t = 5/7; at 2x the band it is a near miss."""
    s, phi = np.array([0.6118201490325716, 2.1507385022911922]), 0.83
    u = np.array([1.2, 0.52])
    off = band_multiple * ZERO_TOUCH_REL * L * np.array([-u[1], u[0]]) / np.hypot(*u)
    jp = continue_joints(ref, WorkspacePath((Pose(*(s - 2.5 * u + off), phi), Pose(*(s + u + off), phi))))
    if flips:
        assert len(jp.sign_flips) == 1 and jp.sign_flips[0][1] == 1
        assert jp.sign_flips[0][0] == pytest.approx(5 / 7, abs=1e-9)
    else:
        assert jp.sign_flips == ()


def test_continuation_tangential_touch_is_ambiguous(ref):
    with pytest.raises(AmbiguousContinuation):
        continue_joints(ref, _tangential_touch_path(ref))


def test_detect_crossing_passage(ref):
    path = WorkspacePath((Pose(4, 2, 0), Pose(0, 0, 0)), 16)
    events = detect_crossings(ref, path)
    assert len(events) == 1
    e = events[0]
    assert e.kind == "passage" and e.leg == 1
    assert e.t == pytest.approx(0.5, abs=1e-9)
    assert e.clearance_at == pytest.approx(0.8)


def test_detect_crossing_parallel(ref):
    # constant-phi segment crossing the locus far from every serial point
    path = WorkspacePath((Pose(-5, 0, 0), Pose(-5, 2, 0)), 16)
    events = detect_crossings(ref, path)
    assert len(events) == 1
    assert events[0].kind == "parallel"
    assert events[0].leg is None


def test_detect_crossing_none(ref):
    # at phi = 0 the locus is y = 1 union x + 2y = 16; this segment stays clear
    path = WorkspacePath((Pose(0, 0, 0), Pose(1, 0.5, 0)), 16)
    assert detect_crossings(ref, path) == []


def test_verify_closed_loop_no_change(ref):
    path = WorkspacePath((Pose(0, 0, 0), Pose(1, 1, 0.2), Pose(0, 0, 0)), 16)
    cert = verify_mode_change(ref, path)
    assert cert.verdict == "no_change"


def test_verify_parallel_crossing_never_clean(ref):
    path = WorkspacePath((Pose(-5, 0, 0), Pose(-5, 2, 0)), 16)
    cert = verify_mode_change(ref, path)
    assert cert.verdict != "changed_without_parallel"
    assert any(e.kind == "parallel" for e in cert.events)


def test_verify_ambiguous_is_invalid(ref):
    cert = verify_mode_change(ref, _tangential_touch_path(ref))
    assert cert.verdict == "invalid_endpoints"
    assert cert.diagnostic


def test_planner_end_to_end(ref, planned):
    path, cert = planned
    assert cert.verdict == "changed_without_parallel"
    assert np.max(np.abs(cert.start_joints_sq - cert.end_joints_sq)) <= 1e-9 * L**2
    assert pose_distance(cert.start_pose, cert.end_pose, L) >= 1e-3 * L
    assert sum(e.kind == "passage" for e in cert.events) >= 1
    assert sum(e.kind == "parallel" for e in cert.events) == 0


def test_planner_certificate_soundness(ref, planned):
    """Both endpoint poses re-appear in the forward solutions of the shared
    squared joint vector."""
    _, cert = planned
    sols = solve_fk(ref, JointVector(np.sqrt(cert.start_joints_sq)))
    for endpoint in (cert.start_pose, cert.end_pose):
        assert any(pose_distance(p, endpoint, L) <= 1e-6 * L for p in sols)


def test_event_count_parity(ref, planned):
    path, cert = planned
    s0 = np.sign(unnormalized_determinant(ref, cert.start_pose))
    s1 = np.sign(unnormalized_determinant(ref, cert.end_pose))
    changes = sum(e.kind in ("passage", "parallel") for e in cert.events)
    assert changes % 2 == (0 if s0 == s1 else 1)


def test_reversal_symmetry(ref, planned):
    path, cert = planned
    reverse = WorkspacePath(tuple(reversed(path.waypoints)), path.samples_per_segment)
    rcert = verify_mode_change(ref, reverse)
    assert rcert.verdict == cert.verdict
    fwd = sorted(e.t for e in cert.events)
    bwd = sorted(1.0 - e.t for e in rcert.events)
    assert len(fwd) == len(bwd)
    assert np.allclose(fwd, bwd, atol=1e-6)


@pytest.mark.parametrize("start", [(5, 5, 0), (0, 0, 0), (3, 2, 1), (6, 4, -2)])
def test_plan_verdict_invariant_under_leg_permutation_and_mirror(start):
    """The reference robot at 24^3 with its legs in every order, and mirrored
    by y -> -y (box and start mirrored too), plans from the same start to a
    path that verifies changed_without_parallel through as many passages."""
    base, platform = np.asarray(REF_BASE, dtype=float), np.asarray(REF_PLATFORM, dtype=float)
    x, y, phi = start
    orders = [list(p) for p in itertools.permutations(range(3))]
    variants = [(RobotGeometry(base[p], platform[p]), Pose(*start), None) for p in orders]
    variants.append((RobotGeometry(base * [1, -1], platform * [1, -1]), Pose(x, -y, -phi), (-L, -2 * L, 2 * L, L)))
    passages = set()
    for geom, pose, box in variants:
        cert = verify_mode_change(geom, plan_mode_change(geom, pose, box=box, resolution=(24, 24, 24)))
        assert cert.verdict == "changed_without_parallel"
        passages.add(sum(e.kind == "passage" for e in cert.events))
    assert len(passages) == 1


def test_refinement_keeps_parallel_events(ref):
    path16 = WorkspacePath((Pose(-5, 0, 0), Pose(-5, 2, 0)), 16)
    path32 = WorkspacePath((Pose(-5, 0, 0), Pose(-5, 2, 0)), 32)
    n16 = sum(e.kind == "parallel" for e in detect_crossings(ref, path16))
    n32 = sum(e.kind == "parallel" for e in detect_crossings(ref, path32))
    assert n32 >= n16 == 1


def test_planner_rejects_singular_start(ref):
    # bisect a parallel-singular pose on the constant-phi locus
    f = lambda y: unnormalized_determinant(ref, Pose(-5.0, y, 0.0))
    lo, hi = 0.0, 2.0
    flo = f(lo)
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
    singular_start = Pose(-5.0, 0.5 * (lo + hi), 0.0)
    with pytest.raises(InvalidStart):
        plan_mode_change(ref, singular_start)


def test_planner_rejects_out_of_box_start(ref):
    with pytest.raises(InvalidStart):
        plan_mode_change(ref, Pose(100.0, 0.0, 0.0))


def test_planner_rejects_zero_width_box(ref):
    # every grid x coincides, so x-edges would have zero length
    with pytest.raises(ValidationError, match="positive extent"):
        plan_mode_change(ref, Pose(0, 0, 0), Pose(0, 5, 0), box=(0, -10, 0, 20), resolution=(8, 8, 8))


@pytest.mark.parametrize(
    "resolution", [(16.9, 16, 16), (16, 16.5, 16), (16, 16, float("nan")), ("16", "16", "16"), (16, None, 16)]
)
def test_planner_rejects_resolutions_that_are_not_whole_numbers(ref, resolution):
    """A fractional resolution is an error, not a grid of its integer part,
    and so is one that is not a real number: string counts were accepted,
    as no other count is."""
    with pytest.raises(ValidationError, match="resolution must be whole numbers"):
        plan_mode_change(ref, Pose(5, 5, 0), resolution=resolution)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"resolution": (16, 16)}, "resolution must have 3 entries, got \\(16, 16\\)"),
        ({"resolution": (16, 16, 16, 16)}, "resolution must have 3 entries"),
        ({"box": (0, 0, 10)}, "box must have 4 entries, got \\(0, 0, 10\\)"),
        ({"box": 10}, "box must have 4 entries, got 10"),
        ({"box": ("a", 0, 10, 10)}, "box must have finite corners and extent"),
        ({"box": ("0", "0", "10", "10")}, "box must have finite corners and extent"),
        ({"eps_pass": "0.01"}, "eps_pass must be positive and finite"),
    ],
)
def test_planner_arguments_of_a_wrong_length_or_type_are_validation_errors(ref, kwargs, message, monkeypatch):
    """Each names its argument, before any kinematics; they were a bare
    ValueError from unpacking or float() or a TypeError from a comparison,
    and a box of strings was accepted."""

    def kinematics_ran(*args, **kwargs):
        raise AssertionError("kinematics ran before the argument checks")

    monkeypatch.setattr(modeplan, "classify_configuration", kinematics_ran)
    with pytest.raises(ValidationError, match=message):
        plan_mode_change(ref, Pose(5, 5, 0), **kwargs)


def test_planner_takes_whole_float_and_numpy_resolutions_as_ints(ref):
    """resolution=(np.int64(16), 16.0, 16) gives the plan of (16, 16, 16)."""
    whole = plan_mode_change(ref, Pose(5, 5, 0), resolution=(16, 16, 16))
    assert plan_mode_change(ref, Pose(5, 5, 0), resolution=(np.int64(16), 16.0, 16)) == whole


def test_planner_validates_box_and_resolution_before_kinematics(ref, monkeypatch):
    def kinematics_ran(*args, **kwargs):
        raise AssertionError("kinematics ran before the box and resolution checks")

    for name in ("classify_configuration", "solve_fk", "inverse_kinematics"):
        monkeypatch.setattr(modeplan, name, kinematics_ran)
    # a property outranks the value that a cached property stored on ref
    for name in ("architectural_singularity", "passage_safe"):
        monkeypatch.setattr(RobotGeometry, name, property(kinematics_ran))
    start = Pose(5, 5, 0)
    with pytest.raises(ValidationError, match="box must have positive extent"):
        plan_mode_change(ref, start, box=(2, 2, 1, 1))
    with pytest.raises(ValidationError, match="resolution must be at least 8 per axis"):
        plan_mode_change(ref, start, resolution=(4, 64, 64))
    with pytest.raises(ValidationError, match="more than 10,000,000 grid nodes"):
        plan_mode_change(ref, start, resolution=(1000, 1000, 1000))


@pytest.mark.parametrize("eps_pass", [np.inf, np.nan, 0.0, -1.0])
def test_library_rejects_an_eps_pass_that_is_not_positive_and_finite(ref, eps_pass):
    """The library applies RunConfig's rule for its override: an infinite
    window would call the hidden pair's two parallel crossings passages."""
    wps = json.loads((DATA / "verify_path_hidden_pair.json").read_text())["waypoints"]
    path = WorkspacePath(tuple(Pose(w["x"], w["y"], w["phi"]) for w in wps))
    calls = [
        lambda: detect_crossings(ref, path, eps_pass=eps_pass),
        lambda: verify_mode_change(ref, path, eps_pass=eps_pass),
        lambda: plan_mode_change(ref, Pose(5, 5, 0), resolution=(16, 16, 16), eps_pass=eps_pass),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="eps_pass must be positive and finite"):
            call()


@pytest.mark.parametrize(
    "box",
    [(-np.inf, -10, 20, 20), (-10, -10, np.inf, 20), (-10, np.nan, 20, 20), (-10, -10, 20, -np.inf), (-1e308, -10, 1e308, 20)],
)
def test_planner_rejects_a_box_without_finite_corners_and_extent(ref, box, monkeypatch):
    """As the CLI's number parsing does, before any kinematics; the last box
    has finite corners whose extent overflows."""

    def kinematics_ran(*args, **kwargs):
        raise AssertionError("kinematics ran before the box check")

    monkeypatch.setattr(modeplan, "classify_configuration", kinematics_ran)
    with pytest.raises(ValidationError, match="box must have finite corners and extent"):
        plan_mode_change(ref, Pose(5, 5, 0), box=box)


def test_planner_rejects_similar_design(similar_design):
    with pytest.raises(ArchitecturalSingularity):
        plan_mode_change(similar_design, Pose(0, 0, 0.3))


def test_verify_joint_trace_endpoints(ref, planned):
    path, cert = planned
    jp = cert.joint_path
    start_rho = inverse_kinematics(ref, cert.start_pose).rho
    assert np.allclose(np.abs(jp.rho[0]), np.abs(start_rho), atol=1e-9)
    # squared values match at both ends regardless of the carried signs
    assert np.allclose(jp.rho[-1] ** 2, cert.end_joints_sq, atol=1e-9)


@pytest.mark.parametrize(
    "resolution, message",
    [((8, 8, 8), "grid search exhausted"), ((9, 9, 9), "grid search exhausted")],
)
def test_no_path_found_reports_explored(ref, resolution, message):
    """In a small box around (5, 5) the target is out of reach at 8^3 and
    at 9^3; at 9^3 the node (5, 5.5, 0) lies on the locus and is a zero
    node that no edge may end at."""
    with pytest.raises(NoPathFound, match=message) as info:
        plan_mode_change(ref, Pose(5, 5, 0), box=(4.4, 4.5, 5.6, 5.5), resolution=resolution)
    assert 0 < info.value.explored <= int(np.prod(resolution))


@pytest.mark.parametrize(
    "resolution, message, explored",
    [((8, 8, 8), "grid search exhausted", 249), ((9, 9, 9), "grid search exhausted", 396)],
)
def test_no_path_found_explored_is_pinned(ref, resolution, message, explored):
    """The exact counts of the two failures above, which no_path_ref.json
    does not hold: the nodes reached from the start."""
    with pytest.raises(NoPathFound, match=message) as info:
        plan_mode_change(ref, Pose(5, 5, 0), box=(4.4, 4.5, 5.6, 5.5), resolution=resolution)
    assert info.value.explored == explored


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


def _heap_dijkstra(ok, costs, shape, source):
    """Textbook heap Dijkstra over the grid, read off the masks directly."""
    nx, ny, np_ = shape
    ok_x, ok_y, ok_p = ok
    dist = np.full(shape, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, (i, j, m) = heapq.heappop(heap)
        if d > dist[i, j, m]:
            continue
        steps = []
        if i + 1 < nx and ok_x[i, j, m]:
            steps.append(((i + 1, j, m), costs[0]))
        if i > 0 and ok_x[i - 1, j, m]:
            steps.append(((i - 1, j, m), costs[0]))
        if j + 1 < ny and ok_y[i, j, m]:
            steps.append(((i, j + 1, m), costs[1]))
        if j > 0 and ok_y[i, j - 1, m]:
            steps.append(((i, j - 1, m), costs[1]))
        if ok_p[i, j, m]:
            steps.append(((i, j, (m + 1) % np_), costs[2]))
        if ok_p[i, j, (m - 1) % np_]:
            steps.append(((i, j, (m - 1) % np_), costs[2]))
        for v, w in steps:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def _graph(ok, costs, shape):
    """The test's CSR graph of the admissible edges, both directions: the
    oracle's input for scipy's dijkstra."""
    from scipy.sparse import csr_matrix

    ends = _edge_ends(shape)
    rows = np.concatenate([lo[mask] for (lo, _), mask in zip(ends, ok)])
    cols = np.concatenate([hi[mask] for (_, hi), mask in zip(ends, ok)])
    weights = np.concatenate([np.full(int(mask.sum()), w) for mask, w in zip(ok, costs)])
    n = int(np.prod(shape))
    half = csr_matrix((weights, (rows, cols)), shape=(n, n))
    return (half + half.T).tocsr()


def _random_grid(seed, shape=(10, 9, 8), density=0.7):
    """Seeded admissibility masks, their graph and their edges (lo, hi,
    cost) in door order.  Dyadic edge costs keep every path sum exact, so
    route costs compare with ==."""
    rng = np.random.default_rng(seed)
    nx, ny, np_ = shape
    ok = [rng.random(lo.shape) < density for lo, _ in _edge_ends(shape)]
    ok[0][nx // 2] = False  # a wall: x-planes below and above it do not connect
    costs = (0.5, 0.75, 1.25)
    edges = [
        (int(a), int(b), w)
        for (lo, hi), mask, w in zip(_edge_ends(shape), ok, costs)
        for a, b in zip(lo[mask], hi[mask])
    ]
    return rng, ok, costs, _graph(ok, costs, shape), edges, nx * ny * np_ // 2


def _cut(i0, i1, j0, j1):
    """Per axis, the slice of the edge masks that joins nodes of a window."""
    return ((slice(i0, i1 - 1), slice(j0, j1)), (slice(i0, i1), slice(j0, j1 - 1)), (slice(i0, i1), slice(j0, j1)))


def _route(ok, costs, ends, doors, require_crossing):
    """_grid_route with the doors (lo, hi, cost), in the order given."""
    lo, hi, w = np.reshape(np.array(doors, dtype=float), (-1, 3)).T
    return _grid_route(_padded_masks(ok), (lo.astype(int), hi.astype(int), w), costs, ends, require_crossing, 0)


def _unlimited(graph, s, t):
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(graph, indices=[s, t])


def _walk_cost(graph, nodes):
    steps = [graph[a, b] for a, b in zip(nodes[:-1], nodes[1:])]
    assert all(w > 0 for w in steps)  # admissible edges only
    return sum(steps)


@pytest.mark.parametrize("seed", range(6))
def test_grid_route_is_certified_against_unlimited_dijkstra(seed):
    rng, ok, costs, graph, edges, half = _random_grid(seed)
    s = int(rng.integers(half))
    reach = np.flatnonzero(np.isfinite(_unlimited(graph, s, s)[0]))
    t = int(rng.choice(reach[reach != s]))
    dist = _unlimited(graph, s, t)

    # no door needed: the certified route is a shortest one
    nodes = _route(ok, costs, (s, t), [], require_crossing=False)
    assert (nodes[0], nodes[-1]) == (s, t)
    assert _walk_cost(graph, nodes) == dist[0, t]

    # every edge a door: every route uses one, so nothing is spliced
    nodes = _route(ok, costs, (s, t), edges, require_crossing=True)
    assert (nodes[0], nodes[-1]) == (s, t)
    assert _walk_cost(graph, nodes) == dist[0, t]

    # doors off every shortest route: the first cheapest one in door order
    # (the order of ``edges``) is spliced in
    lo, hi, w = (np.array(v) for v in zip(*edges))
    detour = np.minimum(dist[0, lo] + w + dist[1, hi], dist[0, hi] + w + dist[1, lo])
    off = np.flatnonzero(np.isfinite(detour) & (detour > dist[0, t]))
    doors = [edges[k] for k in np.sort(rng.permutation(off)[:25])]
    a = np.array([[d[0], d[1]] for d in doors]).ravel()
    b = np.array([[d[1], d[0]] for d in doors]).ravel()
    total = dist[0, a] + np.repeat([d[2] for d in doors], 2) + dist[1, b]
    k = int(np.argmin(total))
    nodes = _route(ok, costs, (s, t), doors, require_crossing=True)
    assert (nodes[0], nodes[-1]) == (s, t)
    assert (int(a[k]), int(b[k])) in set(zip(nodes[:-1], nodes[1:]))
    assert _walk_cost(graph, nodes) == total[k]


def test_grid_route_waits_for_a_route_behind_a_long_edge():
    """The shortest route (cost 10) crosses its middle on one long edge, so at
    limit 6 no node of it is within the limit of both ends, while a longer
    route (cost 11) already is; certifying 11 needs limit (11 + 3) / 2 = 7,
    and by then the shorter route shows."""
    shape = (15, 2, 3)
    ok = [np.zeros((14, 2, 3), bool), np.zeros((15, 1, 3), bool), np.zeros(shape, bool)]
    ok[0][:7, 0, 0] = ok[0][7:, 0, 1] = True  # short: x steps, one phi step at i = 7
    ok[2][7, 0, 0] = True
    ok[1][0, 0, 0] = ok[2][0, 1, 0] = ok[0][:, 1, 1] = ok[1][14, 0, 1] = True  # long: y, phi, x, y
    graph = _graph(ok, (0.5, 0.5, 3.0), shape)
    s, t = (int(np.ravel_multi_index(v, shape)) for v in ((0, 0, 0), (14, 0, 1)))
    nodes = _route(ok, (0.5, 0.5, 3.0), (s, t), [], require_crossing=False)
    assert _walk_cost(graph, nodes) == 10.0
    assert [np.unravel_index(v, shape)[1] for v in nodes] == [0] * 16


@pytest.mark.parametrize("seed", range(3))
def test_grid_route_failures_report_the_unlimited_reach(seed):
    rng, ok, costs, graph, edges, half = _random_grid(seed)
    s = int(rng.integers(half))
    reach_s = np.isfinite(_unlimited(graph, s, s)[0])
    t_far = int(rng.choice(np.flatnonzero(~reach_s)))
    with pytest.raises(NoPathFound, match="grid search exhausted") as info:
        _route(ok, costs, (s, t_far), edges, require_crossing=True)
    assert info.value.explored == np.count_nonzero(reach_s)

    t = int(rng.choice(np.flatnonzero(reach_s)))
    with pytest.raises(NoPathFound, match="no passage edge exists") as info:
        _route(ok, costs, (s, t), [], require_crossing=True)
    assert info.value.explored == np.count_nonzero(reach_s)

    beyond = [e for e in edges if not reach_s[e[0]]]
    with pytest.raises(NoPathFound, match="reachable from both") as info:
        _route(ok, costs, (s, t), beyond, require_crossing=True)
    dist = _unlimited(graph, s, t)
    assert info.value.explored == np.count_nonzero(np.isfinite(dist).any(axis=0))


def test_grid_route_failure_in_a_walled_pocket_counts_the_pocket():
    """s and t share a walled 3 x 3 pocket of a 40 x 40 grid, so the search
    is complete once it has reached the pocket's 27 nodes from both ends.
    A door far outside the pocket makes the failure "not reachable", and
    only no door anywhere makes it "no passage edge exists"; both count the
    27 pocket nodes."""
    shape = (40, 40, 3)
    ok = [np.ones(lo.shape, dtype=bool) for lo, _ in _edge_ends(shape)]
    ok[0][[17, 20], 18:21] = ok[1][18:21, [17, 20]] = False  # the pocket's walls
    costs = (0.5, 0.75, 1.25)
    ends = tuple(int(np.ravel_multi_index(v, shape)) for v in ((18, 18, 0), (20, 20, 2)))
    far = [(int(np.ravel_multi_index((35, 35, 0), shape)), int(np.ravel_multi_index((36, 35, 0), shape)), 0.5)]
    search = _TwoEndedSearch(_padded_masks(ok), costs, ends)
    dist = search.until(lambda: np.inf)  # runs until complete
    assert np.count_nonzero(np.isfinite(dist), axis=1).tolist() == [27, 27]
    for doors, message in ((far, "reachable from both"), ([], "no passage edge exists")):
        with pytest.raises(NoPathFound, match=message) as info:
            _route(ok, costs, ends, doors, require_crossing=True)
        assert info.value.explored == 27


def _steps_back(ok, costs, d, node):
    """The neighbours of ``node``, in move order -x, -y, -phi, +phi, +y, +x,
    joined to it by an admissible edge whose distance ``d`` plus the edge's
    cost is exactly the node's."""
    shape = ok[2].shape
    here = np.unravel_index(node, shape)
    out = []
    for axis, sign in ((0, -1), (1, -1), (2, -1), (2, 1), (1, 1), (0, 1)):
        there = list(here)
        there[axis] += sign
        if axis == 2:
            there[2] %= shape[2]
        elif not 0 <= there[axis] < shape[axis]:
            continue
        lower = there if sign < 0 else here
        u = int(np.ravel_multi_index(there, shape))
        if ok[axis][tuple(lower)] and d[u] + costs[axis] == d[node]:
            out.append(u)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_routes_step_along_admissible_edges_that_set_the_distance(seed):
    """A walk back from a reached node steps, each time, to the first
    neighbour in move order joined by an admissible edge whose distance
    plus the edge's cost is exactly the node's, and ends at its source.
    Every step of a returned route, spliced or not, is an admissible edge
    along which d_s grows by its cost or d_t falls by it, or a door.  The
    complete search's distances are the heap Dijkstra's, bit for bit."""
    rng, ok, costs, graph, edges, half = _random_grid(seed)
    s = int(rng.integers(half))
    reach = np.flatnonzero(np.isfinite(_unlimited(graph, s, s)[0]))
    t = int(rng.choice(reach[reach != s]))
    search = _TwoEndedSearch(_padded_masks(ok), costs, (s, t))
    dist = search.until(lambda: np.inf)  # runs until complete
    for end, source in enumerate((s, t)):
        shape = ok[2].shape
        assert np.array_equal(dist[end], _heap_dijkstra(ok, costs, shape, np.unravel_index(source, shape)).ravel())
        for node in rng.choice(reach, 25).tolist() + [source]:
            walk = search.walk(end, node)
            assert walk[0] == node and walk[-1] == source
            assert all(u == _steps_back(ok, costs, dist[end], v)[0] for v, u in zip(walk[:-1], walk[1:]))

    ds, dt = _unlimited(graph, s, t)
    doors = [edges[k] for k in np.sort(rng.permutation(len(edges))[:25])]
    door_steps = {(a, b) for a, b, _ in doors} | {(b, a) for a, b, _ in doors}
    for door_list, require_crossing in (([], False), (doors, True)):
        nodes = _route(ok, costs, (s, t), door_list, require_crossing)
        assert (nodes[0], nodes[-1]) == (s, t)
        for a, b in zip(nodes[:-1], nodes[1:]):
            w = graph[a, b]
            assert w > 0  # an admissible edge
            assert ds[a] + w == ds[b] or dt[b] + w == dt[a] or (require_crossing and (a, b) in door_steps)


@pytest.mark.parametrize("case", json.loads((DATA / "no_path_ref.json").read_text()), ids=str)
def test_no_path_found_message_and_explored_are_pinned(ref, case):
    """Small boxes around both benchmark starts on coarse grids: the target
    is out of reach, or no serial point in the box gives a door.  The
    message and the explored count are pinned in tests/data."""
    with pytest.raises(NoPathFound) as info:
        plan_mode_change(ref, Pose(*case["start"]), box=case["box"], resolution=(case["resolution"],) * 3)
    assert (str(info.value), info.value.explored) == (case["message"], case["explored"])


@pytest.mark.parametrize(
    "start, resolution, label",
    [
        ((5.936712032596491, -4.608771755031594, 2.500950942931911), 12, "start"),
        ((4.716018318625558, -1.6757290785838623, 5.557020839341774), 8, "target"),
    ],
)
def test_an_endpoint_off_the_grid_is_pinned(ref, start, resolution, label):
    """Seeded starts just off the locus (8.4e-4 L and 4.9e-3 L from it along
    y) on coarse grids: every segment from the start, or from its farthest
    mode (the target), to a corner of its grid cell crosses the surface
    inadmissibly, so the plan fails before its search."""
    assert classify_configuration(ref, Pose(*start)).kind == "regular"
    with pytest.raises(NoPathFound) as info:
        plan_mode_change(ref, Pose(*start), resolution=(resolution,) * 3)
    assert str(info.value) == f"could not connect the {label} pose to the search grid"


def _sorted_cell_corners(axes, pose, scale):
    """The planner's former corner order, the reference of _cell_corners:
    the eight corners listed by (di, dj, dm), then ``sorted`` by
    pose_distance from the pose, one Pose at a time."""
    xs, ys, phis = axes
    shape = nx, ny, np_ = len(xs), len(ys), len(phis)
    ci = int(np.clip(np.searchsorted(xs, pose.x) - 1, 0, nx - 2))
    cj = int(np.clip(np.searchsorted(ys, pose.y) - 1, 0, ny - 2))
    cm = int(np.floor(wrap_angle(pose.phi) % (2.0 * np.pi) / (2.0 * np.pi / np_))) % np_
    out = [
        int(np.ravel_multi_index((ci + di, cj + dj, (cm + dm) % np_), shape))
        for di in (0, 1)
        for dj in (0, 1)
        for dm in (0, 1)
    ]

    def node(c):
        i, j, m = np.unravel_index(c, shape)
        return Pose(*np.array([xs[i], ys[j], phis[m]]).tolist())

    return sorted(out, key=lambda c: pose_distance(pose, node(c), scale))


def test_cell_corners_are_ordered_as_sorted_orders_them():
    """The eight corners of a pose's grid cell come in the order the
    planner's former sort by pose_distance gave: the same keys, bit for
    bit, and ties in corner order.  Seeded poses, and poses on nodes and at
    cell centres (ties), at and between the grid's angles and a turn away,
    all in one call, and the planner's two endpoints in one call."""
    rng = np.random.default_rng(41)
    ties = 0
    for geom in _grid_designs():
        for n in (8, 13, 64):
            axes = _grid_axes(geom, (n, n, n))
            xs, ys, phis = axes
            poses = [Pose(*rng.uniform(-geom.L, 2 * geom.L, 2), rng.uniform(-9.0, 9.0)) for _ in range(20)]
            for k in range(12):
                i, j, m = rng.integers(0, n - 1, 3)
                phi = phis[m] + [0.0, 0.5 * (phis[1] - phis[0]), 2.0 * np.pi, -2.0 * np.pi][k % 4]
                poses += [Pose(xs[i], ys[j], phi), Pose(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]), phi)]
            rows = _cell_corners(axes, np.array([p.as_tuple() for p in poses], dtype=float), geom.L)
            assert rows.shape == (len(poses), 8)
            for pose, got in zip(poses, rows.tolist()):
                assert got == _sorted_cell_corners(axes, pose, geom.L), pose
                keys = [max(np.hypot(pose.x - xs[i], pose.y - ys[j]), geom.L * abs(wrap_angle(pose.phi - phis[m])))
                        for i, j, m in zip(*np.unravel_index(got, (n, n, n)))]
                ties += len(keys) - len(set(keys))
            for pair in zip(poses[::2], poses[1::2]):
                got = _cell_corners(axes, np.array([p.as_tuple() for p in pair], dtype=float), geom.L).tolist()
                assert got == [_sorted_cell_corners(axes, p, geom.L) for p in pair], pair
    assert ties > 100


def _whole_grid(shape, *args):
    """A _search_window that searches the whole grid."""
    return (0, shape[0]), (0, shape[1])


def test_endpoints_snap_to_the_corner_that_checking_every_corner_picks(monkeypatch):
    """The planner checks the nearest nonzero corner of each endpoint
    first and the other corners only for an endpoint not yet snapped; the
    corners it snaps to are those of checking all eight corners of both
    endpoints in one pass and taking, per endpoint, the nearest nonzero
    corner joined admissibly.  Seeded regular starts and targets; some
    snap past their nearest nonzero corner."""
    snapped = []

    class Snapped(Exception):
        pass

    def route(masks, doors, costs, ends, *args):
        snapped.append(list(ends))
        raise Snapped  # the search is not needed

    monkeypatch.setattr(modeplan, "_grid_route", route)
    monkeypatch.setattr(modeplan, "_search_window", _whole_grid)  # ends as nodes of the whole grid
    rng = np.random.default_rng(5)
    cases = skipped = 0
    for geom in _grid_designs():
        for n in (9, 16, 64):
            axes = _grid_axes(geom, (n, n, n))
            sgn = _grid_signs(geom, *axes)[2]
            safe = passage_safety(geom)
            for _ in range(8):
                ends = [Pose(*rng.uniform(-geom.L, 2 * geom.L, 2), rng.uniform(-np.pi, np.pi)) for _ in range(2)]
                if any(classify_configuration(geom, p).kind != "regular" for p in ends):
                    continue
                near = _cell_corners(axes, np.array([p.as_tuple() for p in ends], dtype=float), geom.L)
                i, j, m = np.unravel_index(near.ravel(), (n, n, n))
                p0s = np.repeat([p.as_tuple() for p in ends], 8, axis=0)
                checked = _segments_crossings(geom, p0s, np.stack([axes[0][i], axes[1][j], axes[2][m]], -1),
                                              EPS_PASS_REL * geom.L, safe)
                want = [next((c for c, e in zip(near[k].tolist(), checked[8 * k : 8 * k + 8])
                              if e is not None and sgn.flat[c]), None) for k in (0, 1)]
                snapped.clear()
                if None in want:
                    with pytest.raises(NoPathFound, match="could not connect the"):
                        plan_mode_change(geom, ends[0], ends[1], resolution=(n, n, n))
                    continue
                with pytest.raises(Snapped):
                    plan_mode_change(geom, ends[0], ends[1], resolution=(n, n, n))
                assert snapped == [want]
                cases += 1
                skipped += sum(w != next(c for c in near[k].tolist() if sgn.flat[c]) for k, w in enumerate(want))
    assert cases > 100 and skipped > 3


def _sequential_shortcuts(geom, table, firsts, eps_pass, safe):
    """The planner's former shortcut loop, the reference of _shortcuts: the
    stretches one after another, from each kept waypoint k the farthest
    shortcut to the next door end (or the last waypoint) alone in one pass,
    then the others, at most BATCH_SEGMENTS per pass, farthest first.
    Returns the kept waypoints and the segments of each pass, per stretch
    (keyed by its last waypoint)."""
    protected = set(firsts) | {p + 1 for p in firsts}
    kept, passes = [0], collections.defaultdict(list)
    k = 0
    while k < len(table) - 1:
        hi = min([p for p in protected if p > k], default=len(table) - 1)
        js = np.arange(hi, k + 1, -1)
        j, size = k + 1, 1
        while j == k + 1 and len(js):
            batch, js, size = js[:size], js[size:], modeplan.BATCH_SEGMENTS
            passes[hi].append(len(batch))
            events = _segments_crossings(geom, np.tile(table[k], (len(batch), 1)), table[batch], eps_pass, safe)
            j = next((int(jj) for jj, e in zip(batch, events) if e is not None), j)
        kept.append(j)
        k = j
    return kept, passes


def test_lockstep_shortcuts_keep_what_the_stretches_kept_one_after_another(ref, monkeypatch):
    """_shortcuts checks the next shortcuts of every stretch between door
    ends in one pass per round; it keeps the waypoints that the former
    loop, one stretch after another, kept, and checks the same segments
    in as many passes as that loop's busiest stretch.  The reference robot
    from (5, 5, 0) and (0, 0, 0) (a splice plan through two doors), a 12^3
    plan that refuses every shortcut of a waypoint, and seeded starts on
    the grid designs at 16^3 to 64^3, with and without require_crossing:
    some routes hold two doors or more, and some refuse a farthest
    shortcut.  The two reference plans take 2 and 3 crossing passes in
    all, the snap's included; with BATCH_SEGMENTS at 2 no call takes more
    than 2 segments, and every plan keeps its waypoints."""
    calls, seen = [], []  # segments per crossing-check call; per _shortcuts call, its inputs, output and calls
    shortcuts, segments = modeplan._shortcuts, modeplan._segments_crossings

    def recorded(geom, table, firsts, eps_pass, safe):
        before = len(calls)
        kept = shortcuts(geom, table, firsts, eps_pass, safe)
        seen.append(((geom, table, list(firsts), eps_pass, safe), kept, calls[before:]))
        return kept

    def counted(geom, p0s, *args):
        calls.append(len(p0s))
        return segments(geom, p0s, *args)

    monkeypatch.setattr(modeplan, "_shortcuts", recorded)
    monkeypatch.setattr(modeplan, "_segments_crossings", counted)
    for start, passes in (((5, 5, 0), 2), ((0, 0, 0), 3)):
        calls.clear()
        plan_mode_change(ref, Pose(*start))
        assert len(calls) == passes, (start, calls)
    assert len(seen[1][0][2]) == 2  # the splice plan's two doors
    rng = np.random.default_rng(29)
    cases = [(ref, Pose(5, 5, 0), 64, True), (ref, Pose(0, 0, 0), 64, True),
             (ref, Pose(13.30049343026894, 8.390099031591213, 5.763551461051757), 12, True)]
    for geom in _grid_designs():
        for n in (16, 32, 64):
            for _ in range(2):
                start = Pose(*rng.uniform(-geom.L, 2 * geom.L, 2), rng.uniform(0.0, 2.0 * np.pi))
                cases += [(geom, start, n, rc) for rc in (True, False)]
    plans = {}
    seen.clear()
    for k, (geom, start, n, rc) in enumerate(cases):
        try:
            plans[k] = plan_mode_change(geom, start, resolution=(n, n, n), require_crossing=rc).waypoints
        except (InvalidStart, NoPathFound):
            pass
    refused = all_refused = 0
    for args, kept, rows in seen:
        want, passes = _sequential_shortcuts(*args)
        assert kept == want
        assert sum(rows) == sum(map(sum, passes.values()))
        assert len(rows) == max(map(len, passes.values()), default=0)
        firsts = args[2]
        # a stretch that keeps more than its two ends refused a farthest
        # shortcut; one that keeps k and k + 1 refused every shortcut from k
        refused += len(kept) > 2 * len(firsts) + 2
        ends = set(firsts) | {p + 1 for p in firsts} | {len(args[1]) - 1}
        all_refused += any(b == a + 1 and b not in ends for a, b in zip(kept[:-1], kept[1:]))
    assert len(plans) > 40 and refused > 3 and all_refused > 0
    assert sum(len(args[2]) >= 2 for args, _, _ in seen) > 3

    # calls of at most BATCH_SEGMENTS segments, the same plans
    monkeypatch.setattr(modeplan, "BATCH_SEGMENTS", 2)
    seen.clear()
    for k, (geom, start, n, rc) in enumerate(cases):
        if k in plans:
            assert plan_mode_change(geom, start, resolution=(n, n, n), require_crossing=rc).waypoints == plans[k]
    assert max(max(rows, default=0) for _, _, rows in seen) == 2


# ---------------------------------------------------------------------------
# the planner's grids


def _grid_designs():
    """The reference robot, its x1e-3 and x1e3 copies, and seeded random designs."""
    designs = [RobotGeometry(np.asarray(REF_BASE) * s, np.asarray(REF_PLATFORM) * s) for s in (1.0, 1e-3, 1e3)]
    rng = np.random.default_rng(23)
    while len(designs) < 6:
        geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
        if not is_architecturally_singular(geom)[0]:
            designs.append(geom)
    return designs


def _grid_axes(geom, shape):
    """Node coordinates (xs, ys, phis) of the planner's grid of ``shape``
    over its default box."""
    Lg = characteristic_scale(geom)
    xs, ys = np.linspace(-Lg, 2 * Lg, shape[0]), np.linspace(-Lg, 2 * Lg, shape[1])
    return xs, ys, np.linspace(0.0, 2.0 * np.pi, shape[2], endpoint=False)


def _grid_signs(geom, xs, ys, phis):
    """``(q, det, sgn, band)`` of the grid with node coordinates ``(xs, ys,
    phis)``, as the planner takes them: the conic's coefficients at the
    grid's angles, the determinant and sign of every node, and the zero band
    ZERO_DET_REL * T of the bound T on |det| over the grid's box."""
    o, _, size = geom.gap_forms
    q = modeplan._conic_coefficients(geom, phis, o)
    u, v = (np.abs(w[[0, -1]] - c).max() for w, c in zip((xs, ys), o))
    band = modeplan.ZERO_DET_REL * modeplan._det_bound(size, u, v)
    return (q, *_node_signs(geom, xs[:, None, None], ys[:, None], q, band), band)


def _planner_grid(geom, shape):
    """Edge costs, admissible masks and doors of the planner's grid of
    ``shape`` over its default box, built as the planner builds them: one
    scan per axis and the doors of the serial points."""
    xs, ys, phis = _grid_axes(geom, shape)
    costs = (float(xs[1] - xs[0]), float(ys[1] - ys[0]), float(characteristic_scale(geom) * 2.0 * np.pi / shape[2]))
    q, det, sgn, band = _grid_signs(geom, xs, ys, phis)
    ok = [~_axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn, band) for axis in range(3)]
    doors = _serial_doors(geom, xs, ys, phis, passage_safety(geom), q, band)[0]
    for a, i, j, m in doors.tolist():
        ok[a][i, j, m] = True
    return costs, ok, doors


def test_window_edge_scan_equals_the_slice_of_the_full_scan():
    """_axis_edge_scan on the coordinates of a box of node columns and that
    box's slice of the whole grid's node values gives, bit for bit, that
    box's slice of the whole grid's masks on all three axes."""
    rng = np.random.default_rng(29)
    shape = (40, 36, 32)
    for geom in _grid_designs():
        xs, ys, phis = _grid_axes(geom, shape)
        q, det, sgn, band = _grid_signs(geom, xs, ys, phis)
        full = [_axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn, band) for axis in range(3)]
        boxes = [(0, 40, 0, 36), (0, 2, 0, 2), (38, 40, 3, 5), (5, 30, 34, 36)]
        for _ in range(6):
            boxes.append((*np.sort(rng.choice(41, 2, replace=False)), *np.sort(rng.choice(37, 2, replace=False))))
        for box in [b for b in boxes if b[1] - b[0] >= 2 and b[3] - b[2] >= 2]:
            i0, i1, j0, j1 = box
            for axis, cut in enumerate(_cut(*box)):
                window = (q, det[i0:i1, j0:j1], sgn[i0:i1, j0:j1], band)
                got = _axis_edge_scan(geom, xs[i0:i1], ys[j0:j1], phis, axis, *window)
                assert np.array_equal(got, full[axis][cut]), (box, axis)


def test_bounded_search_equals_bounded_dijkstra():
    """Searched until a fixed bound, for bounds growing from 0 through c/2
    to 32c, the search's distances equal, bit for bit, those of one bounded
    dijkstra on the whole grid's graph (the test's oracle): on the
    planner's grids of three designs and on seeded random masks, from
    seeded near and far ends."""
    from scipy.sparse.csgraph import dijkstra

    rng = np.random.default_rng(31)
    grids = [(*_planner_grid(geom, (32, 32, 32))[:2], (32, 32, 32)) for geom in _grid_designs()[::2]]
    for seed in range(3):
        _, ok, costs, *_ = _random_grid(seed, (16, 12, 10))
        grids.append((costs, ok, (16, 12, 10)))
    compared = 0
    for costs, ok, shape in grids:
        graph = _graph(ok, costs, shape)
        c = max(costs)
        for near in (True, True, False):
            s = rng.integers(0, shape)
            t = np.clip(s + rng.integers(-2, 3, 3), 0, np.array(shape) - 1) if near else rng.integers(0, shape)
            ends = [int(np.ravel_multi_index(e, shape)) for e in (s, t)]
            search = _TwoEndedSearch(_padded_masks(ok), costs, ends)
            for bound in [0.0, *(c * 2.0 ** np.arange(-1, 6))]:
                dist = search.until(lambda: bound)  # searches to this bound, or completes below it
                assert np.array_equal(dist, dijkstra(graph, indices=ends, limit=bound))
                compared += 1
    assert compared >= 40


def test_scans_of_a_window_give_the_whole_grids_bits():
    """Each axis's edge scan on a window of the grid's nodes (every angle)
    gives, bit for bit, the whole grid's scan of the window's edges: the
    windows the planner's search starts on, at and off the grid's sides."""
    rng = np.random.default_rng(29)
    for geom in _grid_designs():
        for n in (16, 64):
            xs, ys, phis = _grid_axes(geom, (n, n, n))
            q, det, sgn, band = _grid_signs(geom, xs, ys, phis)
            whole = [_axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn, band) for axis in range(3)]
            for _ in range(4):
                (i0, i1), (j0, j1) = (np.sort(rng.choice(n + 1, 2, replace=False)) for _ in range(2))
                i0, j0 = (0 if rng.random() < 0.25 else v for v in (i0, j0))
                i1, j1 = (n if rng.random() < 0.25 else max(v, 2) for v in (i1, j1))
                i0, j0 = min(i0, i1 - 2), min(j0, j1 - 2)
                sub = np.s_[i0:i1, j0:j1]
                for axis, edges in enumerate((np.s_[i0 : i1 - 1, j0:j1], np.s_[i0:i1, j0 : j1 - 1], sub)):
                    got = _axis_edge_scan(geom, xs[i0:i1], ys[j0:j1], phis, axis, q, det[sub], sgn[sub], band)
                    assert np.array_equal(got, whole[axis][edges]), (n, axis, i0, i1, j0, j1)


def _tight_window(shape, costs, ends, *args):
    """A _search_window that gives the smallest window around both ends."""
    i, j, _ = np.unravel_index(ends, shape)
    (i0, i1), (j0, j1) = (i.min(), i.max()), (j.min(), j.max())
    return (max(int(i0) - 1, 0), min(int(i1) + 2, shape[0])), (max(int(j0) - 1, 0), min(int(j1) + 2, shape[1]))


def test_plans_searched_from_a_window_equal_plans_on_the_whole_grid(monkeypatch):
    """A plan whose route search starts on a window of the grid returns the
    plan, or the NoPathFound message and explored count, of a search on the
    whole grid, with the planner's windows (_search_window) and with the
    smallest windows around both ends, which most searches leave: seeded
    starts on the reference robot, its scale copies and random designs,
    with and without require_crossing."""
    scanned = []

    def window_masks(geom, axes, window, *args):
        scanned.append(window != _whole_grid((len(axes[0]), len(axes[1]))))
        return window_masks_of_grid(geom, axes, window, *args)

    def run(geom, start, n, require_crossing, search_window):
        monkeypatch.setattr(modeplan, "_search_window", search_window)
        scanned.clear()
        try:
            path = plan_mode_change(geom, start, resolution=(n, n, n), require_crossing=require_crossing)
        except NoPathFound as e:
            return str(e), e.explored
        return [w.as_tuple() for w in path.waypoints]

    window_masks_of_grid, search_window = modeplan._window_masks, modeplan._search_window
    monkeypatch.setattr(modeplan, "_window_masks", window_masks)
    rng = np.random.default_rng(31)
    kinds = collections.Counter()
    for geom in _grid_designs():
        for n in (16, 32, 64):
            for require_crossing in (True, False):
                start = Pose(*rng.uniform(-geom.L, 2 * geom.L, 2), rng.uniform(-np.pi, np.pi))
                if classify_configuration(geom, start).kind != "regular":
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        whole = run(geom, start, n, require_crossing, _whole_grid)
                    except InvalidStart:  # the target lies outside the box
                        continue
                    assert run(geom, start, n, require_crossing, search_window) == whole
                    kinds["kept its window"] += scanned == [True]
                    assert run(geom, start, n, require_crossing, _tight_window) == whole, (start, n, require_crossing)
                    kinds["left its window"] += scanned == [True, False]
    assert kinds["kept its window"] >= 2 and kinds["left its window"] >= 5, kinds


def test_grid_route_on_a_window_gives_the_whole_grids_route_or_none(monkeypatch):
    """_grid_route with ``inner`` on a window of a seeded grid, as a grid of
    its own: a window that holds every node the whole grid's search writes,
    plus one ring, gives the whole grid's route in window numbers; the same
    window without the ring, whose inner nodes miss a written node, gives
    None, and so does a window in which the ends are not joined."""
    searches = []

    class Recorded(_TwoEndedSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    def on_window(ok, ends, i0, i1, j0, j1):
        masks = _padded_masks([mask[cut] for mask, cut in zip(ok, _cut(i0, i1, j0, j1))])
        inner = np.zeros(masks.shape[1:], dtype=bool)
        inner[(i0 > 0) : i1 - i0 - (i1 < nx), (j0 > 0) : j1 - j0 - (j1 < ny)] = True
        i, j, m = np.unravel_index(ends, shape)
        return masks, inner.ravel(), np.ravel_multi_index((i - i0, j - j0, m), masks.shape[1:])

    monkeypatch.setattr(modeplan, "_TwoEndedSearch", Recorded)
    shape = nx, ny, _ = (24, 20, 8)
    no_doors = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    kept = left = 0
    for seed in range(16):
        rng, ok, costs, *_ = _random_grid(seed, shape, density=0.8)
        s = rng.integers(0, shape)
        t = np.clip(s + rng.integers(-3, 4, 3), 0, np.array(shape) - 1)
        ends = np.ravel_multi_index(np.stack([s, t], 1), shape)
        if ends[0] == ends[1]:
            continue
        searches.clear()
        try:
            route = _grid_route(_padded_masks(ok), no_doors, costs, ends, False, 0)
        except NoPathFound:  # the ends lie on two sides of the wall
            continue
        i, j, _ = _nonzero(np.isfinite(searches[0].dist).any(axis=0).reshape(shape))
        for ring in (1, 0):
            window = [int(v) for v in (max(i.min() - ring, 0), min(i.max() + 1 + ring, nx),
                                       max(j.min() - ring, 0), min(j.max() + 1 + ring, ny))]
            masks, inner, wends = on_window(ok, ends, *window)
            missed = not inner.reshape(masks.shape[1:])[i - window[0], j - window[2]].all()
            got = _grid_route(masks, no_doors, costs, wends, False, 0, inner)
            if missed:
                assert got is None, (seed, ring)
                left += 1
            else:
                ri, rj, rm = np.unravel_index(route, shape)
                assert got == np.ravel_multi_index((ri - window[0], rj - window[2], rm), masks.shape[1:]).tolist()
                kept += 1
                assert _grid_route(np.zeros_like(masks), no_doors, costs, wends, False, 0, inner) is None
    assert kept >= 5 and left >= 5, (kept, left)


def test_route_search_stops_at_the_value_it_certifies(ref, monkeypatch):
    """From (5, 5, 0) on the reference robot at 64^3 the route needs no
    splice, and its search writes no distance beyond (best + c) / 2 = 3.125,
    c the largest edge cost: the value that certifies the route."""
    searches = []

    class Recorded(_TwoEndedSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(modeplan, "_TwoEndedSearch", Recorded)
    plan_mode_change(ref, Pose(5.0, 5.0, 0.0))
    (search,) = searches
    written = search.dist[np.isfinite(search.dist)]
    assert written.max() <= (search.best + search.costs.max()) / 2


# ---------------------------------------------------------------------------
# doors through the serial points


def test_every_door_is_one_passage_of_its_own_leg():
    """Every door built on the reference robot at three scales and on seeded
    designs, at 12^3, 32^3 and 64^3, checked by detect_crossings as its path
    corner -> row point -> row point -> corner, has exactly one event: a
    passage of the leg whose serial point it goes through.  Doors of all
    four shapes are among them: x doors from the lower and the upper
    corners of their cells, y doors from the left and the right."""
    designs = _grid_designs()[:3]
    rng = np.random.default_rng(8080)
    while len(designs) < 10:
        geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
        if not is_architecturally_singular(geom)[0] and np.any(passage_safety(geom)):
            designs.append(geom)
    shapes = set()
    for geom in designs:
        safe = passage_safety(geom)
        for n in (12, 32, 64):
            xs, ys, phis = _grid_axes(geom, (n, n, n))
            q, _, _, band = _grid_signs(geom, xs, ys, phis)
            doors, points, serial = _serial_doors(geom, xs, ys, phis, safe, q, band)
            assert len(doors) <= serial
            for (axis, i, j, m), (a, b) in zip(doors.tolist(), points):
                ends = [(xs[i], ys[j]), (xs[i + (axis == 0)], ys[j + (axis == 1)])]
                poses = [Pose(*ends[0], phis[m]), Pose(*a), Pose(*b), Pose(*ends[1], phis[m])]
                # with S on the cell's far side a row point is a corner
                keep = [pose_distance(p, q, geom.L) > 1e-9 * geom.L for p, q in zip(poses[:-1], poses[1:])]
                path = WorkspacePath(tuple([poses[0]] + [q for q, k in zip(poses[1:], keep) if k]))
                # the serial point on the row (column) between the row points:
                # its distance off the row plus its distance beyond the ends
                s = serial_points(geom, phis[m])
                gap = np.abs(s[:, 1 - axis] - a[1 - axis])
                gap += np.maximum(0.0, np.abs(2 * s[:, axis] - a[axis] - b[axis]) - abs(b[axis] - a[axis]))
                leg = int(np.argmin(np.where(safe, gap, np.inf)))
                assert gap[leg] <= 1e-9 * geom.L
                assert [(e.kind, e.leg) for e in detect_crossings(geom, path)] == [("passage", leg + 1)]
                shapes.add((axis, a[1 - axis] < ends[0][1 - axis]))  # from the upper (right) corners
    assert shapes == {(0, False), (0, True), (1, False), (1, True)}


def test_admissible_edges_keep_the_node_sign_and_doors_flip_it():
    """On the reference robot at three scales and on seeded designs, at
    12^3, 32^3 and 64^3, every admissible edge that is not a door joins two
    nodes of one nonzero sign and every door two of opposite signs.  So a
    route holds an odd number of doors exactly when its ends' signs differ
    (the invariant stated in _grid_route)."""
    rng = np.random.default_rng(8080)
    designs = _grid_designs()
    while len(designs) < 8:
        geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
        if not is_architecturally_singular(geom)[0] and np.any(passage_safety(geom)):
            designs.append(geom)
    n_doors = 0
    for geom in designs:
        for n in (12, 32, 64):
            xs, ys, phis = _grid_axes(geom, (n, n, n))
            q, det, sgn, band = _grid_signs(geom, xs, ys, phis)
            doors = _serial_doors(geom, xs, ys, phis, passage_safety(geom), q, band)[0]
            ends = [(sgn[:-1], sgn[1:]), (sgn[:, :-1], sgn[:, 1:]), (sgn, np.roll(sgn, -1, axis=2))]
            for axis, (a, b) in enumerate(ends):
                product = a.astype(int) * b
                door = np.zeros(product.shape, dtype=bool)
                door[tuple(doors[doors[:, 0] == axis, 1:].T)] = True
                ok = ~_axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn, band)
                assert np.all(product[ok & ~door] == 1)
                assert np.all(product[door] == -1)
            n_doors += len(doors)
    assert n_doors > 1000


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_reference_plans_at_every_resolution(scale):
    """The reference robot plans from both benchmark starts at every
    resolution from 12^3 to 64^3 in steps of 4, and its x1e-3 and x1e3
    copies at 12^3, 16^3, 20^3, 24^3 and 64^3 (the coarse grids where
    doors were rare before they came from the serial points); each plan
    verifies without a parallel crossing."""
    geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
    for start in (Pose(5.0 * scale, 5.0 * scale, 0.0), Pose(0.0, 0.0, 0.0)):
        for n in range(12, 65, 4) if scale == 1.0 else (12, 16, 20, 24, 64):
            path = plan_mode_change(geom, start, resolution=(n, n, n))
            assert verify_mode_change(geom, path).verdict == "changed_without_parallel", (start, n)


@pytest.mark.parametrize(
    "box, n",
    [
        ((-1.7064364827640324, 4.399268595116084, 9.72169785280477, 7.1335161234456095), 11),
        ((-1.4064591226569059, 4.125038515547252, 9.624940097311441, 7.946496253214689), 12),
        ((1.5437548577749958, 3.2280950927072287, 5.979822676925012, 6.026961622010482), 30),
    ],
)
def test_plans_where_the_locus_cuts_a_corner_of_the_serial_points_cell(ref, box, n):
    """Seeded boxes where the conic through a serial point also cuts a
    corner of its cell, so that both whole grid edges beside a door meet
    it: a door checked only where it runs still passes, and the plan
    verifies."""
    path = plan_mode_change(ref, Pose(5, 5, 0), box=box, resolution=(n, n, n))
    assert verify_mode_change(ref, path).verdict == "changed_without_parallel"


def test_no_door_runs_along_a_side_that_touches_the_locus(monkeypatch):
    """One-cell grids [0, 1]^2 at one angle, about a zero base, with one
    passage-safe serial point S = (0.5, 0.5) and the conic Q = k x^2 + a y^2
    - 2.5 k x - 2 a v0 y + a v0^2, k = a (0.5 - v0)^2: Q(x, 0.5) = k (x - 0.5)
    (x - 2) has S as its one zero in the cell, and Q(0, y) = a (y - v0)^2
    touches the left side at (0, v0).  The upper x door runs down that side
    through (0, v0), so it is refused in every cell: its side vertex lies in
    the zero band.  Without the band the door was admitted wherever the
    vertex value rounds above zero, in 211 of these 2,000 seeded cells, for
    example a = 0.40042091985114225, v0 = 0.899180570395549.  With v0 above
    the cell the side is clear and the door is admitted."""
    conic = []
    monkeypatch.setattr(modeplan, "_conic_coefficients", lambda geom, phis, origin: conic[-1])
    serial = np.array([[-0.5, 5.0, 5.0]])  # S_l = -(B_l - a_l) at the origin
    monkeypatch.setattr(modeplan, "_leg_geometry", lambda geom, x, y, phi: (serial, serial))
    geom = types.SimpleNamespace(base=np.zeros((3, 2)), L=1.0)
    xs, ys, phis = np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0])

    def upper_x_door(a, v0):
        k = a * (0.5 - v0) ** 2
        conic.append(np.array([[k, 0.0, a, -2.5 * k, -2.0 * a * v0, a * v0 * v0]]))
        # the conic is constant in phi, so |q| bounds its coefficients; the box is [0, 1]^2
        q, band = conic[-1], modeplan.ZERO_DET_REL * modeplan._det_bound(np.abs(conic[-1][0]), 1.0, 1.0)
        return [0, 0, 1, 0] in _serial_doors(geom, xs, ys, phis, np.array([True, False, False]), q, band)[0].tolist()

    assert not upper_x_door(0.40042091985114225, 0.899180570395549)
    rng = np.random.default_rng(61)
    for _ in range(2000):
        a, v0 = float(10.0 ** rng.uniform(-3.0, 3.0)), float(rng.uniform(0.6, 0.9))
        assert not upper_x_door(a, v0), (a, v0)
    for _ in range(20):
        a, v0 = float(10.0 ** rng.uniform(-3.0, 3.0)), float(rng.uniform(1.05, 1.2))
        assert upper_x_door(a, v0), (a, v0)


# ---------------------------------------------------------------------------
# zero nodes: one determinant sign per grid node

# Boxes whose grids have nodes exactly on the reference robot's phi = 0 line
# pair, y = 1 and x + 2y = 16 (Q = 2 (y - 1) (x + 2y - 16)), where the
# kernel's determinant is exactly 0 and the conic's is within a few 1e-15 of it.
ZERO_NODE_GRIDS = [((2, 1, 10, 9), 9), ((-2, 1, 14, 9), 9), ((0, -3, 16, 13), 9), ((2, 1, 10, 9), 17)]


def _box_axes(box, n):
    x0, y0, x1, y1 = box
    return np.linspace(x0, x1, n), np.linspace(y0, y1, n), np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


@pytest.mark.parametrize("box, n", ZERO_NODE_GRIDS)
def test_no_admissible_edge_or_door_ends_at_a_zero_node(ref, box, n):
    """The nodes on the phi = 0 line pair get sign 0, and every edge with
    such an end is inadmissible; no door ends at one either."""
    xs, ys, phis = _box_axes(box, n)
    q, det, sgn, band = _grid_signs(ref, xs, ys, phis)
    zero = sgn == 0
    on_locus = (ys[None, :] == 1.0) | (xs[:, None] + 2.0 * ys[None, :] == 16.0)
    assert np.any(on_locus) and np.array_equal(zero[:, :, 0], on_locus) and not np.any(zero[:, :, 1:])
    assert np.all(_leg_geometry(ref, xs[:, None], ys[None, :], 0.0)[3][on_locus] == 0.0)
    ends = [zero[:-1] | zero[1:], zero[:, :-1] | zero[:, 1:], zero | np.roll(zero, -1, axis=2)]
    for axis in range(3):
        assert np.all(_axis_edge_scan(ref, xs, ys, phis, axis, q, det, sgn, band)[ends[axis]]), axis
    doors = _serial_doors(ref, xs, ys, phis, passage_safety(ref), q, band)[0]
    assert len(doors)
    for axis, i, j, m in doors.tolist():
        assert sgn[i, j, m] and sgn[i + (axis == 0), j + (axis == 1), m]


@pytest.mark.parametrize("box, n", ZERO_NODE_GRIDS)
@pytest.mark.parametrize("start", [(5.0, 5.0, 0.0), (5.9, 5.0, 0.0), (5.05, 5.5, 0.01)])
def test_plans_on_grids_with_zero_nodes_snap_to_nonzero_nodes_and_verify(ref, box, n, start, monkeypatch):
    """On the grids above the route's ends are nonzero nodes, although the
    start (5.9, 5, 0) lies 0.1 from the zero node (6, 5, 0), which joins it
    by a segment that the detector passes; and each plan verifies (each
    failed verification before the node signs were shared)."""
    ends = []

    def route(ok, doors, costs, snapped, *args):
        ends.extend(snapped)
        return grid_route(ok, doors, costs, snapped, *args)

    grid_route = modeplan._grid_route
    monkeypatch.setattr(modeplan, "_grid_route", route)
    monkeypatch.setattr(modeplan, "_search_window", _whole_grid)  # ends as nodes of the whole grid
    path = plan_mode_change(ref, Pose(*start), box=box, resolution=(n, n, n))
    assert verify_mode_change(ref, path).verdict == "changed_without_parallel"
    sgn = _grid_signs(ref, *_box_axes(box, n))[2]
    assert len(ends) == 2 and all(sgn.flat[e] for e in ends)


@pytest.mark.parametrize(
    "box, n, message, explored",
    [
        ((2, 2, 8, 8), 64, None, None),
        ((4, 4, 7, 7), 16, "grid search exhausted without reaching the target", 1773),
        ((4.6, 3.9, 7.4, 6.4), 10, "grid search exhausted without reaching the target", 431),
    ],
)
def test_boxes_with_a_route_through_a_zero_node_are_pinned(ref, box, n, message, explored):
    """Boxes where the scans once took their node signs from three
    evaluators, so that a route changed sign at a node on the locus and
    failed verification: (2, 2, 8, 8) now plans in 5 waypoints and
    verifies, and the other two fail in the search."""
    if message is None:
        path = plan_mode_change(ref, Pose(5, 5, 0), box=box, resolution=(n, n, n))
        assert len(path.waypoints) == 5
        assert verify_mode_change(ref, path).verdict == "changed_without_parallel"
        return
    with pytest.raises(NoPathFound) as info:
        plan_mode_change(ref, Pose(5, 5, 0), box=box, resolution=(n, n, n))
    assert (str(info.value), info.value.explored) == (message, explored)


def test_node_signs_agree_with_the_kernel_outside_the_zero_band():
    """Wherever a node's sign is not 0 the kernel's determinant has that
    sign: on the reference robot at three scales and seeded designs, over
    the default box at 16^3, 32^3 and 64^3 (16^3 has 19 zero nodes there)."""
    for geom in _grid_designs():
        for n in (16, 32, 64):
            xs, ys, phis = _grid_axes(geom, (n, n, n))
            sgn = _grid_signs(geom, xs, ys, phis)[2]
            kernel = np.sign(_leg_geometry(geom, xs[:, None, None], ys[None, :, None], phis)[3])
            assert np.all((sgn == 0) | (sgn == kernel)), n


def test_a_plan_evaluates_the_grid_nodes_once(ref, monkeypatch):
    """A plan takes the conic's coefficients at the grid's angles once (each
    crossing check takes them at the five angles of its gap bound) and
    evaluates no kernel call over as many poses as the grid has nodes.  It
    evaluates the determinant only at the nodes it reads: from (5, 5, 0),
    whose search keeps its window, at the window's nodes, at most 8 corners
    per serial point for the doors and 16 snap corners, well under 20,000;
    from (10.2, -4.3, 2.9), whose search leaves its window, also at every
    node of the whole grid, once."""
    calls, sizes, lattices, windows = [], [], [], []

    def conic(*args):
        calls.append(args)
        return conic_coefficients(*args)

    def kernel(*args):
        out = leg_geometry(*args)
        sizes.append(out[3].size)
        return out

    def vectors(*args):
        out = leg_vectors(*args)
        sizes.append(out[0][0].size)
        return out

    def node_signs(*args):
        out = node_signs_of(*args)
        lattices.append((args[1].shape[1:] == (1, 1), out[0].shape))  # x = xs[:, None, None] on a lattice
        return out

    def window_masks(geom, axes, window, *args):
        windows.append(window)
        return window_masks_of(geom, axes, window, *args)

    conic_coefficients, leg_geometry, leg_vectors, node_signs_of, window_masks_of = (
        modeplan._conic_coefficients, modeplan._leg_geometry, modeplan._leg_vectors,
        modeplan._node_signs, modeplan._window_masks,
    )
    monkeypatch.setattr(modeplan, "_conic_coefficients", conic)
    monkeypatch.setattr(modeplan, "_leg_geometry", kernel)
    monkeypatch.setattr(modeplan, "_leg_vectors", vectors)
    monkeypatch.setattr(modeplan, "_node_signs", node_signs)
    monkeypatch.setattr(modeplan, "_window_masks", window_masks)
    plan_mode_change(ref, Pose(5, 5, 0))
    grid = [phi for _, phi, _ in calls if not np.array_equal(phi, modeplan._TRIG_ANGLES)]
    assert len(grid) == 1 and len(grid[0]) == 64 and max(sizes) < 64**3
    (((i0, i1), (j0, j1)),) = windows
    window = (i1 - i0) * (j1 - j0) * 64
    assert window < 64**3 / 10 and [s for grid, s in lattices if grid] == [(i1 - i0, j1 - j0, 64)]
    points = sum(math.prod(s) for grid, s in lattices if not grid)
    assert points <= 8 * 3 * 64 + 16 and window + points < 20_000, (window, points)

    lattices.clear(), windows.clear()
    plan_mode_change(ref, Pose(10.2, -4.3, 2.9))
    assert len(windows) == 2 and windows[1] == ((0, 64), (0, 64))
    assert [s for grid, s in lattices if math.prod(s) >= 64**3] == [(64, 64, 64)]


def test_window_point_and_grid_evaluations_give_the_same_bits():
    """The determinant of one node has the same bits whether _node_signs
    evaluates it on the whole grid, on a window of the grid, alone, or
    among a door's corners (broadcast (2, 2, k)), and those of the
    expression ((q20 u + (q11 v + q10)) u + ((q02 v + q01) v + q00)) on the
    whole grid; so has its sign."""
    rng = np.random.default_rng(37)
    for geom in _grid_designs():
        for n in (16, 33, 64):
            xs, ys, phis = _grid_axes(geom, (n, n, n))
            q, det, sgn, band = _grid_signs(geom, xs, ys, phis)
            o = geom.base.mean(axis=0)
            q20, q11, q02, q10, q01, q00 = q.T
            u, v = (xs - o[0])[:, None, None], (ys - o[1])[:, None]
            expr = (q20 * u + (q11 * v + q10)) * u + ((q02 * v + q01) * v + q00)
            assert det.tobytes() == expr.tobytes(), n
            (i0, i1), (j0, j1) = (np.sort(rng.choice(n + 1, 2, replace=False)) for _ in range(2))
            sub = _node_signs(geom, xs[i0:i1, None, None], ys[j0:j1, None], q, band)
            assert sub[0].tobytes() == det[i0:i1, j0:j1].tobytes() and np.array_equal(sub[1], sgn[i0:i1, j0:j1])
            i, j, m = (rng.integers(0, n, 50) for _ in range(3))
            alone = _node_signs(geom, xs[i], ys[j], q[m], band)
            assert alone[0].tobytes() == det[i, j, m].tobytes() and np.array_equal(alone[1], sgn[i, j, m])
            side, corner = np.stack([i, i + 1]) % n, (np.stack([j, j + 1]) % n)[:, None]
            doors = _node_signs(geom, xs[side], ys[corner], q[m], band)
            assert doors[0].tobytes() == det[side, corner, m].tobytes() and doors[0].shape == (2, 2, 50)


def _band_designs():
    """The reference robot at three scales and 30 seeded designs, each at
    one of the scales 1e-3, 1 and 1e3."""
    designs = [RobotGeometry(np.asarray(REF_BASE) * s, np.asarray(REF_PLATFORM) * s) for s in (1.0, 1e-3, 1e3)]
    rng = np.random.default_rng(41)
    while len(designs) < 33:
        scale = (1e-3, 1.0, 1e3)[len(designs) % 3]
        geom = RobotGeometry(rng.uniform(-10, 10, (3, 2)) * scale, rng.uniform(-4, 4, (3, 2)) * scale)
        if not is_architecturally_singular(geom)[0]:
            designs.append(geom)
    return designs


def test_the_box_band_holds_the_largest_node_band():
    """The zero band ZERO_DET_REL * T from the bound T on |det| over the box
    is at least ZERO_DET_REL times the largest |det| of the grid's nodes
    (the band it replaced), and within a factor 10 of it, over the default
    box at 16^3, 33^3 and 64^3; the planner takes the same band."""
    for geom in _band_designs():
        for n in (16, 33, 64):
            _, det, _, band = _grid_signs(geom, *_grid_axes(geom, (n, n, n)))
            largest = modeplan.ZERO_DET_REL * np.abs(det).max()
            assert largest <= band <= 10 * largest, (geom, n)
    bands = []  # of a plan on the last design, a 1e3-scale one
    node_signs = modeplan._node_signs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modeplan, "_node_signs", lambda *args: bands.append(args[4]) or node_signs(*args))
        plan_mode_change(geom, Pose(*geom.base.mean(axis=0), 0.3), resolution=(16, 16, 16), require_crossing=False)
    assert set(bands) == {_grid_signs(geom, *_grid_axes(geom, (16, 16, 16)))[3]}


def test_a_box_whose_determinant_bound_overflows_is_a_validation_error(ref):
    """On a box about 1e160 wide the bound on |det| over the box overflows:
    the plan raises ValidationError, worded as the path check's, with no
    RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="the line-matrix determinant on the grid is not finite"):
            plan_mode_change(ref, Pose(5, 5, 0), box=(-1e160, -1e160, 1e160, 1e160), resolution=(16, 16, 16))


def test_a_path_step_whose_bounds_are_not_finite_is_a_validation_error(ref):
    """The step (5, 5, 0) -> (6e100, 5, 1) has a finite bound T on |det| but
    a curvature bound M of nan (inf times 0 among its terms), which used to
    let every same-sign gap of the step through unhalved.  The crossing
    check and verify raise ValidationError on it and on (1e120, 0, 0) ->
    (-1e120, 1, 3), which verify used to judge after six RuntimeWarnings;
    so does a plan in a box 2e150 wide, whose grid's zero band is finite
    but whose snap segments' curvature bounds are not (it used to print
    four RuntimeWarnings and fail to connect its start).  No
    RuntimeWarning on the way."""
    with np.errstate(over="ignore", invalid="ignore"):
        curvature, size = modeplan._step_bounds(ref, modeplan._Paths(np.array([[[5, 5, 0], [6e100, 5, 1]]], float), 16))
    assert np.isnan(curvature[0, 0]) and np.isfinite(size[0, 0])
    message = "the bounds on the line-matrix determinant along the path are not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ends in (((5, 5, 0), (6e100, 5, 1)), ((1e120, 0, 0), (-1e120, 1, 3))):
            path = WorkspacePath(tuple(Pose(*p) for p in ends))
            for check in (detect_crossings, verify_mode_change):
                with pytest.raises(ValidationError, match=message):
                    check(ref, path)
        with pytest.raises(ValidationError, match=message):
            plan_mode_change(ref, Pose(5, 5, 0), box=(-1e150, -1e150, 1e150, 1e150), resolution=(16, 16, 16))


# ---------------------------------------------------------------------------
# exact edge predicates of the planner


def _reference_edge_scan(geom, xs, ys, phis, axis, subsamples=9):
    """The planner's former sampled edge scan: the oracle the exact masks
    must contain.  Every edge is subsampled ``subsamples`` times; an edge
    is crossing when adjacent subsamples change the determinant's sign."""
    nx, ny, np_ = len(xs), len(ys), len(phis)
    if axis < 2:
        along, other = (xs, ys) if axis == 0 else (ys, xs)
        n, no = len(along), len(other)
        fine = np.linspace(along[0], along[-1], (n - 1) * subsamples + 1)
        cross = np.zeros((n - 1, no, np_), bool)
        xy = (fine[:, None], other[None, :])
        if axis == 1:
            xy = xy[::-1]
        for m, ph in enumerate(phis):
            sgn = np.sign(_leg_geometry(geom, *xy, ph)[3])
            cross[:, :, m] = (sgn[:-1] * sgn[1:] <= 0).reshape(n - 1, subsamples, no).any(axis=1)
        return cross.transpose(1, 0, 2) if axis == 1 else cross
    fine = np.linspace(0.0, 2.0 * np.pi, np_ * subsamples, endpoint=False)
    sgn = np.empty((nx, ny, np_ * subsamples), np.int8)
    for k, ph in enumerate(fine):
        sgn[:, :, k] = np.sign(_leg_geometry(geom, xs[:, None], ys[None, :], ph)[3])
    return (sgn * np.roll(sgn, -1, axis=2) <= 0).reshape(nx, ny, np_, subsamples).any(axis=3)


def _check_masks_against_reference(geom, resolution):
    """Exact cross ⊇ sampled cross on every axis."""
    xs, ys, phis = _grid_axes(geom, resolution)
    nodes = _grid_signs(geom, xs, ys, phis)
    for axis in range(3):
        cross = _axis_edge_scan(geom, xs, ys, phis, axis, *nodes)
        ref_cross = _reference_edge_scan(geom, xs, ys, phis, axis)
        assert cross.shape == ref_cross.shape
        assert not np.any(ref_cross & ~cross), f"axis {axis}: exact scan misses a sampled crossing"


@pytest.mark.parametrize("resolution", [(64, 64, 64), (9, 10, 8)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_exact_edge_masks_contain_reference(scale, resolution):
    geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
    _check_masks_against_reference(geom, resolution)


def test_exact_edge_masks_contain_reference_random_designs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
        _check_masks_against_reference(geom, (32, 32, 32))


def test_exact_edge_masks_reference_robot_counts(ref):
    """At 64^3 the reference robot's exact crossing masks have the sampled
    scan's counts, so with the containment above they are equal."""
    xs = ys = np.linspace(-L, 2 * L, 64)
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    nodes = _grid_signs(ref, xs, ys, phis)
    counts = [int(_axis_edge_scan(ref, xs, ys, phis, axis, *nodes).sum()) for axis in range(3)]
    assert counts == [3341, 3275, 9208]


def _trig_terms(geom, x, y, phi):
    """det and its first two phi derivatives at (x, y, phi), from a
    least-squares fit of 1, cos, sin, cos 2phi, sin 2phi to nine samples."""
    ang = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)
    basis = np.stack([np.ones(9), np.cos(ang), np.sin(ang), np.cos(2 * ang), np.sin(2 * ang)], -1)
    a0, a1, b1, a2, b2 = np.linalg.lstsq(basis, _leg_geometry(geom, x, y, ang)[3], rcond=None)[0]
    c1, s1, c2, s2 = np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)
    return (
        a0 + a1 * c1 + b1 * s1 + a2 * c2 + b2 * s2,
        b1 * c1 - a1 * s1 + 2 * (b2 * c2 - a2 * s2),
        -(a1 * c1 + b1 * s1) - 4 * (a2 * c2 + b2 * s2),
    )


def test_exact_phi_scan_finds_two_roots_between_subsamples(ref):
    """A phi edge whose determinant dips through zero and back between two
    adjacent subsamples of the sampled scan."""
    from scipy.optimize import fsolve

    np_ = 8
    gap = 2.0 * np.pi / (np_ * 9)  # the sampled scan's subsample spacing
    phi_c = 1.5 * gap  # middle of the second subsample gap of edge 0
    # a fold of the locus surface: det = d(det)/dphi = 0 at phi_c
    fold = fsolve(lambda p: _trig_terms(ref, p[0], p[1], phi_c)[:2], [1.7, 1.0])
    curvature = _trig_terms(ref, *fold, phi_c)[2]
    # move to where the extremum at phi_c is just past zero: two roots
    # about 0.3 subsample gaps apart
    depth = -np.sign(curvature) * abs(curvature) * (0.15 * gap) ** 2 / 2
    x, y = fsolve(lambda p: np.subtract(_trig_terms(ref, p[0], p[1], phi_c)[:2], [depth, 0.0]), fold)
    dense = _leg_geometry(ref, x, y, np.linspace(0.0, 2.0 * np.pi / np_, 20001))[3]
    assert np.count_nonzero(np.diff(np.sign(dense))) == 2 and dense[0] * dense[-1] > 0

    xs, ys = np.array([x, x + 1.0]), np.array([y, y + 1.0])
    phis = np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)
    assert _axis_edge_scan(ref, xs, ys, phis, 2, *_grid_signs(ref, xs, ys, phis))[0, 0, 0]
    assert not _reference_edge_scan(ref, xs, ys, phis, 2)[0, 0, 0]


# Re(G1 e^{i phi} + G2 e^{2i phi}) (1 + t^2)^2 with t = tan(phi / 2) is
# Re(G @ _TAN_HALF) on t^0 .. t^4, from e^{ik phi} = ((1 + it) / (1 - it))^k.
_TAN_HALF = np.array([[1, 2j, 0, 2j, -1], [1, 4j, -6, -4j, 1]])


def _companion_angles(coef):
    """Four angles per row of coefficients (a0, a1, b1, a2, b2) that include
    every critical point: the real parts of the eigenvalues of each row's
    companion matrix of the derivative's tan-half quartic, in one batched
    LAPACK call (a non-real root only adds a harmless angle)."""
    # the derivative is Re(G1 e^{i phi} + G2 e^{2i phi}); with t = tan((phi -
    # alpha) / 2) the t^4 coefficient is the derivative at alpha + pi, the
    # sample angle where it is largest, so it is never zero
    G = (coef[:, 1::2] - 1j * coef[:, 2::2]) * [1j, 2j]
    at_samples = (G @ np.exp(1j * np.outer([1, 2], modeplan._TRIG_ANGLES))).real
    alpha = modeplan._TRIG_ANGLES[np.argmax(np.abs(at_samples), axis=1)] - np.pi
    poly = ((G * np.exp(1j * np.outer(alpha, [1, 2]))) @ _TAN_HALF).real
    return alpha[:, None] + 2.0 * np.arctan(_companion_roots(poly).real)


def _companion_roots(poly):
    """Roots of each row's quartic poly[0] + ... + poly[4] t^4 as the
    eigenvalues of its companion matrix."""
    companion = np.zeros((len(poly), 4, 4))
    companion[:, 1:, :3] = np.eye(3)
    companion[:, :, 3] = -poly[:, :4] / poly[:, 4:]
    return np.linalg.eigvals(companion)


def _companion_phi_scan(phis, det, sgn):
    """The phi-edge mask from the critical points: each column where the
    chord bound leaves one of its edges open is tested at its
    _companion_angles, and an edge whose extremum has the other sign or is
    zero crosses."""
    np_ = len(phis)
    dphi = 2.0 * np.pi / np_
    coef = det @ (modeplan._trig_basis(phis) * [1, 2, 2, 2, 2] / np_)
    cross = sgn * np.roll(sgn, -1, axis=2) <= 0
    low = np.abs(det) <= (np.abs(coef) @ [0, 1, 1, 4, 4])[..., None] * dphi**2 / 8
    uncertified = ~cross & (low | np.roll(low, -1, axis=2))
    i, j = np.nonzero(uncertified.any(axis=2))
    phc = _companion_angles(coef[i, j]) % (2.0 * np.pi)
    at_phc = np.einsum("kt,kct->kc", coef[i, j], modeplan._trig_basis(phc))
    i, j, m = np.broadcast_arrays(i[:, None], j[:, None], (phc // dphi).astype(int) % np_)
    hit = np.sign(at_phc) * sgn[i, j, m] <= 0
    cross[i[hit], j[hit], m[hit]] = True
    return cross


def _phi_scan_designs():
    """The reference robot at three scales and 60 seeded designs, every
    third nearly similar: a rotated, scaled copy of its base moved by 1e-8
    to 1e-2 L."""
    designs = [RobotGeometry(np.asarray(REF_BASE) * s, np.asarray(REF_PLATFORM) * s) for s in (1.0, 1e-3, 1e3)]
    rng = np.random.default_rng(47)
    while len(designs) < 63:
        base = rng.uniform(-10, 10, (3, 2))
        if len(designs) % 3 == 2:
            platform = rng.uniform(0.2, 0.8) * (base - base.mean(axis=0)) @ rotation(rng.uniform(0, 2 * np.pi)).T
            platform += rng.normal(size=(3, 2)) * 10.0 ** rng.uniform(-8, -2) * np.ptp(base)
        else:
            platform = rng.uniform(-4, 4, (3, 2))
        geom = RobotGeometry(base, platform)
        if not is_architecturally_singular(geom)[0]:
            designs.append(geom)
    return designs


def test_phi_masks_equal_the_companion_scan():
    """The phi-edge masks of the halving scan equal bit for bit those of
    the companion scan, which tests every critical point of the columns
    that the chord bound leaves open, on 63 designs at 16^3, 32^3 and
    64^3."""
    for geom in _phi_scan_designs():
        for n in (16, 32, 64):
            xs, ys, phis = _grid_axes(geom, (n, n, n))
            q, det, sgn, band = _grid_signs(geom, xs, ys, phis)
            got = _axis_edge_scan(geom, xs, ys, phis, 2, q, det, sgn, band)
            assert np.array_equal(got, _companion_phi_scan(phis, det, sgn)), (geom, n)


def test_phi_scan_opens_no_column_constant_in_phi(monkeypatch):
    """A column whose determinant is constant in phi, zero or not, is not
    opened and raises no warning, and its edges cross exactly where its
    node signs say."""
    phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    det = np.empty((2, 2, 8))
    det[0, 0], det[0, 1] = 0.0, 2.0
    det[1] = [1.0 + 2.0 * np.cos(2 * phis), 0.3 + np.sin(phis)]
    sgn = np.sign(det).astype(np.int8)
    masks = []
    nonzero = modeplan._nonzero
    monkeypatch.setattr(modeplan, "_nonzero", lambda a: masks.append(a) or nonzero(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cross = _axis_edge_scan(None, None, None, phis, 2, None, det, sgn, 0.0)
    opened = masks[0]  # the first mask the phi scan takes is that of its opened columns
    assert opened.shape == (2, 2) and not opened[0].any()
    assert cross[0, 0].all() and not cross[0, 1].any()
    assert np.array_equal(cross, _companion_phi_scan(phis, det, sgn))


@pytest.mark.parametrize("np_", [8, 12, 16, 64])
def test_phi_edges_tangent_to_the_locus_cross(np_):
    """Columns f = a (1 - cos k (phi - phi0)), k = 1 or 2, a from 1e-3 to
    1e3 and phi0 inside an edge, touch zero without changing sign: every
    edge that holds a touching point crosses, each column scanned with its
    own zero band."""
    rng = np.random.default_rng(53)
    dphi = 2.0 * np.pi / np_
    phis = np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)
    for _ in range(500):
        a, k = 10.0 ** rng.uniform(-3, 3), int(rng.integers(1, 3))
        phi0 = (rng.integers(np_) + rng.uniform(0.01, 0.99)) * dphi
        det = a * (1.0 - np.cos(k * (phis - phi0)))[None, None]
        band = modeplan.ZERO_DET_REL * np.abs(det).max()
        sgn = (det > band).view(np.int8) - (det < -band).view(np.int8)
        assert np.all(sgn == 1)
        cross = _axis_edge_scan(None, None, None, phis, 2, None, det, sgn, band)[0, 0]
        touching = ((phi0 + 2.0 * np.pi / k * np.arange(k)) // dphi).astype(int) % np_
        assert cross[touching].all(), (a, k, phi0)


def test_phi_edge_whose_end_equals_the_chord_bound_is_halved():
    """The chord bound certifies a piece only where both end values exceed
    it.  The column 1.0006 + cos phi at 9 angles, its nodes at 8pi/9 and
    10pi/9 set to the bound (node 6pi/9 nudged by ulps until the bound
    equals them), opens, and the edge between them is halved: its midpoint
    f(pi) = 6e-4 lies in the band 1e-3 given to the scan, so it crosses."""
    np_ = 9
    phis = np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)
    det = (1.0006 + np.cos(phis))[None, None]

    def bound():
        coef = det @ (modeplan._trig_basis(phis) * [1, 2, 2, 2, 2] / np_)
        return (np.abs(coef) @ [0, 1, 1, 4, 4])[0, 0] * (2.0 * np.pi / np_) ** 2 / 8

    for _ in range(200):
        det[0, 0, 4:6] = bound()
        if bound() == det[0, 0, 4]:
            break
        det[0, 0, 3] = np.nextafter(det[0, 0, 3], 3.0)
    assert bound() == det[0, 0, 4] == det.min()
    cross = _axis_edge_scan(None, None, None, phis, 2, None, det, np.ones(det.shape, np.int8), 1e-3)
    assert cross[0, 0, 4]


def test_phi_scan_of_a_column_whose_bound_is_not_finite_crosses_its_open_edges():
    """A column whose chord bound overflows, or is not finite because of
    infinite node values, is not halved, so the scan ends, and each of its
    same-sign edges crosses: the finite values 1e308 (0.9 + 0.5 cos 2phi),
    whose bound is inf, and 2 + cos phi with two adjacent infinite nodes or
    one, whose bound is nan."""
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    det = np.empty((3, 1, 64))
    det[0, 0] = 1e308 * (0.9 + 0.5 * np.cos(2 * phis))
    det[1:] = 2.0 + np.cos(phis)
    det[1, 0, [2, 3]] = det[2, 0, 0] = np.inf
    band = modeplan.ZERO_DET_REL * np.abs(det[np.isfinite(det)]).max()
    sgn = np.sign(det).astype(np.int8)
    with np.errstate(invalid="ignore", over="ignore"):
        coef = det @ (modeplan._trig_basis(phis) * [1, 2, 2, 2, 2] / 64)
        bound = np.abs(coef) @ [0, 1, 1, 4, 4]
    assert np.all(sgn == 1) and bound[0, 0] == np.inf and np.isnan(bound[1:]).all()
    with np.errstate(invalid="ignore", over="ignore"):
        cross = _axis_edge_scan(None, None, None, phis, 2, None, det, sgn, band)
    assert cross.all()


def test_xy_edges_tangent_to_the_locus_cross():
    """Rows Q = a (u - u0)^2, a from 1e-3 to 1e3 and u0 inside an edge,
    touch zero without changing sign: on both spatial axes the edge that
    holds u0 crosses, each row scanned with its own zero band."""
    rng = np.random.default_rng(59)
    geom = types.SimpleNamespace(base=np.zeros((3, 2)))
    along, other, phis = np.linspace(-1.0, 1.0, 9), np.array([0.0, 0.5]), np.zeros(1)
    for _ in range(1000):
        a, edge = 10.0 ** rng.uniform(-3, 3), int(rng.integers(8))
        u0 = along[edge] + rng.uniform(0.01, 0.99) * (along[1] - along[0])
        row = np.array([a, 0.0, 0.0, -2.0 * a * u0, 0.0, a * u0 * u0])  # (q20, q11, q02, q10, q01, q00)
        det = np.broadcast_to((a * (along - u0) ** 2)[:, None, None], (9, 2, 1))
        band = modeplan.ZERO_DET_REL * det.max()
        sgn = (det > band).view(np.int8) - (det < -band).view(np.int8)
        assert np.all(sgn == 1)
        cross = _axis_edge_scan(geom, along, other, phis, 0, row[None], det, sgn, band)
        assert cross[edge].all(), (a, u0)
        q = row[[2, 1, 0, 4, 3, 5]][None]  # the same quadratic along y
        cross = _axis_edge_scan(geom, other, along, phis, 1, q, det.transpose(1, 0, 2), sgn.transpose(1, 0, 2), band)
        assert cross[:, edge].all(), (a, u0)


def _chord_segment(geom, phi, y, offset, length=20.0):
    """Horizontal constant-phi segment at height y whose quadratic has its
    vertex ``offset`` from the segment start."""
    q20, q11, _, q10, _, _ = singularity_conic(geom, phi).coefficients
    xv = -(q11 * y + q10) / (2.0 * q20)
    return WorkspacePath((Pose(xv - offset, y, phi), Pose(xv - offset + length, y, phi)))


def test_detect_crossings_two_roots_in_one_sample_gap(ref):
    """Two parallel crossings 0.017 L apart inside one sample gap: the
    vertex of the segment's quadratic joins the samples and splits them."""
    events = detect_crossings(ref, _chord_segment(ref, 0.9, -2.4371, 9.7))
    assert [e.kind for e in events] == ["parallel", "parallel"]
    # centred on the vertex, the midpoint sample already splits them
    centred = detect_crossings(ref, _chord_segment(ref, 0.9, -2.4371, 10.0))
    assert [e.kind for e in centred] == ["parallel", "parallel"]
    assert np.allclose([e.t for e in events], [e.t - 0.015 for e in centred], atol=1e-9)


def test_detect_crossings_near_tangent_chords():
    """Random designs, orientations and chords just inside a tangent line of
    the conic: detect_crossings reports exactly the quadratic's roots."""
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        q20, q11, q02, q10, q01, q00 = singularity_conic(geom, phi).coefficients
        # a point of the conic on a random line through the base centroid
        c, e = geom.base.mean(axis=0), rng.normal(size=2)
        a = q20 * e[0] ** 2 + q11 * e[0] * e[1] + q02 * e[1] ** 2
        b = (2 * q20 * c[0] + q11 * c[1] + q10) * e[0] + (q11 * c[0] + 2 * q02 * c[1] + q01) * e[1]
        cc = q20 * c[0] ** 2 + q11 * c[0] * c[1] + q02 * c[1] ** 2 + q10 * c[0] + q01 * c[1] + q00
        disc = b * b - 4 * a * cc
        if disc <= 0 or a == 0:
            continue
        p = c + e * (-b + np.sqrt(disc)) / (2 * a)
        grad = np.array([2 * q20 * p[0] + q11 * p[1] + q10, q11 * p[0] + 2 * q02 * p[1] + q01])
        tangent = np.array([-grad[1], grad[0]]) / np.hypot(*grad)
        curv = q20 * tangent[0] ** 2 + q11 * tangent[0] * tangent[1] + q02 * tangent[1] ** 2
        if abs(curv) < 1e-3 * np.max(np.abs([q20, q11, q02])):
            continue
        # shift the tangent line inward so the roots are 2 * half apart
        half = 10 ** rng.uniform(-3.5, -1.5)
        shift = -np.sign(curv) * abs(curv) * half**2 / np.hypot(*grad)
        mid = p + shift * grad / np.hypot(*grad)
        length = rng.uniform(5.0, 30.0)
        start = mid - tangent * length * rng.uniform(0.1, 0.9)
        path = WorkspacePath((Pose(*start, phi), Pose(*(start + tangent * length), phi)))
        # the exact roots of the quadratic in the segment parameter
        ex, ey = tangent * length
        qa = q20 * ex * ex + q11 * ex * ey + q02 * ey * ey
        qb = (2 * q20 * start[0] + q11 * start[1] + q10) * ex + (q11 * start[0] + 2 * q02 * start[1] + q01) * ey
        qc = singularity_conic(geom, phi).evaluate(*start)
        if qb * qb - 4 * qa * qc <= 0:
            continue
        roots = np.sort((-qb + np.array([-1, 1]) * np.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa))
        if not np.all((roots > 0.0) & (roots < 1.0)):
            continue
        events = detect_crossings(geom, path)
        assert len(events) == 2 and all(e.kind in ("parallel", "passage") for e in events)
        assert np.allclose([e.t for e in events], roots, atol=1e-8)
        checked += 1


def _dense_roots(geom, path, n=200_001):
    """Zeros of the kernel's determinant along ``path``: the sign changes of
    a dense scan, each refined by brentq."""
    from scipy.optimize import brentq

    det = lambda t: _leg_geometry(geom, *path.poses_at(t))[3]
    ts = np.linspace(0.0, 1.0, n)
    return [brentq(det, ts[k], ts[k + 1], xtol=1e-15) for k in np.flatnonzero(np.diff(np.sign(det(ts))))]


_HIDDEN_PAIR = json.loads((DATA / "verify_path_hidden_pair.json").read_text())["waypoints"]


@pytest.mark.parametrize(
    "ends",
    [
        # x, y and phi all move: the path of tests/data that CI verifies
        [(w["x"], w["y"], w["phi"]) for w in _HIDDEN_PAIR],
        # only phi moves, across a fold of the surface at phi = 2.5
        [(1.8010061102359902, -3.7586959872129815, 2.2724892789049655),
         (1.8010061102359902, -3.7586959872129815, 2.7724892789049655)],
    ],
    ids=["general", "phi-only"],
)
def test_detect_crossings_two_roots_in_one_gap_off_constant_phi(ref, ends):
    """Two parallel crossings 0.019 apart in t inside one sample gap of a
    segment along which phi moves: the gap's curvature bound leaves it open,
    halving finds a midpoint of the other sign, and both zeros are refined
    to the roots of a dense scan."""
    path = WorkspacePath(tuple(Pose(*e) for e in ends))
    dets = modeplan._sampled(ref, path).legs[3]
    assert np.all(dets < 0.0) or np.all(dets > 0.0)  # no sample splits the pair
    roots = _dense_roots(ref, path)
    assert len(roots) == 2 and roots[1] - roots[0] < 1.0 / 16
    events = detect_crossings(ref, path)
    assert [e.kind for e in events] == ["parallel", "parallel"]
    assert np.allclose([e.t for e in events], roots, rtol=0.0, atol=1e-9)


def test_detect_crossings_near_tangent_general_segments():
    """Random designs and segments along which x, y and phi all move, laid
    just across a fold of the surface det = 0 so that they cross it twice
    close together: detect_crossings reports exactly the zeros of a dense
    scan, also where both fall between the same two samples."""
    rng = np.random.default_rng(20)
    hidden = 0
    for _ in range(24):
        geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
        Lg, phi = characteristic_scale(geom), rng.uniform(0.0, 2.0 * np.pi)
        # a point of the surface: the conic at phi on a ray from the base centroid
        conic, c, ray = singularity_conic(geom, phi), geom.base.mean(axis=0), rng.normal(size=2)
        along = [conic.evaluate(*(c + r * ray)) for r in (0, 1, 2)]
        radii = np.roots(np.polyfit([0, 1, 2], along, 2))
        if len(radii) == 0 or np.iscomplexobj(radii):
            continue
        p = np.array([*(c + radii[0] * ray), phi])
        det = lambda q: _leg_geometry(geom, *q)[3]
        h = 1e-6 * np.array([Lg, Lg, 1.0])
        grad = np.array([(det(p + e) - det(p - e)) / (2 * e.max()) for e in np.diag(h)])
        # a direction tangent to the surface, then shifted off it along the
        # gradient so that the two zeros lie `gap` apart in t
        step = rng.normal(size=3) * [Lg, Lg, 1.0]
        step -= grad * (step @ grad) / (grad @ grad)
        curv = (det(p + 1e-4 * step) - 2 * det(p) + det(p - 1e-4 * step)) / 1e-8
        gap = rng.uniform(0.1, 0.5) / 16
        p = p - np.sign(curv) * abs(curv) * (gap / 2) ** 2 / 2 * grad / (grad @ grad)
        start = p - rng.uniform(0.3, 0.7) * step
        path = WorkspacePath((Pose(*start), Pose(*(start + step))))
        roots = _dense_roots(geom, path)
        events = detect_crossings(geom, path)
        assert [e.kind for e in events if e.kind == "grazing"] == []
        assert np.allclose([e.t for e in events], roots, rtol=0.0, atol=1e-9)
        ts = modeplan._sampled(geom, path).ts
        hidden += any(np.searchsorted(ts, a) == np.searchsorted(ts, b) for a, b in zip(roots[:-1], roots[1:]))
    assert hidden >= 4


def test_gap_bound_dominates_the_curvature_of_det(monkeypatch):
    """The gap test's chord bound M h^2 / 8, read off _split_gaps as the end
    value below which it halves the one gap [0, 1] of a segment, is at least
    max |det''| / 8 from a dense scan, on random designs and segments along
    which x, y and phi all move."""

    class Halved(Exception):
        pass

    def halved(*args):
        raise Halved

    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(40):
        geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
        Lg = characteristic_scale(geom)
        start = np.array([*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(0.0, 2.0 * np.pi)])
        path = WorkspacePath((Pose(*start), Pose(*(start + rng.normal(size=3) * [Lg, Lg, 1.0]))))
        ts = np.linspace(0.0, 1.0, 20_001)
        curvature = np.abs(np.diff(_leg_geometry(geom, *path.poses_at(ts))[3], 2)).max() / ts[1] ** 2
        lo, hi = 0.0, 1e3 * curvature
        with monkeypatch.context() as m:
            m.setattr(modeplan, "_leg_det", halved)
            for _ in range(60):  # bisect for the end value at which the gap opens
                value = 0.5 * (lo + hi)
                ends = (0, 0, 0, np.full(2, value))  # only det is read
                s = modeplan._SampledPath(path._paths, np.array([0.0, 1.0]), np.array([0, 0]), ends)
                try:
                    modeplan._split_gaps(geom, s)
                    hi = value
                except Halved:
                    lo = value
        ratios.append(8 * lo / curvature)
    assert min(ratios) >= 1.0


def test_gap_bound_follows_the_segments_of_a_row(monkeypatch):
    """On a row of n segments the gap [0, 1/n] is its first segment whole, so
    the end value below which _split_gaps halves it is the one at which it
    halves that segment alone on [0, 1]: the bound is per unit of the
    segment's own parameter, scaled by n^2 per unit of the row's t."""

    class Halved(Exception):
        pass

    def halved(*args):
        raise Halved

    def opening_value(geom, path, end):
        lo, hi = 0.0, 1e30
        with monkeypatch.context() as m:
            m.setattr(modeplan, "_leg_det", halved)
            for _ in range(200):  # bisect for the end value at which the gap opens
                value = 0.5 * (lo + hi)
                s = modeplan._SampledPath(path._paths, np.array([0.0, end]), np.array([0, 0]), (0, 0, 0, np.full(2, value)))
                try:
                    modeplan._split_gaps(geom, s)
                    hi = value
                except Halved:
                    lo = value
        return hi

    rng = np.random.default_rng(67)
    for geom in _phi_scan_designs()[:6]:
        Lg = characteristic_scale(geom)
        table = [Pose(*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(-4, 4)) for _ in range(4)]
        alone = opening_value(geom, WorkspacePath(tuple(table[:2])), 1.0)
        in_row = opening_value(geom, WorkspacePath(tuple(table)), 1.0 / 3.0)
        assert alone == pytest.approx(in_row, rel=1e-12)


def test_gap_test_halves_nothing_where_det_is_zero_up_to_rounding(similar_design, monkeypatch):
    """At phi = 0 the legs of the similar design all meet at one point, so
    det is rounding noise along a phi = 0 segment.  Those values lie in the
    gap test's zero band (1e-12 of the bound on |det| over the segment), so
    no gap is halved; without the band every half stays open."""
    s = modeplan._sampled(similar_design, WorkspacePath((Pose(-3, 1, 0), Pose(9, 7, 0))))
    assert np.abs(s.legs[3]).max() < 1e-12 * characteristic_scale(similar_design) ** 4
    assert np.any(s.legs[3][:-1] * s.legs[3][1:] > 0.0)  # same-sign gaps to test

    def no_kernel(*args):
        raise AssertionError("the gap test halved a gap")

    monkeypatch.setattr(modeplan, "_leg_det", no_kernel)
    ts, rows, dets, _ = modeplan._split_gaps(similar_design, s)
    assert np.array_equal(ts, s.ts) and np.array_equal(dets, s.legs[3])


def _per_gap_bounds(geom, paths, rows, k):
    """The chord bound M and the bound T on |det| of the path steps ``k``
    of rows ``rows``, as _split_gaps computed them per gap before the gap
    forms: from the trigonometric bounds of the conic coefficients, the
    step's rates per unit t and the larger |u| and |v| at its ends."""
    coef = modeplan._conic_coefficients(geom, modeplan._TRIG_ANGLES, geom.base.mean(axis=0)).T
    coef = coef @ (modeplan._trig_basis(modeplan._TRIG_ANGLES) * [1, 2, 2, 2, 2] / 5)
    b0, b1, b2 = (np.array([[1, 1, 1, 1, 1], [0, 1, 1, 2, 2], [0, 1, 1, 4, 4]]) @ np.abs(coef).T).tolist()
    dx, dy, dphi = np.abs(paths.steps[rows, k].T * paths.steps.shape[1])
    o = geom.base.mean(axis=0)
    u, v = np.maximum(np.abs(paths.table[rows, k, :2] - o), np.abs(paths.table[rows, k + 1, :2] - o)).T
    m2 = 2 * ((b0[0] * dx + b0[1] * dy) * dx + b0[2] * dy * dy)
    m1 = (2 * b1[0] * u + b1[1] * v + b1[3]) * dx + (b1[1] * u + 2 * b1[2] * v + b1[4]) * dy
    m0 = (b2[0] * u + b2[1] * v + b2[3]) * u + (b2[2] * v + b2[4]) * v + b2[5]
    top = (b0[0] * u + b0[1] * v + b0[3]) * u + (b0[2] * v + b0[4]) * v + b0[5]
    return (m2 + 2 * dphi * m1 + dphi**2 * m0) / 8, top


def test_step_bounds_equal_the_per_gap_bounds(monkeypatch):
    """M and T of every path step, from the design's gap forms, equal to
    rounding the bounds _split_gaps computed per gap before, on seeded
    designs and paths, one row and batches of 5 rows, indexed by row and
    step; the forms are built once per design."""
    built = []
    forms = modeplan._gap_forms
    monkeypatch.setattr(modeplan, "_gap_forms", lambda geom: built.append(geom) or forms(geom))
    rng = np.random.default_rng(61)
    for geom in _phi_scan_designs()[:24]:
        Lg = characteristic_scale(geom)
        for m, n in ((1, 1), (1, 2), (1, 5), (5, 1), (5, 3)):
            table = np.concatenate([rng.uniform(-Lg, 2 * Lg, (m, n + 1, 2)), rng.uniform(-4, 4, (m, n + 1, 1))], -1)
            paths = modeplan._Paths(table, 16)
            curvature, size = modeplan._step_bounds(geom, paths)
            rows, k = np.indices((m, n)).reshape(2, -1)
            bound, top = _per_gap_bounds(geom, paths, rows, k)
            assert curvature.shape == size.shape == (m, n)
            assert np.allclose(curvature[rows, k] * n * n, bound, rtol=1e-13, atol=0.0)
            assert np.allclose(size[rows, k], top, rtol=1e-13, atol=0.0)
    assert len(built) == 24


def test_step_bounds_of_a_step_are_the_same_bits_in_any_batch():
    """A row's M and T are the bits it gets alone, in batches of 2 to 513
    rows of 1 and 3 segments: the planner's batches and detect_crossings
    on one segment certify its gaps with the same bounds.  Matrix products
    (R @ curv, W @ size) rounded some of these by the batch's size."""
    rng = np.random.default_rng(29)
    for geom in _phi_scan_designs()[:12]:
        Lg = characteristic_scale(geom)
        for m, n in ((2, 1), (7, 3), (64, 1), (513, 1)):
            table = np.concatenate([rng.uniform(-Lg, 2 * Lg, (m, n + 1, 2)), rng.uniform(-4, 4, (m, n + 1, 1))], -1)
            curvature, size = modeplan._step_bounds(geom, modeplan._Paths(table, 16))
            for r in rng.choice(m, min(m, 12), replace=False).tolist():
                alone = modeplan._step_bounds(geom, modeplan._Paths(table[r : r + 1], 16))
                assert alone[0].tobytes() == curvature[r : r + 1].tobytes()
                assert alone[1].tobytes() == size[r : r + 1].tobytes()


@pytest.mark.parametrize("offset", [1e4, 3e4, 1e5])
@pytest.mark.parametrize("where", ["before", "after"])
def test_a_far_segment_keeps_the_hidden_pair_events(ref, offset, where):
    """A segment from or to (x + offset, y, phi), 1e3 to 1e4 L away, joined
    before or after the hidden pair: the pair keeps its two parallel
    events.  A band scaled by the row's largest |det| dropped them from
    3e4 away (and left one grazing event from 1e5)."""
    pair = [(w["x"], w["y"], w["phi"]) for w in _HIDDEN_PAIR]
    far = (pair[0] if where == "before" else pair[1]) + np.array([offset, 0.0, 0.0])
    wps = [tuple(far), *pair] if where == "before" else [*pair, tuple(far)]
    events = detect_crossings(ref, WorkspacePath(tuple(Pose(*w) for w in wps)))
    lo = 0.5 if where == "before" else 0.0
    assert [e.kind for e in events if lo <= e.t <= lo + 0.5] == ["parallel", "parallel"]
    alone = detect_crossings(ref, WorkspacePath(tuple(Pose(*w) for w in pair)))
    assert np.allclose([e.t for e in events if lo <= e.t <= lo + 0.5], [lo + 0.5 * e.t for e in alone], atol=1e-9)


def test_a_segment_has_the_same_events_alone_and_inside_a_path(ref):
    """Each segment of a seeded polyline, one of whose waypoints lies 1e3 to
    1e4 L away, has the same event kinds, legs and count alone as inside the
    path, at t equal within 1e-9 after mapping: its zero band is its own
    step's (ZERO_DET_REL times the bound T on |det|), not its row's.  On
    the reference robot a hidden pair of crossings (x, y and phi moving, or
    phi only) is one of the segments."""
    rng = np.random.default_rng(34)
    pairs = [
        [(w["x"], w["y"], w["phi"]) for w in _HIDDEN_PAIR],
        [(1.8010061102359902, -3.7586959872129815, 2.2724892789049655),
         (1.8010061102359902, -3.7586959872129815, 2.7724892789049655)],
    ]
    counted = 0
    for geom in [ref, ref, *_seeded_designs(34, 3)]:
        Lg = characteristic_scale(geom)
        for n in (3, 4, 5):
            wps = np.column_stack([rng.uniform(-Lg, 2 * Lg, (n + 1, 2)), rng.uniform(-4, 4, n + 1)])
            at, angle = rng.integers(n), rng.uniform(0.0, 2.0 * np.pi)
            if geom is ref:
                wps[at : at + 2] = pairs[n % 2]
            far = rng.choice([j for j in range(n + 1) if j not in (at, at + 1)])
            wps[far, :2] += 10.0 ** rng.uniform(3, 4) * Lg * np.array([np.cos(angle), np.sin(angle)])
            path = WorkspacePath(tuple(Pose(*w) for w in wps), 16 + n)
            inside = detect_crossings(geom, path)
            for k in range(n):
                alone = detect_crossings(geom, WorkspacePath(tuple(Pose(*w) for w in wps[k : k + 2]), 16 + n))
                mine = [e for e in inside if k <= e.t * n < k + 1]
                assert [(e.kind, e.leg) for e in mine] == [(e.kind, e.leg) for e in alone]
                assert np.allclose([e.t for e in mine], [(k + e.t) / n for e in alone], rtol=0.0, atol=1e-9)
                counted += len(alone)
    assert counted > 0

def _seeded_designs(seed, count):
    rng = np.random.default_rng(seed)
    designs = []
    while len(designs) < count:
        base = np.asarray(REF_BASE) + rng.normal(0.0, 1.5, (3, 2))
        geom = RobotGeometry(base, np.asarray(REF_PLATFORM) + rng.normal(0.0, 0.5, (3, 2)))
        if not is_architecturally_singular(geom)[0]:
            designs.append(geom)
    return designs


def _seeded_paths(geom, rng):
    """Random polylines, a constant-phi pass through a serial point (a sign
    flip and a passage) and a tangential zero touch (ambiguous)."""
    Lg = characteristic_scale(geom)
    paths = [
        WorkspacePath(tuple(Pose(*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(-4, 4)) for _ in range(n)), 16 + n)
        for n in (2, 3, 4)
    ]
    phi = rng.uniform(0.0, 2.0 * np.pi)
    s, u = serial_points(geom, phi)[1], rng.normal(0.0, 0.2 * Lg, 2)
    paths.append(WorkspacePath((Pose(*(s - u), phi), Pose(*(s + 1.5 * u), phi))))
    paths.append(_tangential_touch_path(geom))
    return paths


def _certificate_from_parts(geom, path):
    """The certificate assembled from standalone detect_crossings and
    continue_joints and a fresh kernel pass over the joint trace."""
    Lg = characteristic_scale(geom)
    eps = EPS_PASS_REL * Lg
    start, end = path.waypoints[0], path.waypoints[-1]
    start_sq, end_sq = (inverse_kinematics(geom, p).squared for p in (start, end))
    events = tuple(detect_crossings(geom, path, eps))
    joint_path = trace = diagnostic = None
    min_measure = float("inf")
    try:
        joint_path = continue_joints(geom, path)
        _, _, dist, det = _leg_geometry(geom, *path.poses_at(joint_path.ts))
        trace = np.abs(_line_measure(dist, det, Lg)) / Lg
        away = np.abs(joint_path.rho).min(axis=1) > eps
        if np.any(away):
            min_measure = float(np.nanmin(trace[away]))
    except AmbiguousContinuation as exc:
        diagnostic = str(exc)
    if diagnostic is not None:
        verdict = "invalid_endpoints"
    elif float(np.max(np.abs(start_sq - end_sq))) > 1e-9 * Lg**2:
        verdict = "invalid_endpoints"
        diagnostic = "endpoint squared joint values differ: not the same actuator inputs"
    elif pose_distance(start, end, Lg) < 1e-3 * Lg:
        verdict = "no_change"
    elif any(e.kind == "parallel" for e in events):
        verdict = "changed_with_parallel"
    else:
        verdict = "changed_without_parallel"
    return ModeChangeCertificate(
        path, joint_path, events, start, end, start_sq, end_sq, verdict, min_measure, trace, diagnostic
    )


def test_verify_equals_the_certificate_of_its_standalone_parts(ref, planned):
    rng = np.random.default_rng(31)
    cases = [(ref, planned[0])] + [(g, p) for g in [ref, *_seeded_designs(31, 3)] for p in _seeded_paths(g, rng)]
    seen = set()
    for geom, path in cases:
        got = verify_mode_change(geom, path).to_dict()
        assert got == _certificate_from_parts(geom, path).to_dict()
        seen.add(got["verdict"])
        if "sign_flips" not in got:
            seen.add("ambiguous")  # the continuation raised AmbiguousContinuation
        elif got["sign_flips"]:
            seen.add("flipped")
    assert {"changed_without_parallel", "invalid_endpoints", "ambiguous", "flipped"} <= seen


def test_verify_rejects_an_overflowing_design():
    """On a platform frame ~1e300 away the leg products overflow along the
    path; verify used to certify it changed_without_parallel (the endpoint
    check compared NaN), and raises a typed error instead, without a numpy
    warning."""
    geom = RobotGeometry(base=REF_BASE, platform=[[1e300, 0.0], [1.1e300, 0.0], [1e300, 1e299]])
    path = WorkspacePath((Pose(0.0, 0.0, 0.0), Pose(1.0, 1.0, 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (verify_mode_change, detect_crossings, continue_joints):
            with pytest.raises(ValidationError, match="along the path is not finite"):
                check(geom, path)


def test_verify_samples_each_path_once(ref, planned, monkeypatch):
    """One _sample_params call per verified path, which evaluates the
    kernel once per sample it returns (the base samples, then only the
    refinement samples, if any), and no kernel pass over the samples
    after it."""
    real_sample, real_kernel = modeplan._sample_params, modeplan._leg_geometry
    samples, passes, inside = [], [], []

    def sample(geom, path):
        inside.append([])
        try:
            out = real_sample(geom, path)
        finally:
            passes.append(inside.pop())
        samples.append(out)
        return out

    def kernel(geom, x, y, phi):
        if inside:
            inside[-1].append(np.size(x))
        else:
            passes.append(np.shape(x))
        return real_kernel(geom, x, y, phi)

    monkeypatch.setattr(modeplan, "_sample_params", sample)
    monkeypatch.setattr(modeplan, "_leg_geometry", kernel)
    rng = np.random.default_rng(5)
    refined = 0
    for geom, path in [(ref, planned[0])] + [(ref, p) for p in _seeded_paths(ref, rng)]:
        samples.clear()
        passes.clear()
        verify_mode_change(geom, path)
        assert len(samples) == 1
        ts, rows, legs = samples[0]
        sizes = passes[0]  # the kernel passes inside _sample_params
        assert len(sizes) in (1, 2) and sum(sizes) == len(ts)
        assert all(len(v) == len(ts) for v in legs)
        assert ts.shape not in passes[1:]
        refined += len(sizes) == 2
    assert refined >= 1


def _sorted_sample_keys(geom, paths):
    """_sample_params as it was before it kept the base samples' kernel
    outputs: the sorted sample keys ``row + 1j * t`` alone, which the
    caller then evaluated in one more kernel pass."""
    m, n = paths.steps.shape[:2]
    # the base parameters of a row
    u = (np.arange(n)[:, None] + np.linspace(0.0, 1.0, paths.samples + 1)).ravel() / n
    base = np.repeat(np.arange(m), len(u)) + 1j * np.tile(u, m)
    base = np.unique(base)  # sorted already; a segment's end starts the next one
    ts, rows = base.imag, base.real
    dmin = _leg_geometry(geom, *paths.poses_at(ts, rows.astype(int)))[2].min(axis=-1)
    band = modeplan.REFINE_BAND_REL * geom.L
    k = np.nonzero(((dmin[:-1] < band) | (dmin[1:] < band)) & (rows[:-1] == rows[1:]))[0]
    frac = np.arange(1, modeplan.REFINE_FACTOR) / modeplan.REFINE_FACTOR
    extra = ts[k, None] + (ts[k + 1] - ts[k])[:, None] * frac
    keys = np.concatenate([base, (rows[k, None] + 1j * extra).ravel()])
    return np.unique(keys)


def _equivalence_cases(ref):
    """Rows to sample, as (design, _Paths): constant-phi segments through a
    serial point (refined near it), polylines along which x, y and phi all
    move, planner batches of 1 to 1,024 one-segment rows, some of them
    through serial points, and three-segment polylines, whose step ends
    k / 3 are not binary fractions."""
    rng = np.random.default_rng(59)
    cases, designs = [], [ref, *_seeded_designs(59, 3)]
    for geom in designs:
        Lg = characteristic_scale(geom)
        for leg in range(3):
            phi = rng.uniform(0.0, 2.0 * np.pi)
            s, u = serial_points(geom, phi)[leg], rng.normal(0.0, 0.1 * Lg, 2)
            cases.append((geom, WorkspacePath((Pose(*(s - u), phi), Pose(*(s + 1.3 * u), phi)))._paths))
        for n in (2, 3, 5):
            wps = tuple(Pose(*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(-4, 4)) for _ in range(n))
            cases.append((geom, WorkspacePath(wps, 16 + n)._paths))
        for m in (1, 7, 64, 1024):
            p0 = np.column_stack([rng.uniform(-Lg, 2 * Lg, (m, 2)), rng.uniform(0.0, 2.0 * np.pi, m)])
            p0[: m // 4, :2] = serial_points(geom, 0.0)[rng.integers(0, 3, m // 4)]
            p0[: m // 4, 2] = 0.0
            step = rng.normal(0.0, 1.0, (m, 3)) * [0.3 * Lg, 0.3 * Lg, 0.3]
            step[: m // 2, 2] = 0.0  # constant phi
            cases.append((geom, modeplan._Paths(np.stack([p0 - 0.5 * step, p0 + 0.5 * step], axis=1), 16)))
    for geom in designs:
        Lg = characteristic_scale(geom)
        wps = tuple(Pose(*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(-4, 4)) for _ in range(4))
        cases.append((geom, WorkspacePath(wps, 16)._paths))
    return cases


def test_sampling_and_refinement_equal_the_one_pass_forms(ref):
    """The samples keep their bits: _sample_params, which evaluates the
    base samples once and then only the refinement samples, gives the
    parameters, rows and kernel outputs of the former sort-then-evaluate
    pass, sorted by row and strictly increasing in t within each row.  The
    crossing brackets keep theirs too.  At every point at least
    CROSSING_T_TOL / 2 inside a bracket, poses_at gives the pose of the
    scalar formula, and the halving rounds' form, the kernel on the path
    step read once at the bracket's midpoint (step_at, _step_pose), gives
    the determinant of poses_at.  The detector's roots, each bracket refined
    on its own in Python floats, are those the former all-bracket
    refinement through poses_at and the kernel gave.  An empty selection
    and a scalar parameter on row 0 read their steps as poses_at does."""
    tol = modeplan.CROSSING_T_TOL
    refined = rows_checked = brackets = 0
    for geom, paths in _equivalence_cases(ref):
        keys = _sorted_sample_keys(geom, paths)
        ts, rows = keys.imag.copy(), keys.real.astype(int)
        want = _leg_geometry(geom, *paths.poses_at(ts, rows))
        with np.errstate(over="ignore", invalid="ignore"):
            got_ts, got_rows, got = modeplan._sample_params(geom, paths)
        assert got_ts.tobytes() == ts.tobytes() and got_rows.tobytes() == rows.astype(got_rows.dtype).tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        same = got_rows[1:] == got_rows[:-1]
        assert np.all(got_rows[1:] >= got_rows[:-1]) and np.all(got_ts[1:][same] > got_ts[:-1][same])
        m, n = paths.steps.shape[:2]
        refined += len(ts) > m * (n * paths.samples + 1)
        rows_checked += m

        dets = want[3]
        k = np.flatnonzero((rows[:-1] == rows[1:]) & (dets[:-1] * dets[1:] < 0.0))
        lo, hi, r = ts[k], ts[k + 1], rows[k]
        step = np.stack(paths.step_at(0.5 * (lo + hi), r))  # as _split_gaps reads it
        for t in (lo + 0.5 * tol, hi - 0.5 * tol, lo + (hi - lo) * np.random.default_rng(len(k)).uniform(0, 1, len(k))):
            t = np.minimum(np.maximum(t, lo + 0.5 * tol), hi - 0.5 * tol)
            pose = paths.poses_at(t, r)
            assert np.column_stack(pose).tobytes() == _scalar_poses(paths, t, r).tobytes()
            det = _leg_det(geom, *_leg_vectors(geom, *modeplan._step_pose(step, t, n)))
            assert det.tobytes() == _leg_geometry(geom, *pose)[3].tobytes()
        old = bracket_roots_over_all(
            lambda t: _leg_geometry(geom, *paths.poses_at(t, r))[3], lo, hi, dets[k], dets[k + 1], tol
        )
        assert np.array(modeplan._crossing_roots(geom, paths, ts, rows, dets, k)).tobytes() == old.tobytes()
        brackets += len(k)
        for t in (0.0, 1.0, *np.random.default_rng(len(k)).uniform(0.0, 1.0, 8).tolist()):  # row 0, scalar
            scalar = _scalar_poses(paths, np.array([t]), np.array([0]))[0].tobytes()
            assert np.array(modeplan._step_pose(paths.step_at(t, 0), t, n)).tobytes() == scalar
            assert np.array(paths.poses_at(t, 0)).tobytes() == scalar
    assert rows_checked > 4 * 1096 and brackets > 100 and refined > 20
    none = np.array([], dtype=int)
    assert all(v.size == 0 for v in modeplan._step_pose(paths.step_at(none * 0.5, none), none * 0.5, n))
    assert modeplan._crossing_roots(geom, paths, ts, rows, dets, none) == []


def _assert_float_forms_equal_the_kernel(geom, x, y, phi):
    """The one-pose float forms at each pose (x, y, phi) (1-D arrays) give
    the kernel's leg vectors and determinant, and math's cos and sin give
    numpy's, bit for bit."""
    legs = geom.leg_floats
    dx, dy = _leg_vectors(geom, x, y, phi)
    vectors = [_float_leg_vectors(legs, *p) for p in zip(x.tolist(), y.tolist(), phi.tolist())]
    assert np.array([v[0] for v in vectors]).T.tobytes() == dx.tobytes()
    assert np.array([v[1] for v in vectors]).T.tobytes() == dy.tobytes()
    assert np.array([_float_leg_det(legs, *v) for v in vectors]).tobytes() == _leg_det(geom, dx, dy).tobytes()
    for ours, numpys in ((math.cos, np.cos), (math.sin, np.sin)):
        assert np.array([ours(a) for a in phi.tolist()]).tobytes() == numpys(phi).tobytes()


def test_float_leg_forms_give_the_kernel_bits(ref):
    """_float_leg_vectors and _float_leg_det, the kernel's one-pose form
    in Python floats, give the bits of _leg_vectors and of _leg_det on
    them: seeded poses of the reference robot at x1e-3, x1 and x1e3 and of
    seeded designs, platform frames offset by up to 1e4 L from their joints
    and poses up to 1e4 L away, angles at and near 0, +-pi and 2 pi, and
    the points inside the crossing brackets of _equivalence_cases, placed
    in floats on the step step_at reads at each bracket's midpoint as
    poses_at places them, and so is a scalar parameter on row 0.  An empty
    selection reads no step.  math.cos and math.sin give the
    bits of np.cos and np.sin on all these angles: a host where they differ
    fails here instead of moving certificates."""
    rng = np.random.default_rng(25)
    special = np.array([0.0, np.pi, -np.pi, 2.0 * np.pi])
    near = [np.nextafter(special, np.inf), np.nextafter(special, -np.inf)]
    near += [special + d for d in (1e-300, -1e-300, 1e-15, -1e-15, 1e-12, -1e-12, 1e-6, -1e-6)]
    special = np.concatenate([special, *near])
    designs = [RobotGeometry(np.asarray(REF_BASE) * f, np.asarray(REF_PLATFORM) * f) for f in (1e-3, 1.0, 1e3)]
    designs += _seeded_designs(25, 4)
    for e in range(5):  # the platform frame 10^e L from its joints
        offset = 10.0**e * REF_SCALE * rng.normal(0.0, 1.0, 2)
        designs.append(RobotGeometry(REF_BASE, np.asarray(REF_PLATFORM) + offset))
    poses = 0
    for geom in designs:
        Lg = characteristic_scale(geom)
        phi = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 200), special])
        m = len(phi)
        far = 10.0 ** rng.uniform(0.0, 4.0, (m, 1)) * rng.choice([-1.0, 1.0], (m, 2))
        xy = np.where(np.arange(m)[:, None] % 2 == 0, rng.uniform(-Lg, 2.0 * Lg, (m, 2)), far * Lg)
        _assert_float_forms_equal_the_kernel(geom, xy[:, 0], xy[:, 1], phi)
        poses += m
    tol = modeplan.CROSSING_T_TOL
    inside = 0
    for geom, paths in _equivalence_cases(ref):
        ts, rows, legs = modeplan._sample_params(geom, paths)
        dets = legs[3]
        k = np.flatnonzero((rows[:-1] == rows[1:]) & (dets[:-1] * dets[1:] < 0.0))
        steps = paths.step_at(0.5 * (ts[k] + ts[k + 1]), rows[k])
        for lo, hi, r, *step in zip(*(v.tolist() for v in (ts[k], ts[k + 1], rows[k], *steps))):
            t = np.array([lo + 0.5 * tol, hi - 0.5 * tol, *rng.uniform(lo, hi, 3)])
            t = np.minimum(np.maximum(t, lo + 0.5 * tol), hi - 0.5 * tol)
            x, y, phi = paths.poses_at(t, r)
            floats = [modeplan._step_pose(step, v, paths.steps.shape[1]) for v in t.tolist()]
            assert np.array(floats).T.tobytes() == np.array([x, y, phi]).tobytes()
            _assert_float_forms_equal_the_kernel(geom, x, y, phi)
            inside += len(t)
    assert poses > 2500 and inside > 4000
    none = np.array([], dtype=int)
    assert all(v.tolist() == [] for v in paths.step_at(none * 0.5, none))
    for t in (0.0, 1.0, *rng.uniform(0.0, 1.0, 8).tolist()):
        floats = modeplan._step_pose([v.tolist() for v in paths.step_at(t, 0)], t, paths.steps.shape[1])
        assert np.array(floats).tobytes() == np.array(paths.poses_at(t, 0)).tobytes()


def _kernel_clearance(geom, pose, leg):
    """The clearance of ``leg``'s serial point at ``pose`` on the array
    kernel's leg lines (:func:`leg_lines`) with numpy scalars, and whether
    the other two lines counted as parallel."""
    first, second = (line for j, line in enumerate(leg_lines(geom, pose)) if j != leg)
    point = geom.base[leg]
    if first.degenerate or second.degenerate:
        return 0.0, False
    u1, u2 = first.direction, second.direction
    if abs(u1[0] * u2[1] - u1[1] * u2[0]) < 1e-12:
        return float(max(first.point_distance(point), second.point_distance(point))), True
    p = np.linalg.solve(np.array([[-u1[1], u1[0]], [-u2[1], u2[0]]]), -np.array([first.moment, second.moment]))
    return float(np.hypot(p[0] - point[0], p[1] - point[1])), False


def _kernel_classification(geom, pose):
    """classify_configuration's (kind, legs, measure, clearance) from the
    array kernel at one pose, and the branch that gave the clearance."""
    Lg = geom.L
    _, _, dist, det = _leg_geometry(geom, pose.x, pose.y, pose.phi)
    singular = [i for i in range(3) if dist[i] <= 1e-6 * Lg]
    if not singular:
        measure = float(_line_measure(dist, det, Lg) / Lg)
        return ("parallel_singular" if abs(measure) <= 1e-9 else "regular", (), measure, None), "regular"
    if len(singular) == 1:
        clearance, parallel = _kernel_clearance(geom, pose, singular[0])
        branch = "parallel lines" if parallel else "one leg"
    elif len(singular) == 2:
        line = leg_lines(geom, pose)[3 - sum(singular)]
        clearance = 0.0 if line.degenerate else float(max(line.point_distance(geom.base[i]) for i in singular))
        branch = "two legs"
    else:
        clearance, branch = 0.0, "three legs"
    kind = "serial_and_parallel" if clearance <= 1e-6 * Lg else "serial_singular"
    return (kind, tuple(i + 1 for i in singular), None, clearance), branch


def _bits(values):
    """Each float's bytes (None and strings as they are), so that 0.0 and -0.0 differ."""
    return [np.float64(v).tobytes() if isinstance(v, float) else v for v in values]


def test_one_pose_functions_give_the_array_kernel_bits(ref):
    """The one-pose functions, which take the kernel's float twin
    (_pose_geometry), give the bits the array kernel gives at the same pose:
    _pose_geometry itself, classify_configuration, parallel_singularity_measure,
    unnormalized_determinant, platform_points, inverse_kinematics and
    _classify_zeros, each with the type it had.  Poses are seeded, at
    serial points and 1e-9 to 1e-4 L from them, on the reference robot at
    x1e-3, x1 and x1e3, seeded designs, platform frames offset by up to
    1e4 L, a design whose other two leg lines are parallel at S_1(0)
    (|cross| < 1e-12) and one with two legs of zero length at (0, 0, 0).
    So do the measures of a x1e-110 copy, whose leg-length product
    underflows to 0.0 (numpy's nan).  An infinite angle and the design with
    a platform frame ~1e300 away raise ValidationError."""
    rng = np.random.default_rng(34)
    designs = [RobotGeometry(np.asarray(REF_BASE) * f, np.asarray(REF_PLATFORM) * f) for f in (1e-3, 1.0, 1e3)]
    designs += _seeded_designs(34, 4)
    for e in range(5):  # the platform frame 10^e L from its joints
        offset = 10.0**e * REF_SCALE * rng.normal(0.0, 1.0, 2)
        designs.append(RobotGeometry(REF_BASE, np.asarray(REF_PLATFORM) + offset))
    designs.append(RobotGeometry(REF_BASE, [[0.0, 0.0], [10.0, 3.0], [4.0, 5.0]]))  # legs 2, 3 vertical at (0, 0, 0)
    designs.append(RobotGeometry(REF_BASE, [[0.0, 0.0], [10.0, 0.0], [3.0, -2.0]]))  # legs 1, 2 zero at (0, 0, 0)
    branches = collections.Counter()
    for geom in designs:
        Lg = characteristic_scale(geom)
        poses = [Pose(*rng.uniform(-Lg, 2.0 * Lg, 2).tolist(), rng.uniform(0.0, 2.0 * np.pi)) for _ in range(60)]
        for phi in [0.0, *rng.uniform(0.0, 2.0 * np.pi, 4).tolist()]:
            for leg, (sx, sy) in enumerate(serial_points(geom, phi).tolist()):
                for offset in (0.0, 1e-9, 1e-7, 5e-7, 1e-4):
                    u = rng.normal(0.0, 1.0, 2)
                    poses.append(Pose(sx + offset * Lg * u[0], sy + offset * Lg * u[1], phi))
        poses += [Pose(0.0, 0.0, 0.0), Pose(0.0, 3e-8, 0.0), Pose(1e-7, 0.0, 0.0)]
        for pose in poses:
            dx, dy, dist, det = _leg_geometry(geom, pose.x, pose.y, pose.phi)
            got = _pose_geometry(geom, pose.x, pose.y, pose.phi)
            assert np.array(got[:3]).tobytes() == np.array([dx, dy, dist]).tobytes()
            assert type(got[3]) is float and _bits([got[3]]) == _bits([float(det)])
            assert _bits([unnormalized_determinant(geom, pose)]) == _bits([float(det)])
            c = classify_configuration(geom, pose)
            want, branch = _kernel_classification(geom, pose)
            branches[branch] += 1
            assert (c.kind, c.singular_legs) == want[:2]
            assert _bits([c.measure, c.clearance]) == _bits(want[2:])
            for normalized in (False, True):
                if dist.min() <= 1e-9 * Lg:
                    with pytest.raises(SerialDegenerate):
                        parallel_singularity_measure(geom, pose, normalized)
                else:
                    measure = float(_line_measure(dist, det, Lg) / (Lg if normalized else 1.0))
                    assert _bits([parallel_singularity_measure(geom, pose, normalized)]) == _bits([measure])
            c, s = np.cos(pose.phi), np.sin(pose.phi)
            bx, by = geom.platform.T
            points = np.stack([pose.x + (c * bx - s * by), pose.y + (s * bx + c * by)], axis=-1)
            assert platform_points(geom, pose).tobytes() == points.tobytes()
            assert inverse_kinematics(geom, pose).rho.tobytes() == dist.tobytes()
        x, y, phi = (np.array(v) for v in zip(*(p.as_tuple() for p in poses)))
        dx, dy, dist, det = _leg_geometry(geom, x, y, phi)
        measures = (np.abs(_line_measure(dist, det, Lg)) / Lg).tolist()
        for eps in (EPS_PASS_REL * Lg, 1e-6 * Lg):
            for j, got in enumerate(_classify_zeros(geom, x, y, phi, eps)):
                leg = int(np.argmin(dist[j]))
                if dist[j, leg] > eps:
                    want = ("parallel", None, measures[j], None)
                else:
                    clear = _kernel_clearance(geom, Pose(x[j], y[j], phi[j]), leg)[0]
                    kind = "passage" if clear > 1e-6 * Lg else "parallel"
                    want = (kind, leg + 1, 0.0 if np.isnan(measures[j]) else measures[j], clear)
                assert got[:2] == want[:2] and _bits(got[2:]) == _bits(want[2:])
    assert branches["regular"] > 500 and branches["one leg"] > 300
    assert branches["parallel lines"] >= 3 and branches["two legs"] >= 3
    # a x1e-110 copy: every leg is longer than 1e-9 L, but their product is
    # 0.0 in floats, where numpy divides to nan and Python would raise
    tiny = RobotGeometry(np.asarray(REF_BASE) * 1e-110, np.asarray(REF_PLATFORM) * 1e-110)
    pose = Pose(5e-110, 5e-110, 0.3)
    dist = _pose_geometry(tiny, *pose.as_tuple())[2]
    assert dist[0] * dist[1] * dist[2] == 0.0 and min(dist) > 1e-9 * tiny.L
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want, _ = _kernel_classification(tiny, pose)
        assert _bits([classify_configuration(tiny, pose).measure]) == _bits([want[2]])
        _, _, dist, det = _leg_geometry(tiny, *pose.as_tuple())
        assert _bits([parallel_singularity_measure(tiny, pose)]) == _bits([float(_line_measure(dist, det, tiny.L))])
    for evaluate in (classify_configuration, inverse_kinematics):  # math.cos raises on inf, np.cos gives nan
        with pytest.raises(ValidationError):
            evaluate(ref, Pose(0.0, 0.0, math.inf))
    far = RobotGeometry(REF_BASE, [[1e300, 0.0], [1.1e300, 0.0], [1e300, 1e299]])
    pose = Pose(0.0, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (
            classify_configuration,
            parallel_singularity_measure,
            unnormalized_determinant,
            lambda geom, pose: _classify_zeros(geom, *np.array([pose.as_tuple()]).T, EPS_PASS_REL * geom.L),
        ):
            with pytest.raises(ValidationError, match="is not finite: the design's coordinates are too large"):
                evaluate(far, pose)


def test_serial_clearance_agrees_between_classifier_and_crossing_detector(ref):
    """At poses with one leg inside the 1e-6*L serial band, the classifier's
    clearance and the crossing detector's are the same float."""
    rng = np.random.default_rng(17)
    for geom in [ref, *_seeded_designs(17, 4)]:
        Lg = characteristic_scale(geom)
        for k in range(30):
            leg, phi = k % 3, rng.uniform(0.0, 2.0 * np.pi)
            offset = rng.uniform(0.0, 0.9e-6 * Lg) * np.array([np.cos(k), np.sin(k)])
            pose = Pose(*(serial_points(geom, phi)[leg] + offset), phi)
            c = classify_configuration(geom, pose)
            assert c.singular_legs == (leg + 1,)
            kind, zero_leg, _, clearance = _classify_zeros(geom, *np.array([pose.as_tuple()]).T, EPS_PASS_REL * Lg)[0]
            assert zero_leg == leg + 1
            assert clearance == c.clearance and type(clearance) is type(c.clearance)
            assert (kind == "passage") == (c.kind == "serial_singular")


@pytest.mark.parametrize("tag, scale", [("1e-3", 1e-3), ("1e3", 1e3)])
def test_scaled_reference_plans_equal_pinned_waypoints(tag, scale):
    """The x1e-3 and x1e3 copies of the reference robot, planned from
    (5s, 5s, 0) at the default grid, give the waypoints an earlier version
    of the planner gave (pinned in tests/data)."""
    geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
    path = plan_mode_change(geom, Pose(5.0 * scale, 5.0 * scale, 0.0))
    pinned = json.loads((DATA / f"plan_ref_x{tag}_5_5_0.json").read_text())["waypoints"]
    assert [w.as_tuple() for w in path.waypoints] == [(w["x"], w["y"], w["phi"]) for w in pinned]


def test_seeded_design_plan_equals_pinned_waypoints():
    """A uniformly drawn design planned from a seeded start at the default
    grid gives the waypoints of the planner that searched the whole grid
    (pinned in tests/data)."""
    rng = np.random.default_rng(3)
    geom = RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2)))
    start = Pose(*rng.uniform(-geom.L, 2 * geom.L, 2), rng.uniform(0.0, 2.0 * np.pi))
    path = plan_mode_change(geom, start)
    pinned = json.loads((DATA / "plan_random_seed3.json").read_text())["waypoints"]
    assert [w.as_tuple() for w in path.waypoints] == [tuple(w) for w in pinned]


def _batch_against_detector(geom, p0s, p1s):
    """Check all segments in one batched call and each one alone with
    detect_crossings on a default WorkspacePath of it: the same
    admissibility, passage flag and events.  Returns the set of outcomes
    seen."""
    Lg = characteristic_scale(geom)
    eps = EPS_PASS_REL * Lg
    safe = passage_safety(geom)
    checked = _segments_crossings(geom, p0s, p1s, eps, safe)
    assert len(checked) == len(p0s)
    seen = set()
    for p0, p1, got in zip(p0s, p1s, checked):
        ends = (Pose(*p0), Pose(*p1))
        live = pose_distance(*ends, Lg) > 1e-9 * Lg
        alone = detect_crossings(geom, WorkspacePath(ends), eps) if live else []
        unsafe = any(e.kind == "passage" and not safe[e.leg - 1] for e in alone)
        parallel = any(e.kind == "parallel" for e in alone)
        assert (got is None) == (unsafe or parallel)
        if got is not None:
            assert [(e.t, e.kind, e.leg) for e in got] == [(e.t, e.kind, e.leg) for e in alone]
        seen.add("unsafe" if unsafe and not parallel else "parallel" if parallel else "admissible")
        seen.update(e.kind for e in alone)
        if [e.kind for e in alone] == ["parallel", "parallel"]:
            seen.add("two parallel")
        if not live:
            seen.add("zero length")
    return seen


def _planner_segments(geom, rng, res):
    """Seeded segments of every kind the planner checks or joins on a res^3
    grid over its default box: the three pieces of every door's path,
    random grid edges along x, y and phi (phi edges that wrap past 2 pi
    included), stubs from random poses to the corners of their cells, and
    long shortcuts."""
    Lg = characteristic_scale(geom)
    xs, ys, phis = _grid_axes(geom, (res,) * 3)
    steps = np.diag([xs[1] - xs[0], ys[1] - ys[0], 2.0 * np.pi / res])
    corner = lambda i, j, m: np.array([xs[i], ys[j], phis[m]])
    q, _, _, band = _grid_signs(geom, xs, ys, phis)
    doors, points, _ = _serial_doors(geom, xs, ys, phis, passage_safety(geom), q, band)
    p0s, p1s = [], []
    for (axis, i, j, m), (a, b) in zip(doors.tolist(), points):
        p0s += [corner(i, j, m), a, b]
        p1s += [a, b, corner(i, j, m) + steps[axis]]
    for axis in range(3):
        edges = rng.integers(0, res - 1, (12, 3)).tolist() + [[3, 5, res - 1]]
        p0s += [corner(*e) for e in edges]
        p1s += [corner(*e) + steps[axis] for e in edges]
    for _ in range(6):
        pose = np.array([*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(0.0, 2.0 * np.pi)])
        i, j, m = (np.searchsorted(v, c) - 1 for v, c in zip((xs, ys, phis), pose))
        for di in (0, 1):
            for dj in (0, 1):
                for dm in (0, 1):
                    p0s.append(pose)
                    p1s.append(corner(i + di, j + dj, (m + dm) % res))
    for _ in range(12):
        p0s.append(np.array([*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(0.0, 2.0 * np.pi)]))
        p1s.append(np.array([*rng.uniform(-Lg, 2 * Lg, 2), rng.uniform(0.0, 2.0 * np.pi)]))
    p0s.append(p0s[-1])  # a segment of zero length
    p1s.append(p0s[-1])
    return np.array(p0s), np.array(p1s)


def test_batched_crossing_check_equals_detect_crossings_per_segment(ref):
    """One batched check of many independent segments gives each the
    admissibility, passage flag and events (t, kind, leg) that
    detect_crossings finds on that segment alone, bit for bit: on the
    planner's segments at two resolutions, on the chord whose two crossings
    share one sample gap, and on segments through the serial point of a
    passage-unsafe leg."""
    rng = np.random.default_rng(41)
    seen = set()
    for res in (64, 16):
        seen |= _batch_against_detector(ref, *_planner_segments(ref, rng, res))
    # the chord of test_detect_crossings_two_roots_in_one_sample_gap, whose
    # two crossings share a sample gap, among other segments
    chord = _chord_segment(ref, 0.9, -2.4371, 9.7).waypoints
    p0s, p1s = _planner_segments(ref, rng, 16)
    p0s = np.insert(p0s, 7, chord[0].as_tuple(), axis=0)
    p1s = np.insert(p1s, 7, chord[1].as_tuple(), axis=0)
    # a segment that touches the locus away from every serial point, refused as a parallel touch
    touch = _touch_segment(ref, 0.9, _touch_point(ref, 0.9)).waypoints
    p0s = np.insert(p0s, 3, touch[0].as_tuple(), axis=0)
    p1s = np.insert(p1s, 3, touch[1].as_tuple(), axis=0)
    seen |= _batch_against_detector(ref, p0s, p1s)
    # leg 1 of this design is passage-unsafe: a passage through it is inadmissible
    theta = np.arctan(2)
    matched = RobotGeometry(base=REF_BASE, platform=[(0, 0), (3, 0), (1.5 * np.cos(theta), 1.5 * np.sin(theta))])
    assert list(passage_safety(matched)) == [False, True, True]
    p0s, p1s = _planner_segments(matched, rng, 32)
    for phi in rng.uniform(0.0, 2.0 * np.pi, 8):
        s, u = serial_points(matched, phi)[0], rng.normal(0.0, 0.05 * L, 2)
        p0s = np.vstack([p0s, [*(s - u), phi]])
        p1s = np.vstack([p1s, [*(s + u), phi]])
    seen |= _batch_against_detector(matched, p0s, p1s)
    assert {"admissible", "parallel", "unsafe", "passage", "two parallel", "zero length"} <= seen


# The reference base with a platform whose angle at b1 is the supplement of
# the base angle at a1, in the opposite orientation: the unsigned angles
# differ, the signed ones agree modulo pi, and leg 1's serial point is a
# parallel singularity at phi = 0, where the locus holds a whole line.
_SUPPLEMENTARY_PLATFORM = [
    [-0.627322003750035, 0.7453559924999299],
    [2.372677996249965, 0.7453559924999299],
    [-1.7453559924999298, -1.49071198499986],
]


def test_plans_on_the_supplementary_design_stay_off_its_parallel_line():
    """Leg 1 of this design is not passage-safe, so no plan passes through
    its serial point.  From three starts (two of twelve seeded ones), every
    plan verifies changed_without_parallel and no pose at 501 uniform t is
    parallel_singular.  With leg 1 taken as safe, one of these plans failed
    verification and one ran along the line at phi = 0, certified through
    129 grazing events."""
    geom = RobotGeometry(REF_BASE, _SUPPLEMENTARY_PLATFORM)
    assert passage_safety(geom).tolist() == [False, True, True]
    rng = np.random.default_rng(11)
    seeded = [(rng.uniform(0, 10), rng.uniform(0, 8), rng.uniform(-3, 3)) for _ in range(8)]
    starts = [(2.045094613300449, 4.4298429029218225, -0.09825181845967368), seeded[2], seeded[7]]
    for start in starts:
        path = plan_mode_change(geom, Pose(*start))
        cert = verify_mode_change(geom, path)
        assert cert.verdict == "changed_without_parallel"
        assert not any(e.kind == "grazing" for e in cert.events)
        kinds = {classify_configuration(geom, Pose(*p)).kind for p in zip(*path.poses_at(np.linspace(0, 1, 501)))}
        assert "parallel_singular" not in kinds


def _pinned_path(name):
    """The WorkspacePath of a waypoint file in tests/data."""
    wps = json.loads((DATA / name).read_text())["waypoints"]
    return WorkspacePath(tuple(Pose(w["x"], w["y"], w["phi"]) for w in wps))


def test_the_path_along_the_supplementary_parallel_line_is_parallel():
    """The plan from (2.045, 4.430, -0.098) that an earlier planner made on
    the supplementary design, with leg 1 taken as passage-safe, runs along
    the parallel line at phi = 0 (pinned in tests/data).  Every zero on it
    is classified, so the verdict is changed_with_parallel: each event whose
    legs are all longer than eps_pass is parallel, and the grazing events
    left are touches inside leg 1's passage window, with their clearance."""
    geom = RobotGeometry(REF_BASE, _SUPPLEMENTARY_PLATFORM)
    path = _pinned_path("verify_path_supplementary_line.json")
    cert = verify_mode_change(geom, path)
    assert cert.verdict == "changed_with_parallel"
    dist = _leg_geometry(geom, *path.poses_at(np.array([e.t for e in cert.events])))[2]
    away = dist.min(axis=-1) > EPS_PASS_REL * characteristic_scale(geom)
    assert away.sum() > 100 and all(e.kind == "parallel" for e, a in zip(cert.events, away) if a)
    grazing = [e for e in cert.events if e.kind == "grazing"]
    assert grazing and all(e.leg == 1 and e.clearance_at > 0.0 for e in grazing)


def _touch_segment(geom, phi, p):
    """A constant-phi segment of length 4 tangent to the conic at its
    point p, with p at the sample t = 0.5, moved along the conic's normal so
    that the kernel's determinant there lies inside the step's zero band
    (ZERO_DET_REL times the bound T on |det|), with the sign of its
    neighbours: det touches zero there without changing sign."""
    q20, q11, q02, q10, q01, _ = singularity_conic(geom, phi).coefficients
    grad = np.array([2 * q20 * p[0] + q11 * p[1] + q10, q11 * p[0] + 2 * q02 * p[1] + q01])
    normal = grad / np.hypot(*grad)
    tangent = 2.0 * np.array([-normal[1], normal[0]])
    curv = q20 * tangent[0] ** 2 + q11 * tangent[0] * tangent[1] + q02 * tangent[1] ** 2
    shift = 0.0
    for _ in range(3):
        mid = p + shift * normal
        path = WorkspacePath((Pose(*(mid - tangent), phi), Pose(*(mid + tangent), phi)))
        band = modeplan.ZERO_DET_REL * modeplan._step_bounds(geom, path._paths)[1][0, 0]
        shift += (np.sign(curv) * band / 2 - _leg_geometry(geom, *path.poses_at(0.5))[3]) / np.hypot(*grad)
    s = modeplan._sampled(geom, path)
    (k,) = np.flatnonzero(s.ts == 0.5)
    dets = s.legs[3][k - 1 : k + 2] * np.sign(curv)
    assert 0.0 < dets[1] <= band and dets[1] < dets[0] and dets[1] < dets[2]
    return path


def _touch_point(geom, phi):
    """A point of the conic at phi on the ray from the base centroid along (1, 0.3)."""
    conic, c, ray = singularity_conic(geom, phi), geom.base.mean(axis=0), np.array([1.0, 0.3])
    radius = np.roots(np.polyfit([0, 1, 2], [conic.evaluate(*(c + r * ray)) for r in (0, 1, 2)], 2)).max()
    return c + radius * ray


def _assert_scan_agrees(geom, path, cert, n=2001):
    """A uniform-scan oracle for the certificate ``cert`` of ``path``: n
    uniform t through the kernel alone, with no gap certificate, zero band
    or bracket.  It asserts, one-sided, that each sign change between
    nonzero scan values has an event within one scan spacing of its gap,
    and that a scan pose whose legs are all longer than eps_pass and which
    classifies parallel_singular rules out changed_without_parallel.
    Returns the number of sign changes and of such poses."""
    ts = np.linspace(0.0, 1.0, n)
    poses = np.array(path.poses_at(ts))
    _, _, dist, det = _leg_geometry(geom, *poses)
    h, events = ts[1], np.array([e.t for e in cert.events])
    nonzero = np.flatnonzero(det)
    change = det[nonzero[:-1]] * det[nonzero[1:]] < 0.0
    lo, hi = ts[nonzero[:-1][change]] - h, ts[nonzero[1:][change]] + h
    assert np.all(np.searchsorted(events, lo) < np.searchsorted(events, hi, side="right"))
    away = dist.min(axis=-1) > EPS_PASS_REL * characteristic_scale(geom)
    kinds = [classify_configuration(geom, Pose(*p)).kind for p in poses[:, away].T.tolist()]
    parallel = kinds.count("parallel_singular")
    assert not parallel or cert.verdict != "changed_without_parallel"
    return int(change.sum()), parallel


@pytest.mark.parametrize(
    "name", [*sorted(p.name for p in DATA.glob("verify_path_*.json")), "plan_ref_5_5_0.json", "plan_ref_0_0_0.json"]
)
def test_a_uniform_scan_agrees_with_the_certificate(ref, name):
    """The certificate of every pinned path (the supplementary one on its
    design, the others on the reference robot) agrees with a uniform scan of
    2001 points (:func:`_assert_scan_agrees`).  The scan sees a sign change
    on each, and parallel_singular poses on the supplementary path."""
    geom = RobotGeometry(REF_BASE, _SUPPLEMENTARY_PLATFORM) if "supplementary" in name else ref
    path = _pinned_path(name)
    changes, parallel = _assert_scan_agrees(geom, path, verify_mode_change(geom, path))
    assert changes > 0
    assert parallel > 0 or "supplementary" not in name


def test_a_touch_away_from_every_serial_point_is_parallel(ref):
    """A segment tangent to the conic at a regular point, every leg far
    longer than eps_pass, touches det = 0 without a sign change: a parallel
    singularity, which the detector reports as one parallel event at the
    touch and the planner's batched check refuses."""
    p = _touch_point(ref, 0.9)
    path = _touch_segment(ref, 0.9, p)
    assert _leg_geometry(ref, *path.poses_at(0.5))[2].min() > 0.4 * L
    events = detect_crossings(ref, path)
    assert [(e.t, e.kind, e.leg) for e in events] == [(0.5, "parallel", None)]
    ends = np.array([w.as_tuple() for w in path.waypoints])
    p0s, p1s = np.array([ends[0], [0.0, 0.0, 0.0]]), np.array([ends[1], [1.0, 0.5, 0.0]])
    assert _segments_crossings(ref, p0s, p1s, EPS_PASS_REL * L, passage_safety(ref)) == [None, []]


def test_a_touch_at_a_passage_safe_serial_point_grazes(ref):
    """The same tangent segment through the serial point S_1(0.9) of the
    passage-safe leg 1: the touch lies inside the passage window, so it
    grazes, with leg 1 and its clearance set."""
    assert passage_safety(ref)[0]
    path = _touch_segment(ref, 0.9, serial_points(ref, 0.9)[0])
    (event,) = detect_crossings(ref, path)
    assert (event.t, event.kind, event.leg) == (0.5, "grazing", 1)
    assert event.clearance_at == pytest.approx(4.25, abs=0.01)
