import heapq
import itertools
import json
import pathlib
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
    _classify_zeros,
    _grid_route,
    _node_signs,
    _segments_crossings,
    _serial_doors,
)
from planar_rpr.singularity import (
    _leg_geometry,
    _line_measure,
    classify_configuration,
    is_architecturally_singular,
    passage_safety,
    serial_points,
    singularity_conic,
)

from conftest import REF_BASE, REF_PLATFORM, REF_SCALE

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_path_rejects_non_finite_waypoints(bad):
    with pytest.raises(ValidationError, match="finite"):
        WorkspacePath((Pose(0, 0, 0), Pose(1, bad, 0)))


def test_pose_interpolation_wraps_phi():
    path = WorkspacePath((Pose(0, 0, 0.1), Pose(0, 0, 2 * np.pi - 0.1)), 16)
    mid = path.pose_at(0.5)
    assert mid.phi == pytest.approx(0.0)  # short way through zero


def _scalar_pose(path, t):
    """The scalar interpolation formula of WorkspacePath.pose_at in 0.1.0."""
    n = len(path.waypoints) - 1
    t = min(max(float(t), 0.0), 1.0)
    k = min(int(t * n), n - 1)
    s = t * n - k
    a, b = path.waypoints[k], path.waypoints[k + 1]
    return (a.x + s * (b.x - a.x), a.y + s * (b.y - a.y), a.phi + s * wrap_angle(b.phi - a.phi))


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
    reference = np.array([_scalar_pose(path, t) for t in ts])
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


@pytest.mark.parametrize("resolution", [(16.9, 16, 16), (16, 16.5, 16), (16, 16, float("nan"))])
def test_planner_rejects_resolutions_that_are_not_whole_numbers(ref, resolution):
    """A fractional resolution is an error, not a grid of its integer part."""
    with pytest.raises(ValidationError, match="resolution must be whole numbers"):
        plan_mode_change(ref, Pose(5, 5, 0), resolution=resolution)


def test_planner_validates_box_and_resolution_before_kinematics(ref, monkeypatch):
    def kinematics_ran(*args, **kwargs):
        raise AssertionError("kinematics ran before the box and resolution checks")

    for name in ("is_architecturally_singular", "classify_configuration", "solve_fk", "inverse_kinematics"):
        monkeypatch.setattr(modeplan, name, kinematics_ran)
    start = Pose(5, 5, 0)
    with pytest.raises(ValidationError, match="box must have positive extent"):
        plan_mode_change(ref, start, box=(2, 2, 1, 1))
    with pytest.raises(ValidationError, match="resolution must be at least 8 per axis"):
        plan_mode_change(ref, start, resolution=(4, 64, 64))
    with pytest.raises(ValidationError, match="more than 10,000,000 grid nodes"):
        plan_mode_change(ref, start, resolution=(1000, 1000, 1000))


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
    return _grid_route(ok, (lo.astype(int), hi.astype(int), w), costs, ends, require_crossing, 0)


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
    search = _TwoEndedSearch(ok, costs, ends)
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
    search = _TwoEndedSearch(ok, costs, (s, t))
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


def _planner_grid(geom, shape):
    """Edge costs, admissible masks and doors of the planner's grid of
    ``shape`` over its default box, built as the planner builds them: one
    scan per axis and the doors of the serial points."""
    xs, ys, phis = _grid_axes(geom, shape)
    costs = (float(xs[1] - xs[0]), float(ys[1] - ys[0]), float(characteristic_scale(geom) * 2.0 * np.pi / shape[2]))
    q, det, sgn = _node_signs(geom, xs, ys, phis)
    ok = [~_axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn) for axis in range(3)]
    doors = _serial_doors(geom, xs, ys, phis, passage_safety(geom), q, sgn)[0]
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
        q, det, sgn = _node_signs(geom, xs, ys, phis)
        full = [_axis_edge_scan(geom, xs, ys, phis, axis, q, det, sgn) for axis in range(3)]
        boxes = [(0, 40, 0, 36), (0, 2, 0, 2), (38, 40, 3, 5), (5, 30, 34, 36)]
        for _ in range(6):
            boxes.append((*np.sort(rng.choice(41, 2, replace=False)), *np.sort(rng.choice(37, 2, replace=False))))
        for box in [b for b in boxes if b[1] - b[0] >= 2 and b[3] - b[2] >= 2]:
            i0, i1, j0, j1 = box
            for axis, cut in enumerate(_cut(*box)):
                window = (q, det[i0:i1, j0:j1], sgn[i0:i1, j0:j1])
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
            search = _TwoEndedSearch(ok, costs, ends)
            for bound in [0.0, *(c * 2.0 ** np.arange(-1, 6))]:
                dist = search.until(lambda: bound)  # searches to this bound, or completes below it
                assert np.array_equal(dist, dijkstra(graph, indices=ends, limit=bound))
                compared += 1
    assert compared >= 40


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
            q, _, sgn = _node_signs(geom, xs, ys, phis)
            doors, points, serial = _serial_doors(geom, xs, ys, phis, safe, q, sgn)
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
    q, det, sgn = _node_signs(ref, xs, ys, phis)
    zero = sgn == 0
    on_locus = (ys[None, :] == 1.0) | (xs[:, None] + 2.0 * ys[None, :] == 16.0)
    assert np.any(on_locus) and np.array_equal(zero[:, :, 0], on_locus) and not np.any(zero[:, :, 1:])
    assert np.all(_leg_geometry(ref, xs[:, None], ys[None, :], 0.0)[3][on_locus] == 0.0)
    ends = [zero[:-1] | zero[1:], zero[:, :-1] | zero[:, 1:], zero | np.roll(zero, -1, axis=2)]
    for axis in range(3):
        assert np.all(_axis_edge_scan(ref, xs, ys, phis, axis, q, det, sgn)[ends[axis]]), axis
    doors = _serial_doors(ref, xs, ys, phis, passage_safety(ref), q, sgn)[0]
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
    path = plan_mode_change(ref, Pose(*start), box=box, resolution=(n, n, n))
    assert verify_mode_change(ref, path).verdict == "changed_without_parallel"
    sgn = _node_signs(ref, *_box_axes(box, n))[2]
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
            sgn = _node_signs(geom, xs, ys, phis)[2]
            kernel = np.sign(_leg_geometry(geom, xs[:, None, None], ys[None, :, None], phis)[3])
            assert np.all((sgn == 0) | (sgn == kernel)), n


def test_a_plan_evaluates_the_grid_nodes_once(ref, monkeypatch):
    """A plan takes the conic's coefficients at the grid's angles once (each
    crossing check takes them at the five angles of its gap bound) and
    evaluates no kernel call over as many poses as the grid has nodes."""
    calls, sizes = [], []

    def conic(*args):
        calls.append(args)
        return conic_coefficients(*args)

    def kernel(*args):
        out = leg_geometry(*args)
        sizes.append(out[3].size)
        return out

    conic_coefficients, leg_geometry = modeplan._conic_coefficients, modeplan._leg_geometry
    monkeypatch.setattr(modeplan, "_conic_coefficients", conic)
    monkeypatch.setattr(modeplan, "_leg_geometry", kernel)
    plan_mode_change(ref, Pose(5, 5, 0))
    grid = [phi for _, phi, _ in calls if not np.array_equal(phi, modeplan._TRIG_ANGLES)]
    assert len(grid) == 1 and len(grid[0]) == 64 and max(sizes) < 64**3


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
    nodes = _node_signs(geom, xs, ys, phis)
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
    nodes = _node_signs(ref, xs, ys, phis)
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
    assert _axis_edge_scan(ref, xs, ys, phis, 2, *_node_signs(ref, xs, ys, phis))[0, 0, 0]
    assert not _reference_edge_scan(ref, xs, ys, phis, 2)[0, 0, 0]


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
            m.setattr(modeplan, "_leg_geometry", halved)
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

    monkeypatch.setattr(modeplan, "_leg_geometry", no_kernel)
    ts, rows, dets, _ = modeplan._split_gaps(similar_design, s)
    assert np.array_equal(ts, s.ts) and np.array_equal(dets, s.legs[3])


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
    """One _sample_params call per verified path, and one kernel pass over
    the samples it returns (the base-sample pass inside it aside)."""
    real_sample, real_kernel = modeplan._sample_params, modeplan._leg_geometry
    samples, passes, inside = [], [], []

    def sample(geom, path):
        inside.append(True)
        try:
            ts = real_sample(geom, path)
        finally:
            inside.pop()
        samples.append(ts)
        return ts

    def kernel(geom, x, y, phi):
        if not inside:
            passes.append(np.shape(x))
        return real_kernel(geom, x, y, phi)

    monkeypatch.setattr(modeplan, "_sample_params", sample)
    monkeypatch.setattr(modeplan, "_leg_geometry", kernel)
    rng = np.random.default_rng(5)
    for geom, path in [(ref, planned[0])] + [(ref, p) for p in _seeded_paths(ref, rng)]:
        samples.clear()
        passes.clear()
        verify_mode_change(geom, path)
        assert len(samples) == 1
        assert passes.count(samples[0].shape) == 1


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
    q, _, sgn = _node_signs(geom, xs, ys, phis)
    doors, points, _ = _serial_doors(geom, xs, ys, phis, passage_safety(geom), q, sgn)
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
