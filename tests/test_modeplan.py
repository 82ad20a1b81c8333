import heapq

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
    _axis_edge_scan,
    _classify_zero,
    _edge_ends,
    _grid_graph,
    _grid_route,
    _segment_crossings,
    _walk_back,
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
    n = path.segment_count
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
    [((8, 8, 8), "grid search exhausted"), ((12, 12, 12), "no passage edge exists")],
)
def test_no_path_found_reports_explored(ref, resolution, message):
    with pytest.raises(NoPathFound, match=message) as info:
        plan_mode_change(ref, Pose(5, 5, 0), resolution=resolution)
    assert 0 < info.value.explored <= int(np.prod(resolution))


def _heap_dijkstra(ok, costs, shape, source):
    """Textbook heap Dijkstra over the grid: the oracle for the CSR graph."""
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


def test_grid_graph_matches_heap_dijkstra():
    from scipy.sparse.csgraph import dijkstra

    shape = (9, 10, 8)
    nx, ny, np_ = shape
    costs = (0.7, 1.3, 2.1)
    rng = np.random.default_rng(5)
    ok = [
        rng.random((nx - 1, ny, np_)) < 0.7,
        rng.random((nx, ny - 1, np_)) < 0.7,
        rng.random((nx, ny, np_)) < 0.7,
    ]
    source = (4, 5, 0)
    ok[2][4, 5, np_ - 1] = True  # the wrap edge m = np_-1 -> 0 at the source
    graph = _grid_graph(ok, costs, shape)
    src = int(np.ravel_multi_index(source, shape))
    dist, pred = dijkstra(graph, directed=False, indices=src, return_predecessors=True)

    expected = _heap_dijkstra(ok, costs, shape, source).ravel()
    assert np.array_equal(np.isfinite(dist), np.isfinite(expected))
    assert np.allclose(dist[np.isfinite(dist)], expected[np.isfinite(expected)], rtol=1e-12)
    assert np.count_nonzero(np.isfinite(dist)) > nx * ny * np_ // 2

    wrapped = int(np.ravel_multi_index((4, 5, np_ - 1), shape))
    assert pred[wrapped] == src and dist[wrapped] == costs[2]
    for node in np.flatnonzero(np.isfinite(dist)):
        walk = _walk_back(pred, node)
        assert walk[0] == src and walk[-1] == node
        coords = np.array(np.unravel_index(walk, shape)).T
        total = 0.0
        for a, b in zip(coords[:-1], coords[1:]):
            axis = int(np.flatnonzero(a != b)[0])
            total += costs[axis]
        assert total == pytest.approx(dist[node], rel=1e-12)


@pytest.mark.parametrize("shape, seed", [((8, 9, 8), 1), ((10, 8, 12), 2), ((9, 11, 16), 3)])
def test_grid_graph_is_the_symmetrized_edge_list(shape, seed):
    """Both directions of every admissible edge, rows sorted, no duplicates:
    exactly G + G.T of the one-direction edge list."""
    from scipy.sparse import csr_matrix

    nx, ny, np_ = shape
    rng = np.random.default_rng(seed)
    ok = [rng.random((nx - 1, ny, np_)) < 0.6, rng.random((nx, ny - 1, np_)) < 0.6, rng.random(shape) < 0.6]
    ok[2][1, :, np_ - 1] = True  # wrap edges m = np_ - 1 -> 0, at both wrap rows
    ok[2][2, :, np_ - 1] = False
    costs = (0.7, 1.3, 2.1)
    ends = _edge_ends(shape)
    rows = np.concatenate([lo[mask] for (lo, _), mask in zip(ends, ok)])
    cols = np.concatenate([hi[mask] for (_, hi), mask in zip(ends, ok)])
    weights = np.concatenate([np.full(int(mask.sum()), w) for mask, w in zip(ok, costs)])
    n = nx * ny * np_
    half = csr_matrix((weights, (rows, cols)), shape=(n, n))
    expected = (half + half.T).tocsr()
    expected.sort_indices()

    graph = _grid_graph(ok, costs, shape)
    assert graph.has_sorted_indices
    assert np.array_equal(graph.indptr, expected.indptr)
    assert np.array_equal(graph.indices, expected.indices)
    assert np.array_equal(graph.data, expected.data)


def _random_grid(seed, shape=(10, 9, 8), density=0.7):
    """Seeded admissibility masks and their graph.  Dyadic edge costs keep
    every path sum exact, so route costs compare with ==."""
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
    return rng, _grid_graph(ok, costs, shape), max(costs), edges, nx * ny * np_ // 2


def _unlimited(graph, s, t):
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(graph, indices=[s, t])


def _walk_cost(graph, nodes):
    steps = [graph[a, b] for a, b in zip(nodes[:-1], nodes[1:])]
    assert all(w > 0 for w in steps)  # admissible edges only
    return sum(steps)


@pytest.mark.parametrize("seed", range(6))
def test_grid_route_is_certified_against_unlimited_dijkstra(seed):
    rng, graph, c, edges, half = _random_grid(seed)
    s = int(rng.integers(half))
    reach = np.flatnonzero(np.isfinite(_unlimited(graph, s, s)[0]))
    t = int(rng.choice(reach[reach != s]))
    dist = _unlimited(graph, s, t)

    # no door needed: the certified route is a shortest one
    nodes, used = _grid_route(graph, (s, t), c, [], require_crossing=False)
    assert (nodes[0], nodes[-1], used) == (s, t, set())
    assert _walk_cost(graph, nodes) == dist[0, t]

    # every edge a door: every route uses one, so nothing is spliced
    nodes, used = _grid_route(graph, (s, t), c, edges, require_crossing=True)
    assert (nodes[0], nodes[-1]) == (s, t) and used
    assert _walk_cost(graph, nodes) == dist[0, t]

    # doors off every shortest route: the first cheapest one is spliced in
    lo, hi, w = (np.array(v) for v in zip(*edges))
    detour = np.minimum(dist[0, lo] + w + dist[1, hi], dist[0, hi] + w + dist[1, lo])
    off = np.flatnonzero(np.isfinite(detour) & (detour > dist[0, t]))
    doors = [edges[k] for k in rng.permutation(off)[:25]]
    a = np.array([[d[0], d[1]] for d in doors]).ravel()
    b = np.array([[d[1], d[0]] for d in doors]).ravel()
    total = dist[0, a] + np.repeat([d[2] for d in doors], 2) + dist[1, b]
    k = int(np.argmin(total))
    nodes, used = _grid_route(graph, (s, t), c, doors, require_crossing=True)
    assert (nodes[0], nodes[-1]) == (s, t)
    assert used == {frozenset((int(a[k]), int(b[k])))}
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
    graph = _grid_graph(ok, (0.5, 0.5, 3.0), shape)
    s, t = (int(np.ravel_multi_index(v, shape)) for v in ((0, 0, 0), (14, 0, 1)))
    nodes, _ = _grid_route(graph, (s, t), 3.0, [], require_crossing=False)
    assert _walk_cost(graph, nodes) == 10.0
    assert [np.unravel_index(v, shape)[1] for v in nodes] == [0] * 16


@pytest.mark.parametrize("seed", range(3))
def test_grid_route_failures_report_the_unlimited_reach(seed):
    rng, graph, c, edges, half = _random_grid(seed)
    s = int(rng.integers(half))
    reach_s = np.isfinite(_unlimited(graph, s, s)[0])
    t_far = int(rng.choice(np.flatnonzero(~reach_s)))
    with pytest.raises(NoPathFound, match="grid search exhausted") as info:
        _grid_route(graph, (s, t_far), c, edges, require_crossing=True)
    assert info.value.explored == np.count_nonzero(reach_s)

    t = int(rng.choice(np.flatnonzero(reach_s)))
    with pytest.raises(NoPathFound, match="no passage edge exists") as info:
        _grid_route(graph, (s, t), c, [], require_crossing=True)
    assert info.value.explored == np.count_nonzero(reach_s)

    beyond = [e for e in edges if not reach_s[e[0]]]
    with pytest.raises(NoPathFound, match="reachable from both") as info:
        _grid_route(graph, (s, t), c, beyond, require_crossing=True)
    dist = _unlimited(graph, s, t)
    assert info.value.explored == np.count_nonzero(np.isfinite(dist).any(axis=0))


@pytest.mark.parametrize(
    "resolution, message, explored",
    [((8, 8, 8), "grid search exhausted", 249), ((12, 12, 12), "no passage edge exists", 879)],
)
def test_no_path_found_explored_is_pinned(ref, resolution, message, explored):
    """The counts a full one-ended search reported before the search was
    bounded."""
    with pytest.raises(NoPathFound, match=message) as info:
        plan_mode_change(ref, Pose(5, 5, 0), resolution=resolution)
    assert info.value.explored == explored


# ---------------------------------------------------------------------------
# exact edge predicates of the planner


def _reference_edge_scan(geom, xs, ys, phis, axis, eps_pass, subsamples=9):
    """The planner's former sampled edge scan: the oracle the exact masks must contain.

    Every edge is subsampled ``subsamples`` times; an edge is crossing when
    adjacent subsamples change the determinant's sign, and a candidate when
    some subsampled leg length is within ``eps_pass`` plus the subsample
    step's worth of leg motion.
    """
    nx, ny, np_ = len(xs), len(ys), len(phis)
    if axis < 2:
        along, other = (xs, ys) if axis == 0 else (ys, xs)
        n, no = len(along), len(other)
        fine = np.linspace(along[0], along[-1], (n - 1) * subsamples + 1)
        margin = (along[1] - along[0]) / subsamples
        cross = np.zeros((n - 1, no, np_), bool)
        cand = np.zeros((n - 1, no, np_), bool)
        xy = (fine[:, None], other[None, :])
        if axis == 1:
            xy = xy[::-1]
        for m, ph in enumerate(phis):
            _, _, dist, det = _leg_geometry(geom, *xy, ph)
            dmin = dist.min(axis=-1)
            sgn = np.sign(det)
            chg = (sgn[:-1] * sgn[1:] <= 0).reshape(n - 1, subsamples, no).any(axis=1)
            dm = np.minimum(dmin[:-1], dmin[1:]).reshape(n - 1, subsamples, no).min(axis=1)
            cross[:, :, m] = chg
            cand[:, :, m] = chg & (dm <= eps_pass + margin)
        if axis == 1:
            cross, cand = cross.transpose(1, 0, 2), cand.transpose(1, 0, 2)
        return cross, cand
    maxb = float(np.max(np.hypot(geom.platform[:, 0], geom.platform[:, 1])))
    fine = np.linspace(0.0, 2.0 * np.pi, np_ * subsamples, endpoint=False)
    margin = (2.0 * np.pi / np_) / subsamples * max(maxb, 1e-300)
    sgn = np.empty((nx, ny, np_ * subsamples), np.int8)
    dmn = np.empty((nx, ny, np_ * subsamples))
    for k, ph in enumerate(fine):
        _, _, dist, det = _leg_geometry(geom, xs[:, None], ys[None, :], ph)
        sgn[:, :, k] = np.sign(det)
        dmn[:, :, k] = dist.min(axis=-1)
    chg = (sgn * np.roll(sgn, -1, axis=2) <= 0).reshape(nx, ny, np_, subsamples).any(axis=3)
    dm = np.minimum(dmn, np.roll(dmn, -1, axis=2)).reshape(nx, ny, np_, subsamples).min(axis=3)
    return chg, chg & (dm <= eps_pass + margin)


def _check_masks_against_reference(geom, resolution):
    """Exact cross ⊇ sampled cross, exact cand ⊆ sampled cand, and every door
    the sampled candidates validate is an exact candidate, on every axis."""
    L = characteristic_scale(geom)
    eps_pass = 1e-3 * L
    nx, ny, np_ = resolution
    xs, ys = np.linspace(-L, 2 * L, nx), np.linspace(-L, 2 * L, ny)
    phis = np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)
    fine_step = min(xs[1] - xs[0], ys[1] - ys[0], L * 2.0 * np.pi / np_) / 9
    safe = passage_safety(geom)
    steps = (np.array([xs[1] - xs[0], 0, 0]), np.array([0, ys[1] - ys[0], 0]), np.array([0, 0, 2 * np.pi / np_]))
    for axis in range(3):
        cross, cand = _axis_edge_scan(geom, xs, ys, phis, axis, eps_pass)
        ref_cross, ref_cand = _reference_edge_scan(geom, xs, ys, phis, axis, eps_pass)
        assert cross.shape == ref_cross.shape and cand.shape == ref_cand.shape
        assert not np.any(ref_cross & ~cross), f"axis {axis}: exact scan misses a sampled crossing"
        assert not np.any(cand & ~ref_cand), f"axis {axis}: exact candidate the sampled scan rejects"
        for i, j, m in np.argwhere(ref_cand):
            p0 = np.array([xs[i], ys[j], phis[m]])
            events = _segment_crossings(
                geom, Pose(*p0), Pose(*(p0 + steps[axis])), eps_pass, safe, L, fine_step
            )
            if events is not None and any(e.kind == "passage" for e in events):
                assert cand[i, j, m], f"axis {axis}: door {(i, j, m)} is not an exact candidate"


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
    counts = [int(_axis_edge_scan(ref, xs, ys, phis, axis, 1e-3 * L)[0].sum()) for axis in range(3)]
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
    assert _axis_edge_scan(ref, xs, ys, phis, 2, 1e-3 * L)[0][0, 0, 0]
    assert not _reference_edge_scan(ref, xs, ys, phis, 2, 1e-3 * L)[0][0, 0, 0]


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
            kind, zero_leg, _, clearance = _classify_zero(geom, pose, EPS_PASS_REL * Lg)
            assert zero_leg == leg + 1
            assert clearance == c.clearance and type(clearance) is type(c.clearance)
            assert (kind == "passage") == (c.kind == "serial_singular")
