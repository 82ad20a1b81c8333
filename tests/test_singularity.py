import warnings

import numpy as np
import pytest

from planar_rpr import (
    ArchitecturalSingularity,
    Pose,
    RobotGeometry,
    SerialDegenerate,
    ValidationError,
    classify_configuration,
    inverse_kinematics,
    is_architecturally_singular,
    leg_lines,
    parallel_singularity_measure,
    passage_safety,
    plan_mode_change,
    sample_conic_polyline,
    serial_points,
    singularity_conic,
    triangle_angles,
    unnormalized_determinant,
)
from planar_rpr import singularity as singularity_module
from planar_rpr.model import MAX_SAMPLES, rotation
from planar_rpr.singularity import SingularityConic, _conic_coefficients, _leg_det, _leg_geometry, _leg_vectors

from conftest import REF_BASE, REF_PLATFORM, REF_SCALE, random_pose_tuple

L = REF_SCALE

# Exact at phi = 0: the locus factors into the two lines y = 1 and
# x + 2y = 16, i.e. Q = 2xy + 4y^2 - 2x - 36y + 32.
REF_CONIC_PHI0 = np.array([0.0, 2.0, 4.0, -2.0, -36.0, 32.0])
MEASURE_AT_ORIGIN = 16.0 / 65.0  # = 32 / (sqrt5 * sqrt65 * sqrt52), product = 130


def test_leg_lines_reference(ref):
    lines = leg_lines(ref, Pose(0, 0, 0))
    assert np.allclose(lines[0].direction, np.array([-2.0, -1.0]) / np.sqrt(5))
    assert lines[0].moment == pytest.approx(0.0)  # passes through the origin
    # line 2 runs through a2 = (10, 0) and B2 = (2, -1)
    assert lines[1].point_distance((10, 0)) <= 1e-12
    assert lines[1].point_distance((2, -1)) <= 1e-12
    assert not any(ln.degenerate for ln in lines)


def test_leg_line_degenerate_flag(ref):
    lines = leg_lines(ref, Pose(2, 1, 0))
    assert lines[0].degenerate and not lines[1].degenerate


def test_lines_pass_through_both_joints(ref):
    rng = np.random.default_rng(3)
    for _ in range(50):
        pose = Pose(*random_pose_tuple(rng))
        from planar_rpr import platform_points

        b = platform_points(ref, pose)
        for i, ln in enumerate(leg_lines(ref, pose)):
            if ln.degenerate:
                continue
            assert abs(np.hypot(*ln.direction) - 1.0) <= 1e-12
            assert ln.point_distance(ref.base[i]) <= 1e-9 * L
            assert ln.point_distance(b[i]) <= 1e-9 * L


def test_measure_reference_value(ref):
    assert parallel_singularity_measure(ref, Pose(0, 0, 0)) == pytest.approx(MEASURE_AT_ORIGIN)
    norm = parallel_singularity_measure(ref, Pose(0, 0, 0), normalized=True)
    assert norm == pytest.approx(MEASURE_AT_ORIGIN / L)


def test_measure_serial_degenerate(ref):
    with pytest.raises(SerialDegenerate) as err:
        parallel_singularity_measure(ref, Pose(2, 1, 0))
    assert err.value.leg == 1


def test_unnormalized_determinant_values(ref):
    assert unnormalized_determinant(ref, Pose(2, 1, 0)) == 0.0  # zero row
    assert unnormalized_determinant(ref, Pose(0, 0, 0)) == pytest.approx(32.0)


def _scalar_leg_geometry(geom, x, y, phi):
    """One pose at a time, leg by leg: the arithmetic the planner's edge
    scans have used since 0.1.0, kept as the reference for the kernel."""
    c, s = np.cos(phi), np.sin(phi)
    (ax, ay), (bx, by) = geom.base.T, geom.platform.T
    dx = [x + (c * bx[i] - s * by[i]) - ax[i] for i in range(3)]
    dy = [y + (s * bx[i] + c * by[i]) - ay[i] for i in range(3)]
    m = [ax[i] * dy[i] - ay[i] * dx[i] for i in range(3)]
    det = (
        m[0] * (dx[1] * dy[2] - dx[2] * dy[1])
        - m[1] * (dx[0] * dy[2] - dx[2] * dy[0])
        + m[2] * (dx[0] * dy[1] - dx[1] * dy[0])
    )
    return dx, dy, [np.hypot(dx[i], dy[i]) for i in range(3)], det


def test_leg_geometry_kernel_matches_scalar_reference(ref):
    rng = np.random.default_rng(23)
    x = rng.uniform(-L, 2 * L, (7, 1))
    y = rng.uniform(-L, 2 * L, (1, 5))
    phi = rng.uniform(-7.0, 7.0, (7, 5))
    dx, dy, dist, det = _leg_geometry(ref, x, y, phi)
    assert dx.shape == dy.shape == dist.shape == (7, 5, 3) and det.shape == (7, 5)
    for i, j in np.ndindex(7, 5):
        want = _scalar_leg_geometry(ref, float(x[i, 0]), float(y[0, j]), float(phi[i, j]))
        got = (dx[i, j], dy[i, j], dist[i, j], det[i, j])
        assert np.array(want[:3]).T.tobytes() == np.array(got[:3]).T.tobytes()
        assert want[3] == got[3]
    # a scalar pose gives one leg axis and a 0-d determinant
    dx, dy, dist, det = _leg_geometry(ref, 0.0, 0.0, 0.0)
    assert dist.shape == (3,) and det.shape == ()
    assert np.allclose(dist, np.sqrt([5.0, 65.0, 52.0])) and det == pytest.approx(32.0)


def _leg_geometry_in_one(geom, x, y, phi):
    """_leg_geometry as it was before it was composed of _leg_vectors and
    _leg_det, with its columns reshaped on every call."""
    x, y, phi = (np.asarray(v, dtype=float) for v in (x, y, phi))
    # legs run along a leading axis here, so each leg's slice is contiguous
    legs = (3,) + (1,) * max(x.ndim, y.ndim, phi.ndim)
    ax, ay = (v.reshape(legs) for v in geom.base.T)
    bx, by = (v.reshape(legs) for v in geom.platform.T)
    c, s = np.cos(phi), np.sin(phi)
    dx = x + (c * bx - s * by) - ax
    dy = y + (s * bx + c * by) - ay
    m = ax * dy - ay * dx
    det = (
        m[0] * (dx[1] * dy[2] - dx[2] * dy[1])
        - m[1] * (dx[0] * dy[2] - dx[2] * dy[0])
        + m[2] * (dx[0] * dy[1] - dx[1] * dy[0])
    )
    to_last = (*range(1, dx.ndim), 0)
    return dx.transpose(to_last), dy.transpose(to_last), np.hypot(dx, dy).transpose(to_last), det


def test_composed_kernel_equals_the_kernel_in_one_on_every_input_rank(ref):
    """_leg_geometry, and _leg_det on _leg_vectors alone, give the bits of
    the one-piece kernel on scalar poses and on 1-D, broadcast 2-D and 3-D
    inputs, for the reference robot and seeded designs (each rank's
    columns are reshaped once per design)."""
    rng = np.random.default_rng(41)
    designs = [ref] + [
        RobotGeometry(base=rng.uniform(-10, 10, (3, 2)), platform=rng.uniform(-4, 4, (3, 2))) for _ in range(5)
    ]
    for geom in designs:
        Lg = geom.L
        inputs = [
            tuple(float(v) for v in rng.uniform(-Lg, 2 * Lg, 3)),  # rank 0
            (rng.uniform(-Lg, Lg, 17), rng.uniform(-Lg, Lg, 17), rng.uniform(-7, 7, 17)),
            (rng.uniform(-Lg, Lg, (9, 1)), rng.uniform(-Lg, Lg, (1, 4)), 0.3),
            (rng.uniform(-Lg, Lg, (5, 1, 1)), rng.uniform(-Lg, Lg, (1, 6, 1)), rng.uniform(-7, 7, 3)),
        ]
        for rank, (x, y, phi) in enumerate(inputs):
            want = _leg_geometry_in_one(geom, x, y, phi)
            got = _leg_geometry(geom, x, y, phi)
            assert [v.shape for v in got] == [v.shape for v in want]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            dx, dy = _leg_vectors(geom, x, y, phi)
            assert dx.ndim == rank + 1 and np.moveaxis(dx, 0, -1).tobytes() == want[0].tobytes()
            assert _leg_det(geom, dx, dy).tobytes() == want[3].tobytes()
        assert geom.leg_columns(2) is geom.leg_columns(2)


def test_row_scaling_identity(ref):
    rng = np.random.default_rng(17)
    for _ in range(100):
        pose = Pose(*random_pose_tuple(rng))
        rho = inverse_kinematics(ref, pose).rho
        if np.min(np.abs(rho)) <= 1e-6 * L:
            continue
        lhs = unnormalized_determinant(ref, pose)
        rhs = float(np.prod(rho)) * parallel_singularity_measure(ref, pose)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-300)


def test_frame_invariance_of_measure(ref):
    rng = np.random.default_rng(19)
    for _ in range(25):
        pose = Pose(*random_pose_tuple(rng))
        theta = rng.uniform(-np.pi, np.pi)
        shift = rng.uniform(-L, L, size=2)
        R = rotation(theta)
        moved_geom = RobotGeometry(base=REF_BASE @ R.T + shift, platform=REF_PLATFORM)
        moved_pose = Pose(*(R @ [pose.x, pose.y] + shift), pose.phi + theta)
        a = parallel_singularity_measure(ref, pose)
        b = parallel_singularity_measure(moved_geom, moved_pose)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def test_determinant_matches_forward_jacobian(ref):
    """det of the Newton refinement Jacobian equals 8 x the line-matrix
    determinant: the constraint gradients are scaled leg lines."""
    from planar_rpr.kinematics import _constraint_rows

    rng = np.random.default_rng(59)
    for _ in range(50):
        pose = Pose(*random_pose_tuple(rng))
        rows = _constraint_rows(ref.leg_floats, (0.0,) * 3, *pose.as_tuple())
        dj = float(np.linalg.det(np.array(rows)[:, :3]))
        dt = unnormalized_determinant(ref, pose)
        assert abs(dj - 8.0 * dt) <= 1e-9 * max(abs(dj), 1e-300)


def test_serial_points_reference(ref):
    sp = serial_points(ref, 0.0)
    assert np.allclose(sp, [[2, 1], [8, 1], [4, 6]])


def test_conic_phi0_golden(ref):
    conic = singularity_conic(ref, 0.0)
    scale = np.max(np.abs(REF_CONIC_PHI0))
    assert np.allclose(conic.coefficients, REF_CONIC_PHI0, atol=1e-9 * scale)
    assert conic.conic_class == "hyperbola"
    assert np.allclose(conic.serial_points, [[2, 1], [8, 1], [4, 6]])
    for p in conic.serial_points:
        assert abs(conic.evaluate(*p)) <= 1e-9 * scale


def test_conic_matches_determinant_at_random_poses(ref):
    rng = np.random.default_rng(23)
    for _ in range(10):
        phi = rng.uniform(0, 2 * np.pi)
        conic = singularity_conic(ref, phi)
        for _ in range(20):
            x, y = rng.uniform(-2 * L, 2 * L, size=2)
            q = conic.evaluate(x, y)
            d = unnormalized_determinant(ref, Pose(x, y, phi))
            assert abs(q - d) <= 1e-9 * max(abs(d), np.max(np.abs(conic.coefficients)))


def test_serial_points_on_conic_random_phi(ref):
    rng = np.random.default_rng(27)
    for phi in rng.uniform(0, 2 * np.pi, size=10):
        conic = singularity_conic(ref, phi)
        scale = np.max(np.abs(conic.coefficients))
        for p in conic.serial_points:
            assert abs(conic.evaluate(*p)) <= 1e-9 * scale


def test_cubic_terms_cancel(ref):
    """A full cubic fit of the determinant has vanishing cubic part."""
    rng = np.random.default_rng(31)
    center = ref.base.mean(axis=0)
    for phi in rng.uniform(0, 2 * np.pi, size=10):
        pts = center + rng.uniform(-2 * L, 2 * L, size=(60, 2))
        # fit in L-scaled coordinates to keep the Vandermonde well conditioned
        xs, ys = (pts[:, 0] - center[0]) / L, (pts[:, 1] - center[1]) / L
        vals = np.array([unnormalized_determinant(ref, Pose(x, y, phi)) for x, y in pts])
        design = np.column_stack(
            [
                xs**3, xs**2 * ys, xs * ys**2, ys**3,
                xs**2, xs * ys, ys**2, xs, ys, np.ones_like(xs),
            ]
        )
        coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
        cubic = np.max(np.abs(coeffs[:4]))
        quad = np.max(np.abs(coeffs[4:7]))
        assert cubic <= 1e-10 * quad


def test_conic_classes_vary_with_phi(ref):
    assert singularity_conic(ref, 0.7).conic_class == "ellipse"
    assert singularity_conic(ref, 0.0).conic_class == "hyperbola"


def test_polyline_contour_accuracy(ref):
    conic = singularity_conic(ref, 0.0)
    polylines = sample_conic_polyline(conic, (-10, -10, 20, 20), 0.1)
    assert polylines
    q20, q11, q02, q10, q01, _ = conic.coefficients
    for poly in polylines:
        assert len(poly) >= 2
        x, y = poly[:, 0], poly[:, 1]
        grad = np.hypot(2 * q20 * x + q11 * y + q10, q11 * x + 2 * q02 * y + q01)
        assert np.all(np.abs(conic.evaluate(x, y)) <= grad * 0.1 + 1e-12)
        steps = np.hypot(np.diff(x), np.diff(y))
        assert np.max(steps) <= 2 * 0.1


def test_polyline_passes_serial_points(ref):
    conic = singularity_conic(ref, 0.0)
    polylines = sample_conic_polyline(conic, (-10, -10, 20, 20), 0.1)
    for sp in conic.serial_points:
        dmin = min(np.min(np.hypot(p[:, 0] - sp[0], p[:, 1] - sp[1])) for p in polylines)
        assert dmin <= 0.1


def test_polyline_empty_far_window(ref):
    conic = singularity_conic(ref, 0.0)
    assert sample_conic_polyline(conic, (1000, 1000, 1010, 1010), 0.1) == []


# Segment table of the per-cell reference below (saddles resolved inline).
_REFERENCE_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}


def _reference_polyline(conic, window, step):
    """Per-cell marching squares: the oracle for the array contour."""
    x0, y0, x1, y1 = window
    nx, ny = map(int, np.maximum(np.ceil([(x1 - x0) / step, (y1 - y0) / step]) + 1, 2))
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    Q = conic.evaluate(xs[:, None], ys[None, :])
    inside = Q < 0.0

    def _interp(na, nb):
        if nb < na:
            na, nb = nb, na
        qa, qb = Q[na], Q[nb]
        t = qa / (qa - qb)
        return (
            xs[na[0]] + t * (xs[nb[0]] - xs[na[0]]),
            ys[na[1]] + t * (ys[nb[1]] - ys[na[1]]),
        )

    segments = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            code = 0
            for bit, (ci, cj) in enumerate(corners):
                if inside[ci, cj]:
                    code |= 1 << bit
            if code in (0, 15):
                continue
            q_c = [Q[ci, cj] for ci, cj in corners]
            edge_pt = {}
            for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 3), (3, 0))):
                if (q_c[a] < 0.0) != (q_c[b] < 0.0):
                    edge_pt[e] = _interp(corners[a], corners[b])
            if code in (5, 10):
                qc = conic.evaluate(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
                if code == 5:
                    pairs = [(3, 0), (1, 2)] if (qc < 0.0) else [(3, 2), (1, 0)]
                else:
                    pairs = [(0, 1), (2, 3)] if (qc < 0.0) else [(0, 3), (2, 1)]
            else:
                pairs = _REFERENCE_SEGMENTS[code]
            for a, b in pairs:
                if a in edge_pt and b in edge_pt:
                    segments.append((edge_pt[a], edge_pt[b]))
    return _reference_stitch(segments, 1e-9 * step)


def _reference_stitch(segments, tol):
    """Chain segments into polylines, looking up each end by its coordinates
    rounded to multiples of ``tol`` on every use: the float-key stitcher
    that the integer-id chaining replaced, kept as the reference."""

    def key(p):
        return (round(p[0] / tol), round(p[1] / tol))

    # zero-length corner clips (contour grazing a lattice node) carry no
    # information and would foul the endpoint matching
    segments = [(a, b) for a, b in segments if key(a) != key(b)]

    adjacency: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append(idx)
        adjacency.setdefault(key(b), []).append(idx)

    used = [False] * len(segments)
    polylines = []

    def walk(idx, start_pt):
        used[idx] = True
        a, b = segments[idx]
        chain = [start_pt, b if key(a) == key(start_pt) else a]
        while True:
            k = key(chain[-1])
            nxt = next((m for m in adjacency.get(k, ()) if not used[m]), None)
            if nxt is None:
                break
            used[nxt] = True
            a, b = segments[nxt]
            chain.append(b if key(a) == k else a)
        return chain

    # open chains first: start from endpoints that belong to a single segment
    for idx in range(len(segments)):
        if used[idx]:
            continue
        a, b = segments[idx]
        start = None
        if len(adjacency[key(a)]) == 1:
            start = a
        elif len(adjacency[key(b)]) == 1:
            start = b
        if start is not None:
            polylines.append(np.array(walk(idx, start)))
    for idx in range(len(segments)):  # leftover closed loops
        if not used[idx]:
            polylines.append(np.array(walk(idx, segments[idx][0])))
    return polylines


def _assert_same_polylines(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("phi", [0.0, 0.7, 0.9, 2.5])
def test_polyline_matches_per_cell_reference(scale, phi):
    """At phi = 0 the locus (y = 1, x + 2y = 16) runs through lattice nodes."""
    geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
    conic = singularity_conic(geom, phi)
    window = (-10 * scale, -10 * scale, 20 * scale, 20 * scale)
    want = _reference_polyline(conic, window, 0.25 * scale)
    assert want
    _assert_same_polylines(sample_conic_polyline(conic, window, 0.25 * scale), want)


@pytest.mark.parametrize("q00", [0.01, -0.01])
@pytest.mark.parametrize("q11", [1.0, -1.0])
def test_polyline_saddles_match_per_cell_reference(q11, q00):
    """Q = q11 xy + q00 puts a saddle cell (code 5 or 10 by the sign of q11)
    around the origin, a cell centre, whose sign is that of q00."""
    conic = SingularityConic(np.array([0.0, q11, 0.0, 0.0, 0.0, q00]), 0.0, np.zeros((3, 2)), "hyperbola")
    window = (-1.25, -1.25, 1.25, 1.25)
    want = _reference_polyline(conic, window, 0.5)
    assert len(want) == 2
    _assert_same_polylines(sample_conic_polyline(conic, window, 0.5), want)


def _left_to_right(conic, x, y):
    """SingularityConic.evaluate as one left-to-right expression, as it was
    before it summed in place."""
    q20, q11, q02, q10, q01, q00 = conic.coefficients
    return q20 * x * x + q11 * x * y + q02 * y * y + q10 * x + q01 * y + q00


def test_evaluate_in_place_equals_the_left_to_right_sum(ref):
    """Bit for bit, with the same type, on scalars, 1-D arrays and
    broadcast lattices, for the reference conics and seeded coefficients of
    mixed magnitudes and signs."""
    rng = np.random.default_rng(53)
    conics = [singularity_conic(ref, phi) for phi in (0.0, 0.9, 2.5)]
    for _ in range(20):
        coeffs = rng.normal(size=6) * 10.0 ** rng.uniform(-8, 8, 6)
        conics.append(SingularityConic(coeffs, 0.0, np.zeros((3, 2)), "hyperbola"))
    xs, ys = rng.uniform(-1e3, 1e3, 37), rng.uniform(-1e3, 1e3, 41)
    args = [
        (1.5, -2.25),
        (np.float64(3.0), 7),
        (xs, ys[:37]),
        (xs, 2.0),
        (xs[:, None], ys[None, :]),
        (0.5, ys[None, :]),
        (xs[:, None, None], ys[None, :, None] * [1.0, -1.0]),
    ]
    for conic in conics:
        for x, y in args:
            got, want = conic.evaluate(x, y), _left_to_right(conic, x, y)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _generator_stitch(segments, tol):
    """_stitch_segments as it was before the mates: at every step of a
    chain a generator scans the ends of its point for the first whose
    segment is unused, in segment order."""
    points = segments.reshape(-1, 2)
    _, ids = np.unique(np.round(points / tol).view(np.complex128).ravel(), return_inverse=True)
    keep = np.repeat(ids[0::2] != ids[1::2], 2)
    points, ids = points[keep], ids[keep]
    ends = np.argsort(ids, kind="stable").tolist()
    degree = np.bincount(ids)
    first = np.concatenate([[0], np.cumsum(degree)]).tolist()
    ids, degree = ids.tolist(), degree.tolist()
    used = [False] * (len(ids) // 2)

    def walk(p):
        chain = [p]
        while p is not None:
            used[p >> 1] = True
            p ^= 1
            chain.append(p)
            k = ids[p]
            p = next((q for q in ends[first[k] : first[k + 1]] if not used[q >> 1]), None)
        return points[chain]

    polylines = []
    for s in range(len(used)):
        for p in (2 * s, 2 * s + 1):
            if not used[s] and degree[ids[p]] == 1:
                polylines.append(walk(p))
    return polylines + [walk(2 * s) for s in range(len(used)) if not used[s]]


def test_mate_walk_equals_the_generator_walk(ref, monkeypatch):
    """The stitcher's mate walk chains the segments of every contour below
    into the generator walk's polylines, bit for bit: the reference robot's
    loci at three scales (the phi = 0 csv pin among them, whose two lines
    run through lattice nodes), pairs of lines that cross at a lattice node
    (a junction of four ends) and seeded conics."""
    calls = []
    stitch = singularity_module._stitch_segments
    monkeypatch.setattr(singularity_module, "_stitch_segments", lambda *a: calls.append(a) or stitch(*a))
    for scale in (1e-3, 1.0, 1e3):
        geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
        window = tuple(np.array([-10.0, -10.0, 20.0, 20.0]) * scale)
        for phi, step in ((0.0, 0.1), (0.0, 0.25), (0.9, 0.5), (2.5, 0.05)):
            sample_conic_polyline(singularity_conic(geom, phi), window, step * scale)
    crossing = [[1.0, 0.0, -1.0, 0.0, 0.0, 0.0], [1.0, 0.0, -4.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, -0.5, 0.0]]
    rng = np.random.default_rng(59)
    for coeffs in crossing + rng.normal(size=(30, 6)).tolist():
        conic = SingularityConic(np.array(coeffs), 0.0, np.zeros((3, 2)), "hyperbola")
        for window, step in (((-1, -1, 1, 1), 0.25), ((-2, -1.5, 1, 1), 0.5), ((-3, -3, 3, 3), 0.05)):
            sample_conic_polyline(conic, window, step)
    junctions = 0
    for segments, tol in calls:
        ids = np.unique(np.round(segments.reshape(-1, 2) / tol).view(np.complex128).ravel(), return_inverse=True)[1]
        junctions += np.count_nonzero(np.bincount(ids[np.repeat(ids[0::2] != ids[1::2], 2)]) > 2)
        _assert_same_polylines(stitch(segments, tol), _generator_stitch(segments, tol))
    assert junctions >= 6


def _full_lattice_polyline(conic, window, step):
    """sample_conic_polyline as it was before it bounded Q on blocks of
    cells: Q on the whole lattice, the cell codes of every cell, and the
    edge crossings of every cell with a sign change.  The oracle for the
    block contour, which must give its bytes."""
    if step <= 0.0:
        raise ValidationError("step must be positive")
    if not 1e-9 * step > 0.0:  # segment ends join at multiples of 1e-9 * step
        raise ValidationError(f"step {step:g} is too small: its join tolerance 1e-9 * step underflows to 0")
    x0, y0, x1, y1 = window
    if x1 <= x0 or y1 <= y0:
        raise ValidationError("window must have positive extent")
    nodes = np.maximum(np.ceil([(x1 - x0) / step, (y1 - y0) / step]) + 1, 2)
    if not nodes.prod() <= MAX_SAMPLES:  # also rejects inf and nan
        raise ValidationError(f"window / step gives more than {MAX_SAMPLES:,} grid nodes")
    nx, ny = map(int, nodes)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    with np.errstate(over="ignore", invalid="ignore"):
        Q = conic.evaluate(xs[:, None], ys[None, :])
    if not np.all(np.isfinite(Q)):
        raise ValidationError(
            f"the singularity conic at phi={conic.phi:.6f} is not finite on the window's lattice: "
            "the window's coordinates are too large"
        )
    b = (Q < 0.0).astype(np.uint8)
    code = b[:-1, :-1] | b[1:, :-1] << 1 | b[1:, 1:] << 2 | b[:-1, 1:] << 3
    i, j = np.nonzero((code != 0) & (code != 15))  # row-major: i, then j
    key = code[i, j].astype(np.intp)
    saddle = np.nonzero((key == 5) | (key == 10))[0]
    si, sj = i[saddle], j[saddle]
    centre = conic.evaluate(0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1]))
    key[saddle] += 16 * (centre < 0.0)

    # edges 0..3 run from their lower lattice node to the upper one, so the
    # two cells sharing an edge emit bit-identical points (otherwise chains
    # would not stitch); t is only computed where Q changes sign, which are
    # exactly the edges the table picks
    lo_i, lo_j = i[:, None] + [0, 1, 0, 0], j[:, None] + [0, 0, 1, 0]
    hi_i, hi_j = i[:, None] + [1, 1, 1, 0], j[:, None] + [0, 1, 1, 1]
    qa, qb = Q[lo_i, lo_j], Q[hi_i, hi_j]
    t = np.divide(qa, qa - qb, out=np.zeros_like(qa), where=(qa < 0.0) != (qb < 0.0))
    edge_pts = np.stack(
        [xs[lo_i] + t * (xs[hi_i] - xs[lo_i]), ys[lo_j] + t * (ys[hi_j] - ys[lo_j])], axis=-1
    )
    pairs = singularity_module._MS_SEGMENTS[key]
    cell, slot = np.nonzero(pairs[:, :, 0] >= 0)
    return singularity_module._stitch_segments(edge_pts[cell[:, None], pairs[cell, slot]], 1e-9 * step)


def _far_window(conic, x, half):
    """A window of half-width ``half`` about the conic's point at abscissa
    ``x`` with the smaller y, or None where Q(x, .) has no real root."""
    q20, q11, q02, q10, q01, q00 = conic.coefficients
    a, b, c = q02, q11 * x + q01, q20 * x * x + q10 * x + q00
    disc = b * b - 4.0 * a * c
    if a == 0.0 or disc < 0.0:
        return None
    y = (-b - np.sqrt(disc)) / (2.0 * a)
    return (x - half, y - half, x + half, y + half)


def _block_contour_cases():
    """(conic, window, step) triples on which the block contour must give
    the full lattice's bytes."""
    cases = []
    sweep = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    for scale in (1e-3, 1.0, 1e3):
        geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
        window = tuple(np.array([-10.0, -10.0, 20.0, 20.0]) * scale)
        for phi in sweep:
            conic = singularity_conic(geom, phi)
            cases.append((conic, window, 0.1 * scale))
            cases.append((conic, (0.0, -2.0 * scale, 6.0 * scale, 4.3 * scale), 0.05 * scale))  # clipped
            far = _far_window(conic, 100.0 * L * scale, 15.0 * scale)  # ~1e2 L from the origin
            if far is not None:
                cases.append((conic, far, 0.1 * scale))
        # at phi = 0 the locus is the line pair y = 1, x + 2y = 16 through
        # lattice nodes
        conic = singularity_conic(geom, 0.0)
        cases.append((conic, window, 0.25 * scale))
        cases.append((conic, tuple(np.array([985.0, -14.0, 1015.0, 16.0]) * scale), 0.1 * scale))
        for phi in (0.0, 0.9, 2.5):
            cases.append((singularity_conic(geom, phi), tuple(np.array([2.0, 2.0, 8.0, 8.0]) * scale), 0.01 * scale))
    rng = np.random.default_rng(61)
    for _ in range(9):
        base = np.asarray(REF_BASE) + rng.normal(scale=1.0, size=(3, 2))
        platform = np.asarray(REF_PLATFORM) + rng.normal(scale=0.5, size=(3, 2))
        geom = RobotGeometry(base, platform)
        for phi in rng.uniform(0.0, 2.0 * np.pi, 3):
            cases.append((singularity_conic(geom, phi), (-10.0, -10.0, 20.0, 20.0), 0.1))
    for _ in range(60):
        coeffs = rng.normal(size=6) * 10.0 ** rng.uniform(-8, 8, 6)
        conic = SingularityConic(coeffs, 0.0, np.zeros((3, 2)), "hyperbola")
        x0, y0 = rng.uniform(-5.0, 5.0, 2)
        w, h = 10.0 ** rng.uniform(-1.0, 2.0, 2)
        cases.append((conic, (x0, y0, x0 + w, y0 + h), 10.0 ** rng.uniform(-2.5, -0.5) * min(w, h)))
    # the unit circle about (1e6, 0), whose rounding on the lattice
    # (about 1e-4) flips signs in a band many cells wide
    circle = SingularityConic(np.array([1.0, 0.0, 1.0, -2e6, 0.0, 1e12 - 1.0]), 0.0, np.zeros((3, 2)), "ellipse")
    for step in (1e-5, 1e-4):
        cases.append((circle, (1e6 + 1 - 1e-3, -1e-3, 1e6 + 1 + 1e-3, 1e-3), step))
    cases.append((circle, (1e6 - 1.5, -1.5, 1e6 + 1.5, 1.5), 0.01))
    special = [[0.0, q11, 0.0, 0.0, 0.0, q00] for q11 in (1.0, -1.0) for q00 in (0.01, -0.01)]  # saddles
    special += [[0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 3.0], [0.0] * 6]  # Q = y, q00, 0
    for coeffs in special:
        conic = SingularityConic(np.array(coeffs), 0.0, np.zeros((3, 2)), "degenerate")
        cases += [(conic, (-1.25, -1.25, 1.25, 1.25), 0.5), (conic, (-1.0, -1.0, 1.0, 1.0), 0.01)]
    return cases


def test_block_contour_equals_the_full_lattice():
    """Byte for byte, on the reference robot at three scales over a phi
    sweep (whole, clipped, ~1e2 L off the origin and 0.01 s stepped
    windows, and the phi = 0 lines through lattice nodes), seeded designs,
    seeded conics of mixed coefficient magnitudes, the saddle conics,
    Q = y, Q = q00 and Q = 0."""
    cases, empty = _block_contour_cases(), 0
    for conic, window, step in cases:
        want = _full_lattice_polyline(conic, window, step)
        empty += not want
        _assert_same_polylines(sample_conic_polyline(conic, window, step), want)
    assert empty < len(cases) / 3  # most windows hold a piece of the locus


def test_block_contour_evaluates_few_lattice_nodes(ref, monkeypatch):
    """On a 301^2 lattice about the reference locus, Q is evaluated (block
    centres, block nodes and saddle centres, each counted as the size of
    the broadcast of evaluate's inputs) at fewer than 20% of the nodes."""
    nodes = []
    evaluate = SingularityConic.evaluate
    monkeypatch.setattr(
        SingularityConic, "evaluate", lambda self, x, y: nodes.append(np.broadcast(x, y).size) or evaluate(self, x, y)
    )
    assert sample_conic_polyline(singularity_conic(ref, 0.9), (-10, -10, 20, 20), 0.1)
    assert 0 < sum(nodes) < 0.2 * 301**2


def test_block_contour_keeps_every_block_where_the_term_bound_overflows(monkeypatch):
    """On +-1.2e154 the sum of Q = x^2 - y^2's terms at the window's corner
    overflows, while Q itself stays finite on the lattice: the contour keeps
    every block and gives the full lattice's bytes instead of raising.  It
    evaluates the lattice as one block, each of its 241^2 nodes once."""
    conic = SingularityConic(np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0]), 0.0, np.zeros((3, 2)), "hyperbola")
    window = (-1.2e154, -1.2e154, 1.2e154, 1.2e154)
    calls = []
    evaluate = SingularityConic.evaluate
    monkeypatch.setattr(
        SingularityConic, "evaluate", lambda self, x, y: calls.append(np.broadcast(x, y)) or evaluate(self, x, y)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_conic_polyline(conic, window, 1e152)
    assert [b.size for b in calls if b.ndim == 3] == [241**2]  # the lattice's nodes; not the centres
    want = _full_lattice_polyline(conic, window, 1e152)
    assert 1.2e154 * 1.2e154 + 1.2e154 * 1.2e154 == np.inf and len(want) == 2  # the diagonals
    _assert_same_polylines(got, want)


def test_polyline_no_warnings_on_flat_edges():
    """Q = y vanishes on the whole lattice row y = 0, so edges along it give
    0/0 and the other rows' horizontal edges x/0; none of them may warn."""
    conic = SingularityConic(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]), 0.0, np.zeros((3, 2)), "degenerate")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (poly,) = sample_conic_polyline(conic, (-1.0, -1.0, 1.0, 1.0), 0.5)
    assert np.array_equal(poly[:, 1], np.zeros(len(poly)))
    assert np.array_equal(np.sort(poly[:, 0]), np.linspace(-1.0, 1.0, 5))


def test_polyline_on_an_overflowing_window_is_a_validation_error(ref):
    """Q overflows at the corners of a window ~1e160 wide; the contour used
    to fail with an untyped ValueError (a NaN end point cannot be rounded to
    an int) after numpy overflow warnings."""
    conic = singularity_conic(ref, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="is not finite on the window's lattice"):
            sample_conic_polyline(conic, (-1e160, -1e160, 1e160, 1e160), 1e157)


def test_polyline_on_a_window_of_three_entries_is_a_validation_error(ref):
    """A window without its fourth entry names the argument; it was a bare
    ValueError from unpacking."""
    with pytest.raises(ValidationError, match="window must have 4 entries"):
        sample_conic_polyline(singularity_conic(ref, 0.9), (-10, -10, 20), 0.5)


def test_polyline_with_a_step_whose_join_tolerance_underflows_is_a_validation_error():
    """1e-9 * 1e-320 is 0: the float-key stitcher divided by it (a bare
    ZeroDivisionError), and ends rounded in numpy would all join at inf."""
    conic = SingularityConic(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0]), 0.0, np.zeros((3, 2)), "degenerate")
    with pytest.raises(ValidationError, match="join tolerance 1e-9 \\* step underflows"):
        sample_conic_polyline(conic, (-1e-318, -1e-318, 1e-318, 1e-318), 1e-320)


def test_classify_regular(ref):
    c = classify_configuration(ref, Pose(0, 0, 0))
    assert c.kind == "regular"
    assert c.singular_legs == ()
    assert c.measure == pytest.approx(MEASURE_AT_ORIGIN / L)


def test_classify_serial_with_clearance(ref):
    c = classify_configuration(ref, Pose(2, 1, 0))
    assert c.kind == "serial_singular"
    assert c.singular_legs == (1,)
    # legs 2 and 3 lines meet at (0.8, 0); distance to a1 = (0, 0) is 0.8
    assert c.clearance == pytest.approx(0.8)


def _bisect_conic_point(geom, p0, p1, phi):
    """Bisect the determinant's sign change along a fixed-phi segment."""
    f = lambda t: unnormalized_determinant(
        geom, Pose(p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]), phi)
    )
    lo, hi, flo = 0.0, 1.0, f(0.0)
    assert flo * f(1.0) < 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    t = 0.5 * (lo + hi)
    return Pose(p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]), phi)


def test_classify_parallel_by_bisection(ref):
    pose = _bisect_conic_point(ref, (-5.0, 0.0), (-5.0, 2.0), 0.0)
    sp = serial_points(ref, 0.0)
    assert all(np.hypot(pose.x - p[0], pose.y - p[1]) >= 0.5 * L for p in sp)
    c = classify_configuration(ref, pose)
    assert c.kind == "parallel_singular"
    assert abs(c.measure) <= 1e-9


def test_architectural_similar(similar_design):
    flag, detail = is_architecturally_singular(similar_design)
    assert flag and "direct" in detail


def test_architectural_reflected(ref):
    base = np.asarray(REF_BASE)
    reflected = 0.5 * (base - base.mean(axis=0)) * [1.0, -1.0]
    flag, detail = is_architecturally_singular(RobotGeometry(base=base, platform=reflected))
    assert flag and "reflected" in detail


def test_architectural_negative(ref):
    flag, _ = is_architecturally_singular(ref)
    assert not flag


def test_conic_rejects_similar_design(similar_design):
    with pytest.raises(ArchitecturalSingularity):
        singularity_conic(similar_design, 0.3)


# powers of a length scale s that each coefficient (q20, q11, q02, q10, q01, q00) carries
CONIC_DEGREE_POWERS = np.array([2, 2, 2, 3, 3, 4])


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_conic_exact_under_scaling(ref, s):
    scaled = RobotGeometry(base=s * ref.base, platform=s * ref.platform)
    for phi, kind in ((0.0, "hyperbola"), (0.7, "ellipse")):
        conic = singularity_conic(scaled, phi)
        assert conic.conic_class == kind
        expected = singularity_conic(ref, phi).coefficients * s**CONIC_DEGREE_POWERS
        assert np.max(np.abs(conic.coefficients - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_conic_matches_determinant_on_offset_designs():
    rng = np.random.default_rng(61)
    for _ in range(40):
        base = rng.uniform(0.0, L, size=(3, 2))
        base += rng.uniform(-5.0 * L, 5.0 * L, size=2)
        geom = RobotGeometry(base=base, platform=rng.uniform(-0.3 * L, 0.3 * L, size=(3, 2)))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        conic = singularity_conic(geom, phi)
        pts = base.mean(axis=0) + rng.uniform(-2.0 * L, 2.0 * L, size=(50, 2))
        dets = np.array([unnormalized_determinant(geom, Pose(x, y, phi)) for x, y in pts])
        err = np.abs(conic.evaluate(pts[:, 0], pts[:, 1]) - dets)
        assert np.max(err) <= 1e-12 * np.max(np.abs(dets))


def test_centred_conic_matches_determinant_on_offset_designs():
    """About the base centroid the coefficients stay accurate far from the
    world origin; the origin-frame form is the locus output, unchanged."""
    rng = np.random.default_rng(61)
    for _ in range(40):
        base = rng.uniform(0.0, L, size=(3, 2))
        base += rng.uniform(-5.0 * L, 5.0 * L, size=2)
        geom = RobotGeometry(base=base, platform=rng.uniform(-0.3 * L, 0.3 * L, size=(3, 2)))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        o = base.mean(axis=0)
        q20, q11, q02, q10, q01, q00 = _conic_coefficients(geom, phi, o)
        pts = o + rng.uniform(-2.0 * L, 2.0 * L, size=(50, 2))
        dets = np.array([unnormalized_determinant(geom, Pose(x, y, phi)) for x, y in pts])
        u, v = (pts - o).T
        centred = q20 * u * u + q11 * u * v + q02 * v * v + q10 * u + q01 * v + q00
        assert np.max(np.abs(centred - dets)) <= 1e-13 * np.max(np.abs(dets))
        # about the origin the helper gives the locus coefficients bit for bit
        assert _conic_coefficients(geom, phi).tobytes() == singularity_conic(geom, phi).coefficients.tobytes()
    # and it broadcasts over an array of orientations
    phis = np.array([0.0, 0.7, 2.5])
    stacked = _conic_coefficients(geom, phis, o)
    assert stacked.shape == (3, 6)
    for row, phi in zip(stacked, phis):
        assert row.tobytes() == _conic_coefficients(geom, phi, o).tobytes()


def test_conic_rejects_vanishing_determinant_without_design_check(similar_design, monkeypatch):
    """At phi = 0 the half-scale copy is homothetic to the base, so the
    determinant vanishes identically; the coefficient check alone rejects it."""
    monkeypatch.setattr(RobotGeometry, "architectural_singularity", property(lambda geom: (False, "")))
    with pytest.raises(ArchitecturalSingularity, match="whole plane"):
        singularity_conic(similar_design, 0.0)


def test_triangle_angles_reference(ref):
    assert np.allclose(triangle_angles(ref.base), [np.arctan(2), np.arctan(4 / 3), np.arctan(2)])
    assert triangle_angles(ref.platform)[0] == pytest.approx(np.arctan(1.5))


def test_passage_safety_reference(ref):
    assert passage_safety(ref).tolist() == [True, True, True]


def test_design_predicates_run_once_per_design(monkeypatch):
    """singularity_conic and plan_mode_change read the design's cached
    verdicts; the public functions still compute them."""
    calls = []
    for name in ("is_architecturally_singular", "passage_safety"):
        fn = getattr(singularity_module, name)
        monkeypatch.setattr(singularity_module, name, lambda geom, fn=fn, name=name: calls.append(name) or fn(geom))
    geom = RobotGeometry(REF_BASE, REF_PLATFORM)
    for phi in (0.0, 0.5, 1.0):
        singularity_conic(geom, phi)
    for _ in range(2):
        plan_mode_change(geom, Pose(5, 5, 0), resolution=(12, 12, 12))
    assert calls == ["is_architecturally_singular", "passage_safety"]
    assert geom.architectural_singularity == is_architecturally_singular(geom)
    assert not geom.architectural_singularity[0]
    assert geom.passage_safe.tolist() == passage_safety(geom).tolist() == [True, True, True]
    with pytest.raises(ValueError):
        geom.passage_safe[0] = False


def test_passage_safety_angle_matched():
    """Matching the platform angle at b1 to the base angle at a1 makes leg 1 unsafe."""
    theta = np.arctan(2)  # base angle at a1 of the reference design
    platform = [(0.0, 0.0), (3.0, 0.0), (1.5 * np.cos(theta), 1.5 * np.sin(theta))]
    geom = RobotGeometry(base=REF_BASE, platform=platform)
    safe = passage_safety(geom)
    assert not safe[0]
    assert safe[1] and safe[2]
    assert not is_architecturally_singular(geom)[0]


def test_passage_safety_equilateral_pair():
    """Equilateral base and platform: every leg unsafe, design architectural."""
    def equilateral(r):
        return [(r * np.cos(a), r * np.sin(a)) for a in (0, 2 * np.pi / 3, 4 * np.pi / 3)]

    geom = RobotGeometry(base=equilateral(10.0), platform=equilateral(3.0))
    assert not passage_safety(geom).any()
    assert is_architecturally_singular(geom)[0]


def _serial_clearance_over_phi(geom, leg, phis):
    """Per angle in ``phis``, the larger distance from a_leg to the other two
    leg lines when the platform puts b_leg on a_leg, over L: zero exactly
    where the serial point is also a parallel singularity.  With e_a = a_j -
    a_leg and e_b = b_j - b_leg, line j runs from a_j along R e_b - e_a."""
    c, s = np.cos(phis)[:, None], np.sin(phis)[:, None]
    a, b = np.asarray(geom.base), np.asarray(geom.platform)
    others = [j for j in range(3) if j != leg]
    ea, eb = a[others] - a[leg], b[others] - b[leg]
    rx, ry = c * eb[:, 0] - s * eb[:, 1], s * eb[:, 0] + c * eb[:, 1]
    cross = np.abs(rx * ea[:, 1] - ry * ea[:, 0])
    return (cross / np.hypot(rx - ea[:, 0], ry - ea[:, 1])).max(axis=1) / geom.L


def _min_serial_clearance(geom, leg):
    """The clearance minimised on a 4,000-point grid of phi, then refined by
    a bounded 1-D search around the grid minimum."""
    from scipy.optimize import minimize_scalar

    phis = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)
    k = int(np.argmin(_serial_clearance_over_phi(geom, leg, phis)))
    f = lambda p: float(_serial_clearance_over_phi(geom, leg, np.array([p]))[0])
    h = phis[1] - phis[0]
    res = minimize_scalar(f, bounds=(phis[k] - h, phis[k] + h), method="bounded", options={"xatol": 1e-13})
    return min(res.fun, f(phis[k]))


def _angle_matched_designs(rng, count):
    """Designs whose platform angle at b1 is the base's signed angle at a1
    (unsafe), its mirror (safe) or its supplement (unsafe), each with the
    angle phi at which leg 1's serial point is parallel (None when safe)."""
    out = []
    while len(out) < 3 * count:
        base = np.asarray(REF_BASE) + rng.normal(0.0, 1.5, (3, 2))
        za = (base @ [1, 1j]) - complex(*base[0])
        theta = np.angle(za[2] / za[1])
        if abs(np.sin(2.0 * theta)) < 0.05:  # a mirror near a right angle is nearly unsafe
            continue
        r2, r3, alpha = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), rng.uniform(-np.pi, np.pi)
        for angle, unsafe in ((theta, True), (-theta, False), (theta - np.pi, True)):
            zb = np.array([0.0, r2 * np.exp(1j * alpha), r3 * np.exp(1j * (alpha + angle))])
            platform = np.stack([zb.real, zb.imag], -1) + rng.uniform(-1.0, 1.0, 2)
            out.append((RobotGeometry(base, platform), np.angle(za[1]) - alpha if unsafe else None))
    return out


def test_passage_safety_agrees_with_the_serial_clearance():
    """The signed gate against a clearance sweep over phi: on seeded random
    designs (every leg) and on designs whose platform angle at b1 equals the
    base's signed angle at a1, mirrors it or is its supplement.  An unsafe
    leg has clearance 0 at its constructed phi; a safe one keeps its
    minimum clearance above 1e-7 * L.  The unsigned gate called the mirrored
    legs unsafe and the supplementary ones safe."""
    rng = np.random.default_rng(32)
    cases = _angle_matched_designs(rng, 8)
    cases += [(RobotGeometry(rng.uniform(-10, 10, (3, 2)), rng.uniform(-4, 4, (3, 2))), None) for _ in range(12)]
    for geom, phi in cases:
        safe = passage_safety(geom)
        for leg in range(3):
            if not safe[leg]:
                assert leg == 0 and phi is not None
                assert _serial_clearance_over_phi(geom, 0, np.array([phi]))[0] <= 1e-9
            else:
                assert phi is None or leg > 0
                assert _min_serial_clearance(geom, leg) > 1e-7


def _side_ratio_similarity(geom):
    """The side-ratio test that the cross-ratio replaced, kept as its
    reference: equal side ratios within 1e-9 relative, orientation from the
    signs of the two signed areas."""
    a, b = geom.base, geom.platform
    sa = np.array([np.hypot(*(a[(i + 1) % 3] - a[(i + 2) % 3])) for i in range(3)])
    sb = np.array([np.hypot(*(b[(i + 1) % 3] - b[(i + 2) % 3])) for i in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            lhs, rhs = sa[i] * sb[j], sa[j] * sb[i]
            if abs(lhs - rhs) > 1e-9 * max(lhs, rhs, 1e-300):
                return False, "base and platform triangles are not similar"
    ratio = float(np.sqrt(np.sum(sb**2) / np.sum(sa**2)))

    def signed_area(p):
        e1, e2 = p[1] - p[0], p[2] - p[0]
        return e1[0] * e2[1] - e1[1] * e2[0]

    area_a, area_b = signed_area(a), signed_area(b)
    if area_a == 0.0 or area_b == 0.0:
        orientation = "degenerate"
    elif (area_a > 0.0) == (area_b > 0.0):
        orientation = "direct"
    else:
        orientation = "reflected"
    return True, f"platform is a {orientation} similar copy of the base (ratio {ratio:.9g})"


def _similar_copy(rng, base, reflected):
    """A copy of ``base`` (3, 2), mirrored if ``reflected``, scaled by 1e-3
    to 1e3, rotated by any angle and moved by any offset."""
    z = base @ [1, 1j]
    z = np.conj(z) if reflected else z
    z = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)) * z + complex(*rng.uniform(-5, 5, 2))
    return np.stack([z.real, z.imag], -1)


def test_similarity_cross_ratio_matches_the_side_ratio_reference(similar_design):
    """Same verdict and detail as the side-ratio test on seeded random
    designs, exact direct and reflected copies and designs with coincident
    joints; on collinear pairs, which pass both the direct and the reflected
    test, the label is ``degenerate``."""
    rng = np.random.default_rng(33)
    designs = [similar_design, RobotGeometry(REF_BASE, REF_PLATFORM)]
    designs += [RobotGeometry(rng.uniform(-10, 10, (3, 2)), rng.uniform(-4, 4, (3, 2))) for _ in range(400)]
    for k in range(200):
        base = rng.uniform(-10, 10, (3, 2))
        designs.append(RobotGeometry(base, _similar_copy(rng, base, k % 2)))
    for k in range(60):
        base, platform = rng.uniform(-10, 10, (3, 2)), rng.uniform(-4, 4, (3, 2))
        i, j = rng.choice(3, 2, replace=False)
        if k % 3 != 1:
            base[i] = base[j]
        if k % 3 != 0:
            platform[i] = platform[j]
        designs.append(RobotGeometry(base, platform))
    seen = set()
    for geom in designs:
        got = is_architecturally_singular(geom)
        assert got == _side_ratio_similarity(geom)
        seen.add(got[1].split()[3] if got[0] else "not")
    assert seen == {"not", "direct", "reflected", "degenerate"}
    for k in range(40):
        base = rng.uniform(-5, 5, 2) + np.outer(rng.uniform(-10, 10, 3), rng.normal(size=2))
        geom = RobotGeometry(base, _similar_copy(rng, base, k % 2))
        got = is_architecturally_singular(geom)
        assert got[0] and got[1].startswith("platform is a degenerate similar copy")
        assert got[1].split("(")[1] == _side_ratio_similarity(geom)[1].split("(")[1]


def test_classification_symmetry_under_leg_permutation(ref):
    rng = np.random.default_rng(43)
    for _ in range(10):
        pose = Pose(*random_pose_tuple(rng))
        base_c = classify_configuration(ref, pose)
        for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
            permuted = RobotGeometry(
                base=ref.base[list(perm)], platform=ref.platform[list(perm)]
            )
            c = classify_configuration(permuted, pose)
            assert c.kind == base_c.kind
            expected = tuple(sorted(perm.index(leg - 1) + 1 for leg in base_c.singular_legs))
            assert tuple(sorted(c.singular_legs)) == expected
            if base_c.measure is not None:
                assert abs(c.measure) == pytest.approx(abs(base_c.measure))


# a platform frame ~1e300 away: pairwise distances finite, leg products overflow
FAR_PLATFORM = [[1e300, 0.0], [1.1e300, 0.0], [1e300, 1e299]]


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda geom, pose: classify_configuration(geom, pose).measure,
        parallel_singularity_measure,
        unnormalized_determinant,
    ],
    ids=["classify_configuration", "parallel_singularity_measure", "unnormalized_determinant"],
)
def test_pointwise_measures_reject_an_overflowing_design(evaluate):
    """Each used to return NaN (classify_configuration with kind "regular");
    each now raises a typed error, without a numpy warning."""
    geom = RobotGeometry(base=REF_BASE, platform=FAR_PLATFORM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="is not finite: the design's coordinates are too large"):
            evaluate(geom, Pose(0.0, 0.0, 0.0))
