import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_rpr import (
    Pose,
    RobotGeometry,
    ValidationError,
    characteristic_scale,
    platform_points,
    pose_distance,
    wrap_angle,
)
from planar_rpr.model import rotation

from conftest import REF_BASE, REF_PLATFORM, REF_SCALE


def test_platform_points_identity(ref):
    b = platform_points(ref, Pose(0, 0, 0))
    assert np.allclose(b, REF_PLATFORM)


def test_platform_points_translation(ref):
    # translating by a1 - b1 puts B1 onto A1
    b = platform_points(ref, Pose(2, 1, 0))
    assert np.allclose(b[0], [0, 0])


def test_platform_points_half_turn(ref):
    b = platform_points(ref, Pose(0, 0, np.pi))
    assert np.allclose(b[0], [2, 1])
    assert np.allclose(b, -np.asarray(REF_PLATFORM), atol=1e-12)


def test_characteristic_scale(ref):
    assert characteristic_scale(ref) == pytest.approx(REF_SCALE)
    doubled = RobotGeometry(base=2 * np.asarray(REF_BASE), platform=REF_PLATFORM)
    assert characteristic_scale(doubled) == pytest.approx(2 * REF_SCALE)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_scale_is_fixed_when_the_design_is_built(scale):
    geom = RobotGeometry(np.asarray(REF_BASE) * scale, np.asarray(REF_PLATFORM) * scale)
    a = geom.base
    assert "L" in vars(geom)  # set by the constructor, not on first use
    # a Python float, so tolerances built from it are float arithmetic
    assert type(geom.L) is float
    assert geom.L == max(np.hypot(*(a[i] - a[j])) for i, j in ((0, 1), (1, 2), (2, 0)))
    assert geom.L == pytest.approx(REF_SCALE * scale, rel=1e-15)
    # every reader gets the one stored value
    assert characteristic_scale(geom) is geom.L
    assert not hasattr(geom.fk_design, "L")


def test_degenerate_base_rejected():
    with pytest.raises(ValidationError):
        RobotGeometry(base=[(1, 1), (1, 1), (1, 1)], platform=REF_PLATFORM)
    with pytest.raises(ValidationError):
        RobotGeometry(base=REF_BASE, platform=[(0, 0), (0, 0), (0, 0)])


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        RobotGeometry(base=[(0, 0), (np.nan, 0), (4, 8)], platform=REF_PLATFORM)


def test_base_whose_distances_overflow_is_rejected():
    """Finite base coordinates whose differences overflow would give L = inf
    and infinite relative bands; the constructor rejects them, and raises no
    overflow RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="overflows"):
            RobotGeometry(base=[(-1e308, 0), (1e308, 0), (0, 1)], platform=REF_PLATFORM)
    # the largest finite spread is still a design
    assert np.isfinite(RobotGeometry(base=[(-8e307, 0), (8e307, 0), (0, 1)], platform=REF_PLATFORM).L)


def test_platform_whose_distances_overflow_is_rejected():
    """The platform's pairwise distances must be finite too: such a platform
    used to pass as a similar copy of the base with ratio inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="platform points are too far apart"):
            RobotGeometry(base=REF_BASE, platform=[(-1e308, 0), (1e308, 0), (0, 1)])
    assert RobotGeometry(base=REF_BASE, platform=[(-8e307, 0), (8e307, 0), (0, 1)]).L == 10.0


def test_geometry_is_immutable(ref):
    with pytest.raises(ValueError):
        ref.base[0, 0] = 99.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    x=st.floats(-20, 20),
    y=st.floats(-20, 20),
    phi=st.floats(-7, 7),
    tx=st.floats(-15, 15),
    ty=st.floats(-15, 15),
    theta=st.floats(-7, 7),
)
def test_platform_points_equivariance(x, y, phi, tx, ty, theta):
    """Composing a rigid transform with the pose maps every B_i by it."""
    geom = RobotGeometry(base=REF_BASE, platform=REF_PLATFORM)
    R = rotation(theta)
    moved = Pose(*(R @ [x, y] + [tx, ty]), phi + theta)
    expected = platform_points(geom, Pose(x, y, phi)) @ R.T + [tx, ty]
    assert np.allclose(platform_points(geom, moved), expected, atol=1e-9)


def test_full_turn_periodicity(ref):
    rng = np.random.default_rng(11)
    for _ in range(20):
        pose = Pose(rng.uniform(-10, 20), rng.uniform(-10, 20), rng.uniform(0, 2 * np.pi))
        shifted = Pose(pose.x, pose.y, pose.phi + 2 * np.pi)
        d = platform_points(ref, pose) - platform_points(ref, shifted)
        assert np.max(np.abs(d)) <= 1e-12 * REF_SCALE


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(2 * np.pi + 0.25) == pytest.approx(0.25)


def _reference_wrap_angle(a):
    """The wrap whose scalar branch went through np.remainder, kept as the
    reference for the float branch that replaced it."""
    w = np.remainder(a + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w) if np.ndim(a) else (np.pi if w == -np.pi else float(w))


def test_scalar_wrap_angle_is_bitwise_the_array_path():
    """Float % rounds as np.remainder does: every scalar, also an np.float64,
    wraps to the bits of the array path and of the reference, as a float."""
    pi = np.pi
    edges = [pi, -pi, 3 * pi, -3 * pi, 5 * pi, -7 * pi, 101 * pi, -1001 * pi, np.nextafter(pi, 4.0),
             np.nextafter(-pi, -4.0), 2 * pi, -2 * pi, 0.0, -0.0, 5e-324, -5e-324, 1e-20, 1e16, -1e16,
             1e308, np.inf, -np.inf, np.nan]
    values = edges + np.random.default_rng(5).uniform(-50.0, 50.0, 200).tolist()
    with np.errstate(invalid="ignore"):
        array = wrap_angle(np.array(values)).tolist()
        reference = [_reference_wrap_angle(v) for v in values]
    for v, a, r in zip(values, array, reference):
        for scalar in (float(v), np.float64(v)):
            got = wrap_angle(scalar)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(a).tobytes() == np.float64(r).tobytes(), v


def test_wrap_angle_keeps_its_bits_on_every_input_type():
    """A float takes the float fast path; an int, an np.float64 and a 0-d
    array go through float(); an array takes the array path.  Each gives
    the reference's bits, at +-pi too, and a scalar gives a float.  A list
    or a tuple takes the array path."""
    pi = np.pi
    values = [pi, -pi, 3 * pi, -3 * pi, np.nextafter(pi, 0.0), 0.0, -0.0, 2.5, -7.25, 1e16]
    values += np.random.default_rng(17).uniform(-20.0, 20.0, 50).tolist()
    bits = lambda v: np.asarray(v, dtype=float).tobytes()
    for v in values:
        for scalar in (v, np.float64(v), np.array(v)):
            got = wrap_angle(scalar)
            assert type(got) is float and bits(got) == bits(_reference_wrap_angle(v)), v
    for n in (0, 1, -1, 3, -4, 7, 10**6, -(10**9), True):
        got = wrap_angle(n)
        assert type(got) is float and bits(got) == bits(_reference_wrap_angle(float(n))), n
    for arr in (np.array(values), np.array(values).reshape(6, 10)):
        got = wrap_angle(arr)
        assert got.shape == arr.shape and bits(got) == bits(_reference_wrap_angle(arr))
    # lists and tuples take the array path too
    for seq in (values, tuple(values), np.array(values).reshape(6, 10).tolist(), [1.0, 4.0]):
        got = wrap_angle(seq)
        assert got.shape == np.shape(seq) and bits(got) == bits(_reference_wrap_angle(np.array(seq)))


def test_pose_distance_wraps(ref):
    L = characteristic_scale(ref)
    a = Pose(0, 0, 0.1)
    b = Pose(0, 0, 0.1 + 2 * np.pi)
    assert pose_distance(a, b, L) == pytest.approx(0.0, abs=1e-12)
    c = Pose(3, 4, 0.1)
    assert pose_distance(a, c, L) == pytest.approx(5.0)
    d = Pose(0, 0, 0.1 + np.pi / 2)
    assert pose_distance(a, d, L) == pytest.approx(L * np.pi / 2)
