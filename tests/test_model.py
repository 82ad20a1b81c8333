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
    assert type(geom.L) is np.float64
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


def test_geometry_is_immutable(ref):
    with pytest.raises(ValueError):
        ref.base[0, 0] = 99.0


@settings(max_examples=50, deadline=None)
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


def test_pose_distance_wraps(ref):
    L = characteristic_scale(ref)
    a = Pose(0, 0, 0.1)
    b = Pose(0, 0, 0.1 + 2 * np.pi)
    assert pose_distance(a, b, L) == pytest.approx(0.0, abs=1e-12)
    c = Pose(3, 4, 0.1)
    assert pose_distance(a, c, L) == pytest.approx(5.0)
    d = Pose(0, 0, 0.1 + np.pi / 2)
    assert pose_distance(a, d, L) == pytest.approx(L * np.pi / 2)
