"""Geometric data model of a general 3-RPR planar parallel robot.

A robot is three legs, each connecting a fixed base revolute joint ``a_i`` to
a platform revolute joint ``b_i`` through an extensible (prismatic) link.  The
``b_i`` are stored in the platform frame, whose origin is the platform
reference point C; a pose places C at ``(x, y)`` with the frame rotated by
``phi``.  The reference point is whatever the description file says it is --
nothing here assumes it is a centroid.

All tolerances used elsewhere in the package are expressed relative to the
characteristic scale ``RobotGeometry.L``, fixed when the design is built, so
behaviour is invariant under uniform scaling of the design.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

# Largest grid or sample count accepted anywhere: planner grid nodes, path
# base samples, locus grid nodes and oracle sweep angles.
MAX_SAMPLES = 10**7


def _as_locked_points(points, label: str) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.shape != (3, 2):
        raise ValidationError(f"{label} must be three planar points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{label} contains non-finite coordinates")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RobotGeometry:
    """Fixed base joints and platform-frame joints of the three legs.

    Leg ``i`` always connects ``base[i]`` to ``platform[i]``; the index order
    is meaningful and preserved everywhere.  ``L``, the largest pairwise
    distance among the base points, is computed once here.
    """

    base: np.ndarray
    platform: np.ndarray
    name: str | None = None
    L: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "base", _as_locked_points(self.base, "base"))
        object.__setattr__(self, "platform", _as_locked_points(self.platform, "platform"))
        for label, pts in (("base", self.base), ("platform", self.platform)):
            if np.max(np.abs(pts - pts[0])) == 0.0:
                raise ValidationError(f"{label} points are all coincident")
        a = self.base
        L = max(np.hypot(*(a[0] - a[1])), np.hypot(*(a[1] - a[2])), np.hypot(*(a[2] - a[0])))
        object.__setattr__(self, "L", L)

    def __eq__(self, other):
        if not isinstance(other, RobotGeometry):
            return NotImplemented
        return (
            np.array_equal(self.base, other.base)
            and np.array_equal(self.platform, other.platform)
            and self.name == other.name
        )

    def __hash__(self):
        return hash((self.base.tobytes(), self.platform.tobytes(), self.name))

    @cached_property
    def fk_design(self):
        """The design's compiled forward kinematics
        (:func:`planar_rpr.kinematics.compile_fk`), built on first use."""
        from .kinematics import compile_fk

        return compile_fk(self)


@dataclass(frozen=True)
class Pose:
    """Planar pose of the platform reference point C.

    ``phi`` is stored exactly as given; comparisons elsewhere wrap the
    difference into (-pi, pi].
    """

    x: float
    y: float
    phi: float

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.phi)


@dataclass(frozen=True)
class JointVector:
    """Three signed directed leg lengths (rho_1, rho_2, rho_3).

    The magnitude of each entry is a Euclidean joint-to-joint distance; the
    sign is a working-mode label carried by continuity along paths and is
    irrelevant to the forward problem, which depends on rho**2 only.
    """

    rho: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rho, dtype=float)
        if arr.shape != (3,):
            raise ValidationError(f"joint vector must have three entries, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("joint vector contains non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "rho", arr)

    @property
    def squared(self) -> np.ndarray:
        return self.rho**2


def rotation(phi: float) -> np.ndarray:
    """2x2 rotation matrix for angle ``phi``."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def wrap_angle(a):
    """Wrap an angle (or array of angles) into (-pi, pi]."""
    w = np.remainder(a + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w) if np.ndim(a) else (np.pi if w == -np.pi else float(w))


def platform_points(geom: RobotGeometry, pose: Pose) -> np.ndarray:
    """World coordinates of the three platform joints B_i for ``pose``.

    Exact rigid-transform semantics: B_i = (x, y) + R(phi) @ platform[i].
    """
    return pose.xy + geom.platform @ rotation(pose.phi).T


def characteristic_scale(geom: RobotGeometry) -> float:
    """The design's length scale ``geom.L``."""
    return geom.L


def pose_distance(p: Pose, q: Pose, scale: float) -> float:
    """max(position error, scale * wrapped angle error) between two poses."""
    dxy = float(np.hypot(p.x - q.x, p.y - q.y))
    dphi = abs(wrap_angle(p.phi - q.phi))
    return max(dxy, scale * dphi)
