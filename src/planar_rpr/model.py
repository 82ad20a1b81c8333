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

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

# Largest grid or sample count accepted anywhere: planner grid nodes, path
# base samples, locus grid nodes and oracle sweep angles.
MAX_SAMPLES = 10**7


def _whole_count(value, message: str) -> int:
    """``value`` as an int under the one rule for counts (path samples per
    segment, oracle sweep angles, planner resolution): a real number (an
    int, a float or a numpy number, not a string) with a whole value.
    Anything else raises :class:`ValidationError` with ``message``."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValidationError(message)
    return int(value)


def _entries(values, n: int, name: str) -> tuple:
    """``values`` as a tuple, which must have ``n`` entries; another length,
    or a value that is not a sequence, raises :class:`ValidationError`
    naming the argument ``name``."""
    try:
        entries = tuple(values)
    except TypeError:
        entries = None
    if entries is None or len(entries) != n:
        raise ValidationError(f"{name} must have {n} entries, got {values!r}")
    return entries


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
    distance among the base points, is computed once here as a Python
    float; it and the platform's largest pairwise distance must be finite.
    """

    base: np.ndarray
    platform: np.ndarray
    name: str | None = None
    L: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "base", _as_locked_points(self.base, "base"))
        object.__setattr__(self, "platform", _as_locked_points(self.platform, "platform"))
        spans = []
        with np.errstate(over="ignore"):  # finite points whose differences overflow
            for label, pts in (("base", self.base), ("platform", self.platform)):
                if np.max(np.abs(pts - pts[0])) == 0.0:
                    raise ValidationError(f"{label} points are all coincident")
                spans.append(max(np.hypot(*(pts[k] - pts[k - 1])) for k in range(3)))
                if not np.isfinite(spans[-1]):
                    raise ValidationError(f"{label} points are too far apart: their largest distance overflows")
        object.__setattr__(self, "L", float(spans[0]))

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
    def _leg_columns(self) -> dict:
        return {}

    def leg_columns(self, rank: int) -> tuple:
        """The columns (ax, ay, bx, by) of the base and platform points,
        each shaped (3, 1, ..., 1) with ``rank`` trailing ones so that it
        broadcasts against kernel inputs of that rank, legs leading
        (:func:`planar_rpr.singularity._leg_vectors`); built once per rank."""
        if rank not in self._leg_columns:
            self._leg_columns[rank] = tuple(v.reshape((3,) + (1,) * rank) for v in (*self.base.T, *self.platform.T))
        return self._leg_columns[rank]

    @cached_property
    def leg_floats(self) -> tuple:
        """Each leg's (ax, ay, bx, by) in Python floats, built on first use."""
        return tuple(tuple(a + b) for a, b in zip(self.base.tolist(), self.platform.tolist()))

    @cached_property
    def fk_design(self):
        """The design's compiled forward kinematics
        (:func:`planar_rpr.kinematics.compile_fk`), built on first use."""
        from .kinematics import compile_fk

        return compile_fk(self)

    @cached_property
    def gap_forms(self):
        """The design's bounds on the determinant and its curvature along a
        path step (:func:`planar_rpr.modeplan._gap_forms`), built on first
        use."""
        from .modeplan import _gap_forms

        return _gap_forms(self)

    @cached_property
    def architectural_singularity(self) -> tuple[bool, str]:
        """:func:`planar_rpr.singularity.is_architecturally_singular`, computed on first use."""
        from .singularity import is_architecturally_singular

        return is_architecturally_singular(self)

    @cached_property
    def passage_safe(self) -> np.ndarray:
        """:func:`planar_rpr.singularity.passage_safety`, read-only, computed on first use."""
        from .singularity import passage_safety

        safe = passage_safety(self)
        safe.flags.writeable = False
        return safe


@dataclass(frozen=True)
class Pose:
    """Planar pose of the platform reference point C.

    ``phi`` is stored exactly as given; comparisons elsewhere wrap the
    difference into (-pi, pi].
    """

    x: float
    y: float
    phi: float

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
        if not np.isfinite(arr).all():
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
    """Wrap an angle (or array of angles) into (-pi, pi]; a scalar gives a
    float, through float ``%``, which rounds as ``np.remainder`` does."""
    if type(a) is not float and (getattr(a, "ndim", 0) or isinstance(a, (list, tuple))):
        w = np.remainder(np.asarray(a) + np.pi, 2.0 * np.pi) - np.pi
        return np.where(w == -np.pi, np.pi, w)
    w = (float(a) + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


def platform_points(geom: RobotGeometry, pose: Pose) -> np.ndarray:
    """World coordinates of the three platform joints B_i for ``pose``:
    B_i = (x, y) + R(phi) @ platform[i], in Python floats with the operations
    of the leg kernel's float twin (:func:`planar_rpr.singularity._float_leg_vectors`),
    so B_i - a_i has the kernel's bits."""
    x, y, phi = float(pose.x), float(pose.y), float(pose.phi)
    c, s = (math.cos(phi), math.sin(phi)) if math.isfinite(phi) else (math.nan, math.nan)
    return np.array([(x + (c * bx - s * by), y + (s * bx + c * by)) for _, _, bx, by in geom.leg_floats])


def characteristic_scale(geom: RobotGeometry) -> float:
    """The design's length scale ``geom.L``."""
    return geom.L


def pose_distance(p: Pose, q: Pose, scale: float) -> float:
    """max(position error, scale * wrapped angle error) between two poses."""
    dxy = float(np.hypot(p.x - q.x, p.y - q.y))
    dphi = abs(wrap_angle(p.phi - q.phi))
    return max(dxy, scale * dphi)
