"""Robot description files and run configuration.

A robot file is JSON: {"base": [[x,y],[x,y],[x,y]],
"platform": [[x,y],[x,y],[x,y]], "name": optional string}.  Parsing is
strict: exactly three points per triple, two finite numbers per point.
Loading also runs the design checks and emits Python warnings for an
architecturally singular design or passage-unsafe legs.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .model import RobotGeometry
from .modeplan import EPS_PASS_REL


@dataclass
class RunConfig:
    """Run-wide settings shared by the CLI commands ``plan`` and ``verify``.

    ``eps_pass_rel`` is the passage tolerance as a fraction of the design's
    scale L.  The environment variable PLANAR_RPR_EPS_PASS_REL overrides it
    and must be positive and finite.  No command samples at random, so every
    command is byte-deterministic for fixed inputs.
    """

    eps_pass_rel: float = EPS_PASS_REL

    @classmethod
    def from_env(cls) -> "RunConfig":
        raw = os.environ.get("PLANAR_RPR_EPS_PASS_REL")
        if raw is None:
            return cls()
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValidationError(f"bad override eps_pass_rel={raw!r}") from exc
        if not (0 < value < math.inf):
            raise ValidationError(f"override eps_pass_rel must be positive and finite, got {value}")
        return cls(eps_pass_rel=value)


def parse_robot(data) -> RobotGeometry:
    """Validate a decoded robot description and build the geometry."""
    if not isinstance(data, dict):
        raise ParseError("robot description must be a JSON object")
    unknown = set(data) - {"base", "platform", "name"}
    if unknown:
        raise ParseError(f"unknown keys in robot description: {sorted(unknown)}")
    points = {}
    for key in ("base", "platform"):
        if key not in data:
            raise ParseError(f"robot description is missing {key!r}")
        triple = data[key]
        if not isinstance(triple, list) or len(triple) != 3:
            raise ParseError(f"{key} must be an array of exactly 3 points")
        for p in triple:
            if not isinstance(p, list) or len(p) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in p
            ):
                raise ParseError(f"{key} points must be [x, y] number pairs")
        points[key] = triple
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string")
    return RobotGeometry(base=points["base"], platform=points["platform"], name=name)


def load_robot(path) -> RobotGeometry:
    """Load and validate a robot description file.

    Raises ParseError for malformed input and ValidationError for geometric
    invariant violations; warns (warnings.warn) about architecturally
    singular designs and passage-unsafe legs.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read robot file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"robot file {path} is not valid JSON: {exc}") from exc
    geom = parse_robot(data)
    singular, detail = geom.architectural_singularity
    if singular:
        warnings.warn(f"architecturally singular design: {detail}", stacklevel=2)
    for i, ok in enumerate(geom.passage_safe):
        if not ok:
            warnings.warn(
                f"leg {i + 1} is not passage-safe: its signed base and platform angles agree modulo pi",
                stacklevel=2,
            )
    return geom
