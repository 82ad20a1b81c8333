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
from .kinematics import ORACLE_GRID
from .model import RobotGeometry
from .modeplan import EPS_PASS_REL
from .singularity import is_architecturally_singular, passage_safety

_ENV_PREFIX = "PLANAR_RPR_"


@dataclass
class RunConfig:
    """Tunable knobs shared by the CLI commands.

    ``eps_pass_rel``, ``oracle_grid`` and ``seed`` can be overridden by
    environment variables with the PLANAR_RPR_ prefix (PLANAR_RPR_EPS_PASS_REL,
    PLANAR_RPR_ORACLE_GRID, PLANAR_RPR_SEED).  The first two overrides must
    be positive and finite, the seed non-negative.  ``seed`` is accepted and
    validated but read by no command: no computation samples at random, so
    every command is byte-deterministic for fixed inputs.
    """

    eps_pass_rel: float = EPS_PASS_REL
    oracle_grid: int = ORACLE_GRID
    seed: int | None = None

    @classmethod
    def from_env(cls) -> "RunConfig":
        cfg = cls()
        for name, cast in (("eps_pass_rel", float), ("oracle_grid", int), ("seed", int)):
            raw = os.environ.get(_ENV_PREFIX + name.upper())
            if raw is None:
                continue
            try:
                value = cast(raw)
            except ValueError as exc:
                raise ValidationError(f"bad override {name}={raw!r}") from exc
            if name == "seed" and value < 0:
                raise ValidationError(f"override seed must be non-negative, got {value}")
            if name != "seed" and not (0 < value < math.inf):
                raise ValidationError(f"override {name} must be positive and finite, got {value}")
            setattr(cfg, name, value)
        return cfg


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
    singular, detail = is_architecturally_singular(geom)
    if singular:
        warnings.warn(f"architecturally singular design: {detail}", stacklevel=2)
    safe = passage_safety(geom)
    for i, ok in enumerate(safe):
        if not ok:
            warnings.warn(
                f"leg {i + 1} is not passage-safe: its base and platform angles match",
                stacklevel=2,
            )
    return geom
