"""Command-line interface.

JSON results go to standard output, diagnostics to standard error, so
outputs pipe cleanly into plotting scripts.  Exit codes: 0 on success, 1 on
domain errors (bad geometry, singular designs, planning failures), 2 on
usage errors.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from contextlib import contextmanager

import click
import numpy as np

from .errors import RobotError
from .kinematics import ORACLE_GRID, inverse_kinematics, oracle_fk, solve_fk
from .model import JointVector, Pose
from .modeplan import WorkspacePath, plan_mode_change, verify_mode_change
from .robotfile import RunConfig, load_robot
from .singularity import (
    classify_configuration,
    is_architecturally_singular,
    passage_safety,
    sample_conic_polyline,
    singularity_conic,
    triangle_angles,
)


def _dumps(obj) -> str:
    """JSON text of a result; a non-finite number, which JSON cannot carry,
    is a domain error rather than a ``NaN`` on stdout."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise RobotError("the result has a non-finite number, which JSON cannot carry") from exc


def _emit(obj):
    click.echo(_dumps(obj))


@contextmanager
def _relay_warnings():
    """Print warnings raised in the block as ``warning: ...`` lines on stderr,
    also when the block raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for w in caught:
                click.echo(f"warning: {w.message}", err=True)


def _floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise click.UsageError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise click.UsageError(f"{what} needs numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise click.UsageError(f"{what} needs finite numbers, got {text!r}")
    return values


def _finite(ctx, param, value):
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"needs a finite number, got {value!r}")
    return value


def _pose_arg(text: str) -> Pose:
    x, y, phi = _floats(text, 3, "pose")
    return Pose(x, y, phi)


def _solution_rows(sols):
    return [
        {
            "x": p.x,
            "y": p.y,
            "phi": p.phi,
            "residual": float(r),
            "multiplicity": int(m),
        }
        for p, r, m in zip(sols.solutions, sols.residuals, sols.multiplicities)
    ]


@click.group()
@click.pass_context
def cli(ctx):
    """Model 3-RPR planar parallel robots: kinematics, singularity loci and
    passage-crossing mode-change planning."""
    ctx.with_resource(_relay_warnings())  # for the whole command
    ctx.obj = RunConfig.from_env()


@cli.command()
@click.option("--robot", "robot_path", required=True, type=click.Path())
@click.option("--pose", "pose_text", required=True, help="x,y,phi")
@click.option("--signs", "signs_text", default=None, help="optional s1,s2,s3 sign hint")
def ik(robot_path, pose_text, signs_text):
    """Inverse kinematics: signed leg lengths for a pose."""
    geom = load_robot(robot_path)
    hint = _floats(signs_text, 3, "signs") if signs_text else None
    joints = inverse_kinematics(geom, _pose_arg(pose_text), hint)
    _emit({"rho": [float(v) for v in joints.rho]})


@cli.command()
@click.option("--robot", "robot_path", required=True, type=click.Path())
@click.option("--joints", "joints_text", required=True, help="r1,r2,r3")
def fk(robot_path, joints_text):
    """Forward kinematics: all assembly modes for given joint values."""
    geom = load_robot(robot_path)
    joints = JointVector(_floats(joints_text, 3, "joints"))
    sols = solve_fk(geom, joints)
    _emit(_solution_rows(sols))


@cli.command("oracle-fk")
@click.option("--robot", "robot_path", required=True, type=click.Path())
@click.option("--joints", "joints_text", required=True, help="r1,r2,r3")
@click.option("--grid", type=int, default=ORACLE_GRID, show_default=True, help="Sweep grid size.")
def oracle_fk_cmd(robot_path, joints_text, grid):
    """Brute-force forward kinematics by orientation sweep."""
    geom = load_robot(robot_path)
    joints = JointVector(_floats(joints_text, 3, "joints"))
    sols = oracle_fk(geom, joints, grid)
    _emit(_solution_rows(sols))


@cli.command()
@click.option("--robot", "robot_path", required=True, type=click.Path())
@click.option("--pose", "pose_text", required=True, help="x,y,phi")
def classify(robot_path, pose_text):
    """Classify a pose: regular, parallel or serial singular."""
    geom = load_robot(robot_path)
    c = classify_configuration(geom, _pose_arg(pose_text))
    _emit(
        {
            "kind": c.kind,
            "singular_legs": list(c.singular_legs),
            "measure": None if c.measure is None else float(c.measure),
            "clearance": None if c.clearance is None else float(c.clearance),
        }
    )


@cli.command()
@click.option("--robot", "robot_path", required=True, type=click.Path())
@click.option("--phi", type=float, required=True, callback=_finite)
@click.option("--window", "window_text", required=True, help="x0,y0,x1,y1")
@click.option("--step", type=float, required=True, callback=_finite)
@click.option("--out", "fmt", type=click.Choice(["json", "csv"]), default="json")
def locus(robot_path, phi, window_text, step, fmt):
    """Singularity conic at fixed orientation, as plot-ready polylines."""
    geom = load_robot(robot_path)
    window = _floats(window_text, 4, "window")
    conic = singularity_conic(geom, phi)
    polylines = sample_conic_polyline(conic, window, step)
    if fmt == "csv":
        click.echo("x,y,polyline_id")
        for pid, poly in enumerate(polylines):
            for x, y in poly:
                click.echo(f"{float(x)!r},{float(y)!r},{pid}")
        return
    _emit(
        {
            "phi": conic.phi,
            "coefficients": [float(c) for c in conic.coefficients],
            "conic_class": conic.conic_class,
            "serial_points": [[float(v) for v in p] for p in conic.serial_points],
            "polylines": [[[float(v) for v in pt] for pt in poly] for poly in polylines],
        }
    )


@cli.command("design-check")
@click.option("--robot", "robot_path", required=True, type=click.Path())
def design_check(robot_path):
    """Architectural-singularity and passage-safety report."""
    geom = load_robot(robot_path)
    singular, detail = is_architecturally_singular(geom)
    _emit(
        {
            "architectural": bool(singular),
            "detail": detail,
            "passage_safety": [bool(v) for v in passage_safety(geom)],
            "angles": {
                "base": [float(a) for a in triangle_angles(geom.base)],
                "platform": [float(a) for a in triangle_angles(geom.platform)],
            },
        }
    )


@cli.command()
@click.option("--robot", "robot_path", required=True, type=click.Path())
@click.option("--start", "start_text", required=True, help="x,y,phi")
@click.option("--target", "target_text", default=None, help="x,y,phi")
@click.option("--box", "box_text", default=None, help="x0,y0,x1,y1")
@click.option("--res", "res_text", default=None, help="nx,ny,nphi")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Also write the path here.")
@click.pass_obj
def plan(cfg, robot_path, start_text, target_text, box_text, res_text, out_path):
    """Plan an assembly-mode change crossing the locus through passages."""
    geom = load_robot(robot_path)
    start = _pose_arg(start_text)
    target = _pose_arg(target_text) if target_text else None
    box = _floats(box_text, 4, "box") if box_text else None
    res = {"resolution": _floats(res_text, 3, "res")} if res_text else {}
    if res and not all(v.is_integer() for v in res["resolution"]):
        raise click.UsageError(f"res needs whole numbers, got {res_text!r}")
    path = plan_mode_change(geom, start, target, box=box, eps_pass=cfg.eps_pass_rel * geom.L, **res)
    text = _dumps({"waypoints": [{"x": w.x, "y": w.y, "phi": w.phi} for w in path.waypoints]})
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    click.echo(text)


@cli.command()
@click.option("--robot", "robot_path", required=True, type=click.Path())
@click.option("--path", "path_file", required=True, type=click.Path())
@click.option("--samples", type=int, default=16, help="Samples per path segment.")
@click.option("--out", "fmt", type=click.Choice(["json", "csv"]), default="json",
              help="csv emits just the sampled trace, verdict goes to stderr.")
@click.pass_obj
def verify(cfg, robot_path, path_file, samples, fmt):
    """Verify a workspace path and print its mode-change certificate."""
    geom = load_robot(robot_path)
    try:
        with open(path_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        coords = [[w[k] for k in ("x", "y", "phi")] for w in doc["waypoints"]]
        if not all(type(v) in (int, float) and math.isfinite(v) for c in coords for v in c):
            raise ValueError("waypoint coordinates must be finite numbers (not bools or null)")
        waypoints = tuple(Pose(*map(float, c)) for c in coords)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise click.UsageError(f"cannot read path file {path_file}: {exc}")
    path = WorkspacePath(waypoints, samples_per_segment=samples)
    cert = verify_mode_change(geom, path, eps_pass=cfg.eps_pass_rel * geom.L)
    if fmt == "csv":
        click.echo(f"verdict: {cert.verdict}", err=True)
        click.echo("t,measure,rho1,rho2,rho3")
        if cert.joint_path is not None:
            for k, t in enumerate(cert.joint_path.ts):
                meas = cert.measure_trace[k]
                meas_txt = "" if not np.isfinite(meas) else repr(float(meas))
                r1, r2, r3 = (repr(float(v)) for v in cert.joint_path.rho[k])
                click.echo(f"{float(t)!r},{meas_txt},{r1},{r2},{r3}")
        return
    _emit(cert.to_dict())


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, prog_name="planar-rpr", standalone_mode=False)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except RobotError as exc:
        explored = getattr(exc, "explored", 0)
        suffix = f" (explored {explored} grid nodes)" if explored > 0 else ""
        click.echo(f"error: {exc}{suffix}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
