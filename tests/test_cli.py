import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import planar_rpr
from planar_rpr import ParseError, Pose, ValidationError, load_robot, modeplan, pose_distance
from planar_rpr import cli as cli_module
from planar_rpr.cli import main

from conftest import REF_BASE, REF_PLATFORM, REF_SCALE

L = REF_SCALE
DATA = pathlib.Path(__file__).parent / "data"


# --- robot files ------------------------------------------------------------


def test_load_robot_ok(ref_file):
    geom = load_robot(ref_file)
    assert geom.name == "ref"
    assert np.allclose(geom.base, REF_BASE)


def test_load_robot_wrong_arity(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"base": [[0, 0], [10, 0]], "platform": REF_PLATFORM}))
    with pytest.raises(ParseError):
        load_robot(path)


def test_load_robot_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_robot(path)


def test_load_robot_bad_point_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"base": [[0, 0, 0], [10, 0], [4, 8]], "platform": REF_PLATFORM}))
    with pytest.raises(ParseError):
        load_robot(path)


def test_load_robot_non_finite(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"base": [[0, 0], [Infinity, 0], [4, 8]], "platform": [[-2,-1],[2,-1],[0,2]]}')
    with pytest.raises(ValidationError):
        load_robot(path)


def test_load_robot_coincident_points(tmp_path):
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps({"base": [[1, 1], [1, 1], [1, 1]], "platform": REF_PLATFORM}))
    with pytest.raises(ValidationError):
        load_robot(path)


def test_load_robot_warns_similar(tmp_path, recwarn):
    base = np.asarray(REF_BASE)
    platform = 0.5 * (base - base.mean(axis=0))
    path = tmp_path / "similar.json"
    path.write_text(json.dumps({"base": base.tolist(), "platform": platform.tolist()}))
    load_robot(path)
    messages = [str(w.message) for w in recwarn.list]
    assert any("architecturally singular" in m for m in messages)
    # a similar design has matching angles everywhere, so every leg is flagged
    assert sum("not passage-safe" in m for m in messages) == 3


# --- CLI --------------------------------------------------------------------


def test_cli_ik(ref_file, capfd):
    assert main(["ik", "--robot", str(ref_file), "--pose", "0,0,0"]) == 0
    out = json.loads(capfd.readouterr().out)
    assert np.allclose(out["rho"], np.sqrt([5, 65, 52]))


def test_cli_fk_round_trip(ref_file, capfd):
    code = main(["fk", "--robot", str(ref_file), "--joints", "2.2360679,8.0622577,7.2111025"])
    assert code == 0
    rows = json.loads(capfd.readouterr().out)
    assert any(
        pose_distance(Pose(r["x"], r["y"], r["phi"]), Pose(0, 0, 0), L) < 1e-5 for r in rows
    )
    assert all(r["multiplicity"] >= 1 for r in rows)


def test_cli_fk_oracle_agrees(ref_file, capfd):
    joints = "2.23606797749979,8.06225774829855,7.211102550927978"
    assert main(["fk", "--robot", str(ref_file), "--joints", joints]) == 0
    solver_rows = json.loads(capfd.readouterr().out)
    assert main(["oracle-fk", "--robot", str(ref_file), "--joints", joints, "--grid", "2048"]) == 0
    oracle_rows = json.loads(capfd.readouterr().out)
    assert len(solver_rows) == len(oracle_rows)
    for a, b in zip(solver_rows, oracle_rows):
        pa, pb = Pose(a["x"], a["y"], a["phi"]), Pose(b["x"], b["y"], b["phi"])
        assert pose_distance(pa, pb, L) <= 1e-6 * L


def test_cli_classify(ref_file, capfd):
    assert main(["classify", "--robot", str(ref_file), "--pose", "2,1,0"]) == 0
    out = json.loads(capfd.readouterr().out)
    assert out["kind"] == "serial_singular"
    assert out["singular_legs"] == [1]
    assert out["clearance"] == pytest.approx(0.8)


def test_cli_design_check(ref_file, capfd):
    assert main(["design-check", "--robot", str(ref_file)]) == 0
    out = json.loads(capfd.readouterr().out)
    assert out["architectural"] is False
    assert out["passage_safety"] == [True, True, True]
    assert len(out["angles"]["base"]) == 3


def test_cli_locus_json(ref_file, capfd):
    code = main([
        "locus", "--robot", str(ref_file), "--phi", "0",
        "--window", "-10,-10,20,20", "--step", "0.25",
    ])
    assert code == 0
    out = json.loads(capfd.readouterr().out)
    assert out["conic_class"] == "hyperbola"
    assert out["serial_points"] == [[2, 1], [8, 1], [4, 6]]
    assert out["polylines"]


def test_cli_locus_csv(ref_file, capfd):
    code = main([
        "locus", "--robot", str(ref_file), "--phi", "0",
        "--window", "-10,-10,20,20", "--step", "0.25", "--out", "csv",
    ])
    assert code == 0
    lines = capfd.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,polyline_id"
    x, y, pid = lines[1].split(",")
    float(x), float(y), int(pid)


def test_cli_usage_errors(ref_file, capfd):
    assert main(["fk", "--robot", str(ref_file)]) == 2  # missing --joints
    capfd.readouterr()
    assert main(["fk", "--bogus"]) == 2
    capfd.readouterr()
    assert main(["ik", "--robot", str(ref_file), "--pose", "1,2"]) == 2
    capfd.readouterr()


def test_cli_domain_error_exit_code(tmp_path, capfd):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"base": [[0, 0], [10, 0]], "platform": REF_PLATFORM}))
    assert main(["ik", "--robot", str(path), "--pose", "0,0,0"]) == 1
    err = capfd.readouterr().err
    assert "error:" in err


def test_cli_base_whose_distances_overflow_exits_1(tmp_path, capfd):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"base": [[-1e308, 0], [1e308, 0], [0, 1]], "platform": REF_PLATFORM}))
    assert main(["classify", "--robot", str(path), "--pose", "0,0,0"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: base points are too far apart: their largest distance overflows\n"


def test_cli_platform_whose_distances_overflow_exits_1(tmp_path, capfd):
    """design-check used to exit 0 on this platform, calling it a similar
    copy of the base with ratio inf, with raw RuntimeWarning lines."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"base": REF_BASE, "platform": [[-1e308, 0], [1e308, 0], [0, 1]]}))
    assert main(["design-check", "--robot", str(path)]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: platform points are too far apart: their largest distance overflows\n"


def test_cli_oracle_fk_with_non_finite_linear_forms_exits_1(tmp_path, capfd):
    """oracle-fk on a platform frame ~1e300 away used to exit 0 and print
    ``[]``, while fk exits 1; both fail with one error line."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"base": REF_BASE, "platform": [[1e300, 0], [1.1e300, 0], [1e300, 1e299]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["oracle-fk", "--robot", str(path), "--joints", "5,5,5"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
        "error: the forward-kinematics linear forms have non-finite coefficients: "
        "the design's coordinates or the joint values are too large"
    ]


@pytest.mark.parametrize(
    "command, message",
    [
        ("oracle-fk", "the forward-kinematics residual is not finite along the orientation sweep"),
        ("fk", "the forward-kinematics polynomial has non-finite coefficients"),
    ],
)
def test_cli_fk_whose_elimination_overflows_prints_one_error_line(tmp_path, command, message):
    """A platform frame ~1e154 away keeps the linear forms finite, but the
    residual and the compiled matrix overflow.  oracle-fk used to exit 0
    with ``[]`` and raw RuntimeWarning lines, and fk printed about 70
    ``warning:`` lines before its error; in a fresh interpreter both now
    exit 1 with one ``error:`` line on stderr."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"base": REF_BASE, "platform": [[1e154, 0], [1.1e154, 0], [1e154, 1e153]]}))
    src = os.path.dirname(os.path.dirname(planar_rpr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "planar_rpr.cli", command, "--robot", str(path), "--joints", "5,5,5"],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: {message}: the design's coordinates or the joint values are too large"
    ]


@pytest.mark.parametrize(
    "args, pinned",
    [
        (["--start", "5,5,0"], "plan_ref_5_5_0.json"),
        (["--start", "0,0,0", "--res", "32,32,32"], "plan_ref_0_0_0_res32.json"),
        (["--start", "0,0,0"], "plan_ref_0_0_0.json"),
    ],
)
def test_cli_plan_output_equals_pinned_file(ref_file, capfd, args, pinned):
    """plan prints the bytes pinned in tests/data, which an earlier
    version of the planner printed for the same command."""
    assert main(["plan", "--robot", str(ref_file), *args]) == 0
    out, err = capfd.readouterr()
    assert out.encode() == (DATA / pinned).read_bytes()
    assert err == ""


# the perfbench plan workload's seed-1 random design and seeded start
RANDOM0 = {
    "name": "random0",
    "base": [[0.5183762880971791, 1.2324272152517375], [10.49565561427508, -1.9547358474065413],
             [5.358033800009677, 8.669561858546016]],
    "platform": [[-2.2684766176801427, -0.7094409479018234], [2.182286198093038, -0.8529337516722371],
                 [0.014211120657898394, 2.2733564933062236]],
}


def test_cli_plan_on_a_random_design_equals_pinned_file(tmp_path, capfd):
    """plan on a perturbed reference design from its seeded start prints the
    bytes pinned in tests/data (the ``--start=`` form keeps the leading
    minus out of option parsing), and the plan verifies."""
    robot = tmp_path / "random0.json"
    robot.write_text(json.dumps(RANDOM0))
    start = "--start=-0.127511363705203,16.112161267419438,1.9050292966180866"
    assert main(["plan", "--robot", str(robot), start]) == 0
    out, err = capfd.readouterr()
    assert out.encode() == (DATA / "plan_random0_seed1.json").read_bytes()
    assert err == ""
    assert main(["verify", "--robot", str(robot), "--path", str(DATA / "plan_random0_seed1.json")]) == 0
    assert json.loads(capfd.readouterr().out)["verdict"] == "changed_without_parallel"


REF_JOINTS = "2.23606798,8.06225775,7.21110255"


@pytest.mark.parametrize(
    "args, pinned",
    [
        (["ik", "--pose", "0,0,0"], "cli_ik_ref_0_0_0.json"),
        (["fk", "--joints", REF_JOINTS], "cli_fk_ref.json"),
        (["oracle-fk", "--joints", REF_JOINTS], "cli_oracle_fk_ref.json"),
        (["oracle-fk", "--joints", REF_JOINTS, "--grid", "4096"], "cli_oracle_fk_ref_grid4096.json"),
        (["classify", "--pose", "2,1,0"], "cli_classify_ref_2_1_0.json"),
        (["locus", "--phi", "0.9", "--window", "-10,-10,20,20", "--step", "0.5"], "cli_locus_ref_phi0.9.json"),
        # at phi = 0 the locus is the line pair y = 1, x + 2 y = 16 through
        # lattice nodes, where end points of several segments meet
        (
            ["locus", "--phi", "0", "--window", "-10,-10,20,20", "--step", "0.1", "--out", "csv"],
            "cli_locus_ref_phi0_step0.1.csv",
        ),
        (["design-check"], "cli_design_check_ref.json"),
        (["verify", "--path", str(DATA / "verify_path_ref_5_5_0.json")], "cli_verify_ref_5_5_0.json"),
    ],
)
def test_cli_output_equals_pinned_file(ref_file, capfd, args, pinned):
    """Each command prints the bytes pinned in tests/data, which an earlier
    version printed for the same command on the reference robot."""
    assert main([args[0], "--robot", str(ref_file), *args[1:]]) == 0
    out, err = capfd.readouterr()
    assert out.encode() == (DATA / pinned).read_bytes()
    assert err == ""


@pytest.mark.parametrize(
    "platform",
    [
        [[-1e308, 0], [1e308, 0], [0, 1]],
        [[1e300, 0], [1.1e300, 0], [1e300, 1e299]],
    ],
)
@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--pose", "0,0,0"],
        ["locus", "--phi", "0", "--window", "0,0,1,1", "--step", "0.5"],
    ],
)
def test_cli_non_finite_result_is_an_error_not_json_nan(tmp_path, capfd, platform, args):
    """A platform whose coordinates overflow, or whose frame lies ~1e300
    away with finite pairwise distances, makes NaN results; stdout stays
    empty (never a bare ``NaN``) and the command fails with an error line."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"base": REF_BASE, "platform": platform}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main([args[0], "--robot", str(path), *args[1:]]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")


def test_cli_fk_with_non_finite_polynomial_is_one_error_line(tmp_path, capfd):
    """fk on a platform frame ~1e300 away with huge joints used to print a
    traceback (a bare IndexError); it exits 1 with one error line."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"base": REF_BASE, "platform": [[1e300, 0], [1.1e300, 0], [1e300, 1e299]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["fk", "--robot", str(path), "--joints", "1e300,1e300,1e300"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
        "error: the forward-kinematics polynomial has non-finite coefficients: "
        "the design's coordinates or the joint values are too large"
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_locus_with_non_finite_conic_is_one_error_line(tmp_path, capfd, fmt):
    """A platform frame ~1e300 away keeps the pairwise distances finite but
    overflows the conic's coefficients: locus exits 1 with this one error
    line in both formats, and no raw numpy warning (csv used to print a
    bare header and exit 0)."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"base": REF_BASE, "platform": [[1e300, 0], [1.1e300, 0], [1e300, 1e299]]}))
    args = ["locus", "--robot", str(path), "--out", fmt, "--phi", "0", "--window", "-10,-10,20,20", "--step", "1"]
    with warnings.catch_warnings(record=True) as raw:
        warnings.simplefilter("always")
        assert main(args) == 1
    out, err = capfd.readouterr()
    assert out == "" and raw == []
    assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
        "error: the singularity conic at phi=0.000000 has non-finite coefficients: "
        "the design's coordinates are too large"
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_locus_on_an_overflowing_window_is_one_error_line(ref_file, capfd, fmt):
    """Q overflows on a window ~1e160 wide: locus used to print numpy
    warnings and an untyped ValueError traceback; it now exits 1 with one
    error line in both formats."""
    args = ["locus", "--robot", str(ref_file), "--out", fmt, "--phi", "0.9",
            "--window=-1e160,-1e160,1e160,1e160", "--step", "1e157"]
    assert main(args) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: the singularity conic at phi=0.900000 is not finite on the window's lattice: "
        "the window's coordinates are too large"
    ]


@pytest.mark.parametrize("joints", ["1e160,1e160,1e160", "0,1e160,1e160"])
def test_cli_fk_on_joints_whose_squares_overflow_is_one_error_line(ref_file, capfd, joints):
    """fk used to print ``warning: overflow encountered in square`` first,
    and with a zero leg then printed ``[]`` and exited 0; the squares are
    checked before the zero-leg branch, with the polynomial's message."""
    assert main(["fk", "--robot", str(ref_file), "--joints", joints]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: the forward-kinematics polynomial has non-finite coefficients: "
        "the design's coordinates or the joint values are too large"
    ]


def test_cli_plan_and_verify(ref_file, tmp_path, capfd):
    out_path = tmp_path / "path.json"
    code = main([
        "plan", "--robot", str(ref_file), "--start", "0,0,0", "--out", str(out_path),
    ])
    assert code == 0
    stdout_doc = json.loads(capfd.readouterr().out)
    file_doc = json.loads(out_path.read_text())
    assert stdout_doc == file_doc
    assert len(file_doc["waypoints"]) >= 2

    assert main(["verify", "--robot", str(ref_file), "--path", str(out_path)]) == 0
    cert = json.loads(capfd.readouterr().out)
    assert cert["verdict"] == "changed_without_parallel"
    kinds = [e["kind"] for e in cert["events"]]
    assert "passage" in kinds and "parallel" not in kinds
    trace = cert["trace"]
    assert len(trace["t"]) == len(trace["measure"]) == len(trace["rho1"])
    assert np.allclose(
        np.asarray(cert["start_joints_sq"]), np.asarray(cert["end_joints_sq"]), atol=1e-9 * L**2
    )


def test_cli_plan_no_path_reports_explored(ref_file, capfd):
    args = ["plan", "--robot", str(ref_file), "--start", "5,5,0", "--box", "4.5,4.5,5.5,5.5", "--res", "8,8,8"]
    assert main(args) == 1
    out, err = capfd.readouterr()
    assert out == ""
    match = re.fullmatch(
        r"error: grid search exhausted without reaching the target "
        r"\(explored (\d+) grid nodes\)\n",
        err,
    )
    assert match and int(match.group(1)) > 0


def test_cli_plans_and_verifies_without_scipy(ref_file, tmp_path):
    """With scipy unimportable (``sys.modules['scipy'] = None``), a plan that
    needs the splice and the verify of its output both exit 0, and the plan
    verifies; so does a verify whose sign continuation refines a reversal
    between samples, which finds its one flip."""
    src = os.path.dirname(os.path.dirname(planar_rpr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # leg 1 passes its serial point S_1(0.83) at t = 5/7, between two samples
    x, y = 0.6118201490325716, 2.1507385022911922
    ends = [(x - 3.0, y - 1.3), (x + 1.2, y + 0.52)]
    reversal = tmp_path / "reversal.json"
    reversal.write_text(json.dumps({"waypoints": [{"x": a, "y": b, "phi": 0.83} for a, b in ends]}))
    plan = tmp_path / "plan.json"
    commands = [
        ["plan", "--robot", str(ref_file), "--start", "0,0,0", "--res", "32,32,32", "--out", str(plan)],
        ["verify", "--robot", str(ref_file), "--path", str(plan)],
        ["verify", "--robot", str(ref_file), "--path", str(reversal)],
    ]
    code = "\n".join([
        "import contextlib, io, json, sys",
        "sys.modules['scipy'] = None",
        "from planar_rpr.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    codes = [main(args) for args in json.loads(sys.argv[1])]",
        "_, checked, reversed_ = (json.loads(line) for line in out.getvalue().splitlines())",
        "print(codes, checked['verdict'], [f['leg'] for f in reversed_['sign_flips']])",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[0, 0, 0] changed_without_parallel [1]"
    assert result.stderr == ""


def test_cli_locus_leaves_stderr_empty(ref_file):
    """At phi = 0 the locus runs through lattice nodes, where neighbouring
    nodes share Q = 0; a fresh interpreter shows any numpy warning."""
    src = os.path.dirname(os.path.dirname(planar_rpr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "planar_rpr.cli", "locus", "--robot", str(ref_file), "--phi", "0",
         "--window", "-10,-10,20,20", "--step", "0.5"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout)["polylines"]
    assert result.stderr == ""


@pytest.mark.parametrize(
    "args",
    [
        ["plan", "--start", "0,0,0", "--res", "1000000000000,8,8"],
        ["verify", "--samples", "1000000000000"],
        ["oracle-fk", "--joints", "3.5,7.25,6.5", "--grid", "1000000000000"],
        ["locus", "--phi", "0", "--window", "-10,-10,20,20", "--step", "0.000001"],
    ],
)
def test_cli_oversized_grids_are_errors(ref_file, tmp_path, capfd, args):
    """Every count is checked before any array is allocated."""
    path_file = tmp_path / "seg.json"
    path_file.write_text(json.dumps({"waypoints": [{"x": 4, "y": 2, "phi": 0}, {"x": 0, "y": 0, "phi": 0}]}))
    if args[0] == "verify":
        args = [*args, "--path", str(path_file)]
    assert main([args[0], "--robot", str(ref_file), *args[1:]]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "10,000,000" in err


@pytest.mark.parametrize(
    "args",
    [
        ["locus", "--phi", "0", "--window", "-10,-10,20,20", "--step", "0"],
        ["locus", "--phi", "0", "--window", "1,0,0,1", "--step", "0.5"],
        ["oracle-fk", "--joints", "3.5,7.25,6.5", "--grid", "4"],
        ["plan", "--start", "0,0,0", "--res", "4,8,8"],
    ],
)
def test_cli_bad_domain_values_are_errors(ref_file, capfd, args):
    assert main([args[0], "--robot", str(ref_file), *args[1:]]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "args, option",
    [
        (["--seed", "1", "ik", "--robot", "{robot}", "--pose", "0,0,0"], "--seed"),
        (["fk", "--robot", "{robot}", "--joints", "3.5,7.25,6.5", "--oracle"], "--oracle"),
        (["fk", "--robot", "{robot}", "--joints", "3.5,7.25,6.5", "--grid", "4096"], "--grid"),
    ],
)
def test_cli_removed_options_are_usage_errors(ref_file, capfd, args, option):
    """``--seed`` changed nothing and ``fk --oracle``/``--grid`` duplicated
    ``oracle-fk``; all are gone, so click rejects them by name."""
    assert main([a.format(robot=ref_file) for a in args]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert "No such option" in err and option in err


@pytest.mark.parametrize(
    "args",
    [
        ["locus", "--phi", "nan", "--window", "-10,-10,20,20", "--step", "0.5"],
        ["locus", "--phi", "0", "--window", "-10,-10,20,20", "--step", "inf"],
        ["locus", "--phi", "0", "--window", "0,0,inf,1", "--step", "0.5"],
        ["classify", "--pose", "nan,0,0"],
        ["ik", "--pose", "0,-inf,0"],
        ["plan", "--start", "0,0,0", "--res", "inf,8,8"],
    ],
)
def test_cli_rejects_non_finite_numbers(ref_file, capfd, args):
    assert main([args[0], "--robot", str(ref_file), *args[1:]]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("res", ["16.9,16,16", "16,16,16.5"])
def test_cli_plan_rejects_fractional_resolution(ref_file, capfd, res):
    """``--res 16.9,16,16`` is a usage error, not a plan at 16^3."""
    assert main(["plan", "--robot", str(ref_file), "--start", "5,5,0", "--res", res]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert "res needs whole numbers" in err


def test_cli_determinism(ref_file, capfd):
    args = ["oracle-fk", "--robot", str(ref_file), "--joints", "3.5,7.25,6.5", "--grid", "1024"]
    assert main(args) == 0
    first = capfd.readouterr().out
    assert main(args) == 0
    assert capfd.readouterr().out == first


def test_cli_verify_csv_trace(ref_file, tmp_path, capfd):
    path_doc = {"waypoints": [{"x": 4, "y": 2, "phi": 0}, {"x": 0, "y": 0, "phi": 0}]}
    path_file = tmp_path / "seg.json"
    path_file.write_text(json.dumps(path_doc))
    assert main(["verify", "--robot", str(ref_file), "--path", str(path_file), "--out", "csv"]) == 0
    out, err = capfd.readouterr()
    lines = out.strip().splitlines()
    assert lines[0] == "t,rho1,rho2,rho3".replace("t,", "t,measure,")
    assert "verdict:" in err
    # rho1 runs from +sqrt5 to -sqrt5 through the serial point
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[2]) == pytest.approx(np.sqrt(5))
    assert float(last[2]) == pytest.approx(-np.sqrt(5))


def test_cli_locus_determinism(ref_file, capfd):
    args = ["locus", "--robot", str(ref_file), "--phi", "0.9", "--window", "-10,-10,20,20", "--step", "0.5"]
    assert main(args) == 0
    first = capfd.readouterr().out
    assert main(args) == 0
    assert capfd.readouterr().out == first


@pytest.mark.parametrize("window, step", [("0,0,1e300,1", "1"), ("0,0,1e308,1", "1e-300")])
def test_cli_locus_grid_cap(ref_file, capfd, window, step):
    args = ["locus", "--robot", str(ref_file), "--phi", "0", "--window", window, "--step", step]
    assert main(args) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _runner():
    try:
        return CliRunner(mix_stderr=False)  # click < 8.2
    except TypeError:
        return CliRunner()  # click >= 8.2 keeps stderr apart


@pytest.mark.parametrize(
    "module, args",
    [
        (cli_module, ["fk", "--joints", "2.23606797749979,8.06225774829855,7.211102550927978"]),
        (modeplan, ["plan", "--start", "0,0,0", "--res", "32,32,32"]),
        (cli_module, ["locus", "--phi", "0.9", "--window", "-10,-10,20,20", "--step", "0.5"]),
    ],
)
def test_cli_relays_solver_warnings(ref_file, monkeypatch, module, args):
    """A RuntimeWarning raised inside solve_fk under fk and plan, or inside
    singularity_conic under locus, reaches stderr as one ``warning:`` line,
    and stdout does not change."""
    name = "singularity_conic" if args[0] == "locus" else "solve_fk"
    args = [args[0], "--robot", str(ref_file), *args[1:]]
    quiet = _runner().invoke(cli_module.cli, args)
    assert quiet.exit_code == 0 and quiet.stderr == ""

    solver = getattr(module, name)
    message = f"{name} warned at phi=0.500000 with residual 1.000e-06"

    def warning_solver(*solver_args):
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        return solver(*solver_args)

    monkeypatch.setattr(module, name, warning_solver)
    loud = _runner().invoke(cli_module.cli, args)
    assert loud.exit_code == 0
    assert loud.stderr == f"warning: {message}\n"
    assert loud.stdout == quiet.stdout


@pytest.mark.parametrize("bad", ['"abc"', "null", "true", "false", "[1]", "NaN", "Infinity", "-Infinity", "1e400"])
def test_cli_verify_rejects_non_numeric_coordinates(ref_file, tmp_path, bad):
    """Strings, null, bools, arrays and non-finite values are a usage error
    naming the path file, not a traceback or a silently read number."""
    path_file = tmp_path / "seg.json"
    path_file.write_text('{"waypoints": [{"x": 4, "y": %s, "phi": 0}, {"x": 0, "y": 0, "phi": 0}]}' % bad)
    result = _runner().invoke(cli_module.cli, ["verify", "--robot", str(ref_file), "--path", str(path_file)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"cannot read path file {path_file}" in result.stderr
    assert "Traceback" not in result.stderr



@pytest.mark.parametrize(
    "args",
    [
        ["oracle-fk", "--joints", "3.5,7.25,6.5"],
    ],
)
def test_cli_oracle_grid_zero_is_rejected_like_three(ref_file, args):
    """``--grid 0`` is an explicit grid, not a request for the default."""
    results = [
        _runner().invoke(cli_module.cli, [args[0], "--robot", str(ref_file), *args[1:], "--grid", grid])
        for grid in ("0", "3")
    ]
    for result in results:
        assert result.stdout == ""
        assert isinstance(result.exception, ValidationError)
        assert str(result.exception) == "grid must be at least 8"
    assert results[0].exit_code == results[1].exit_code != 0
    for grid in ("0", "3"):
        assert main([args[0], "--robot", str(ref_file), *args[1:], "--grid", grid]) == 1
