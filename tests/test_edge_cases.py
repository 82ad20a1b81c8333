import numpy as np
import pytest

from planar_rpr import (
    DegenerateElimination,
    JointVector,
    Pose,
    RobotGeometry,
    RunConfig,
    ValidationError,
    build_fk_polynomial,
    inverse_kinematics,
    is_architecturally_singular,
    oracle_fk,
    plan_mode_change,
    pose_distance,
    solve_fk,
    unnormalized_determinant,
    verify_mode_change,
)

from conftest import REF_SCALE, random_pose_tuple

L = REF_SCALE


@pytest.fixture(scope="module")
def swap_design():
    """Platform edges are the base edges exchanged: the three serial points
    stay collinear at every orientation, so the (x, y) elimination system is
    singular uniformly."""
    return RobotGeometry(base=[(0, 0), (2, 0), (0, 2)], platform=[(0, 0), (0, 2), (2, 0)])


def test_degenerate_elimination_raises(swap_design):
    with pytest.raises(DegenerateElimination):
        build_fk_polynomial(swap_design, JointVector([1.0, 1.0, 1.0]))
    with pytest.raises(DegenerateElimination):
        oracle_fk(swap_design, JointVector([1.0, 1.0, 1.0]))
    # this particular construction is also a reflected-congruent design
    assert is_architecturally_singular(swap_design)[0]


def test_polynomial_trim_invariant(ref):
    rng = np.random.default_rng(53)
    for _ in range(20):
        joints = inverse_kinematics(ref, Pose(*random_pose_tuple(rng)))
        poly = build_fk_polynomial(ref, joints)
        assert not poly.degenerate
        assert abs(poly.coeffs[-1]) > 1e-12 * np.max(np.abs(poly.coeffs))
        assert poly.degree <= 6


def test_oracle_infeasible_empty(ref):
    assert len(oracle_fk(ref, JointVector([100.0, 0.5, 7.0]), grid=512)) == 0


def test_joint_vector_validation():
    with pytest.raises(ValidationError):
        JointVector([1.0, 2.0])
    with pytest.raises(ValidationError):
        JointVector([1.0, np.inf, 2.0])


def test_planner_natural_crossing_to_opposite_region(ref):
    """A target on the other side of the locus forces an odd number of
    passage crossings without any splicing."""
    target = Pose(2.6027226028420403, 0.27848719228004004, -1.302590618547349)
    path = plan_mode_change(ref, Pose(0, 0, 0), target=target)
    cert = verify_mode_change(ref, path)
    assert cert.verdict == "changed_without_parallel"
    passages = sum(e.kind == "passage" for e in cert.events)
    assert passages >= 1 and passages % 2 == 1
    s0 = np.sign(unnormalized_determinant(ref, cert.start_pose))
    s1 = np.sign(unnormalized_determinant(ref, cert.end_pose))
    assert s0 != s1
    assert pose_distance(cert.end_pose, target, L) == 0.0


def test_planner_without_required_crossing(ref):
    """With crossing not required, the same-region target is reached directly
    and the certificate still reports a clean mode change."""
    path = plan_mode_change(ref, Pose(0, 0, 0), require_crossing=False)
    cert = verify_mode_change(ref, path)
    assert cert.verdict == "changed_without_parallel"
    assert not any(e.kind == "parallel" for e in cert.events)


def test_planner_on_random_designs():
    """The passage construction works on generic geometries, not just the
    reference one."""
    from planar_rpr import characteristic_scale, classify_configuration

    planned = 0
    for seed in (200, 201):
        r = np.random.default_rng(seed)
        geom = RobotGeometry(base=r.uniform(-5, 5, (3, 2)), platform=r.uniform(-2, 2, (3, 2)))
        if is_architecturally_singular(geom)[0]:
            continue
        Lg = characteristic_scale(geom)
        start = None
        for _ in range(50):
            cand = Pose(r.uniform(-Lg, 2 * Lg), r.uniform(-Lg, 2 * Lg), r.uniform(0, 2 * np.pi))
            if classify_configuration(geom, cand).kind != "regular":
                continue
            sols = solve_fk(geom, inverse_kinematics(geom, cand))
            others = [p for p in sols if pose_distance(p, cand, Lg) >= 1e-3 * Lg]
            if others and all(-Lg <= v <= 2 * Lg for p in others for v in (p.x, p.y)):
                start = cand
                break
        if start is None:
            continue
        path = plan_mode_change(geom, start, resolution=(48, 48, 48))
        cert = verify_mode_change(geom, path)
        assert cert.verdict == "changed_without_parallel"
        assert any(e.kind == "passage" for e in cert.events)
        planned += 1
    assert planned >= 1


def test_runconfig_env_overrides(monkeypatch):
    monkeypatch.setenv("PLANAR_RPR_EPS_PASS_REL", "0.002")
    cfg = RunConfig.from_env()
    assert cfg.eps_pass_rel == 0.002


def test_runconfig_rejects_nonpositive(monkeypatch):
    monkeypatch.setenv("PLANAR_RPR_EPS_PASS_REL", "-1")
    with pytest.raises(ValidationError):
        RunConfig.from_env()


@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_runconfig_rejects_non_finite(monkeypatch, raw):
    monkeypatch.setenv("PLANAR_RPR_EPS_PASS_REL", raw)
    with pytest.raises(ValidationError):
        RunConfig.from_env()


def test_runconfig_rejects_garbage(monkeypatch):
    monkeypatch.setenv("PLANAR_RPR_EPS_PASS_REL", "many")
    with pytest.raises(ValidationError):
        RunConfig.from_env()
