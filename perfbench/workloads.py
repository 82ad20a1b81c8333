"""Seeded inputs, timed operations and correctness checks of the workloads.

Each workload turns a seed into a fixed list of items and cycles through it.
``run`` makes the library calls of one item and times them; ``check`` then
verifies the outputs, untimed.  The library is called through module
attributes (``modeplan.plan_mode_change`` and so on) looked up at call time,
so the wrappers that ``tracing`` installs in a traced run see every call.
The checks use the benchmark's own geometry helpers below wherever they can,
so that they do not depend on the code they check.

Why each workload exists, and which layers it stresses and bypasses, is
written in README.md next to this file.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from planar_rpr import kinematics, modeplan, singularity
from planar_rpr.model import JointVector, Pose, RobotGeometry
from planar_rpr.modeplan import WorkspacePath

# Reference robot of tests/conftest.py.
REF_BASE = ((0.0, 0.0), (10.0, 0.0), (4.0, 8.0))
REF_PLATFORM = ((-2.0, -1.0), (2.0, -1.0), (0.0, 2.0))
REF_SCALES = (("ref", 1.0), ("ref_milli", 1e-3), ("ref_kilo", 1e3))

# Newton in solve_fk accepts a constraint residual up to 1e-9 * L^2
# (kinematics.RESIDUAL_REL).  At a zero leg the residual of that leg is the
# squared distance of B_i from a_i, so a pose the solver accepts can sit
# sqrt(1e-9) * L ~ 3.2e-5 * L from the true one.  That is the recovery and
# matching tolerance; the 1e-6 * L dedup radius is not a bound on pose error.
RESIDUAL_BOUND_REL = 1e-9
POSE_TOL_REL = math.sqrt(RESIDUAL_BOUND_REL)
# singularity_conic rejects fits whose residual exceeds 1e-9 of the
# determinant's scale; Q is checked against the same bound.
CONIC_TOL_REL = 1e-9
# Documented agreement of endpoint squared joints (verify_mode_change).
JOINTS_SQ_TOL_REL = 1e-9
# Serial band of classify_configuration, and an offset well inside it.
SERIAL_BAND_REL = 1e-6
NEAR_SERIAL_REL = 1e-7
# The crossing bisection stops at |dt| <= 1e-10; allow rounding on top.
EVENT_T_TOL = 1e-6

FK_WARNINGS = ("dropped a near-solution", "tan-half deflation")


# ---------------------------------------------------------------------------
# geometry helpers owned by the benchmark


def scale_of(geom: RobotGeometry) -> float:
    """Largest pairwise distance among the base points."""
    a = np.asarray(geom.base)
    return max(math.dist(a[i], a[j]) for i, j in ((0, 1), (1, 2), (2, 0)))


def wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def pose_gap(p: Pose, q: Pose, L: float) -> float:
    """max(position error, L * wrapped angle error)."""
    return max(math.hypot(p.x - q.x, p.y - q.y), L * abs(wrap(p.phi - q.phi)))


def joints_sq(geom: RobotGeometry, pose: Pose) -> np.ndarray:
    c, s = math.cos(pose.phi), math.sin(pose.phi)
    b = np.asarray(geom.platform)
    bx = pose.x + c * b[:, 0] - s * b[:, 1] - geom.base[:, 0]
    by = pose.y + s * b[:, 0] + c * b[:, 1] - geom.base[:, 1]
    return bx * bx + by * by


def serial_point(geom: RobotGeometry, leg: int, phi: float) -> tuple[float, float]:
    """S_i(phi) = a_i - R(phi) b_i, where leg i has zero length."""
    c, s = math.cos(phi), math.sin(phi)
    bx, by = geom.platform[leg]
    ax, ay = geom.base[leg]
    return float(ax - (c * bx - s * by)), float(ay - (s * bx + c * by))


def near_duplicate_pairs(solutions, L: float) -> int:
    """Pairs of returned solutions closer than the pose tolerance."""
    sols = list(solutions)
    return sum(
        pose_gap(sols[i], sols[j], L) <= POSE_TOL_REL * L
        for i in range(len(sols))
        for j in range(i + 1, len(sols))
    )


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# input generation


def design_docs(rng: np.random.Generator, n_random: int) -> list[dict]:
    """Robot description documents: the reference robot, its x1e-3 and x1e3
    copies, and ``n_random`` seeded perturbations of the reference."""
    docs = [
        {
            "name": name,
            "base": (np.asarray(REF_BASE) * s).tolist(),
            "platform": (np.asarray(REF_PLATFORM) * s).tolist(),
        }
        for name, s in REF_SCALES
    ]
    while len(docs) < len(REF_SCALES) + n_random:
        base = np.asarray(REF_BASE) + rng.normal(0.0, 1.5, (3, 2))
        platform = np.asarray(REF_PLATFORM) + rng.normal(0.0, 0.5, (3, 2))
        if singularity.is_architecturally_singular(RobotGeometry(base, platform))[0]:
            continue
        name = f"random{len(docs) - len(REF_SCALES)}"
        docs.append({"name": name, "base": base.tolist(), "platform": platform.tolist()})
    return docs


def geometry(doc: dict) -> RobotGeometry:
    return RobotGeometry(doc["base"], doc["platform"], doc["name"])


def box_pose(rng: np.random.Generator, L: float) -> Pose:
    """Uniform pose in the planner's default box [-L, 2L]^2 x [0, 2pi)."""
    x, y = rng.uniform(-L, 2.0 * L, 2)
    return Pose(float(x), float(y), float(rng.uniform(0.0, 2.0 * math.pi)))


def in_box(p: Pose, L: float) -> bool:
    return -L <= p.x <= 2.0 * L and -L <= p.y <= 2.0 * L


def farthest_mode(geom: RobotGeometry, start: Pose) -> Pose | None:
    """The planner's default target: the FK mode farthest from ``start``."""
    L = scale_of(geom)
    sols = kinematics.solve_fk(geom, kinematics.inverse_kinematics(geom, start))
    others = [p for p in sols if pose_gap(p, start, L) >= 1e-3 * L]
    return max(others, key=lambda p: pose_gap(p, start, L)) if others else None


def mode_change_start(geom: RobotGeometry, rng: np.random.Generator) -> tuple[Pose, Pose]:
    """A seeded start meeting plan_mode_change's documented preconditions
    (regular, in the box, joints with a second mode whose farthest one is
    regular and in the box), and that farthest mode."""
    L = scale_of(geom)
    for _ in range(10000):
        start = box_pose(rng, L)
        if singularity.classify_configuration(geom, start).kind != "regular":
            continue
        target = farthest_mode(geom, start)
        if (
            target is not None
            and in_box(target, L)
            and singularity.classify_configuration(geom, target).kind == "regular"
        ):
            return start, target
    raise RuntimeError(f"no mode-changing start found for design {geom.name}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Items built from a seed, one timed operation per item, and checks."""

    name = ""
    # Ops run untimed before measuring, so first-call costs are not timed.
    warmup_ops = 0
    # Traced runs time a fixed number of ops, this many per second of the
    # run, so that their counts repeat exactly for a seed.
    traced_ops_per_s = 1.0
    min_traced_ops = 1
    # Checks that track a known defect of the library: their failures are
    # counted and reported with every other check, but do not fail the op
    # in the result line.  README.md says which defect each one tracks.
    known_defects: tuple[str, ...] = ()
    # Whether the reported op time is scaled by the host probe (hostcal.py).
    # The probe is cache-resident work, and so is the work of a workload
    # that keeps this default: its op times follow the probe as the host
    # speeds up and slows down.
    scale_by_host = True

    def __init__(self, rng: np.random.Generator, n_random: int):
        self.docs = design_docs(rng, n_random)
        self.items: list = []
        self._first: dict = {}

    def repeat_same(self, key, value) -> bool:
        """True on the first sight of ``key``, else whether ``value`` equals
        the first value seen for it."""
        return self._first.setdefault(key, value) == value

    def traced_ops(self, seconds: float) -> int:
        return max(self.min_traced_ops, round(seconds * self.traced_ops_per_s))


@dataclass(frozen=True)
class PlanItem:
    design: str
    start: Pose


class PlanWorkload(Workload):
    """``plan_mode_change`` at the default 64^3 grid and default target, then
    ``verify_mode_change`` on the plan.

    A 64^3 plan takes seconds.  Whether the planner has to splice in a
    passage (a second grid search) depends on the start, and the splice
    roughly doubles the time and adds about 20 MB to the 160 MB peak
    memory.  A run holds about nine plans; with every start seeded, its
    median and peak memory would swing with how many of them need the
    splice.  So the items are fixed except one:

    * the reference robot and its two scale copies from (5, 5, 0) times
      their scale, which needs no splice: the majority of every run, so the
      median stays on them whichever way the seeded plan goes;
    * the reference robot from (0, 0, 0), which needs the splice, so every
      run reaches the splice's peak memory;
    * the random design from a seeded start.
    """

    name = "plan"
    # the first plan in a process runs slower (first touch of its memory)
    warmup_ops = 1
    # A plan walks about 90 MB of grid and heap, so it waits on memory more
    # than on the core.  Its time did not follow the probe: in five runs
    # the probe ran 15-19% faster in two while the plans kept their time,
    # and scaling doubled the run-to-run spread (7% to 14%).
    scale_by_host = False
    traced_ops_per_s = 0.08
    min_traced_ops = 2

    def __init__(self, rng, n_random=1, resolution=(64, 64, 64)):
        super().__init__(rng, n_random)
        self.resolution = tuple(resolution)
        self.items = [PlanItem("ref", Pose(5.0, 5.0, 0.0))]
        for doc in self.docs[len(REF_SCALES):]:
            self.items.append(PlanItem(doc["name"], mode_change_start(geometry(doc), rng)[0]))
        self.items += [PlanItem(name, Pose(5.0 * s, 5.0 * s, 0.0)) for name, s in REF_SCALES[1:]]
        self.items.append(PlanItem("ref", Pose(0.0, 0.0, 0.0)))

    def run(self, item: PlanItem, geoms):
        geom = geoms[item.design]
        t0 = time.perf_counter()
        path = modeplan.plan_mode_change(geom, item.start, resolution=self.resolution)
        t1 = time.perf_counter()
        cert = modeplan.verify_mode_change(geom, path)
        t2 = time.perf_counter()
        return {"op": t2 - t0, "plan": t1 - t0, "verify": t2 - t1}, (path, cert)

    def check(self, item: PlanItem, out, geoms, stats):
        path, cert = out
        geom = geoms[item.design]
        L = scale_of(geom)
        start, end = path.waypoints[0], path.waypoints[-1]
        gap_sq = np.max(np.abs(joints_sq(geom, start) - joints_sq(geom, end)))
        waypoints = [w.as_tuple() for w in path.waypoints]
        return [
            ("plan.verdict", cert.verdict == "changed_without_parallel"),
            ("plan.passage_event", any(e.kind == "passage" for e in cert.events)),
            ("plan.endpoint_joints", bool(gap_sq <= JOINTS_SQ_TOL_REL * L * L)),
            ("plan.repeat_identical", self.repeat_same(item, waypoints)),
        ]


@dataclass(frozen=True)
class Segment:
    path: WorkspacePath
    leg: int
    t_serial: float


@dataclass(frozen=True)
class CertifyItem:
    design: str
    phis: tuple[float, ...]
    probes: tuple[tuple[float, float], ...]
    poses: tuple[Pose, ...]
    serial_poses: tuple[tuple[int, int], ...]  # (index into poses, leg)
    segments: tuple[Segment, ...]
    mode_paths: tuple[WorkspacePath, ...]


class CertifyWorkload(Workload):
    """Pointwise certification work on one design per op, no grid search:
    conic and contour at several orientations, classification of seeded
    poses at, near and away from serial points, and certificates of
    serial-point segments and of multi-waypoint paths between two modes."""

    name = "certify"
    warmup_ops = 1
    traced_ops_per_s = 0.32

    def __init__(self, rng, n_random=9, locus_cells=300, n_poses=12, n_mode_paths=2):
        super().__init__(rng, n_random)
        self.locus_cells = locus_cells
        self.items = [
            self._item(geometry(d), rng, n_poses, n_mode_paths) for d in self.docs
        ]

    def _item(self, geom, rng, n_poses, n_mode_paths) -> CertifyItem:
        L = scale_of(geom)
        phis = tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 2))
        probes = tuple((float(x), float(y)) for x, y in rng.uniform(-L, 2.0 * L, (6, 2)))
        poses = [box_pose(rng, L) for _ in range(n_poses)]
        serial_poses = []
        for leg in range(3):
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            sx, sy = serial_point(geom, leg, phi)
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            for offset in (0.0, NEAR_SERIAL_REL, 1e-3):
                if offset < SERIAL_BAND_REL:
                    serial_poses.append((len(poses), leg))
                poses.append(Pose(sx + offset * L * u[0], sy + offset * L * u[1], phi))
        # Fixed-phi segments through each serial point, crossing the conic
        # transversally (along its normal, turned by up to 45 degrees).  On
        # phis[0] the serial point sits at t = 0.5, which is a sample; on
        # phis[1] at a seeded t between samples, so continue_joints has to
        # search for the leg zero.
        segments = []
        for k, phi in enumerate(phis):
            conic = singularity.singularity_conic(geom, phi)
            q20, q11, q02, q10, q01, _ = conic.coefficients
            for leg in range(3):
                sx, sy = serial_point(geom, leg, phi)
                grad_x = 2.0 * q20 * sx + q11 * sy + q10
                grad_y = q11 * sx + 2.0 * q02 * sy + q01
                normal = math.atan2(grad_y, grad_x)
                ang = normal + rng.uniform(-math.pi / 4.0, math.pi / 4.0)
                length = 2.0 * L * rng.uniform(0.02, 0.05)
                t_serial = 0.5 if k == 0 else float(rng.uniform(0.3, 0.7))
                dx, dy = length * math.cos(ang), length * math.sin(ang)
                p0 = Pose(sx - t_serial * dx, sy - t_serial * dy, phi)
                p1 = Pose(sx + (1.0 - t_serial) * dx, sy + (1.0 - t_serial) * dy, phi)
                segments.append(Segment(WorkspacePath((p0, p1)), leg, t_serial))
        mode_paths = []
        for _ in range(n_mode_paths):
            start, target = mode_change_start(geom, rng)
            mids = tuple(box_pose(rng, L) for _ in range(2))
            mode_paths.append(WorkspacePath((start,) + mids + (target,)))
        return CertifyItem(
            geom.name, phis, probes, tuple(poses), tuple(serial_poses), tuple(segments),
            tuple(mode_paths),
        )

    def run(self, item: CertifyItem, geoms):
        geom = geoms[item.design]
        L = scale_of(geom)
        window = (-L, -L, 2.0 * L, 2.0 * L)
        step = 3.0 * L / self.locus_cells
        loci, classes, certs = [], [], []
        samples = {"locus": [], "classify": [], "verify": []}
        t_op = time.perf_counter()
        for phi in item.phis:
            t0 = time.perf_counter()
            conic = singularity.singularity_conic(geom, phi)
            polylines = singularity.sample_conic_polyline(conic, window, step)
            samples["locus"].append(time.perf_counter() - t0)
            loci.append((conic, polylines))
        for pose in item.poses:
            t0 = time.perf_counter()
            classes.append(singularity.classify_configuration(geom, pose))
            samples["classify"].append(time.perf_counter() - t0)
        for path in [s.path for s in item.segments] + list(item.mode_paths):
            t0 = time.perf_counter()
            certs.append(modeplan.verify_mode_change(geom, path))
            samples["verify"].append(time.perf_counter() - t0)
        samples["op"] = time.perf_counter() - t_op
        return samples, (loci, classes, certs)

    def check(self, item: CertifyItem, out, geoms, stats):
        loci, classes, certs = out
        geom = geoms[item.design]
        L = scale_of(geom)
        corners = [(-L, -L), (2.0 * L, -L), (-L, 2.0 * L), (2.0 * L, 2.0 * L)]
        results = []
        for phi, (conic, _) in zip(item.phis, loci):
            pts = list(item.probes) + corners
            dets = [singularity.unnormalized_determinant(geom, Pose(x, y, phi)) for x, y in pts]
            tol = CONIC_TOL_REL * max(abs(d) for d in dets)
            serial = [serial_point(geom, leg, phi) for leg in range(3)]
            on_conic = all(abs(conic.evaluate(x, y)) <= tol for x, y in serial)
            matches = all(abs(conic.evaluate(x, y) - d) <= tol for (x, y), d in zip(pts, dets))
            results.append(("certify.conic_serial_zero", on_conic))
            results.append(("certify.conic_matches_det", matches))
        for index, leg in item.serial_poses:
            c = classes[index]
            is_serial = c.kind.startswith("serial") and leg + 1 in c.singular_legs
            results.append(("certify.classify_serial", is_serial))
        safe = singularity.passage_safety(geom)
        for seg, cert in zip(item.segments, certs):
            wanted = "passage" if safe[seg.leg] else "parallel"
            hit = any(
                e.kind == wanted and e.leg in (None, seg.leg + 1) and abs(e.t - seg.t_serial) <= EVENT_T_TOL
                for e in cert.events
            )
            results.append(("certify.serial_segment_event", hit))
        snapshot = {
            "loci": [[conic.coefficients.tolist(), [p.tolist() for p in lines]] for conic, lines in loci],
            "classes": [[c.kind, list(c.singular_legs), c.measure, c.clearance] for c in classes],
        }
        locus_same = self.repeat_same((item.design, "locus"), digest(snapshot))
        certs_same = self.repeat_same((item.design, "certs"), digest([c.to_dict() for c in certs]))
        results.append(("certify.locus_repeat_identical", locus_same))
        results.append(("certify.certificates_repeat_identical", certs_same))
        return results


@dataclass(frozen=True)
class FkItem:
    design: str
    kind: str  # "generic", "zero_leg" or "near_pi"
    pose: Pose
    joints: JointVector
    oracle: bool


class FkWorkload(Workload):
    """``solve_fk`` on seeded joint vectors, in equal thirds generic, one leg
    exactly zero and phi within 1e-3 of pi; ``oracle_fk`` on every eighth
    vector as a cross-check."""

    name = "fk"
    warmup_ops = 50
    traced_ops_per_s = 100.0
    min_traced_ops = 24
    kinds = ("generic", "zero_leg", "near_pi")
    oracle_every = 8
    # solve_fk drops the tangential root of some near-cusp zero-leg vectors
    # (ROADMAP item 5): see "Known defect" in README.md.
    known_defects = ("fk.zero_leg_recovered",)

    def __init__(self, rng, n_random=3, n_vectors=6000):
        super().__init__(rng, n_random)
        geoms = [geometry(d) for d in self.docs]
        for k in range(n_vectors):
            kind = self.kinds[k % 3]
            geom = geoms[(k // 3) % len(geoms)]
            L = scale_of(geom)
            pose = box_pose(rng, L)
            leg = None
            if kind == "zero_leg":
                leg = int(rng.integers(3))
                pose = Pose(*serial_point(geom, leg, pose.phi), pose.phi)
            elif kind == "near_pi":
                pose = Pose(pose.x, pose.y, math.pi + float(rng.uniform(-1e-3, 1e-3)))
            rho = np.array(kinematics.inverse_kinematics(geom, pose).rho)
            if leg is not None:
                rho[leg] = 0.0
            oracle = k % self.oracle_every == 0
            self.items.append(FkItem(geom.name, kind, pose, JointVector(rho), oracle))

    def run(self, item: FkItem, geoms):
        geom = geoms[item.design]
        t0 = time.perf_counter()
        sols = kinematics.solve_fk(geom, item.joints)
        t1 = time.perf_counter()
        samples = {"op": t1 - t0}
        oracle = None
        if item.oracle:
            t0 = time.perf_counter()
            oracle = kinematics.oracle_fk(geom, item.joints)
            samples["oracle"] = time.perf_counter() - t0
        return samples, (sols, oracle)

    def check(self, item: FkItem, out, geoms, stats):
        sols, oracle = out
        L = scale_of(geoms[item.design])
        tol = POSE_TOL_REL * L
        stats["fk.near_duplicates"] += near_duplicate_pairs(sols, L)
        recovered = "fk.zero_leg_recovered" if item.kind == "zero_leg" else "fk.recovered"
        results = [
            (recovered, any(pose_gap(p, item.pose, L) <= tol for p in sols)),
            ("fk.multiplicity_le_6", sols.total_multiplicity <= 6),
        ]
        if item.kind == "zero_leg":
            results.append(("fk.zero_leg_le_2", len(sols) <= 2))
        if oracle is not None:
            agreed = sum(any(pose_gap(p, q, L) <= tol for q in sols) for p in oracle)
            stats["fk.oracle_solutions"] += len(oracle)
            stats["fk.oracle_agreed"] += agreed
            results.append(("fk.oracle_in_solver", agreed == len(oracle)))
        return results


WORKLOADS = {w.name: w for w in (PlanWorkload, CertifyWorkload, FkWorkload)}
