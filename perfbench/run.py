"""planar-rpr benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload {plan,certify,fk} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, nothing is installed.  The seed makes the inputs;
the library only receives the generated inputs.

``--trace 0`` measures set-up (several fresh interpreters), then cycles the
workload's items for ``--seconds`` and reports the end-to-end metrics named
in BENCHMARK.json.  The host probe of hostcal.py runs before each set-up
interpreter, and between ops where the workload's op times are scaled to
reference host speed.  ``--trace 1`` times a fixed number of ops twice, first
plain and then with tracing wrappers installed, and reports the per-layer
metrics, the plain pass's per-call timings and the tracing overhead.

Every op's outputs are checked; an op with a failed check, or one that
raises a RobotError, counts as failed.  A check that tracks a known library
defect (``Workload.known_defects``) is counted and reported like the others
but does not fail the op in the result line.  The last line of standard
output is the result JSON; the line before it is the full report (sample
counts, tails, per-check counts, versions), which is also written under
.perfbench_out/ together with the spans of a traced run.
"""
import os

# One thread: pin the BLAS and OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 5


@dataclass
class Pass:
    """Outcome of cycling a workload's items once over a time or op budget."""

    ops: int = 0
    # ops with a failed check, known defects included, exactly as found
    failed_ops: int = 0
    # ops that raised or failed a check other than a known defect's
    gate_failed_ops: int = 0
    elapsed_s: float = 0.0
    samples: dict = field(default_factory=lambda: defaultdict(list))
    checks: Counter = field(default_factory=Counter)
    check_failures: Counter = field(default_factory=Counter)
    stats: Counter = field(default_factory=Counter)
    warnings: Counter = field(default_factory=Counter)

    @property
    def op_s(self) -> float:
        return sum(self.samples["op"])


def run_pass(wl, geoms, seconds=None, n_ops=None, rec=None) -> Pass:
    """Run ops until ``seconds`` have passed (at least one op) or ``n_ops``
    ops are done; time each, then check it untimed.  A timed pass on a
    workload scaled by host speed also runs the host probe between ops."""
    import hostcal
    from planar_rpr.errors import RobotError

    p = Pass()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        while n_ops is None or p.ops < n_ops:
            if seconds is not None and wl.scale_by_host:
                # keep the host probe at its share of the time so far
                while sum(p.samples["probe"]) < hostcal.PROBE_SHARE * (time.perf_counter() - start):
                    p.samples["probe"].append(hostcal.probe())
            if seconds is not None and p.ops and time.perf_counter() - start >= seconds:
                break
            item = wl.items[p.ops % len(wl.items)]
            p.ops += 1
            root = rec.begin("benchmark.op") if rec else None
            try:
                samples, out = wl.run(item, geoms)
            except RobotError as exc:
                samples, results = None, [(f"raised.{type(exc).__name__}", False)]
            finally:
                if rec:
                    rec.end(root)
            if samples is not None:
                for kind, value in samples.items():
                    p.samples[kind].extend(value if isinstance(value, list) else [value])
                with rec.paused() if rec else nullcontext():
                    results = wl.check(item, out, geoms, p.stats)
            for name, ok in results:
                p.checks[name] += 1
                if not ok:
                    p.check_failures[name] += 1
            p.failed_ops += not all(ok for _, ok in results)
            p.gate_failed_ops += not all(ok or n in wl.known_defects for n, ok in results)
        p.elapsed_s = time.perf_counter() - start
    for w in caught:
        p.warnings[w.category.__name__ + ": " + str(w.message).split(" at ")[0][:60]] += 1
    return p


def fk_warnings(p: Pass, prefixes) -> int:
    keys = tuple("RuntimeWarning: " + text for text in prefixes)
    return sum(n for key, n in p.warnings.items() if key.startswith(keys))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def timing_summary(values) -> dict:
    """Median, and the highest of p90/p99/p99.9 with at least ten samples
    beyond it, where the count allows; short series are kept whole."""
    out = {"n": len(values), "median_s": median(values)}
    if len(values) <= 200:
        out["values_s"] = values
    for q in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            out["tail"] = {"p": q, "s": percentile(values, q)}
            break
    return out


def measure_setup(robot_paths) -> list[dict]:
    """Time fresh interpreters that import planar_rpr.cli and load the
    workload's robot files, each after two host probes."""
    import hostcal

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, robot_paths)]
    runs = []
    for _ in range(SETUP_RUNS):
        probes = [hostcal.probe(), hostcal.probe()]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        runs.append({"wall_s": wall, "probe_s": probes, **json.loads(proc.stdout.strip().splitlines()[-1])})
    return runs


def load_designs(robotfile, robot_paths) -> tuple[dict, list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        geoms = {}
        for path in robot_paths:
            geom = robotfile.load_robot(path)
            geoms[geom.name] = geom
    return geoms, [str(w.message) for w in caught]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def metadata() -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files),
        "src_sha256": digest.hexdigest(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def pass_report(p: Pass) -> dict:
    return {
        "ops": p.ops,
        "failed_ops": p.failed_ops,
        "gate_failed_ops": p.gate_failed_ops,
        "elapsed_s": p.elapsed_s,
        "timings": {kind: timing_summary(v) for kind, v in sorted(p.samples.items())},
        "checks": {
            n: {"attempted": c, "failed": p.check_failures[n]} for n, c in sorted(p.checks.items())
        },
        "stats": dict(p.stats),
        "warnings": dict(p.warnings),
    }


def host_factor(probes) -> float:
    """Median probe time over the reference one: above 1 on a slow host,
    1 without probes."""
    import hostcal

    return median(probes) / hostcal.REF_PROBE_S if probes else 1.0


def setup_probes(setup: list[dict]) -> list[float]:
    return [t for r in setup for t in r["probe_s"]]


def end_to_end(p: Pass, setup: list[dict]) -> dict:
    return {
        "op_ms": median(p.samples["op"]) / host_factor(p.samples["probe"]) * 1e3,
        "setup_s": median([r["wall_s"] for r in setup]) / host_factor(setup_probes(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, plain: Pass, traced: Pass, rec, meta) -> dict:
    import tracing
    import workloads

    v = {}
    summary = rec.summary()
    for name in tracing.span_names():
        st = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key in ("calls", "busy_s", "self_s"):
            v[f"{name}.{key}"] = st[key]
    for name in tracing.counted_names():
        v[f"{name}.calls"] = rec.counts[f"{name}.calls"]
    for key in (
        "modeplan.events.passage",
        "modeplan.events.parallel",
        "modeplan.events.grazing",
        "modeplan.plan.waypoints",
        "modeplan.plan.no_path",
        "modeplan.plan.no_path_explored",
        "kinematics.fk.modes",
        "singularity.locus.points",
    ):
        v[key] = rec.counts[key]
    v["kinematics.fk.near_duplicates"] = rec.near_duplicates()
    v["kinematics.fk.zero_leg_missed"] = traced.check_failures["fk.zero_leg_recovered"]
    v["kinematics.fk.warnings"] = fk_warnings(traced, workloads.FK_WARNINGS)
    solutions = traced.stats["fk.oracle_solutions"]
    v["kinematics.fk.oracle_solutions"] = solutions
    agreed = traced.stats["fk.oracle_agreed"]
    v["kinematics.fk.oracle_agree_ratio"] = agreed / solutions if solutions else 0.0

    # Per-call timings of the plain (untraced) pass; 0 where the workload
    # makes no such call itself.
    s = plain.samples
    fk_ops = s["op"] if wl.name == "fk" else []
    v["plan_s"] = median(s["plan"])
    v["verify_ms"] = median(s["verify"]) * 1e3
    v["fk_per_s"] = len(fk_ops) / sum(fk_ops) if fk_ops else 0.0
    v["fk_ms_p99"] = percentile(fk_ops, 99.0) * 1e3
    v["oracle_fk_ms"] = median(s["oracle"]) * 1e3
    v["locus_ms"] = median(s["locus"]) * 1e3
    v["classify_us"] = median(s["classify"]) * 1e6

    ops = plain.ops + traced.ops
    failed = plain.failed_ops + traced.failed_ops
    v["ops.attempted"] = ops
    v["ops.failed"] = failed
    v["fail_ratio"] = failed / ops
    v["checks.attempted"] = sum(plain.checks.values()) + sum(traced.checks.values())
    v["checks.failed"] = sum(plain.check_failures.values()) + sum(traced.check_failures.values())

    v["cli.import_s"] = summary["cli.import"]["busy_s"]
    v["trace.ops"] = traced.ops
    v["trace.spans"] = len(rec.spans)
    v["trace.overhead_s"] = traced.op_s - plain.op_s
    v["trace.overhead_ratio"] = traced.op_s / plain.op_s - 1.0 if plain.op_s else 0.0
    v["src.lines"] = meta["src_lines"]
    return v


def emit_metrics(values: dict, specs: list[dict]) -> dict:
    names = {m["name"] for m in specs}
    if names != set(values):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"unlisted {sorted(set(values) - names)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("plan", "certify", "fk"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "planar_rpr" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    importlib.import_module("planar_rpr.cli")
    t1 = time.perf_counter()
    import planar_rpr

    if Path(planar_rpr.__file__).resolve().parent != SRC / "planar_rpr":
        where = planar_rpr.__file__
        print(f"perfbench: planar_rpr imported from {where}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from planar_rpr import robotfile

    import tracing
    import workloads

    rec = tracing.Recorder()
    rec.spans.append(["cli.import", t0, t1, -1])

    wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    robot_dir = OUT / f"robots-{args.workload}-seed{args.seed}"
    robot_dir.mkdir(parents=True, exist_ok=True)
    robot_paths = []
    for doc in wl.docs:
        path = robot_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        robot_paths.append(path)
    meta = metadata()

    setup = [] if args.trace else measure_setup(robot_paths)
    geoms, load_warnings = load_designs(robotfile, robot_paths)
    for item in wl.items[: wl.warmup_ops]:
        wl.run(item, geoms)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "setup": setup,
        "load_warnings": load_warnings,
    }
    if args.trace:
        n_ops = wl.traced_ops(args.seconds)
        plain = run_pass(wl, geoms, n_ops=n_ops)
        with tracing.traced(rec):
            geoms, _ = load_designs(robotfile, robot_paths)
            traced = run_pass(wl, geoms, n_ops=n_ops, rec=rec)
        values = per_layer(wl, plain, traced, rec, meta)
        metrics = emit_metrics(values, spec["per_layer"])
        report.update(plain=pass_report(plain), traced=pass_report(traced), spans=rec.summary())
        spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps(rec.dump()), encoding="utf-8")
        passes = (plain, traced)
    else:
        measured = run_pass(wl, geoms, seconds=args.seconds)
        metrics = emit_metrics(end_to_end(measured, setup), spec["end_to_end"])
        report.update(
            measured=pass_report(measured),
            host_factor=host_factor(measured.samples["probe"]),
            setup_host_factor=host_factor(setup_probes(setup)),
        )
        passes = (measured,)

    attempted = sum(p.ops for p in passes)
    failed = sum(p.gate_failed_ops for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
