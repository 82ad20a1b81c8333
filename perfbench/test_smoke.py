"""Fast smoke test of the benchmark at reduced sizes.

Not part of the library's test suite (pytest collects ``tests/`` only by
default).  Run it with

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from planar_rpr import modeplan  # noqa: E402
from planar_rpr.model import Pose  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_items(wl, n):
    geoms = {d["name"]: workloads.geometry(d) for d in wl.docs}
    failed = Counter()
    for item in wl.items[:n] * 2:  # twice, so the repeat checks compare
        _, out = wl.run(item, geoms)
        for name, ok in wl.check(item, out, geoms, Counter()):
            failed[name] += not ok
    return failed


def test_plan_small_grid():
    wl = workloads.PlanWorkload(np.random.default_rng(0), n_random=1, resolution=(32, 32, 32))
    assert sum(run_items(wl, 2).values()) == 0


def test_certify_small():
    wl = workloads.CertifyWorkload(
        np.random.default_rng(0), n_random=1, locus_cells=30, n_poses=2, n_mode_paths=1
    )
    assert sum(run_items(wl, 2).values()) == 0


def test_fk_small():
    wl = workloads.FkWorkload(np.random.default_rng(0), n_random=1, n_vectors=48)
    assert [it.kind for it in wl.items[:3]] == ["generic", "zero_leg", "near_pi"]
    assert sum(run_items(wl, 48).values()) == 0


def test_inputs_follow_the_seed():
    a = workloads.FkWorkload(np.random.default_rng(5), n_random=1, n_vectors=12)
    b = workloads.FkWorkload(np.random.default_rng(5), n_random=1, n_vectors=12)
    c = workloads.FkWorkload(np.random.default_rng(6), n_random=1, n_vectors=12)
    assert a.docs == b.docs and [i.pose for i in a.items] == [i.pose for i in b.items]
    assert [i.pose for i in a.items] != [i.pose for i in c.items]


def test_repeat_check_flags_a_change():
    wl = workloads.FkWorkload(np.random.default_rng(0), n_random=0, n_vectors=3)
    assert wl.repeat_same("k", 1) and wl.repeat_same("k", 1)
    assert not wl.repeat_same("k", 2)


def test_known_defect_is_counted_but_does_not_fail_the_op():
    import run

    class Checks(workloads.Workload):
        known_defects = ("known",)

        def run(self, item, geoms):
            return {"op": 0.0}, None

        def check(self, item, out, geoms, stats):
            return [("known", False), ("other", item)]

    wl = Checks(np.random.default_rng(0), 0)
    wl.items = [True, False]
    p = run.run_pass(wl, {}, n_ops=2)
    assert (p.failed_ops, p.gate_failed_ops) == (2, 1)
    assert p.check_failures == Counter(known=2, other=1)


def test_self_time_subtracts_children():
    rec = tracing.Recorder()
    rec.spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["a", 6.0, 7.0, 0]]
    s = rec.summary()
    assert s["a"] == {"calls": 2, "busy_s": 10.0, "self_s": 7.0}
    assert s["b"] == {"calls": 1, "busy_s": 3.0, "self_s": 3.0}


def test_wrappers_see_internal_calls_and_come_off():
    geom = workloads.geometry(workloads.design_docs(np.random.default_rng(0), 0)[0])
    path = modeplan.WorkspacePath((Pose(1.0, 1.0, 0.0), Pose(3.0, 2.0, 0.5)))
    original = modeplan.detect_crossings
    rec = tracing.Recorder()
    with tracing.traced(rec):
        modeplan.verify_mode_change(geom, path)
        with rec.paused():
            modeplan.verify_mode_change(geom, path)
    assert modeplan.detect_crossings is original
    s = rec.summary()
    assert s["modeplan.verify_mode_change"]["calls"] == 1
    assert s["modeplan.detect_crossings"]["calls"] == 1
    assert rec.counts["model.platform_points.calls"] > 0
    parent = next(sp[3] for sp in rec.spans if sp[0] == "modeplan.detect_crossings")
    assert rec.spans[parent][0] == "modeplan.verify_mode_change"


def bench(cwd, trace, env=None):
    args = ["--workload", "fk", "--seed", "3", "--seconds", "1", "--trace", trace]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def test_result_line_matches_benchmark_json():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert [m["name"] for m in SPEC[kind]] == list(result["metrics"])
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = bench(tmp_path, "0", env)
    assert proc.returncode != 0
    assert proc.stdout == ""
