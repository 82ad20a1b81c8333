"""Spans and counters for the traced run, recorded from outside the library.

``traced`` replaces public library functions, as module attributes, with
wrappers that record a span (name, start, end, parent) or bump a counter,
and puts the originals back on exit.  A function imported into several
modules (``platform_points`` is bound in ``model``, ``kinematics``,
``singularity`` and ``modeplan``) is replaced in every module that binds it,
so the calls the library makes internally are seen too.  Private helpers
(``_dijkstra``, the edge scans) are not wrapped: splitting
``plan_mode_change`` into its phases needs spans inside the library.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover; its busy time counts only
spans not nested in a span of the same name.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

from planar_rpr.errors import NoPathFound

import workloads

# Functions that get a span, by the module that defines them.
SPANNED = {
    "modeplan": ("plan_mode_change", "verify_mode_change", "detect_crossings", "continue_joints"),
    "kinematics": ("solve_fk", "oracle_fk", "build_fk_polynomial"),
    "singularity": ("singularity_conic", "sample_conic_polyline", "classify_configuration"),
    "robotfile": ("load_robot",),
}
# Scalar functions called too often for a span each: counted only.
COUNTED = {
    "model": ("platform_points", "characteristic_scale", "pose_distance"),
    "kinematics": ("inverse_kinematics",),
    "singularity": ("leg_lines",),
}
MODULES = ("model", "kinematics", "singularity", "modeplan", "robotfile", "cli")


class Recorder:
    """In-memory spans and counters of one process (single thread)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        # (solutions, geometry) of each solve_fk call, examined at the end
        self.fk_results: list = []
        self.active = True
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def near_duplicates(self) -> int:
        return sum(
            workloads.near_duplicate_pairs(sols, workloads.scale_of(geom))
            for sols, geom in self.fk_results
        )

    def summary(self) -> dict[str, dict]:
        """calls, busy_s and self_s per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            st = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += end - start - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                st["busy_s"] += end - start
        return out

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }


def _events(rec, args, kwargs, events):
    for e in events:
        rec.counts[f"modeplan.events.{e.kind}"] += 1


def _plan(rec, args, kwargs, path):
    rec.counts["modeplan.plan.waypoints"] += len(path.waypoints)


def _no_path(rec, exc):
    if isinstance(exc, NoPathFound):
        rec.counts["modeplan.plan.no_path"] += 1
        rec.counts["modeplan.plan.no_path_explored"] += exc.explored


def _fk(rec, args, kwargs, sols):
    rec.counts["kinematics.fk.modes"] += len(sols)
    rec.fk_results.append((sols.solutions, args[0] if args else kwargs["geom"]))


def _locus(rec, args, kwargs, polylines):
    rec.counts["singularity.locus.points"] += sum(len(p) for p in polylines)


ON_RESULT = {
    "modeplan.detect_crossings": _events,
    "modeplan.plan_mode_change": _plan,
    "kinematics.solve_fk": _fk,
    "singularity.sample_conic_polyline": _locus,
}
ON_ERROR = {"modeplan.plan_mode_change": _no_path}


def _spanned(rec: Recorder, name: str, fn):
    on_result, on_error = ON_RESULT.get(name), ON_ERROR.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            rec.end(idx)
            if on_error:
                on_error(rec, exc)
            raise
        rec.end(idx)
        if on_result:
            on_result(rec, args, kwargs, out)
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    key = name + ".calls"
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    mods = [importlib.import_module(f"planar_rpr.{m}") for m in MODULES]
    mods.append(importlib.import_module("planar_rpr"))
    patched = []
    try:
        for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
            for home, names in table.items():
                for fname in names:
                    orig = getattr(importlib.import_module(f"planar_rpr.{home}"), fname)
                    wrapper = make(rec, f"{home}.{fname}", orig)
                    for mod in mods:
                        if getattr(mod, fname, None) is orig:
                            setattr(mod, fname, wrapper)
                            patched.append((mod, fname, orig))
        yield rec
    finally:
        for mod, fname, orig in reversed(patched):
            setattr(mod, fname, orig)


def span_names() -> list[str]:
    return [f"{home}.{n}" for home, names in SPANNED.items() for n in names]


def counted_names() -> list[str]:
    return [f"{home}.{n}" for home, names in COUNTED.items() for n in names]
