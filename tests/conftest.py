import json

import numpy as np
import pytest

from planar_rpr import RobotGeometry

# Desk-scale reference design used throughout the suite.
REF_BASE = [(0.0, 0.0), (10.0, 0.0), (4.0, 8.0)]
REF_PLATFORM = [(-2.0, -1.0), (2.0, -1.0), (0.0, 2.0)]
REF_SCALE = 10.0
# the perfbench plan workload's seed-1 random design, whose coordinates
# are not integers
RANDOM0 = {
    "name": "random0",
    "base": [[0.5183762880971791, 1.2324272152517375], [10.49565561427508, -1.9547358474065413],
             [5.358033800009677, 8.669561858546016]],
    "platform": [[-2.2684766176801427, -0.7094409479018234], [2.182286198093038, -0.8529337516722371],
                 [0.014211120657898394, 2.2733564933062236]],
}


@pytest.fixture(scope="session")
def ref():
    return RobotGeometry(base=REF_BASE, platform=REF_PLATFORM, name="ref")


@pytest.fixture(scope="session")
def similar_design():
    """Platform = half-scale copy of the base about its centroid."""
    base = np.asarray(REF_BASE)
    return RobotGeometry(base=base, platform=0.5 * (base - base.mean(axis=0)))


@pytest.fixture
def ref_file(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"base": REF_BASE, "platform": REF_PLATFORM, "name": "ref"}))
    return path


@pytest.fixture
def random0_file(tmp_path):
    path = tmp_path / "random0.json"
    path.write_text(json.dumps(RANDOM0))
    return path


def random_pose_tuple(rng, scale=REF_SCALE):
    return (
        rng.uniform(-scale, 2.0 * scale),
        rng.uniform(-scale, 2.0 * scale),
        rng.uniform(0.0, 2.0 * np.pi),
    )


def bracket_roots_over_all(f, lo, hi, flo, fhi, tol):
    """The Illinois refinement as numpy steps over all brackets at once,
    every step evaluating ``f`` on all of them, a closed one at its left
    end: the bitwise reference of kinematics._bracket_root, which refines
    one bracket in Python floats."""
    was_left = was_right = np.zeros(lo.shape, dtype=bool)
    width1 = width2 = np.full(lo.shape, np.inf)  # one and two steps back
    while np.any(active := hi - lo > tol):
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(hi - lo > 0.5 * width2, 0.5 * (lo + hi), (lo * fhi - hi * flo) / (fhi - flo))
        c = np.where(active, np.clip(c, lo + 0.5 * tol, hi - 0.5 * tol), lo)
        width1, width2 = hi - lo, width1
        fc = f(c)
        left, right = active & (np.sign(fc) == np.sign(flo)), active & (np.sign(fc) == np.sign(fhi))
        # c replaces the end of its sign; the end kept twice in a row is halved
        flo = np.where(left, fc, np.where(right & was_right, 0.5 * flo, flo))
        fhi = np.where(right, fc, np.where(left & was_left, 0.5 * fhi, fhi))
        lo, hi = np.where(active & ~right, c, lo), np.where(active & ~left, c, hi)
        was_left, was_right = left, right
    return 0.5 * (lo + hi)
