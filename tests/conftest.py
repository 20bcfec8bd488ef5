"""Shared fixtures: canonical synthetic scenes and the acceptance summary.

The acceptance tests are named test_criterion_NN_*; a terminal-summary hook
collects their outcomes and prints one PASS/FAIL line per criterion so the
gate is readable without scrolling through the full pytest output. A
collection hook marks every test in test_acceptance.py `acceptance`.
"""

import re

import numpy as np
import pytest

from georeward import PoseSE3, RewardConfig, SceneSpec, score_pair

# center-depth 2 m, fx = 100, t_x = 0.1 -> exactly 5 px of background flow,
# so warps land on grid points and the scorer sees bit-clean inputs
TX = 0.1


def _shifted_pose(tx=TX):
    return PoseSE3(np.eye(3), np.array([tx, 0.0, 0.0]))


@pytest.fixture(scope="session")
def translating_scene():
    """Bare fronto-parallel plane with integer-pixel camera flow."""
    return SceneSpec(camera_path=(PoseSE3.identity(), _shifted_pose()))


@pytest.fixture(scope="session")
def static_scene():
    """Two identical views; every flow field is exactly zero."""
    return SceneSpec(camera_path=(PoseSE3.identity(), PoseSE3.identity()))


@pytest.fixture(scope="session")
def two_plane_scene():
    """Depth discontinuity plus translation: non-coplanar correspondences,
    the minimum needed for a well-posed eight-point system."""
    return SceneSpec(
        geometry="two_plane",
        depth=2.0,
        depth2=3.0,
        split_x=0.0,
        camera_path=(PoseSE3.identity(), _shifted_pose()),
    )


@pytest.fixture(scope="session")
def inclined_scene():
    return SceneSpec(
        geometry="inclined",
        normal=(0.2, -0.1, 1.0),
        camera_path=(PoseSE3.identity(), _shifted_pose()),
    )


@pytest.fixture
def score_rendered():
    """Score a RenderedPair with its own confidence on both sides."""

    def _score(pair, config=None, **kwargs):
        return score_pair(
            pair.image_a,
            pair.image_b,
            pair.depth_a,
            pair.depth_b,
            pair.intrinsics,
            pair.intrinsics,
            pair.pose_a,
            pair.pose_b,
            pair.flow_fwd,
            pair.flow_bwd,
            config if config is not None else RewardConfig(),
            confidence_a=pair.confidence,
            confidence_b=pair.confidence,
            **kwargs,
        )

    return _score


@pytest.fixture(scope="session")
def gauss_velocity():
    """Closed-form optimal velocity for a standard normal target: the
    interpolant x_t = (1 - t) x0 + t eps gives E[eps - x0 | x_t] =
    (2t - 1) x_t / ((1 - t)^2 + t^2)."""

    def _v(x, t):
        return (2.0 * t - 1.0) * x / ((1.0 - t) ** 2 + t ** 2)

    return _v


# ---------------------------------------------------------------------------
# acceptance summary

_CRITERIA = {
    1: "clean-scene reward optimum",
    2: "worked numeric examples",
    3: "wobble monotonicity 9/9",
    4: "velocity gradient vs finite differences",
    5: "SDE/ODE marginal agreement",
    6: "training closes the reward gap",
    7: "ablations do not beat the default",
    8: "eight-point recovery and Sampson floor",
    9: "gradient window truncation",
    10: "CLI determinism across thread counts",
}

_outcomes = {}
_pattern = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_collection_modifyitems(items):
    # `-m "not acceptance"` skips the slow gate for a quick inner loop
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)


def pytest_runtest_logreport(report):
    m = _pattern.search(report.nodeid)
    if m is None:
        return
    num = int(m.group(1))
    if report.when == "call":
        _outcomes[num] = report.outcome == "passed"
    elif report.failed:  # setup/teardown error counts as a failure
        _outcomes[num] = False


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        verdict = "PASS" if _outcomes[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}  {_CRITERIA[num]}")
