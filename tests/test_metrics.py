"""Fundamental-matrix estimation, Sampson error, and the motion proxy."""

import numpy as np
import pytest

from georeward import (
    CorrespondenceSet,
    Intrinsics,
    PoseSE3,
    eight_point,
    fundamental_from_pose,
    project,
    render_pair,
    sampson_error,
)
from georeward.camera import relative_transform
from georeward.errors import (
    DegeneracyError,
    InputError,
    InsufficientDataError,
    ShapeError,
)
from georeward.metrics import dynamic_degree, sample_correspondences

K = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0)


def random_pose(rng, t_scale=0.3, max_angle=0.15):
    # small-angle rotations keep the test points in front of both cameras
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.02, max_angle)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    r = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return PoseSE3(r, t_scale * rng.standard_normal(3))


def pose_correspondences(transform, rng, n=40):
    """Project random non-coplanar points through both cameras."""
    pts = np.stack(
        [
            rng.uniform(-0.8, 0.8, n),
            rng.uniform(-0.6, 0.6, n),
            rng.uniform(2.0, 4.0, n),
        ],
        axis=1,
    )
    moved = pts @ transform.r.T + transform.t
    return CorrespondenceSet(project(pts, K), project(moved, K))


# ---------------------------------------------------------------------------
# correspondence sampling

def test_lattice_counts_and_zero_flow_targets():
    corr = sample_correspondences(np.zeros((32, 32, 2)), 8)
    assert len(corr) == 16
    np.testing.assert_array_equal(corr.uv_a, corr.uv_b)
    xs = np.unique(corr.uv_a[:, 0])
    np.testing.assert_array_equal(xs, [0.0, 8.0, 16.0, 24.0])


def test_mask_drops_both_endpoints():
    mask = np.ones((16, 16), dtype=bool)
    mask[:8, :8] = False
    corr = sample_correspondences(np.zeros((16, 16, 2)), 4, static_mask=mask)
    assert len(corr) == 12
    inside = (corr.uv_a[:, 0] < 8) & (corr.uv_a[:, 1] < 8)
    assert not inside.any()


def test_targets_leaving_the_frame_are_dropped():
    flow = np.zeros((16, 16, 2))
    flow[..., 0] = 8.0
    corr = sample_correspondences(flow, 4)
    assert len(corr) == 8
    assert corr.uv_b[:, 0].max() <= 15.0


def test_too_few_survivors():
    with pytest.raises(InsufficientDataError, match="need at least 8"):
        sample_correspondences(np.zeros((8, 8, 2)), 16)


def test_sampling_input_validation():
    with pytest.raises(InputError, match="grid_step"):
        sample_correspondences(np.zeros((16, 16, 2)), 0)
    with pytest.raises(ShapeError):
        sample_correspondences(np.zeros((16, 16, 3)), 4)
    with pytest.raises(ShapeError):
        sample_correspondences(np.zeros((16, 16, 2)), 4, static_mask=np.ones((8, 8), bool))


def test_correspondence_set_validation():
    with pytest.raises(ShapeError):
        CorrespondenceSet(np.zeros((4, 2)), np.zeros((5, 2)))
    with pytest.raises(ShapeError):
        CorrespondenceSet(np.zeros((4, 3)), np.zeros((4, 3)))
    bad = np.zeros((9, 2))
    bad[0, 0] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        CorrespondenceSet(bad, np.zeros((9, 2)))
    assert len(CorrespondenceSet(np.zeros((9, 2)), np.ones((9, 2)))) == 9


# ---------------------------------------------------------------------------
# eight point

def test_eight_point_recovers_the_true_matrix(two_plane_scene):
    pair = render_pair(two_plane_scene, 0)
    corr = sample_correspondences(pair.flow_fwd, 4)
    f_hat = eight_point(corr)
    f_true = fundamental_from_pose(
        pair.intrinsics, pair.intrinsics, relative_transform(pair.pose_a, pair.pose_b)
    )
    assert abs(float((f_hat * f_true).sum())) > 0.9999
    assert np.linalg.norm(f_hat) == pytest.approx(1.0, abs=1e-12)
    # rank 2 by construction
    assert np.linalg.svd(f_hat, compute_uv=False)[2] < 1e-12


def test_eight_point_from_posed_points():
    rng = np.random.default_rng(31)
    for _ in range(5):
        transform = random_pose(rng)
        if np.linalg.norm(transform.t) < 0.05:
            continue
        corr = pose_correspondences(transform, rng)
        f_hat = eight_point(corr)
        f_true = fundamental_from_pose(K, K, transform)
        assert abs(float((f_hat * f_true).sum())) > 0.9999


def test_single_plane_is_degenerate(translating_scene):
    pair = render_pair(translating_scene, 0)
    corr = sample_correspondences(pair.flow_fwd, 4)
    with pytest.raises(DegeneracyError, match="degenerate"):
        eight_point(corr)


def test_zero_motion_is_degenerate():
    corr = sample_correspondences(np.zeros((32, 32, 2)), 8)
    with pytest.raises(DegeneracyError):
        eight_point(corr)


def test_coincident_points_are_degenerate():
    uv = np.tile([[3.0, 4.0]], (9, 1))
    with pytest.raises(DegeneracyError, match="coincident"):
        eight_point(CorrespondenceSet(uv, uv + np.linspace(0, 1, 9)[:, None]))


def test_eight_point_needs_eight():
    uv = np.arange(14.0).reshape(7, 2)
    with pytest.raises(InsufficientDataError):
        eight_point(CorrespondenceSet(uv, uv + 1.0))


def test_estimate_is_scale_equivariant():
    # doubling pixel coordinates must exactly quadruple Sampson errors:
    # the Hartley normalization absorbs the scaling, so the normalized
    # system (and hence the recovered epipolar geometry) is unchanged
    rng = np.random.default_rng(32)
    transform = PoseSE3(np.eye(3), np.array([0.2, -0.1, 0.05]))
    corr = pose_correspondences(transform, rng, n=60)
    noisy = CorrespondenceSet(corr.uv_a, corr.uv_b + 0.05 * rng.standard_normal(corr.uv_b.shape))
    doubled = CorrespondenceSet(2.0 * noisy.uv_a, 2.0 * noisy.uv_b)

    res1 = sampson_error(eight_point(noisy), noisy)
    res2 = sampson_error(eight_point(doubled), doubled)
    assert res1.skipped == 0 and res2.skipped == 0
    np.testing.assert_allclose(res2.errors, 4.0 * res1.errors, rtol=1e-9)


# ---------------------------------------------------------------------------
# sampson error

F_SKEW = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def test_sampson_worked_values():
    corr = CorrespondenceSet(np.zeros((2, 2)), np.array([[0.0, 1.0], [5.0, 0.0]]))
    res = sampson_error(F_SKEW, corr)
    np.testing.assert_allclose(res.errors, [0.5, 0.0], atol=1e-15)
    assert res.mean == pytest.approx(0.25, abs=1e-15)
    assert res.skipped == 0
    assert res.pairs == 2


def test_sampson_matches_the_direct_formula():
    rng = np.random.default_rng(33)
    transform = random_pose(rng)
    corr = pose_correspondences(transform, rng, n=20)
    noisy = CorrespondenceSet(corr.uv_a, corr.uv_b + 0.1 * rng.standard_normal((20, 2)))
    f = eight_point(noisy)
    res = sampson_error(f, noisy)
    for i in range(20):
        pa = np.array([*noisy.uv_a[i], 1.0])
        pb = np.array([*noisy.uv_b[i], 1.0])
        la = f @ pa
        lb = f.T @ pb
        want = (pb @ la) ** 2 / (la[0] ** 2 + la[1] ** 2 + lb[0] ** 2 + lb[1] ** 2)
        assert res.errors[i] == pytest.approx(want, rel=1e-12)


def test_sampson_floor_on_exact_pairs(two_plane_scene):
    pair = render_pair(two_plane_scene, 0)
    corr = sample_correspondences(pair.flow_fwd, 4)
    f_true = fundamental_from_pose(
        pair.intrinsics, pair.intrinsics, relative_transform(pair.pose_a, pair.pose_b)
    )
    assert sampson_error(f_true, corr).mean < 1e-10


def test_sampson_all_pairs_skipped():
    corr = CorrespondenceSet(np.zeros((3, 2)), np.ones((3, 2)))
    with pytest.raises(InsufficientDataError, match="denominator"):
        sampson_error(np.diag([0.0, 0.0, 1.0]), corr)


def test_sampson_partial_skip():
    f = np.zeros((3, 3))
    f[0, 0] = 1.0
    uv_a = np.concatenate([np.stack([np.arange(1.0, 9.0), np.zeros(8)], axis=1),
                           [[0.0, 3.0]]])
    uv_b = np.concatenate([np.ones((8, 2)), [[0.0, 5.0]]])
    res = sampson_error(f, CorrespondenceSet(uv_a, uv_b))
    assert res.skipped == 1
    assert res.pairs == 8


def test_sampson_shape_check():
    corr = CorrespondenceSet(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        sampson_error(np.eye(4), corr)


# ---------------------------------------------------------------------------
# dynamic degree

def test_dynamic_degree_values():
    assert dynamic_degree([np.zeros((8, 8, 2))]) == 0.0
    f345 = np.zeros((6, 6, 2))
    f345[..., 0] = 3.0
    f345[..., 1] = 4.0
    assert dynamic_degree([f345]) == pytest.approx(5.0, abs=1e-12)
    half = np.zeros((2, 2, 2))
    half[0, :, 0] = 2.0
    assert dynamic_degree([half]) == pytest.approx(1.0, abs=1e-12)


def test_dynamic_degree_lists():
    a = np.zeros((4, 4, 2))
    b = np.zeros((4, 4, 2))
    b[..., 0] = 2.0
    assert dynamic_degree([a, b]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        dynamic_degree([])
    with pytest.raises(ShapeError):
        dynamic_degree([np.zeros((4, 4))])


# ---------------------------------------------------------------------------
# analytic fundamental matrix

def test_pose_f_needs_translation():
    with pytest.raises(DegeneracyError, match="translation"):
        fundamental_from_pose(K, K, PoseSE3(np.eye(3), np.zeros(3)))


def test_pose_f_epipolar_identity():
    rng = np.random.default_rng(34)
    for _ in range(10):
        transform = random_pose(rng)
        if np.linalg.norm(transform.t) < 0.05:
            continue
        f = fundamental_from_pose(K, K, transform)
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
        corr = pose_correspondences(transform, rng, n=25)
        pa = np.concatenate([corr.uv_a, np.ones((25, 1))], axis=1)
        pb = np.concatenate([corr.uv_b, np.ones((25, 1))], axis=1)
        residual = np.abs(((pb @ f) * pa).sum(axis=1))
        assert residual.max() < 1e-9
