"""Pinhole projection, SE(3) poses, rigid flow, and depth reprojection."""

import numpy as np
import pytest

from georeward import Intrinsics, PoseSE3, project
from georeward.camera import relative_transform, reproject_depth, rigid_flow, unproject
from georeward.errors import DomainError

K100 = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0)


def random_pose(rng, t_scale=0.5):
    # rotation via QR keeps det = +1 after the sign fix
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return PoseSE3(q, t_scale * rng.standard_normal(3))


# ---------------------------------------------------------------------------
# intrinsics and poses

def test_intrinsics_reject_nonpositive_focal():
    with pytest.raises(DomainError):
        Intrinsics(fx=0.0, fy=100.0, cx=50.0, cy=50.0)
    with pytest.raises(DomainError):
        Intrinsics(fx=100.0, fy=-1.0, cx=50.0, cy=50.0)


def test_pose_rejects_non_rotation():
    with pytest.raises(DomainError):
        PoseSE3(np.eye(3) * 2.0, np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(DomainError):
        PoseSE3(refl, np.zeros(3))
    with pytest.raises(DomainError):
        PoseSE3(np.full((3, 3), np.nan), np.zeros(3))


def test_pose_inverse_round_trip():
    rng = np.random.default_rng(4)
    pose = random_pose(rng)
    pts = rng.standard_normal((10, 3))
    back = pose.inverse().apply(pose.apply(pts))
    np.testing.assert_allclose(back, pts, atol=1e-12)


def test_matrix34_matches_apply():
    rng = np.random.default_rng(5)
    pose = random_pose(rng)
    pts = rng.standard_normal((6, 3))
    hom = np.concatenate([pts, np.ones((6, 1))], axis=1)
    np.testing.assert_allclose(hom @ pose.matrix34().T, pose.apply(pts), atol=1e-12)


def test_relative_transform_of_identical_poses_is_identity():
    rng = np.random.default_rng(6)
    pose = random_pose(rng)
    rel = relative_transform(pose, pose)
    np.testing.assert_allclose(rel.r, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(rel.t, np.zeros(3), atol=1e-12)


def test_relative_transform_pure_translation():
    a = PoseSE3.identity()
    b = PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0]))
    rel = relative_transform(a, b)
    np.testing.assert_allclose(rel.r, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(rel.t, [0.1, 0.0, 0.0], atol=1e-15)


def test_relative_transform_matrix_oracle():
    # X_b = R_rel X_a + t_rel must reproduce E_b when chained after E_a
    rng = np.random.default_rng(7)
    for _ in range(20):
        e_a, e_b = random_pose(rng), random_pose(rng)
        rel = relative_transform(e_a, e_b)
        pts = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            rel.apply(e_a.apply(pts)), e_b.apply(pts), atol=1e-9
        )


def test_relative_transform_chain_rule():
    rng = np.random.default_rng(8)
    e_a, e_b, e_c = (random_pose(rng) for _ in range(3))
    ab, bc, ac = (
        relative_transform(e_a, e_b),
        relative_transform(e_b, e_c),
        relative_transform(e_a, e_c),
    )
    np.testing.assert_allclose(bc.r @ ab.r, ac.r, atol=1e-9)
    np.testing.assert_allclose(bc.r @ ab.t + bc.t, ac.t, atol=1e-9)


# ---------------------------------------------------------------------------
# projection

def test_unproject_worked_values():
    pts = unproject(np.array([[50.0, 50.0], [150.0, 50.0]]), np.array([2.0, 2.0]), K100)
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(pts[1], [2.0, 0.0, 2.0], atol=1e-12)


def test_unproject_rejects_nonpositive_depth():
    with pytest.raises(DomainError):
        unproject(np.array([[10.0, 10.0]]), np.array([0.0]), K100)


def test_project_unproject_identity():
    rng = np.random.default_rng(9)
    uv = rng.uniform(0, 100, size=(200, 2))
    depth = rng.uniform(0.1, 50.0, size=200)
    np.testing.assert_allclose(project(unproject(uv, depth, K100), K100), uv, atol=1e-9)


def test_project_rejects_points_behind_camera():
    with pytest.raises(DomainError):
        project(np.array([[0.0, 0.0, 0.0]]), K100)
    with pytest.raises(DomainError):
        project(np.array([[0.0, 0.0, -1.0]]), K100)


# ---------------------------------------------------------------------------
# rigid flow

def test_rigid_flow_identity_transform_is_zero():
    depth = np.full((8, 10), 2.0)
    flow, valid = rigid_flow(depth, K100, K100, PoseSE3.identity())
    assert valid.all()
    np.testing.assert_allclose(flow, 0.0, atol=1e-12)


def test_rigid_flow_translating_plane_is_constant():
    # fx * t_x / z = 100 * 0.1 / 2 = 5 px everywhere on a fronto plane
    depth = np.full((8, 10), 2.0)
    move = PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0]))
    flow, valid = rigid_flow(depth, K100, K100, move)
    assert valid.all()
    np.testing.assert_allclose(flow[..., 0], 5.0, atol=1e-6)
    np.testing.assert_allclose(flow[..., 1], 0.0, atol=1e-6)


def test_rigid_flow_marks_bad_depth_invalid():
    depth = np.full((4, 4), 2.0)
    depth[1, 2] = -1.0
    flow, valid = rigid_flow(depth, K100, K100, PoseSE3.identity())
    assert not valid[1, 2]
    np.testing.assert_array_equal(flow[1, 2], [0.0, 0.0])
    assert valid.sum() == 15


def test_rigid_flow_marks_points_pushed_behind_camera():
    depth = np.full((4, 4), 2.0)
    move = PoseSE3(np.eye(3), np.array([0.0, 0.0, -2.0]))
    flow, valid = rigid_flow(depth, K100, K100, move)
    assert not valid.any()
    assert not flow.any()


# ---------------------------------------------------------------------------
# depth reprojection

def test_reproject_identity_covers_everything():
    rng = np.random.default_rng(10)
    depth = rng.uniform(1.0, 3.0, size=(6, 8))
    warped, covered = reproject_depth(depth, K100, K100, PoseSE3.identity())
    assert covered.all()
    np.testing.assert_allclose(warped, depth, atol=1e-12)


def test_reproject_forward_motion_shifts_depth():
    # camera advances 0.5 m along the optical axis: every plane point sits
    # at z = 1.5 in the new frame, whatever cells the splat reaches
    depth = np.full((20, 20), 2.0)
    move = PoseSE3(np.eye(3), np.array([0.0, 0.0, -0.5]))
    warped, covered = reproject_depth(depth, K100, K100, move)
    assert covered.any()
    assert np.allclose(warped[covered], 1.5, atol=1e-12)


def test_reproject_pan_leaves_holes():
    depth = np.full((16, 64), 2.0)
    k = Intrinsics(fx=100.0, fy=100.0, cx=31.5, cy=7.5)
    move = PoseSE3(np.eye(3), np.array([0.64, 0.0, 0.0]))
    warped, covered = reproject_depth(depth, k, k, move)
    # every source splats exactly 32 px to the right
    assert not covered[:, :32].any()
    assert covered[:, 32:].all()
    np.testing.assert_allclose(warped[:, 32:], 2.0, atol=1e-12)


def test_reproject_zbuffer_keeps_nearest():
    depth = np.array([[2.0, 1.0]])
    k = Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    move = PoseSE3(np.eye(3), np.array([-1.0, 0.0, 0.0]))
    # both pixels land in cell (0, 0): (0,0,2) -> u = -0.5 and (1,0,1) -> u = 0
    warped, covered = reproject_depth(depth, k, k, move)
    assert covered[0, 0]
    assert not covered[0, 1]
    assert warped[0, 0] == 1.0
