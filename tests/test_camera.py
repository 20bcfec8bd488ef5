"""Pinhole projection, SE(3) poses, rigid flow, and depth reprojection."""

import numpy as np
import pytest

from georeward import Intrinsics, PoseSE3, project
from georeward.camera import Z_MIN, relative_transform, reproject_depth, rigid_flow
from georeward.errors import DomainError

K100 = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0)


def random_pose(rng, t_scale=0.5):
    # rotation via QR keeps det = +1 after the sign fix
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return PoseSE3(q, t_scale * rng.standard_normal(3))


def splat(depth, k_src, k_dst, transform):
    _, valid, target, z = rigid_flow(depth, k_src, k_dst, transform)
    return reproject_depth(target, z, valid)


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

def test_project_worked_values():
    pts = np.array([[[0.0, 0.0, 2.0], [2.0, 0.0, 2.0]], [[1.0, -0.5, 4.0], [-0.3, 0.6, 0.5]]])
    uv = project(pts, K100)
    assert uv.shape == (2, 2, 2)
    np.testing.assert_allclose(uv, [[[50.0, 50.0], [150.0, 50.0]], [[75.0, 37.5], [-10.0, 170.0]]], atol=1e-12)


def test_project_rejects_points_behind_camera():
    with pytest.raises(DomainError):
        project(np.array([[0.0, 0.0, 0.0]]), K100)
    with pytest.raises(DomainError):
        project(np.array([[0.0, 0.0, -1.0]]), K100)


# ---------------------------------------------------------------------------
# rigid flow

def test_rigid_flow_identity_transform_is_zero():
    depth = np.full((8, 10), 2.0)
    flow, valid = rigid_flow(depth, K100, K100, PoseSE3.identity())[:2]
    assert valid.all()
    np.testing.assert_allclose(flow, 0.0, atol=1e-12)


def test_rigid_flow_translating_plane_is_constant():
    # fx * t_x / z = 100 * 0.1 / 2 = 5 px everywhere on a fronto plane
    depth = np.full((8, 10), 2.0)
    move = PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0]))
    flow, valid = rigid_flow(depth, K100, K100, move)[:2]
    assert valid.all()
    np.testing.assert_allclose(flow[..., 0], 5.0, atol=1e-6)
    np.testing.assert_allclose(flow[..., 1], 0.0, atol=1e-6)


def test_rigid_flow_marks_bad_depth_invalid():
    depth = np.full((4, 4), 2.0)
    depth[1, 2] = -1.0
    flow, valid = rigid_flow(depth, K100, K100, PoseSE3.identity())[:2]
    assert not valid[1, 2]
    np.testing.assert_array_equal(flow[1, 2], [0.0, 0.0])
    assert valid.sum() == 15


def test_rigid_flow_marks_points_pushed_behind_camera():
    depth = np.full((4, 4), 2.0)
    move = PoseSE3(np.eye(3), np.array([0.0, 0.0, -2.0]))
    flow, valid = rigid_flow(depth, K100, K100, move)[:2]
    assert not valid.any()
    assert not flow.any()


# ---------------------------------------------------------------------------
# depth reprojection

def test_reproject_identity_covers_everything():
    rng = np.random.default_rng(10)
    depth = rng.uniform(1.0, 3.0, size=(6, 8))
    warped, covered = splat(depth, K100, K100, PoseSE3.identity())
    assert covered.all()
    np.testing.assert_allclose(warped, depth, atol=1e-12)


def test_reproject_forward_motion_shifts_depth():
    # camera advances 0.5 m along the optical axis: every plane point sits
    # at z = 1.5 in the new frame, whatever cells the splat reaches
    depth = np.full((20, 20), 2.0)
    move = PoseSE3(np.eye(3), np.array([0.0, 0.0, -0.5]))
    warped, covered = splat(depth, K100, K100, move)
    assert covered.any()
    assert np.allclose(warped[covered], 1.5, atol=1e-12)


def test_reproject_pan_leaves_holes():
    depth = np.full((16, 64), 2.0)
    k = Intrinsics(fx=100.0, fy=100.0, cx=31.5, cy=7.5)
    move = PoseSE3(np.eye(3), np.array([0.64, 0.0, 0.0]))
    warped, covered = splat(depth, k, k, move)
    # every source splats exactly 32 px to the right
    assert not covered[:, :32].any()
    assert covered[:, 32:].all()
    np.testing.assert_allclose(warped[:, 32:], 2.0, atol=1e-12)


def test_reproject_zbuffer_keeps_nearest():
    depth = np.array([[2.0, 1.0]])
    k = Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    move = PoseSE3(np.eye(3), np.array([-1.0, 0.0, 0.0]))
    # both pixels land in cell (0, 0): (0,0,2) -> u = -0.5 and (1,0,1) -> u = 0
    warped, covered = splat(depth, k, k, move)
    assert covered[0, 0]
    assert not covered[0, 1]
    assert warped[0, 0] == 1.0


# ---------------------------------------------------------------------------
# one projection per pair, against the two-pass reference

def _reference_lattice(depth, k_src, transform):
    # the former camera._moved_lattice, which both stages used to run
    d = np.asarray(depth, dtype=np.float64)
    h, w = d.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    uv = np.stack([xs, ys], axis=-1)
    valid = np.isfinite(d) & (d > 0)
    ds = np.where(valid, d, 1.0)
    pts = np.stack(
        [ds * (uv[..., 0] - k_src.cx) / k_src.fx, ds * (uv[..., 1] - k_src.cy) / k_src.fy, ds],
        axis=-1,
    )
    moved = pts @ transform.r.T + transform.t
    z = moved[..., 2]
    valid &= z > Z_MIN
    return uv, moved, valid, np.where(valid, z, 1.0)


def _reference_rigid_flow(depth, k_src, k_dst, transform):
    uv, moved, valid, zs = _reference_lattice(depth, k_src, transform)
    u2 = k_dst.fx * moved[..., 0] / zs + k_dst.cx
    v2 = k_dst.fy * moved[..., 1] / zs + k_dst.cy
    flow = np.stack([u2, v2], axis=-1) - uv
    flow[~valid] = 0.0
    return flow, valid


def _reference_reproject_depth(depth, k_src, k_dst, transform):
    uv, moved, valid, zs = _reference_lattice(depth, k_src, transform)
    h, w = uv.shape[:2]
    ix = np.floor(k_dst.fx * moved[..., 0] / zs + k_dst.cx + 0.5).astype(np.int64)
    iy = np.floor(k_dst.fy * moved[..., 1] / zs + k_dst.cy + 0.5).astype(np.int64)
    valid &= (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    buf = np.full((h, w), np.inf)
    np.minimum.at(buf, (iy[valid], ix[valid]), zs[valid])
    covered = np.isfinite(buf)
    return np.where(covered, buf, 0.0), covered


def _turn(angle, axis):
    c, s = np.cos(angle), np.sin(angle)
    i, j = [a for a in range(3) if a != axis]
    r = np.eye(3)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


@pytest.mark.parametrize(
    "r, t",
    [
        (np.eye(3), [0.0, 0.0, 0.0]),
        (np.eye(3), [0.07, -0.03, 0.0]),
        (_turn(0.05, 1) @ _turn(-0.03, 0), [0.08, 0.02, -0.1]),
        # pushes the near points behind the camera
        (_turn(0.02, 2), [0.0, 0.0, -1.2]),
        # pushes most targets off the image
        (_turn(0.3, 1), [1.5, -0.4, 0.2]),
    ],
)
def test_one_projection_matches_the_two_pass_reference(r, t):
    rng = np.random.default_rng(11)
    depth = rng.uniform(0.6, 3.0, size=(24, 32))
    depth[2, 3], depth[5, 7], depth[9, 1] = np.nan, np.inf, -np.inf
    depth[4, 20], depth[11, 30], depth[17, 12] = 0.0, -1.0, -0.25
    k_src = Intrinsics(fx=30.0, fy=32.0, cx=15.5, cy=11.5)
    k_dst = Intrinsics(fx=27.5, fy=29.0, cx=16.25, cy=10.75)
    move = PoseSE3(r, np.array(t))

    flow, valid, target, z = rigid_flow(depth, k_src, k_dst, move)
    warped, covered = reproject_depth(target, z, valid)
    ref_flow, ref_valid = _reference_rigid_flow(depth, k_src, k_dst, move)
    ref_warped, ref_covered = _reference_reproject_depth(depth, k_src, k_dst, move)

    # the splat leaves the caller's validity alone
    assert valid.tobytes() == ref_valid.tobytes()
    assert flow.tobytes() == ref_flow.tobytes()
    assert warped.tobytes() == ref_warped.tobytes()
    assert covered.tobytes() == ref_covered.tobytes()
    assert np.isfinite(target).all() and np.isfinite(z).all()

    # bands of rows, splatted into one z-buffer, give the same bits
    zbuf = np.full(depth.shape, np.inf)
    for r0, r1 in ((0, 7), (7, 20), (20, 24)):
        band, band_valid, band_target, band_z = rigid_flow(depth[r0:r1], k_src, k_dst, move, row0=r0)
        assert band.tobytes() == flow[r0:r1].tobytes() and band_valid.tobytes() == valid[r0:r1].tobytes()
        assert reproject_depth(band_target, band_z, band_valid, zbuf) is zbuf
    assert np.where(np.isfinite(zbuf), zbuf, 0.0).tobytes() == warped.tobytes()


@pytest.mark.parametrize("shape", [(24, 32), (1, 9), (7, 1)])
def test_flat_splat_matches_the_tuple_index_splat(shape):
    # reproject_depth's one flat index into the buffer, against np.minimum.at
    # with the (row, column) index pair: many sources per cell, targets off
    # the image on every side, and invalid sources
    rng = np.random.default_rng(3)
    h, w = shape
    target = np.stack([rng.uniform(-2.0, w + 1.0, shape), rng.uniform(-2.0, h + 1.0, shape)], axis=-1)
    z = rng.uniform(0.5, 4.0, shape)
    valid = rng.uniform(size=shape) > 0.2
    ix = np.floor(target[..., 0] + 0.5).astype(np.int64)
    iy = np.floor(target[..., 1] + 0.5).astype(np.int64)
    hit = valid & (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    buf = np.full(shape, np.inf)
    np.minimum.at(buf, (iy[hit], ix[hit]), z[hit])
    want = np.where(np.isfinite(buf), buf, 0.0)
    warped, covered = reproject_depth(target, z, valid)
    assert covered.any()
    assert h * w < 100 or hit.sum() > covered.sum()  # collisions happened
    assert warped.tobytes() == want.tobytes()
    assert covered.tobytes() == np.isfinite(buf).tobytes()
