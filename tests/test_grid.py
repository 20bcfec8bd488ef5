"""Bilinear sampling, backward warping, and the tensor file format."""

import struct

import numpy as np
import pytest

from georeward import load_tensor, save_tensor
from georeward.errors import FormatError, GridTypeError, NumericError, ShapeError
from georeward.grid import backward_warp, bilinear_sample


def ramp(h, w):
    """x-coordinate ramp; bilinear sampling of it is exact everywhere."""
    return np.tile(np.arange(w, dtype=np.float64), (h, 1))[..., None]


# ---------------------------------------------------------------------------
# bilinear_sample

def test_integer_coordinates_are_exact():
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((5, 7, 3))
    xs, ys = np.meshgrid(np.arange(7), np.arange(5))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    vals, ok = bilinear_sample(grid, pts)
    assert ok.all()
    np.testing.assert_array_equal(vals, grid.reshape(-1, 3))


def test_cell_center_is_the_four_corner_mean():
    grid = np.array([[1.0, 3.0], [5.0, 7.0]])[..., None]
    val, ok = bilinear_sample(grid, np.array([0.5, 0.5]))
    assert ok
    assert val[0] == pytest.approx(4.0, abs=1e-15)


def test_ramp_interpolates_linearly():
    grid = ramp(4, 9)
    pts = np.array([[2.25, 1.0], [7.875, 3.0], [0.5, 2.5]])
    vals, ok = bilinear_sample(grid, pts)
    assert ok.all()
    np.testing.assert_allclose(vals[:, 0], [2.25, 7.875, 0.5], atol=1e-12)


def test_border_pixel_is_in_bounds():
    grid = ramp(3, 5)
    val, ok = bilinear_sample(grid, np.array([4.0, 2.0]))
    assert ok
    assert val[0] == 4.0


def test_out_of_bounds_returns_zero_and_false():
    grid = np.ones((3, 5, 2))
    pts = np.array([[-0.01, 0.0], [4.001, 1.0], [1.0, -5.0], [2.0, 3.0]])
    vals, ok = bilinear_sample(grid, pts)
    assert not ok.any()
    np.testing.assert_array_equal(vals, np.zeros((4, 2)))


def test_single_pair_returns_scalar_flag():
    grid = np.ones((3, 3, 1))
    val, ok = bilinear_sample(grid, np.array([1.0, 1.0]))
    assert isinstance(ok, (bool, np.bool_))
    assert val.shape == (1,)


def test_integer_grid_is_rejected():
    with pytest.raises(GridTypeError):
        bilinear_sample(np.ones((3, 3, 1), dtype=np.uint8), np.array([1.0, 1.0]))


def test_bad_grid_rank_is_rejected():
    with pytest.raises(ShapeError):
        bilinear_sample(np.ones((3, 3)), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# backward_warp

def test_zero_flow_is_identity():
    rng = np.random.default_rng(1)
    src = rng.standard_normal((6, 8, 2))
    warped, ok = backward_warp(src, np.zeros((6, 8, 2)))
    assert ok.all()
    np.testing.assert_array_equal(warped, src)


def test_unit_flow_shifts_one_column():
    src = ramp(4, 6)
    flow = np.zeros((4, 6, 2))
    flow[..., 0] = 1.0
    warped, ok = backward_warp(src, flow)
    # column j reads source column j + 1; the last column falls off the edge
    np.testing.assert_array_equal(warped[:, :-1, 0], src[:, 1:, 0])
    assert ok[:, :-1].all()
    assert not ok[:, -1].any()
    np.testing.assert_array_equal(warped[:, -1, 0], np.zeros(4))


def test_everything_out_of_bounds():
    src = np.ones((4, 4, 1))
    flow = np.full((4, 4, 2), -10.0)
    warped, ok = backward_warp(src, flow)
    assert not ok.any()
    assert not warped.any()


def test_two_warps_compose_within_smoothness_bound():
    # warping by f then g equals one warp by the chained displacement, up
    # to bilinear interpolation error, which is bounded by the largest
    # local curvature of the image
    h, w = 24, 32
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.sin(xs / 5.0) * np.cos(ys / 7.0)
    img = img[..., None]
    rng = np.random.default_rng(2)
    f = 0.3 * rng.standard_normal((h, w, 2))
    g = 0.3 * rng.standard_normal((h, w, 2))

    once, ok1 = backward_warp(img, f)
    twice, ok2 = backward_warp(once, g)

    pts = np.stack([xs, ys], axis=-1)
    f_at_g, okf = bilinear_sample(f, (pts + g).reshape(-1, 2))
    chained = g + f_at_g.reshape(h, w, 2)
    direct, ok3 = backward_warp(img, chained)

    curv = max(
        np.abs(np.diff(img[..., 0], n=2, axis=0)).max(),
        np.abs(np.diff(img[..., 0], n=2, axis=1)).max(),
    )
    inner = ok1 & ok2 & ok3 & okf.reshape(h, w)
    inner[:2] = inner[-2:] = inner[:, :2] = inner[:, -2:] = False
    assert inner.sum() > 500
    assert np.abs(twice - direct)[inner].max() <= 2.0 * curv


def test_warp_shape_mismatch():
    with pytest.raises(ShapeError):
        backward_warp(np.ones((4, 4, 1)), np.zeros((4, 5, 2)))


# ---------------------------------------------------------------------------
# tensor files

@pytest.mark.parametrize(
    "arr",
    [
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.linspace(0, 1, 24, dtype=np.float32).reshape(2, 3, 4, 1),
        np.array([0, 255, 7], dtype=np.uint8),
        np.zeros((1,) * 8, dtype=np.float64),
    ],
)
def test_round_trip(tmp_path, arr):
    path = tmp_path / "t.gft"
    save_tensor(arr, path)
    back = load_tensor(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    np.testing.assert_array_equal(back, arr)


def test_writes_are_byte_deterministic(tmp_path):
    arr = np.random.default_rng(3).standard_normal((4, 5))
    save_tensor(arr, tmp_path / "a.gft")
    save_tensor(arr, tmp_path / "b.gft")
    assert (tmp_path / "a.gft").read_bytes() == (tmp_path / "b.gft").read_bytes()


def _header(magic=b"GFT1", dtype=2, rank=1, reserved=0, dims=(4,)):
    out = magic + bytes([dtype, rank, reserved, 0])
    for d in dims:
        out += struct.pack("<Q", d)
    return out


@pytest.mark.parametrize(
    "blob,field",
    [
        (b"GFT", "header"),
        (_header(magic=b"GFT2") + b"\0" * 32, "magic"),
        (_header(dtype=9) + b"\0" * 32, "dtype"),
        (_header(rank=0) + b"\0" * 32, "rank"),
        (_header(rank=9) + b"\0" * 32, "rank"),
        (_header(reserved=1) + b"\0" * 32, "reserved"),
        (_header(dims=(0,)), "dims"),
        (_header(rank=2, dims=(4,)), "dims"),
        (_header(dtype=1) + b"\0" * 12, "payload length"),
        (_header() + struct.pack("<4d", 1.0, 2.0, np.nan, 4.0), "payload"),
    ],
)
def test_malformed_files_name_the_broken_field(tmp_path, blob, field):
    path = tmp_path / "bad.gft"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as exc:
        load_tensor(path)
    assert exc.value.field == field


def test_dims_overflow_guard(tmp_path):
    path = tmp_path / "huge.gft"
    path.write_bytes(_header(rank=2, dims=(1 << 40, 1 << 40)))
    with pytest.raises(FormatError) as exc:
        load_tensor(path)
    assert exc.value.field == "dims"


def test_save_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(GridTypeError):
        save_tensor(np.ones(3, dtype=np.complex128), tmp_path / "c.gft")


def test_save_rejects_bad_rank(tmp_path):
    with pytest.raises(ShapeError):
        save_tensor(np.float64(3.0), tmp_path / "s.gft")
    with pytest.raises(ShapeError):
        save_tensor(np.zeros((1,) * 9), tmp_path / "r9.gft")
    with pytest.raises(ShapeError):
        save_tensor(np.zeros((0, 3)), tmp_path / "e.gft")


def test_save_rejects_non_finite(tmp_path):
    with pytest.raises(NumericError):
        save_tensor(np.array([1.0, np.inf]), tmp_path / "inf.gft")
