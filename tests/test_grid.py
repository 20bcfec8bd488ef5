"""Bilinear sampling, backward warping, and the tensor file format."""

import struct

import numpy as np
import pytest

from georeward import load_tensor, save_tensor
from georeward.errors import FormatError, GridTypeError, NumericError, ShapeError
from georeward.grid import _xy_norm, backward_warp, bilinear_sample, tensor_shape


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
    val, ok = bilinear_sample(grid, np.array([[0.5, 0.5]]))
    assert ok.tolist() == [True]
    assert val[0, 0] == pytest.approx(4.0, abs=1e-15)


def test_ramp_interpolates_linearly():
    grid = ramp(4, 9)
    pts = np.array([[2.25, 1.0], [7.875, 3.0], [0.5, 2.5]])
    vals, ok = bilinear_sample(grid, pts)
    assert ok.all()
    np.testing.assert_allclose(vals[:, 0], [2.25, 7.875, 0.5], atol=1e-12)


def test_border_pixel_is_in_bounds():
    grid = ramp(3, 5)
    val, ok = bilinear_sample(grid, np.array([[4.0, 2.0]]))
    assert ok.tolist() == [True]
    assert val[0, 0] == 4.0


def test_out_of_bounds_returns_zero_and_false():
    grid = np.ones((3, 5, 2))
    pts = np.array([[-0.01, 0.0], [4.001, 1.0], [1.0, -5.0], [2.0, 3.0]])
    vals, ok = bilinear_sample(grid, pts)
    assert not ok.any()
    np.testing.assert_array_equal(vals, np.zeros((4, 2)))


def test_one_point_is_a_one_row_array():
    val, ok = bilinear_sample(np.ones((3, 3, 1)), np.array([[1.0, 1.0]]))
    assert val.shape == (1, 1) and ok.shape == (1,)


@pytest.mark.parametrize("xy", [np.array([1.0, 1.0]), np.float64(1.0), np.ones((4, 3))])
def test_coordinates_without_a_trailing_xy_axis_are_rejected(xy):
    with pytest.raises(ShapeError):
        bilinear_sample(np.ones((3, 3, 1)), xy)


def _bilinear_ref(arr, xy):
    """The 2-D fancy-index formula: four (..., C) gathers blended
    left to right, out-of-bounds samples zeroed by np.where."""
    h, w, _ = arr.shape
    pts = np.asarray(xy, dtype=np.float64)
    x, y = pts[..., 0], pts[..., 1]
    in_bounds = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc), w - 2).astype(np.intp) if w > 1 else np.zeros_like(xc, dtype=np.intp)
    y0 = np.minimum(np.floor(yc), h - 2).astype(np.intp) if h > 1 else np.zeros_like(yc, dtype=np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = (xc - x0)[..., None]
    wy = (yc - y0)[..., None]
    vals = (
        arr[y0, x0] * (1.0 - wx) * (1.0 - wy)
        + arr[y0, x1] * wx * (1.0 - wy)
        + arr[y1, x0] * (1.0 - wx) * wy
        + arr[y1, x1] * wx * wy
    )
    return np.where(in_bounds[..., None], vals, 0.0), in_bounds


def _sample_points(rng, h, w, shape):
    pts = np.stack([rng.uniform(-1.5, w + 0.5, shape), rng.uniform(-1.5, h + 0.5, shape)], axis=-1)
    edges = [[0.0, 0.0], [w - 1.0, h - 1.0], [w - 1.0, 0.0], [0.0, h - 1.0], [0.5, h - 1.0],
             [w - 1.0, 0.25], [-1e-9, 0.0], [0.0, h - 1.0 + 1e-9], [-3.0, -3.0], [w + 7.0, 1.0]]
    flat = pts.reshape(-1, 2)
    flat[: len(edges)] = edges[: len(flat)]
    return pts


@pytest.mark.parametrize("h, w", [(5, 7), (1, 6), (6, 1), (1, 1), (48, 64)])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bilinear_matches_the_fancy_index_reference(h, w, c, dtype):
    rng = np.random.default_rng([h, w, c])
    # negative values: a mask product would turn the zeroed samples into -0.0
    grid = (rng.standard_normal((h, w, c)) * 4.0 - 1.0).astype(dtype)
    for shape in ((40,), (3, 4), (12, 9)):
        pts = _sample_points(rng, h, w, shape)
        vals, ok = bilinear_sample(grid, pts)
        want, want_ok = _bilinear_ref(grid, pts)
        assert vals.shape == shape + (c,) and vals.dtype == want.dtype
        assert vals.flags.c_contiguous
        assert vals.tobytes() == want.tobytes()
        np.testing.assert_array_equal(ok, want_ok)
    for pair in ((0.0, 0.0), (w - 1.0, h - 1.0), (0.3, 0.7), (-0.5, 0.0)):
        val, flag = bilinear_sample(grid, np.array([pair]))
        want, want_flag = _bilinear_ref(grid, np.array([pair]))
        assert val.tobytes() == want.tobytes() and flag.tolist() == want_flag.tolist()


def test_integer_grid_is_rejected():
    with pytest.raises(GridTypeError):
        bilinear_sample(np.ones((3, 3, 1), dtype=np.uint8), np.array([[1.0, 1.0]]))


def test_bad_grid_rank_is_rejected():
    with pytest.raises(ShapeError):
        bilinear_sample(np.ones((3, 3)), np.array([[1.0, 1.0]]))


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


@pytest.mark.parametrize("shape", [(24, 32, 3), (1, 7, 2), (9, 1, 1)])
def test_backward_warp_matches_the_mgrid_lattice(shape):
    # the sample coordinates from broadcast 1-D aranges, against the former
    # np.mgrid/np.stack lattice, bit for bit, off-grid flows included
    rng = np.random.default_rng(5)
    h, w, _ = shape
    src = rng.standard_normal(shape)
    flow = 2.5 * rng.standard_normal((h, w, 2))
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    coords = np.stack([xs + flow[..., 0], ys + flow[..., 1]], axis=-1)
    want, want_ok = bilinear_sample(src, coords.reshape(-1, 2))
    got, ok = backward_warp(src, flow)
    assert got.tobytes() == want.reshape(shape).tobytes()
    assert ok.tobytes() == want_ok.reshape(h, w).tobytes()
    # a band of the flow's rows warps to those rows of the whole warp
    r0, r1 = h // 3, h - h // 3
    band, band_ok = backward_warp(src, flow[r0:r1], row0=r0)
    assert band.tobytes() == got[r0:r1].tobytes() and band_ok.tobytes() == ok[r0:r1].tobytes()


def test_warp_shape_mismatch():
    # a flow of the wrong width, or rows that run past the source
    for flow_shape, row0 in (((4, 5, 2), 0), ((5, 4, 2), 0), ((2, 4, 2), 3), ((2, 4, 2), -1)):
        with pytest.raises(ShapeError):
            backward_warp(np.ones((4, 4, 1)), np.zeros(flow_shape), row0=row0)


def test_xy_norm_matches_linalg_norm():
    vals = [0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 0.75, -3.0, 1e154, 1e200, -1e200, 1.7e308]
    xy = np.array(np.meshgrid(vals, vals)).reshape(2, -1).T  # every (x, y) combination
    with np.errstate(over="ignore", under="ignore"):  # 1e200 squared is inf on both sides
        for v in (xy, xy.reshape(11, 11, 2), xy[::-1]):
            assert _xy_norm(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


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


BAD_BLOBS = [
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
    (b"", "header"),
    (b"GFT1\x02\x01\x00", "header"),
    (_header(rank=3, dims=(2, 0, 1)), "dims"),
    (_header(rank=2, dims=(1 << 40, 1 << 40)), "dims"),
    (_header(), "payload length"),
    (_header() + b"\0" * 31, "payload length"),
    (_header() + b"\0" * 33, "payload length"),  # trailing bytes
    (_header(dtype=3, dims=(5,)) + b"\1" * 4, "payload length"),
    (_header(dtype=1) + struct.pack("<4f", 1.0, np.inf, 0.0, 0.0), "payload"),
]


@pytest.mark.parametrize("blob,field", BAD_BLOBS)
def test_malformed_files_name_the_broken_field(tmp_path, blob, field):
    path = tmp_path / "bad.gft"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as exc:
        load_tensor(path)
    assert exc.value.field == field


def _blob_load_tensor(path):
    """load_tensor as it was before it read the payload in place: one
    f.read() of the file, then a copy. The oracle for its checks, their
    order and their messages."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 8:
        raise FormatError("header", f"file too short ({len(blob)} bytes)")
    if blob[:4] != b"GFT1":
        raise FormatError("magic", f"expected {b'GFT1'!r}, got {blob[:4]!r}")
    code, rank, reserved = struct.unpack("<BBH", blob[4:8])
    dtypes = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
    if code not in dtypes:
        raise FormatError("dtype", f"unknown dtype code {code}")
    if not 1 <= rank <= 8:
        raise FormatError("rank", f"rank must be 1..8, got {rank}")
    if reserved != 0:
        raise FormatError("reserved", f"reserved bytes must be zero, got {reserved}")
    dims_end = 8 + 8 * rank
    if len(blob) < dims_end:
        raise FormatError("dims", "header truncated before the dims block")
    dims = np.frombuffer(blob[8:dims_end], dtype="<u8")
    if (dims == 0).any():
        raise FormatError("dims", f"zero-sized axis in dims {dims.tolist()}")
    count = int(np.prod(dims, dtype=object))
    if count > 2**48:
        raise FormatError("dims", f"dims {dims.tolist()} overflow the element budget")
    expected = count * dtypes[code].itemsize
    actual = len(blob) - dims_end
    if actual != expected:
        raise FormatError("payload length", f"expected {expected} bytes, got {actual}")
    arr = np.frombuffer(blob[dims_end:], dtype=dtypes[code]).reshape(dims.astype(np.intp))
    arr = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise FormatError("payload", "payload contains non-finite values")
    return arr


def _raised(fn, path):
    with pytest.raises(FormatError) as exc:
        fn(path)
    return exc.value.field, str(exc.value)


@pytest.mark.parametrize("blob,field", BAD_BLOBS)
def test_load_tensor_fails_like_the_blob_reader(tmp_path, blob, field):
    path = tmp_path / "bad.gft"
    path.write_bytes(blob)
    want = _raised(_blob_load_tensor, path)
    assert want[0] == field
    assert _raised(load_tensor, path) == want
    if field == "payload":  # the one check that needs the payload itself
        assert tensor_shape(path) == (4,)
    else:
        assert _raised(tensor_shape, path) == want


@pytest.mark.parametrize(
    "arr",
    [
        np.array([-0.0, 5e-324, 1e308], dtype=np.float64),
        np.random.default_rng(4).standard_normal((256, 320, 3)).astype(np.float32),
        np.arange(96, dtype=np.uint8).reshape(2, 3, 4, 4),
        np.zeros((1,) * 8, dtype=np.float64),
    ],
)
def test_load_tensor_reads_what_the_blob_reader_reads(tmp_path, arr):
    path = tmp_path / "t.gft"
    save_tensor(arr, path)
    got, want = load_tensor(path), _blob_load_tensor(path)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.flags.c_contiguous
    assert tensor_shape(path) == want.shape


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
