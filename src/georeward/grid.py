"""Dense grids: bilinear sampling, backward warping, and the GFT tensor file,
plus the package's JSON reader and writer and strict JSON-document check.

Grids are plain numpy arrays in row-major, channels-last layout. Pixel
centers sit at integer coordinates, origin top-left, x right, y down; the
valid sampling domain of an HxW grid is [0, W-1] x [0, H-1]. Samples outside
that box return zeros plus a False flag instead of clamping, so downstream
masks can exclude them exactly.

GFT file layout (little-endian):
  bytes 0-3   magic "GFT1"
  byte  4     dtype code: 1 = f32, 2 = f64, 3 = u8
  byte  5     rank r, 1..8
  bytes 6-7   reserved, zero
  r x u64     dims
  payload     row-major element data
"""

import dataclasses
import json
import struct

import numpy as np

from .errors import ConfigError, FormatError, GridTypeError, InputError, NumericError, ShapeError

_MAGIC = b"GFT1"
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
_CODE_FOR_KIND = {"f4": 1, "f8": 2, "u1": 3}
# Guards against absurd headers; 2**48 elements is far beyond anything sane here.
_MAX_ELEMENTS = 2**48


def _as_sample_grid(grid):
    arr = np.asarray(grid)
    if arr.ndim != 3:
        raise ShapeError(f"expected an HxWxC grid, got shape {arr.shape}")
    if arr.dtype.kind != "f":
        raise GridTypeError(f"bilinear sampling needs a float grid, got {arr.dtype}")
    return arr


def bilinear_sample(grid, xy):
    """Sample an HxWxC float grid at continuous pixel coordinates.

    xy may be a single (x, y) pair or an array of shape (..., 2). Returns
    (values, in_bounds) where values has shape (..., C) and in_bounds is a
    boolean of shape (...). Out-of-bounds samples are all-zero with a False
    flag; coordinates exactly on the border are in bounds.
    """
    arr = _as_sample_grid(grid)
    h, w, _ = arr.shape
    pts = np.asarray(xy, dtype=np.float64)
    single = pts.ndim == 1
    if pts.shape[-1] != 2:
        raise ShapeError(f"coordinates must end in an (x, y) axis, got shape {pts.shape}")
    pts = np.atleast_2d(pts)

    x, y = pts[..., 0], pts[..., 1]
    in_bounds = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)

    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    # Keep the +1 neighbor inside the grid; the blend weight hits 1 exactly on
    # the far border so the clamped index never contributes a wrong value.
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
    vals = np.where(in_bounds[..., None], vals, 0.0)
    if single:
        return vals[0], bool(in_bounds[0])
    return vals, in_bounds


def backward_warp(source, backward_flow):
    """Warp `source` so that warped(u) = source(u + flow(u)).

    `backward_flow` carries, for each target pixel, the displacement to its
    source location. Returns (warped, mask) where mask(u) is True iff the
    sampled coordinate fell inside the source grid; masked-out pixels are
    zero. The mask is exactly the validity set a reward aggregation needs.
    """
    src = _as_sample_grid(source)
    flow = np.asarray(backward_flow)
    h, w, _ = src.shape
    if flow.shape != (h, w, 2):
        raise ShapeError(f"flow shape {flow.shape} does not match source {src.shape[:2]} + (2,)")

    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    coords = np.stack([xs + flow[..., 0], ys + flow[..., 1]], axis=-1)
    vals, mask = bilinear_sample(src, coords.reshape(-1, 2))
    return vals.reshape(h, w, src.shape[2]), mask.reshape(h, w)


def save_tensor(grid, path):
    """Write an array to a GFT file; load_tensor(save_tensor(g)) is bit-exact."""
    arr = np.asarray(grid)
    kind = arr.dtype.str.lstrip("<>=|")
    if kind not in _CODE_FOR_KIND:
        raise GridTypeError(f"GFT stores f32/f64/u8 tensors, got dtype {arr.dtype}")
    if arr.ndim < 1 or arr.ndim > 8:
        raise ShapeError(f"GFT rank must be 1..8, got {arr.ndim}")
    arr = np.ascontiguousarray(arr)
    if arr.size == 0:
        raise ShapeError("GFT tensors must have at least one element per axis")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise NumericError("refusing to save non-finite values to a tensor file")

    code = _CODE_FOR_KIND[kind]
    header = _MAGIC + struct.pack("<BBH", code, arr.ndim, 0)
    dims = np.asarray(arr.shape, dtype="<u8").tobytes()
    payload = arr.astype(_DTYPE_CODES[code], copy=False).tobytes()
    with open(path, "wb") as f:
        f.write(header + dims + payload)


def _load_json(path):
    """The package's one JSON reader. It is strict: the NaN, Infinity and
    -Infinity literals that Python's parser accepts raise InputError."""

    def reject(name):
        raise InputError(f"{path}: {name} is not valid JSON")

    try:
        with open(path) as f:
            return json.load(f, parse_constant=reject)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}")


def _dump_json(doc, path):
    """The package's one JSON writer: sorted keys, two-space indent and a
    trailing newline, so equal documents give equal bytes."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _json_type_ok(value, kind):
    # JSON true/false load as bool, which Python also counts as an int
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _from_dict(cls, doc, label):
    """Strict dataclass construction from a JSON object: no unknown keys,
    and every int, float, bool or str field gets a value of its type."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(doc).__name__}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {label} keys: {', '.join(unknown)}")
    for key, value in doc.items():
        kind = fields[key]
        if kind in (int, float, bool, str) and not _json_type_ok(value, kind):
            raise ConfigError(f"{label} key {key} must be {kind.__name__}, got {value!r}")
    return cls(**doc)


def load_tensor(path):
    """Read a GFT file back into a numpy array (native byte order)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 8:
        raise FormatError("header", f"file too short ({len(blob)} bytes)")
    if blob[:4] != _MAGIC:
        raise FormatError("magic", f"expected {_MAGIC!r}, got {blob[:4]!r}")
    code, rank, reserved = struct.unpack("<BBH", blob[4:8])
    if code not in _DTYPE_CODES:
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
    if count > _MAX_ELEMENTS:
        raise FormatError("dims", f"dims {dims.tolist()} overflow the element budget")

    dtype = _DTYPE_CODES[code]
    expected = count * dtype.itemsize
    actual = len(blob) - dims_end
    if actual != expected:
        raise FormatError("payload length", f"expected {expected} bytes, got {actual}")

    arr = np.frombuffer(blob[dims_end:], dtype=dtype).reshape(dims.astype(np.intp))
    arr = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise FormatError("payload", "payload contains non-finite values")
    return arr
