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
import math
import os
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

    xy is an array of shape (..., 2) with at least two axes; a single point
    is xy of shape (1, 2). Returns (values, in_bounds) where values has shape
    (..., C) and in_bounds is a boolean of shape (...). Out-of-bounds samples
    are all-zero with a False flag; coordinates exactly on the border are in
    bounds.
    """
    arr = _as_sample_grid(grid)
    h, w, c = arr.shape
    pts = np.asarray(xy, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ShapeError(f"coordinates must have shape (..., 2), got {pts.shape}")

    x, y = pts[..., 0], pts[..., 1]
    in_bounds = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)

    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    # Keep the +1 neighbor inside the grid; the blend weight hits 1 exactly on
    # the far border so the clamped index never contributes a wrong value.
    x0 = np.minimum(np.floor(xc), w - 2).astype(np.intp) if w > 1 else np.zeros_like(xc, dtype=np.intp)
    y0 = np.minimum(np.floor(yc), h - 2).astype(np.intp) if h > 1 else np.zeros_like(yc, dtype=np.intp)
    # weights and index reuse the clip and floor outputs in place: fewer large
    # temporaries keep the peak memory of concurrent warps where it was
    wx = xc
    wx -= x0
    wy = yc
    wy -= y0
    ux = 1.0 - wx
    uy = 1.0 - wy
    # The clamped +1 neighbour is one step right (down) unless the grid is one
    # pixel wide (tall), so one flat index walks the four corners.
    step_x = 1 if w > 1 else 0
    step_y = w if h > 1 else 0
    idx = y0
    idx *= w
    idx += x0
    del x0, y0

    # Channel-major planes make every gather and blend a contiguous row
    # operation; the blend keeps the left-to-right order
    # g00*(1-wx)*(1-wy) + g01*wx*(1-wy) + g10*(1-wx)*wy + g11*wx*wy.
    dtype = np.result_type(arr.dtype, np.float64)
    planes = np.moveaxis(arr, -1, 0).astype(dtype, order="C", copy=False).reshape(c, -1)
    vals = np.take(planes, idx, axis=1)  # (C, ...)
    vals *= ux
    vals *= uy
    idx += step_x
    g = np.take(planes, idx, axis=1)
    g *= wx
    g *= uy
    vals += g
    idx += step_y - step_x
    np.take(planes, idx, axis=1, out=g)
    g *= ux
    g *= wy
    vals += g
    idx += step_x
    np.take(planes, idx, axis=1, out=g)
    g *= wx
    g *= wy
    vals += g
    del idx, g, wx, wy, ux, uy, planes
    # assign, not multiply: a mask product would leave -0.0 under negative values
    vals[:, ~in_bounds] = 0.0
    return np.ascontiguousarray(np.moveaxis(vals, 0, -1)), in_bounds


def _xy_norm(v):
    """Euclidean norm over a trailing (x, y) axis: the bits of
    np.linalg.norm(v, axis=-1), without a reduction whose inner loop is two
    wide."""
    s = v[..., 0] * v[..., 0]
    s += v[..., 1] * v[..., 1]
    return np.sqrt(s)


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

    coords = np.empty((h, w, 2))
    np.add(np.arange(w, dtype=np.float64), flow[..., 0], out=coords[..., 0])
    np.add(np.arange(h, dtype=np.float64)[:, None], flow[..., 1], out=coords[..., 1])
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
    payload = arr.astype(_DTYPE_CODES[code], copy=False)
    with open(path, "wb") as f:
        f.write(header + dims)
        f.write(memoryview(payload).cast("B"))  # the array's own bytes, not a copy of them


def _load_json(path):
    """The package's one JSON reader. It is strict: the NaN, Infinity and
    -Infinity literals that Python's parser accepts, and number literals
    that overflow a float (1e400), raise InputError."""

    def reject(name):
        raise InputError(f"{path}: {name} is not valid JSON")

    def finite(text):
        value = float(text)
        if math.isinf(value):
            raise InputError(f"{path}: number {_shown(text)} overflows a float")
        return value

    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, parse_constant=reject, parse_float=finite)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
        raise InputError(f"invalid JSON in {path}: {exc}")


def _dump_json(doc, path):
    """The package's one JSON writer: sorted keys, two-space indent and a
    trailing newline, so equal documents give equal bytes."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _shown(value, limit=60):
    """repr(value) for an error message, cut to about `limit` characters:
    a JSON number may have hundreds of digits."""
    try:
        text = repr(value)
    except ValueError:  # an int past Python's int-to-str digit limit
        return f"an int of {value.bit_length()} bits"
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


# numpy cannot build an array of more bytes than its index type counts
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _check_floats(count, sizes):
    """ConfigError naming sizes when an array of count float64s is past
    what numpy can allocate; checked before anything is built."""
    if count > _MAX_FLOATS:
        raise ConfigError(f"{sizes}: too large for numpy to allocate")


def _json_type_ok(value, kind):
    # JSON true/false load as bool, which Python also counts as an int; an
    # int must also fit numpy's int64, or it reaches numpy as a shape or
    # count that it cannot hold, and a float field's int must fit a float
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, kind)


def _numbers(value, shape, label, kind=float):
    """Return value once it is a (nested) JSON list of `kind` numbers of the
    given shape; otherwise raise ConfigError naming the field."""
    ok = isinstance(value, (list, tuple)) and len(value) == shape[0]
    if ok and len(shape) == 1:
        ok = all(_json_type_ok(v, kind) for v in value)
    if not ok:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{label} must be a list of {shape[0]} {noun}, got {_shown(value)}")
    if len(shape) > 1:
        for row in value:
            _numbers(row, shape[1:], label, kind)
    return value


def _checked(doc, kinds, label):
    """doc, once it is a JSON object whose keys all name a kind in kinds and
    whose int, float, bool, str, dict and list fields hold a value of that
    JSON type; otherwise ConfigError naming label and the field. A field of
    any other kind is left to the caller."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown {label} keys: {', '.join(unknown)}")
    for key, value in doc.items():
        kind = kinds[key]
        if kind in (int, float, bool, str, dict, list) and not _json_type_ok(value, kind):
            raise ConfigError(f"{label} key {key} must be {kind.__name__}, got {_shown(value)}")
    return doc


def _from_dict(cls, doc, label):
    """Strict dataclass construction from a JSON object: _checked against the field types."""
    return cls(**_checked(doc, {f.name: f.type for f in dataclasses.fields(cls)}, label))


def _read_header(f):
    """Check a GFT header against the size of open file `f` and leave `f`
    at the payload; returns the payload's (dtype, shape)."""
    size = os.fstat(f.fileno()).st_size
    if size < 8:
        raise FormatError("header", f"file too short ({size} bytes)")
    head = f.read(8)
    if head[:4] != _MAGIC:
        raise FormatError("magic", f"expected {_MAGIC!r}, got {head[:4]!r}")
    code, rank, reserved = struct.unpack("<BBH", head[4:8])
    if code not in _DTYPE_CODES:
        raise FormatError("dtype", f"unknown dtype code {code}")
    if not 1 <= rank <= 8:
        raise FormatError("rank", f"rank must be 1..8, got {rank}")
    if reserved != 0:
        raise FormatError("reserved", f"reserved bytes must be zero, got {reserved}")

    dims_end = 8 + 8 * rank
    if size < dims_end:
        raise FormatError("dims", "header truncated before the dims block")
    dims = [int(d) for d in np.frombuffer(f.read(8 * rank), dtype="<u8")]
    if 0 in dims:
        raise FormatError("dims", f"zero-sized axis in dims {dims}")
    count = math.prod(dims)
    if count > _MAX_ELEMENTS:
        raise FormatError("dims", f"dims {dims} overflow the element budget")

    dtype = _DTYPE_CODES[code]
    expected = count * dtype.itemsize
    actual = size - dims_end
    if actual != expected:
        raise FormatError("payload length", f"expected {expected} bytes, got {actual}")
    return dtype, tuple(dims)


def tensor_shape(path):
    """The shape of a GFT file, after every check load_tensor makes on its
    header and payload length; the payload itself is not read."""
    with open(path, "rb") as f:
        return _read_header(f)[1]


def load_tensor(path):
    """Read a GFT file back into a numpy array (native byte order)."""
    with open(path, "rb") as f:
        dtype, shape = _read_header(f)
        arr = np.empty(shape, dtype=dtype)
        got = f.readinto(arr)
    if got != arr.nbytes:  # the file shrank after its size was read
        raise FormatError("payload length", f"expected {arr.nbytes} bytes, got {got}")
    arr = arr.astype(arr.dtype.newbyteorder("="), copy=False)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise FormatError("payload", "payload contains non-finite values")
    return arr
