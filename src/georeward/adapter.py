"""Directory adapter for predictor dumps and synthetic oracles.

Layout under one video directory:

    frames/000.gft ...      HxWx3, u8 or float in [0,1]
    depth/000.gft ...       HxW, meters, +z forward
    flow_fwd/000.gft ...    HxWx2 pixels; file i maps frame i -> i+stride
    flow_bwd/000.gft ...    HxWx2 pixels; file i maps frame i+stride -> i
    confidence/000.gft ...  HxW in [0,1]            (optional)
    features/000.gft ...    hxwxC feature grids      (optional)
    dynamic/000.gft ...     HxW u8, 1 = moving pixel (optional)
    cameras.json            {"flow_stride": s, "cameras": [...]}

Each cameras.json entry holds "intrinsics" [fx, fy, cx, cy] and
"extrinsics" as a 3x4 row-major [R|t] world-to-camera matrix. File names
are zero-padded frame (or pair) indices; a real predictor and the
synthetic renderer write the exact same shape of directory.

read_bundle checks the whole layout and every tensor header at once, but
loads a payload only when the bundle's sequences are indexed, so a scorer
holds the tensors of the pairs in flight, not of the whole clip. Its
sequences are Lazy, as are the fields render_video derives from its
frames' traces, the images among them: each entry is computed when
indexed and nothing is cached.
"""

import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import runtime
from .camera import Intrinsics, PoseSE3
from .errors import ConfigError, FormatError, InputError
from .grid import _dump_json, _json_type_ok, _load_json, _numbers, _shown, load_tensor, save_tensor, tensor_shape

_REQUIRED_DIRS = ("frames", "depth", "flow_fwd", "flow_bwd")
_LAYOUT_DIRS = _REQUIRED_DIRS + ("confidence", "features", "dynamic")


@dataclass
class FramePair:
    """One frame pair: everything the pair scorer reads.

    flow_fwd maps frame a to frame b and flow_bwd maps b back to a.
    frame_a and frame_b are the frames' indices in their video. Each
    optional per-frame map is None when absent: confidences feed the
    gating mode, feature grids replace the built-in extractor, and dynamic
    masks flag independently moving pixels.
    """

    image_a: np.ndarray
    image_b: np.ndarray
    depth_a: np.ndarray
    depth_b: np.ndarray
    flow_fwd: np.ndarray
    flow_bwd: np.ndarray
    intrinsics_a: Intrinsics
    intrinsics_b: Intrinsics
    pose_a: PoseSE3
    pose_b: PoseSE3
    frame_a: int = 0
    frame_b: int = 1
    confidence_a: np.ndarray = None
    confidence_b: np.ndarray = None
    features_a: np.ndarray = None
    features_b: np.ndarray = None
    dynamic_a: np.ndarray = None
    dynamic_b: np.ndarray = None


class Lazy(Sequence):
    """Tensors of one shape whose entry i is fn(i), computed each time it
    is indexed; nothing is cached, so a caller holds only the entries it
    keeps. A slice is a Lazy over the same fn. Iterating indexes the
    entries one at a time, on the caller's thread."""

    def __init__(self, fn, indices, shape):
        self._fn, self._indices, self.shape = fn, indices, tuple(shape)

    def __len__(self):
        return len(self._indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Lazy(self._fn, self._indices[index], self.shape)
        return self._fn(self._indices[operator.index(index)])  # IndexError past the end


@dataclass(frozen=True)
class VideoBundle:
    """One video: frames, depths, flows and cameras, plus optional per-frame
    maps; its fields cannot be reassigned. render_video builds one whose
    masks are a list and whose images, flows, depths and confidences are
    Lazy. read_bundle returns one whose tensor sequences are Lazy, loading
    each payload when indexed: headers are checked on read, and each
    payload when it is loaded. n frames at flow_stride s (an
    integer, 1 <= s < n) hold n depths, intrinsics, poses and optional maps
    each, and n - s flows: flows_fwd[i] maps frame i to frame i + s and
    flows_bwd[i] back. Building one checks these counts with len() alone
    and raises InputError naming the field that breaks them."""

    images: Sequence
    depths: Sequence
    flows_fwd: Sequence
    flows_bwd: Sequence
    intrinsics: list
    poses: list
    flow_stride: int = 1
    confidences: Sequence = None
    features: Sequence = None
    dynamic_masks: Sequence = None

    def __post_init__(self):
        n, s = len(self.images), self.flow_stride
        if not (isinstance(s, (int, np.integer)) and not isinstance(s, bool) and 1 <= s < n):
            raise InputError(f"flow_stride must be an integer, 1 <= flow_stride < len(images) = {n}, got {_shown(s)}")
        maps = ("confidences", "features", "dynamic_masks")
        for name in ("depths", "intrinsics", "poses", "flows_fwd", "flows_bwd") + maps:
            entries, want = getattr(self, name), n - s if name.startswith("flows_") else n
            if not (entries is None and name in maps) and len(entries) != want:
                raise InputError(f"len({name}) is {len(entries)}; {n} frames at flow_stride {s} need {want}")

    def __len__(self):
        return len(self.images)

    def _frame(self, i):
        """Frame i's image, depth and optional maps, keyed by FramePair's
        field stems; from read_bundle, each one is loaded here."""
        fields = {"image": self.images[i], "depth": self.depths[i]}
        for stem, maps in (("confidence", self.confidences), ("features", self.features),
                           ("dynamic", self.dynamic_masks)):
            if maps is not None:
                fields[stem] = maps[i]
        return fields

    def pair(self, tau) -> FramePair:
        """The pair of frames (tau, tau + flow_stride), with flow file tau
        and both frames' optional maps."""
        is_int = isinstance(tau, (int, np.integer)) and not isinstance(tau, bool)
        if not (is_int and 0 <= tau < len(self) - self.flow_stride):
            raise InputError(f"pair index tau must be an integer with 0 <= tau < len(video) - flow_stride = "
                             f"{len(self) - self.flow_stride}, got {tau}")
        a, b = tau, tau + self.flow_stride
        sides = {f"{stem}_{side}": value
                 for side, i in (("a", a), ("b", b)) for stem, value in self._frame(i).items()}
        return FramePair(
            flow_fwd=self.flows_fwd[tau],
            flow_bwd=self.flows_bwd[tau],
            intrinsics_a=self.intrinsics[a],
            intrinsics_b=self.intrinsics[b],
            pose_a=self.poses[a],
            pose_b=self.poses[b],
            frame_a=a,
            frame_b=b,
            **sides,
        )


def _tensor_name(index):
    return f"{index:03d}.gft"


def _pixels(tensors):
    """The pixels of one tensor of a non-empty sequence; a Lazy knows its
    shape without computing an entry."""
    shape = tensors.shape if isinstance(tensors, Lazy) else np.shape(tensors[0])
    return shape[0] * shape[1]


def _save_dir(root, name, tensors, dtype):
    """Save each tensor in a task of runtime.ordered_map that indexes it,
    so an entry of a Lazy is computed, saved and dropped in one task."""
    d = os.path.join(root, name)
    os.makedirs(d, exist_ok=True)

    def save(i):
        save_tensor(np.asarray(tensors[i]).astype(dtype, copy=False), os.path.join(d, _tensor_name(i)))

    runtime.ordered_map(save, runtime.Tasks(range(len(tensors)), _pixels(tensors)))


def write_bundle(out_dir, bundle: VideoBundle):
    """Serialize a bundle. Frames go out as f32; depth, flow and
    confidence keep f64 so oracle dumps stay exact; masks are u8. Raises
    InputError, before writing anything, when out_dir already holds a
    layout directory: a shorter clip would leave the old tensors behind."""
    for name in _LAYOUT_DIRS:
        if os.path.exists(os.path.join(out_dir, name)):
            raise InputError(f'"{name}/" already exists under {out_dir}; write the bundle to a fresh directory')
    os.makedirs(out_dir, exist_ok=True)
    _save_dir(out_dir, "frames", bundle.images, np.float32)
    _save_dir(out_dir, "depth", bundle.depths, np.float64)
    _save_dir(out_dir, "flow_fwd", bundle.flows_fwd, np.float64)
    _save_dir(out_dir, "flow_bwd", bundle.flows_bwd, np.float64)
    if bundle.confidences is not None:
        _save_dir(out_dir, "confidence", bundle.confidences, np.float64)
    if bundle.features is not None:
        _save_dir(out_dir, "features", bundle.features, np.float64)
    if bundle.dynamic_masks is not None:
        _save_dir(out_dir, "dynamic", bundle.dynamic_masks, np.uint8)

    cameras = []
    for k, pose in zip(bundle.intrinsics, bundle.poses):
        cameras.append(
            {
                "intrinsics": [k.fx, k.fy, k.cx, k.cy],
                "extrinsics": pose.matrix34().tolist(),
            }
        )
    doc = {"flow_stride": int(bundle.flow_stride), "cameras": cameras}
    _dump_json(doc, os.path.join(out_dir, "cameras.json"))


def _read(reader, root, name, file_name):
    try:
        return reader(os.path.join(root, name, file_name))
    except FormatError as exc:
        exc.args = (f'"{name}/{file_name}" under {root}: {exc}',)  # name the file, keep the field
        raise


def _load_dir(root, name, expected, shape, convert):
    """Check the `expected` tensors of one directory: names, count, and each
    header, payload length and shape, without reading a payload. Returns
    (a Lazy of them, None if the directory is absent; the shape they
    share). Indexing it loads one payload through load_tensor, which checks
    its length and finiteness, and converts it with `convert`.

    Every tensor must have `shape`; a None axis takes the first tensor's
    size, so all tensors of one directory share one shape.
    """
    d = os.path.join(root, name)
    if not os.path.isdir(d):
        return None, shape
    names = sorted(n for n in os.listdir(d) if n.endswith(".gft"))
    if len(names) != expected:
        raise InputError(f'"{name}/" holds {len(names)} tensors, expected {expected}')
    want = [_tensor_name(i) for i in range(expected)]
    bad = sorted(set(names) - set(want))
    if bad:
        raise InputError(f'"{name}/" under {root} holds {bad[0]}; tensors must be named {want[0]} to {want[-1]}')
    shapes = [_read(tensor_shape, root, name, n) for n in names]
    first = shapes[0]
    if len(first) == len(shape):
        shape = tuple(f if s is None else s for s, f in zip(shape, first))
    for n, s in zip(names, shapes):
        if s != shape:
            text = "x".join("?" if a is None else str(a) for a in shape)
            raise InputError(f'"{name}/{n}" under {root} has shape {s}, expected {text}')
    return Lazy(lambda i: convert(_read(load_tensor, root, name, _tensor_name(i))), range(expected), shape), shape


def _read_cameras(in_dir):
    """Check the directory layout and cameras.json; returns (intrinsics,
    poses, flow_stride)."""
    if not os.path.isdir(in_dir):
        raise InputError(f"not a directory: {in_dir}")
    for name in _REQUIRED_DIRS:
        if not os.path.isdir(os.path.join(in_dir, name)):
            raise InputError(f'missing "{name}/" under {in_dir}')
    cam_path = os.path.join(in_dir, "cameras.json")
    if not os.path.isfile(cam_path):
        raise InputError(f'missing "cameras.json" under {in_dir}')
    cam_doc = _load_json(cam_path)
    if not isinstance(cam_doc, dict):
        raise InputError(f"cameras.json must hold a JSON object, got {type(cam_doc).__name__}")
    stride = cam_doc.get("flow_stride", 1)
    if not _json_type_ok(stride, int):
        raise InputError(f"cameras.json flow_stride must be an integer, got {_shown(stride)}")
    if stride < 1:
        raise InputError(f"flow_stride must be >= 1, got {stride}")
    entries = cam_doc.get("cameras")
    if not isinstance(entries, list) or not entries:
        raise InputError('cameras.json needs a non-empty "cameras" list')

    intrinsics, poses = [], []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise InputError(f"camera {i} must be a JSON object, got {type(e).__name__}")
        vec = e.get("intrinsics")
        mat = e.get("extrinsics")
        if vec is None or mat is None:
            raise InputError(f'camera {i} needs "intrinsics" and "extrinsics"')
        try:
            _numbers(vec, (4,), "intrinsics")
        except ConfigError:
            raise InputError(f"camera {i} intrinsics must be [fx, fy, cx, cy]")
        try:
            _numbers(mat, (3, 4), "extrinsics")
        except ConfigError:
            raise InputError(f"camera {i} extrinsics must be a 3x4 matrix of numbers")
        m = np.asarray(mat, dtype=np.float64)
        intrinsics.append(Intrinsics(*[float(v) for v in vec]))
        poses.append(PoseSE3(m[:, :3], m[:, 3]))

    n = len(entries)
    if n < stride + 1:
        raise InputError(f"{n} frames cannot support flow_stride {stride}")
    return intrinsics, poses, stride


def _as_f64(a):
    return np.asarray(a, dtype=np.float64)


def read_bundle(in_dir) -> VideoBundle:
    """Validate one adapter directory and return it as a VideoBundle.

    cameras.json and every tensor's name, count, header, payload length and
    shape are checked here, and each payload when an entry of the bundle's
    sequences is indexed: loaded, checked for finiteness and converted.
    Frames come back as float64 in [0, 1] (u8 frames are divided by 255),
    depths and flows as float64 and dynamic masks as bool; confidences and
    feature grids keep their stored dtype.
    """
    intrinsics, poses, stride = _read_cameras(in_dir)
    n = len(poses)
    images, (h, w, _) = _load_dir(in_dir, "frames", n, (None, None, 3),
                                  lambda a: a.astype(np.float64) / 255.0 if a.dtype == np.uint8 else _as_f64(a))
    fields = {
        field: _load_dir(in_dir, name, count, shape, convert)[0]
        for field, name, count, shape, convert in (
            ("depths", "depth", n, (h, w), _as_f64),
            ("flows_fwd", "flow_fwd", n - stride, (h, w, 2), _as_f64),
            ("flows_bwd", "flow_bwd", n - stride, (h, w, 2), _as_f64),
            ("confidences", "confidence", n, (h, w), np.asarray),
            ("features", "features", n, (None, None, None), np.asarray),
            ("dynamic_masks", "dynamic", n, (h, w), lambda m: m.astype(bool)),
        )
    }
    return VideoBundle(images=images, intrinsics=intrinsics, poses=poses, flow_stride=stride, **fields)
