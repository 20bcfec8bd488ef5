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
"""

import os
from dataclasses import dataclass

import numpy as np

from .camera import Intrinsics, PoseSE3
from .errors import InputError
from .grid import _dump_json, _load_json, load_tensor, save_tensor

_REQUIRED_DIRS = ("frames", "depth", "flow_fwd", "flow_bwd")
_OPTIONAL_DIRS = ("confidence", "features", "dynamic")


@dataclass
class VideoBundle:
    """In-memory form of one adapter directory."""

    images: list
    depths: list
    flows_fwd: list
    flows_bwd: list
    intrinsics: list
    poses: list
    flow_stride: int = 1
    confidences: list = None
    features: list = None
    dynamic_masks: list = None

    def __len__(self):
        return len(self.images)


def _tensor_name(index):
    return f"{index:03d}.gft"


def _save_dir(root, name, tensors, dtype):
    d = os.path.join(root, name)
    os.makedirs(d, exist_ok=True)
    for i, t in enumerate(tensors):
        save_tensor(np.asarray(t).astype(dtype), os.path.join(d, _tensor_name(i)))


def write_bundle(out_dir, bundle: VideoBundle):
    """Serialize a bundle. Frames go out as f32; depth, flow and
    confidence keep f64 so oracle dumps stay exact; masks are u8."""
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


def _load_dir(root, name, expected, shape):
    """Load the `expected` tensors of one directory, or None if it is absent.

    Every tensor must have `shape`; a None axis takes the first tensor's
    size, so all tensors of one directory share one shape.
    """
    d = os.path.join(root, name)
    if not os.path.isdir(d):
        return None
    names = sorted(n for n in os.listdir(d) if n.endswith(".gft"))
    if len(names) != expected:
        raise InputError(f'"{name}/" holds {len(names)} tensors, expected {expected}')
    want = [_tensor_name(i) for i in range(expected)]
    bad = sorted(set(names) - set(want))
    if bad:
        raise InputError(f'"{name}/" under {root} holds {bad[0]}; tensors must be named {want[0]} to {want[-1]}')
    tensors = [load_tensor(os.path.join(d, n)) for n in names]
    first = tensors[0].shape
    if len(first) == len(shape):
        shape = tuple(f if s is None else s for s, f in zip(shape, first))
    for n, t in zip(names, tensors):
        if t.shape != shape:
            text = "x".join("?" if s is None else str(s) for s in shape)
            raise InputError(f'"{name}/{n}" under {root} has shape {t.shape}, expected {text}')
    return tensors


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read_bundle(in_dir) -> VideoBundle:
    """Load and validate one adapter directory."""
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
    if isinstance(stride, bool) or not isinstance(stride, int):
        raise InputError(f"cameras.json flow_stride must be an integer, got {stride!r}")
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
        if not isinstance(vec, list) or len(vec) != 4 or not all(_is_number(v) for v in vec):
            raise InputError(f"camera {i} intrinsics must be [fx, fy, cx, cy]")
        try:
            m = np.asarray(mat, dtype=np.float64)
        except (TypeError, ValueError):
            raise InputError(f"camera {i} extrinsics must be a 3x4 matrix of numbers")
        if m.shape != (3, 4):
            raise InputError(f"camera {i} extrinsics must be 3x4, got {m.shape}")
        intrinsics.append(Intrinsics(*[float(v) for v in vec]))
        poses.append(PoseSE3(m[:, :3], m[:, 3]))

    n = len(entries)
    if n < stride + 1:
        raise InputError(f"{n} frames cannot support flow_stride {stride}")
    images = _load_dir(in_dir, "frames", n, (None, None, 3))
    h, w, _ = images[0].shape
    depths = _load_dir(in_dir, "depth", n, (h, w))
    flows_fwd = _load_dir(in_dir, "flow_fwd", n - stride, (h, w, 2))
    flows_bwd = _load_dir(in_dir, "flow_bwd", n - stride, (h, w, 2))
    confidences = _load_dir(in_dir, "confidence", n, (h, w))
    features = _load_dir(in_dir, "features", n, (None, None, None))
    dynamic = _load_dir(in_dir, "dynamic", n, (h, w))

    images = [
        img.astype(np.float64) / 255.0 if img.dtype == np.uint8 else np.asarray(img, dtype=np.float64)
        for img in images
    ]
    if dynamic is not None:
        dynamic = [d.astype(bool) for d in dynamic]
    return VideoBundle(
        images=images,
        depths=[np.asarray(d, dtype=np.float64) for d in depths],
        flows_fwd=[np.asarray(f, dtype=np.float64) for f in flows_fwd],
        flows_bwd=[np.asarray(f, dtype=np.float64) for f in flows_bwd],
        intrinsics=intrinsics,
        poses=poses,
        flow_stride=stride,
        confidences=confidences,
        features=features,
        dynamic_masks=dynamic,
    )
