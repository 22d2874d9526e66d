"""Volume container, raw+JSON file format, intensity normalization, and
grid resampling.

Images resample with separable Catmull-Rom cubic interpolation (nearest
neighbor on the low-resolution axis of strongly anisotropic volumes); label
maps go through one-hot channels with linear interpolation and an argmax
whose ties break toward the lowest class id. Intensities are clipped to the
foreground 0.5/99.5 percentiles and z-scored with foreground statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyForeground, FormatError, InvalidSpacing

MAGIC = b"GASAVOL1"

KIND_IMAGE = "image"
KIND_LABELS = "labels"

_DTYPES = {"f32": np.float32, "f64": np.float64, "u16": np.uint16}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64", np.dtype(np.uint16): "u16"}

ANISO_THRESHOLD = 3.0


@dataclass
class Volume:
    """Spatial array with physical geometry.

    Image data is [C, W, H, D] float; label data is [W, H, D] integer.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    kind: str
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self.spacing = checked_spacing(self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if self.kind not in (KIND_IMAGE, KIND_LABELS):
            raise FormatError(f"kind must be image|labels, got {self.kind!r}")
        if self.kind == KIND_IMAGE and self.data.ndim != 4:
            raise FormatError(f"image volumes are [C,W,H,D], got shape {self.data.shape}")
        if self.kind == KIND_LABELS:
            if self.data.ndim != 3:
                raise FormatError(f"label volumes are [W,H,D], got shape {self.data.shape}")
            if np.issubdtype(self.data.dtype, np.floating):
                raise FormatError("label volumes must be integer-typed")

    @property
    def spatial_shape(self) -> tuple[int, int, int]:
        return tuple(self.data.shape[-3:])


# ---------------------------------------------------------------------------
# file format: <name>.gvol = magic + raw payload, <name>.gvol.json = header
# ---------------------------------------------------------------------------


def write_volume(vol: Volume, path: str | Path) -> None:
    path = Path(path)
    data = vol.data
    if vol.kind == KIND_LABELS:
        if data.min() < 0 or data.max() > np.iinfo(np.uint16).max:
            raise FormatError("label ids must fit in u16")
        data = data.astype(np.uint16)
    else:
        data = data.astype(np.float64)
    header = {
        "dtype": _DTYPE_NAMES[data.dtype],
        "shape": list(data.shape),
        "spacing": list(vol.spacing),
        "origin": list(vol.origin),
        "kind": vol.kind,
    }
    path.write_bytes(MAGIC + np.ascontiguousarray(data).tobytes())
    Path(str(path) + ".json").write_text(json.dumps(header, sort_keys=True) + "\n")


def checked_spacing(spacing, what: str = "spacing") -> tuple[float, float, float]:
    """`spacing` as 3 floats; InvalidSpacing naming `what` unless it holds 3
    finite positive numbers."""
    values = tuple(float(s) for s in spacing)
    if len(values) != 3 or not all(math.isfinite(s) and s > 0 for s in values):
        raise InvalidSpacing(f"{what} must be 3 finite positive numbers, got {spacing}")
    return values


def _three_finite(v) -> bool:
    return type(v) is list and len(v) == 3 and all(type(x) in (int, float) and math.isfinite(x) for x in v)


_HEADER_FIELDS = {
    # field: (test of the JSON value, what the test asks for)
    "dtype": (lambda v: type(v) is str and v in _DTYPES, f"one of {sorted(_DTYPES)}"),
    "shape": (lambda v: type(v) is list and all(type(s) is int and s >= 0 for s in v), "a list of non-negative integers"),
    "spacing": (lambda v: _three_finite(v) and min(v) > 0, "3 positive numbers"),
    "origin": (_three_finite, "3 finite numbers"),
    "kind": (lambda v: v in (KIND_IMAGE, KIND_LABELS), f"{KIND_IMAGE!r} or {KIND_LABELS!r}"),
}


def _read_header(path: Path) -> dict:
    """The .gvol.json header with every field checked; a field that is
    missing (only origin may be) or mistyped raises FormatError naming the
    file and the field."""
    try:
        header = json.loads(Path(str(path) + ".json").read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: bad header ({exc})") from exc
    if type(header) is not dict:
        raise FormatError(f"{path}: header must be a JSON object, got {type(header).__name__}")
    header.setdefault("origin", [0.0, 0.0, 0.0])
    for key, (ok, want) in _HEADER_FIELDS.items():
        if key not in header:
            raise FormatError(f"{path}: header field {key!r} is missing")
        if not ok(header[key]):
            raise FormatError(f"{path}: header field {key!r} must be {want}, got {header[key]!r}")
    return header


def read_volume(path: str | Path) -> Volume:
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic")
    header = _read_header(path)
    dtype, shape = _DTYPES[header["dtype"]], tuple(header["shape"])
    payload = raw[len(MAGIC) :]
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    try:
        return Volume(data=data, spacing=header["spacing"], kind=header["kind"], origin=header["origin"])
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# intensity normalization
# ---------------------------------------------------------------------------


@dataclass
class NormStats:
    p_lo: float
    p_hi: float
    mean: float
    std: float

    def to_dict(self) -> dict:
        return {"p_lo": self.p_lo, "p_hi": self.p_hi, "mean": self.mean, "std": self.std}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(d["p_lo"], d["p_hi"], d["mean"], d["std"])


def _foreground_values(img: Volume, fg_mask) -> np.ndarray:
    if isinstance(fg_mask, Volume):
        mask = fg_mask.data > 0
    elif fg_mask is None:
        raise EmptyForeground("no foreground mask supplied")
    else:
        mask = np.asarray(fg_mask) > 0
    if mask.shape != img.spatial_shape:
        raise EmptyForeground(f"mask shape {mask.shape} vs image {img.spatial_shape}")
    return img.data[:, mask].reshape(-1)


def compute_norm_stats(cases: Sequence[tuple[Volume, Volume | np.ndarray]]) -> NormStats:
    """Pooled foreground statistics over all training cases."""
    vals = np.concatenate([_foreground_values(img, mask) for img, mask in cases])
    if vals.size < 2:
        raise EmptyForeground(f"got {vals.size} foreground voxels, need at least 2")
    p_lo, p_hi = np.percentile(vals, [0.5, 99.5])
    std = float(vals.std())
    return NormStats(float(p_lo), float(p_hi), float(vals.mean()), std if std > 0 else 1.0)


def clip_normalize(img: Volume, fg_mask=None, stats: NormStats | None = None) -> Volume:
    """Clip to the foreground percentile window, then z-score with fg stats."""
    if img.kind != KIND_IMAGE:
        raise FormatError("clip_normalize expects an image volume")
    if stats is None:
        stats = compute_norm_stats([(img, fg_mask)])
    out = np.clip(img.data, stats.p_lo, stats.p_hi)
    out = (out - stats.mean) / stats.std
    return Volume(out, spacing=img.spacing, kind=KIND_IMAGE, origin=img.origin)


# ---------------------------------------------------------------------------
# target spacing
# ---------------------------------------------------------------------------


def target_spacing(spacings: Sequence[Sequence[float]]) -> tuple[float, float, float]:
    """Per-axis median; on strong anisotropy the coarsest axis drops to the
    10th percentile of that axis's spacings."""
    arr = np.array([checked_spacing(s) for s in spacings]).reshape(-1, 3)
    if not arr.size:
        raise InvalidSpacing("need a nonempty list of spacing triples")
    med = np.median(arr, axis=0)
    if med.max() / med.min() > ANISO_THRESHOLD:
        axis = int(np.argmax(med))
        med[axis] = np.percentile(arr[:, axis], 10)
    return tuple(float(v) for v in med)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def _cubic_weights(f: np.ndarray) -> np.ndarray:
    """Catmull-Rom tap weights for fractional offsets f in [0,1); shape [4, n]."""
    f2 = f * f
    f3 = f2 * f
    w = np.empty((4, f.size))
    w[0] = -0.5 * f3 + f2 - 0.5 * f
    w[1] = 1.5 * f3 - 2.5 * f2 + 1.0
    w[2] = -1.5 * f3 + 2.0 * f2 + 0.5 * f
    w[3] = 0.5 * f3 - 0.5 * f2
    return w


def _resample_axis(arr: np.ndarray, axis: int, n_out: int, scale: float, order: str) -> np.ndarray:
    """Resample one axis; order is 'cubic', 'linear', or 'nearest'.

    Sample j reads input coordinate j*scale; taps outside the grid clamp to
    the border. The anchored form out = x[base] + sum w*(x[tap]-x[base])
    keeps constant inputs bitwise constant.
    """
    n_in = arr.shape[axis]
    if n_out == n_in and scale == 1.0:
        return arr
    moved = np.moveaxis(arr, axis, 0)
    t = np.arange(n_out, dtype=np.float64) * scale
    if order == "nearest":
        idx = np.clip(np.floor(t + 0.5).astype(np.int64), 0, n_in - 1)
        out = moved[idx]
        return np.moveaxis(out, 0, axis)
    base = np.floor(t).astype(np.int64)
    f = t - base
    if order == "linear":
        taps = np.stack([base, base + 1])
        weights = np.stack([1.0 - f, f])
        anchor = 0
    elif order == "cubic":
        taps = np.stack([base - 1, base, base + 1, base + 2])
        weights = _cubic_weights(f)
        anchor = 1
    else:
        raise ValueError(f"unknown interpolation order {order!r}")
    taps = np.clip(taps, 0, n_in - 1)
    extra = (1,) * (moved.ndim - 1)
    anchor_vals = moved[taps[anchor]]
    out = anchor_vals.copy()
    for k in range(taps.shape[0]):
        if k == anchor:
            continue
        out += weights[k].reshape(-1, *extra) * (moved[taps[k]] - anchor_vals)
    return np.moveaxis(out, 0, axis)


def _out_extent(n_in: int, sp_in: float, sp_out: float) -> int:
    return max(1, int(np.floor(n_in * sp_in / sp_out + 0.5)))


def _lowres_axis(shape3: Sequence[int], spacing: Sequence[float]) -> int | None:
    """Axis resampled with nearest neighbor, or None when near-isotropic."""
    sp = np.asarray(spacing, dtype=np.float64)
    sh = np.asarray(shape3, dtype=np.float64)
    if sp.max() / sp.min() > ANISO_THRESHOLD and sh.max() / sh.min() > ANISO_THRESHOLD:
        return int(np.argmax(sp))
    return None


def _plan(vol: Volume, new_spacing, out_shape):
    new_spacing = checked_spacing(new_spacing, "target spacing")
    shape3 = vol.spatial_shape
    if out_shape is None:
        out_shape = tuple(
            _out_extent(n, si, so) for n, si, so in zip(shape3, vol.spacing, new_spacing)
        )
    scales = tuple(so / si for si, so in zip(vol.spacing, new_spacing))
    return new_spacing, tuple(out_shape), scales


def resample_image(vol: Volume, new_spacing, out_shape=None) -> Volume:
    """Separable cubic resampling; nearest on the flagged low-res axis."""
    if vol.kind != KIND_IMAGE:
        raise FormatError("resample_image expects an image volume")
    new_spacing, out_shape, scales = _plan(vol, new_spacing, out_shape)
    nn_axis = _lowres_axis(vol.spatial_shape, vol.spacing)
    data = vol.data
    for ax in range(3):
        order = "nearest" if ax == nn_axis else "cubic"
        data = _resample_axis(data, ax + 1, out_shape[ax], scales[ax], order)
    return Volume(data, spacing=new_spacing, kind=KIND_IMAGE, origin=vol.origin)


def resample_labels(vol: Volume, new_spacing, num_classes: int, out_shape=None) -> Volume:
    """One-hot channels, per-axis linear (nearest on the flagged axis), argmax.

    np.argmax takes the first maximum, so exact ties go to the lowest id.
    """
    if vol.kind != KIND_LABELS:
        raise FormatError("resample_labels expects a label volume")
    new_spacing, out_shape, scales = _plan(vol, new_spacing, out_shape)
    if out_shape == vol.spatial_shape and scales == (1.0, 1.0, 1.0):
        return Volume(vol.data.copy(), spacing=new_spacing, kind=KIND_LABELS, origin=vol.origin)
    nn_axis = _lowres_axis(vol.spatial_shape, vol.spacing)
    onehot = np.stack([(vol.data == c).astype(np.float64) for c in range(num_classes)])
    for ax in range(3):
        order = "nearest" if ax == nn_axis else "linear"
        onehot = _resample_axis(onehot, ax + 1, out_shape[ax], scales[ax], order)
    labels = np.argmax(onehot, axis=0).astype(vol.data.dtype)
    return Volume(labels, spacing=new_spacing, kind=KIND_LABELS, origin=vol.origin)
