"""Sliding-window prediction with Gaussian importance weighting + mirror TTA.

Volumes are tiled with windows of the training patch size at a configurable
overlap; each window's class softmax is blended with a separable Gaussian
weight map (peak 1 at the window center). Test-time augmentation averages
the eight axis-mirrored predictions after undoing each flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatch
from .tensor import keep_heap_resident, softmax_array

ModelFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class SlidingWindowConfig:
    patch_size: tuple[int, int, int]
    overlap: float = 0.5
    sigma_scale: float = 0.125
    tta_mirror: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {self.overlap}")
        if self.sigma_scale <= 0:
            raise ValueError("sigma_scale must be positive")


def gaussian_importance(patch_size: Sequence[int], sigma_scale: float = 0.125) -> np.ndarray:
    """Separable Gaussian centered on the patch, sigma = sigma_scale * extent
    per axis, peak value 1 at the (possibly fractional) center."""
    axes = []
    for n in patch_size:
        center = (n - 1) / 2.0
        sigma = sigma_scale * n
        i = np.arange(n, dtype=np.float64)
        axes.append(np.exp(-((i - center) ** 2) / (2.0 * sigma * sigma)))
    return axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]


def _tile_starts(extent: int, patch: int, overlap: float) -> list[int]:
    stride = max(1, int(round(patch * (1.0 - overlap))))
    last = extent - patch
    starts = list(range(0, last + 1, stride))
    if starts[-1] != last:
        starts.append(last)
    return starts


def sliding_window_predict(
    model: ModelFn,
    volume: np.ndarray,
    swc: SlidingWindowConfig,
) -> np.ndarray:
    """Blend window softmaxes into a per-voxel probability map.

    `model` maps a [C, pw, ph, pd] window to [K, pw, ph, pd] logits. Volumes
    smaller than the patch are zero-padded and the output cropped back; final
    tiles clamp to the boundary so every voxel is covered. The result does
    not depend on the order the tiles are visited in, beyond float rounding.
    """
    swc.validate()
    if volume.ndim != 4:
        raise ShapeMismatch(f"expected [C, W, H, D] volume, got shape {volume.shape}")
    patch = tuple(swc.patch_size)
    orig_spatial = volume.shape[1:]
    pads = [(0, max(0, p - n)) for p, n in zip(patch, orig_spatial)]
    if any(p != (0, 0) for p in pads):
        volume = np.pad(volume, [(0, 0)] + pads)
    spatial = volume.shape[1:]

    weight = gaussian_importance(patch, swc.sigma_scale)
    starts = [_tile_starts(n, p, swc.overlap) for n, p in zip(spatial, patch)]
    acc: np.ndarray | None = None
    wacc = np.zeros(spatial)
    for i, j, k in product(*starts):
        sl = (slice(None), slice(i, i + patch[0]), slice(j, j + patch[1]), slice(k, k + patch[2]))
        logits = model(volume[sl])
        if logits.ndim != 4 or logits.shape[1:] != patch:
            raise ShapeMismatch(f"model returned {logits.shape} for patch {patch}")
        probs = softmax_array(logits, axis=0)
        if acc is None:
            acc = np.zeros((logits.shape[0],) + spatial)
        acc[sl] += probs * weight
        wacc[sl[1:]] += weight
    out = acc / wacc
    crop = (slice(None),) + tuple(slice(0, n) for n in orig_spatial)
    return out[crop]


_FLIP_AXES = [tuple(ax + 1 for ax in range(3) if bits & (1 << ax)) for bits in range(8)]


def tta_mirror_predict(model: ModelFn, volume: np.ndarray, swc: SlidingWindowConfig) -> np.ndarray:
    """Average sliding-window predictions over all eight mirror combinations.

    Tree-reduced so eight bitwise-equal terms (an exactly flip-equivariant
    model) average back to themselves exactly.
    """
    preds = []
    for axes in _FLIP_AXES:
        flipped = np.flip(volume, axis=axes) if axes else volume
        probs = sliding_window_predict(model, flipped, swc)
        if axes:
            probs = np.flip(probs, axis=axes)
        preds.append(np.ascontiguousarray(probs))
    while len(preds) > 1:
        preds = [preds[i] + preds[i + 1] for i in range(0, len(preds), 2)]
    return preds[0] / len(_FLIP_AXES)


def predict_probs(model: ModelFn | Sequence[ModelFn], volume: np.ndarray, swc: SlidingWindowConfig) -> np.ndarray:
    """Probability map from one model, or the mean over an ensemble of them."""
    models = model if isinstance(model, (list, tuple)) else [model]
    predict = tta_mirror_predict if swc.tta_mirror else sliding_window_predict
    total: np.ndarray | None = None
    for fn in models:
        probs = predict(fn, volume, swc)
        total = probs if total is None else total + probs
    return total / len(models)


def predict_labels(model: ModelFn | Sequence[ModelFn], volume: np.ndarray, swc: SlidingWindowConfig) -> np.ndarray:
    """Argmax labels from the (optionally TTA-averaged, ensembled) probabilities."""
    return np.argmax(predict_probs(model, volume, swc), axis=0)


def evaluate_split(
    model: ModelFn | Sequence[ModelFn], data, swc: SlidingWindowConfig, tau: float, hec=None
) -> dict:
    """Predict every held-out case, map back to its native grid, and score.

    `data` is a PreparedData bundle; `model` may be a list, in which case the
    per-model softmax outputs are averaged (checkpoint ensembling).
    Predictions are resampled from the processing grid to each case's
    original spacing and shape before Dice and NSD are computed against the
    untouched labels.
    Every tile rebuilds buffers of the same shapes, so the first call sets
    the process's allocator to keep freed memory (tensor.keep_heap_resident):
    from then on the process's resident memory stays at its peak.
    """
    from .metrics import MetricReport, evaluate_case
    from .volume import Volume, resample_labels

    if not data.test:
        raise ValueError("no held-out cases to evaluate")
    keep_heap_resident()
    cases = []
    for case in data.test:
        rs = case.resampled_shape
        image = case.image[:, : rs[0], : rs[1], : rs[2]]
        pred = predict_labels(model, image, swc).astype(np.uint16)
        pred_vol = Volume(pred, spacing=data.spacing, kind="labels")
        native = resample_labels(
            pred_vol, case.native_spacing, data.num_classes, out_shape=case.native_shape
        )
        report = evaluate_case(
            native.data, case.native_labels, data.num_classes, tau, case.native_spacing, hec=hec
        )
        cases.append(report)

    summary = MetricReport()
    for key in cases[0].dice:
        vals = [r.dice[key] for r in cases if r.dice[key] is not None]
        summary.dice[key] = float(np.mean(vals)) if vals else None
        vals = [r.nsd[key] for r in cases if r.nsd[key] is not None]
        summary.nsd[key] = float(np.mean(vals)) if vals else None
    return {"cases": [r.to_dict() for r in cases], "summary": summary.to_dict(), "report": summary}
