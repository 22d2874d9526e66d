"""Sliding-window prediction with Gaussian importance weighting + mirror TTA.

Volumes are tiled with windows of the training patch size at a configurable
overlap; each window's class softmax is blended with a separable Gaussian
weight map (peak 1 at the window center). Test-time augmentation averages
the eight axis-mirrored predictions after undoing each flip; where the
process can, the worker process (gasaunet.worker) computes four of them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import worker
from .errors import InvalidSpacing, ShapeMismatch
from .tensor import keep_heap_resident, softmax_array

ModelFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class SlidingWindowConfig:
    patch_size: tuple[int, int, int]
    overlap: float = 0.5
    sigma_scale: float = 0.125
    tta_mirror: bool = False

    def validate(self) -> None:
        if np.shape(self.patch_size) != (3,) or not all(
                isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1 for n in self.patch_size):
            raise ValueError(f"patch_size must be 3 positive integers, got {self.patch_size!r}")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {self.overlap}")
        if not 0 < self.sigma_scale < np.inf:
            raise ValueError(f"sigma_scale must be finite and positive, got {self.sigma_scale}")


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


def _mirror_sum(model: ModelFn, volume: np.ndarray, swc: SlidingWindowConfig, passes: range, note=None) -> np.ndarray:
    """Sum of the sliding-window predictions of mirror passes `passes`
    (pass i flips the axes of the set bits of i, and its prediction is
    flipped back), added pairwise in pass order, then the pair sums
    pairwise, and so on. Over passes 0-7 the sum is (s0 + s1), where s0 and
    s1 are this function's sums over passes 0-3 and 4-7. `note`, if given,
    hears which pass starts."""
    preds = []
    for i in passes:
        if note is not None:
            note(f"mirror pass {i}")
        axes = _FLIP_AXES[i]
        flipped = np.flip(volume, axis=axes) if axes else volume
        probs = sliding_window_predict(model, flipped, swc)
        if axes:
            probs = np.flip(probs, axis=axes)
        preds.append(np.ascontiguousarray(probs))
    while len(preds) > 1:
        preds = [preds[i] + preds[i + 1] for i in range(0, len(preds), 2)]
    return preds[0]


def _far_passes(pair: worker.Worker, model: ModelFn, volume: np.ndarray, swc: SlidingWindowConfig) -> np.ndarray:
    """The worker's job in mirror TTA: the sum of passes 4-7."""
    return _mirror_sum(model, volume, swc, range(4, 8), pair.note)


def tta_mirror_predict(model: ModelFn, volume: np.ndarray, swc: SlidingWindowConfig) -> np.ndarray:
    """Average sliding-window predictions over all eight mirror combinations.

    Tree-reduced so eight bitwise-equal terms (an exactly flip-equivariant
    model) average back to themselves exactly. Where this process can run
    a worker (worker.usable), the worker process (gasaunet.worker) computes
    passes 4-7 while this one computes passes 0-3, both with one BLAS
    thread, and the two sums are added in the same tree order: the result
    is bitwise the one-process result, for a model whose output depends on
    its input alone. The callable crosses to the worker by reference: the
    worker keeps its copy across calls with that same object (a bound
    method counts as its instance), reading a model's parameters from the
    mapping they share; gasaunet.worker states what it does not see.
    """
    return _tta_mirror(model, volume, swc, worker.usable())


def _tta_mirror(model: ModelFn, volume: np.ndarray, swc: SlidingWindowConfig, split: bool) -> np.ndarray:
    """tta_mirror_predict, in two processes when `split`, else in this one."""
    if not split:
        return _mirror_sum(model, volume, swc, range(8)) / len(_FLIP_AXES)
    with worker.section([model]) as pair:
        pair.submit(_far_passes, model, volume, swc)
        near = _mirror_sum(model, volume, swc, range(4))
        far = pair.result()
    return (near + far) / len(_FLIP_AXES)


def predict_probs(model: ModelFn | Sequence[ModelFn], volume: np.ndarray, swc: SlidingWindowConfig) -> np.ndarray:
    """Probability map from one model, or the mean over an ensemble of them.
    With mirror TTA in two processes, the worker is registered for every
    member at once, so the members do not restart it in turn."""
    models = model if isinstance(model, (list, tuple)) else [model]
    predict = tta_mirror_predict if swc.tta_mirror else sliding_window_predict
    ensemble = swc.tta_mirror and len(models) > 1 and worker.usable()
    total: np.ndarray | None = None
    with worker.section(models) if ensemble else contextlib.nullcontext():
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
    untouched labels. A tolerance `tau` that is not >= 0, NaN included,
    raises InvalidSpacing before any prediction.
    Every tile rebuilds buffers of the same shapes, so the first call sets
    the process's allocator to keep freed memory (tensor.keep_heap_resident):
    from then on the process's resident memory stays at its peak.
    """
    from .metrics import MetricReport, evaluate_case
    from .volume import Volume, resample_labels

    if not data.test:
        raise ValueError("no held-out cases to evaluate")
    if not tau >= 0:   # a NaN tolerance too, before any prediction
        raise InvalidSpacing(f"tolerance must be >= 0, got {tau}")
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
