"""Overlap and surface-distance evaluation metrics.

Dice and NSD operate on integer label volumes binarized by a set of class
ids; hierarchical evaluation classes group several ids into one entity
before scoring. Values live in [0, 1]; a score is None ("undefined") when
both masks are empty. Borders use 6-connectivity with the volume boundary
treated as background; surface distances are Euclidean between voxel centers
in physical units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.ndimage import binary_erosion, generate_binary_structure
from scipy.spatial import cKDTree

from .errors import InvalidSpacing, ShapeMismatch
from .volume import checked_spacing

_SIX_CONN = generate_binary_structure(3, 1)


@dataclass
class HecSpec:
    """Named groups of label ids scored as single entities."""

    groups: dict[str, tuple[int, ...]]

    def validate(self, num_classes: int | None = None) -> None:
        if not self.groups:
            raise ValueError("HEC spec needs at least one group")
        for name, ids in self.groups.items():
            if not ids:
                raise ValueError(f"group {name!r} is empty")
            if any(i < 0 for i in ids):
                raise ValueError(f"group {name!r} has negative label ids")
            if num_classes is not None and any(i >= num_classes for i in ids):
                raise ValueError(f"group {name!r} exceeds {num_classes} classes")


def kits_hec(num_classes: int) -> HecSpec:
    """Nested-entity grouping: organ+masses, masses, innermost mass alone."""
    fg = tuple(range(1, num_classes))
    groups = {"organ_and_masses": fg}
    if num_classes >= 3:
        groups["masses"] = tuple(range(2, num_classes))
        groups["tumor"] = (2,)
    return HecSpec(groups)


@dataclass
class MetricReport:
    """Per-entity Dice/NSD plus averages over the defined entries."""

    dice: dict[str, float | None] = field(default_factory=dict)
    nsd: dict[str, float | None] = field(default_factory=dict)

    def _mean(self, vals: dict[str, float | None]) -> float | None:
        defined = [v for v in vals.values() if v is not None]
        return float(np.mean(defined)) if defined else None

    @property
    def mean_dice(self) -> float | None:
        return self._mean(self.dice)

    @property
    def mean_nsd(self) -> float | None:
        return self._mean(self.nsd)

    def to_dict(self, scale: float = 1.0) -> dict:
        sc = lambda v: None if v is None else v * scale
        return {
            "dice": {k: sc(v) for k, v in self.dice.items()},
            "nsd": {k: sc(v) for k, v in self.nsd.items()},
            "mean_dice": sc(self.mean_dice),
            "mean_nsd": sc(self.mean_nsd),
        }


def _binary_masks(pred: np.ndarray, gt: np.ndarray, class_ids: Sequence[int]):
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"prediction {pred.shape} vs ground truth {gt.shape}")
    ids = list(class_ids)
    return np.isin(pred, ids), np.isin(gt, ids)


def dice_score(pred: np.ndarray, gt: np.ndarray, class_ids: Sequence[int]) -> float | None:
    """2|P&G| / (|P|+|G|) over the union-of-ids masks; None if both empty."""
    pm, gm = _binary_masks(pred, gt, class_ids)
    p = int(pm.sum())
    g = int(gm.sum())
    if p == 0 and g == 0:
        return None
    return 2.0 * int((pm & gm).sum()) / (p + g)


def _border_voxels(mask: np.ndarray) -> np.ndarray:
    """Indices of mask voxels with at least one 6-neighbor outside the mask."""
    if not mask.any():
        return np.zeros((0, 3), dtype=np.int64)
    interior = binary_erosion(mask, structure=_SIX_CONN, border_value=0)
    return np.argwhere(mask & ~interior)


def nsd(
    pred: np.ndarray,
    gt: np.ndarray,
    class_ids: Sequence[int],
    tau: float,
    spacing: Sequence[float],
) -> float | None:
    """Symmetric normalized surface dice at physical tolerance tau."""
    sp = np.asarray(checked_spacing(spacing))
    if not tau >= 0:   # a NaN tolerance too
        raise InvalidSpacing(f"tolerance must be >= 0, got {tau}")
    pm, gm = _binary_masks(pred, gt, class_ids)
    if not pm.any() and not gm.any():
        return None
    bp = _border_voxels(pm)
    bg = _border_voxels(gm)

    def hits(src: np.ndarray, dst: np.ndarray) -> int:
        if src.shape[0] == 0:
            return 0
        if dst.shape[0] == 0:
            return 0
        tree = cKDTree(dst.astype(np.float64) * sp)
        dists, _ = tree.query(src.astype(np.float64) * sp)
        return int(np.count_nonzero(dists <= tau))

    num = hits(bp, bg) + hits(bg, bp)
    den = bp.shape[0] + bg.shape[0]
    return num / den


def hec_evaluate(
    pred: np.ndarray,
    gt: np.ndarray,
    spec: HecSpec,
    tau: float,
    spacing: Sequence[float],
) -> MetricReport:
    """Dice and NSD per HEC group."""
    spec.validate()
    report = MetricReport()
    for name, ids in spec.groups.items():
        report.dice[name] = dice_score(pred, gt, ids)
        report.nsd[name] = nsd(pred, gt, ids, tau, spacing)
    return report


def evaluate_case(
    pred: np.ndarray,
    gt: np.ndarray,
    num_classes: int,
    tau: float,
    spacing: Sequence[float],
    hec: HecSpec | None = None,
) -> MetricReport:
    """Per-foreground-class scores, plus HEC groups when a spec is given."""
    groups = {f"class_{c}": (c,) for c in range(1, num_classes)}
    if hec is not None:
        hec.validate(num_classes)
        groups.update(hec.groups)
    return hec_evaluate(pred, gt, HecSpec(groups), tau, spacing)
