"""Deterministic synthetic phantoms: ellipsoid organs with a nested tumor.

Class 0 is background; class 1 hosts a nested class-2 tumor when three or
more classes are requested (so grouped-entity evaluation has real structure);
higher classes are separate non-overlapping ellipsoids. Image intensity is
the class mean plus Gaussian noise from the shared counter-based stream, so
regeneration is bitwise reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidSpec
from .tensor import Rng
from .volume import Volume, write_volume

_MAX_ATTEMPTS = 50


@dataclass
class PhantomSpec:
    size: tuple[int, int, int] = (32, 32, 32)
    num_classes: int = 3
    class_means: tuple[float, ...] | None = None   # default: 0, 1, 2, ...
    class_sigmas: tuple[float, ...] | None = None  # default: noise_sigma each
    noise_sigma: float = 0.1
    seed: int = 0
    anisotropic_spacing: tuple[float, float, float] | None = None

    def validate(self) -> None:
        if self.num_classes < 2:
            raise InvalidSpec("need background plus at least one organ class")
        if min(self.size) < 12:
            raise InvalidSpec(f"phantom extents {self.size} too small for the geometry")
        if self.class_means is not None and len(self.class_means) != self.num_classes:
            raise InvalidSpec("class_means must have one entry per class")
        if self.class_sigmas is not None and len(self.class_sigmas) != self.num_classes:
            raise InvalidSpec("class_sigmas must have one entry per class")

    def means(self) -> np.ndarray:
        if self.class_means is not None:
            return np.asarray(self.class_means, dtype=np.float64)
        return np.arange(self.num_classes, dtype=np.float64)

    def sigmas(self) -> np.ndarray:
        if self.class_sigmas is not None:
            return np.asarray(self.class_sigmas, dtype=np.float64)
        return np.full(self.num_classes, self.noise_sigma)

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.anisotropic_spacing or (1.0, 1.0, 1.0)


def _ellipsoid_mask(size, center, semi) -> np.ndarray:
    gw, gh, gd = np.ogrid[: size[0], : size[1], : size[2]]
    acc = (
        ((gw - center[0]) / semi[0]) ** 2
        + ((gh - center[1]) / semi[1]) ** 2
        + ((gd - center[2]) / semi[2]) ** 2
    )
    return acc <= 1.0


def _draw_labels(spec: PhantomSpec, rng: Rng) -> np.ndarray | None:
    size = np.asarray(spec.size, dtype=np.float64)
    labels = np.zeros(spec.size, dtype=np.uint16)

    # host organ (class 1)
    oc = np.array([s * (0.40 + 0.20 * rng.uniform()) for s in size])
    os_ = np.array([max(2.8, s * (0.18 + 0.10 * rng.uniform())) for s in size])
    if np.any(oc - os_ < 1.0) or np.any(oc + os_ > size - 2.0):
        return None
    labels[_ellipsoid_mask(spec.size, oc, os_)] = 1

    # nested tumor (class 2)
    if spec.num_classes >= 3:
        ts = np.array([max(1.3, s * (0.30 + 0.10 * rng.uniform())) for s in os_])
        off = np.array([s * 0.12 * (2.0 * rng.uniform() - 1.0) for s in os_])
        if np.sum(((np.abs(off) + ts) / os_) ** 2) > 1.0:
            return None
        labels[_ellipsoid_mask(spec.size, oc + off, ts)] = 2

    # additional separate organs (classes 3..)
    for cls in range(3, spec.num_classes):
        placed = False
        for _ in range(20):
            c = np.array([s * (0.15 + 0.70 * rng.uniform()) for s in size])
            semi = np.array([max(1.5, s * (0.06 + 0.06 * rng.uniform())) for s in size])
            if np.any(c - semi < 1.0) or np.any(c + semi > size - 2.0):
                continue
            mask = _ellipsoid_mask(spec.size, c, semi)
            if not mask.any() or labels[mask].any():
                continue
            labels[mask] = cls
            placed = True
            break
        if not placed:
            return None

    counts = np.bincount(labels.reshape(-1), minlength=spec.num_classes)
    if np.any(counts[: spec.num_classes] == 0):
        return None
    return labels


def generate_phantom(spec: PhantomSpec, case_index: int) -> tuple[Volume, Volume]:
    """Seeded phantom: (image, labels). Identical inputs give identical volumes."""
    spec.validate()
    rng = Rng(spec.seed).spawn(case_index)
    labels = None
    for _ in range(_MAX_ATTEMPTS):
        labels = _draw_labels(spec, rng)
        if labels is not None:
            break
    if labels is None:
        raise InvalidSpec(f"could not fit {spec.num_classes} classes into {spec.size}")

    means = spec.means()
    sigmas = spec.sigmas()
    noise = rng.normal_array(labels.size).reshape(spec.size)
    image = means[labels] + sigmas[labels] * noise
    return (
        Volume(image[None], spacing=spec.spacing, kind="image"),
        Volume(labels, spacing=spec.spacing, kind="labels"),
    )


def make_dataset(spec: PhantomSpec, n_cases: int, out_dir: str | Path, n_test: int = 0) -> dict:
    """Write image/label pairs plus a JSON manifest with split hints."""
    if n_cases < 1:
        raise InvalidSpec("need at least one case")
    if not 0 <= n_test < n_cases:
        raise InvalidSpec(f"test split {n_test} must leave at least one training case")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for i in range(n_cases):
        image, labels = generate_phantom(spec, i)
        img_name = f"case_{i:03d}.gvol"
        lab_name = f"case_{i:03d}_seg.gvol"
        write_volume(image, out_dir / img_name)
        write_volume(labels, out_dir / lab_name)
        cases.append({"image": img_name, "labels": lab_name})
    manifest = {
        "spec": asdict(spec),
        "cases": cases,
        "split": {
            "train": list(range(n_cases - n_test)),
            "test": list(range(n_cases - n_test, n_cases)),
        },
    }
    text = json.dumps(manifest, sort_keys=True, indent=1)
    (out_dir / "manifest.json").write_text(text + "\n")
    return json.loads(text)


def load_manifest(path: str | Path) -> tuple[dict, Path]:
    """(manifest, directory its case paths are relative to). Malformed JSON
    or a missing or mistyped field raises FormatError naming the file and
    the field."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: manifest is not valid JSON ({exc})") from exc

    def bad(field: str, want: str) -> FormatError:
        return FormatError(f"{path}: manifest field {field!r} must be {want}")

    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    cases = manifest.get("cases")
    if not isinstance(cases, list):
        raise bad("cases", "a list")
    for i, entry in enumerate(cases):
        for key in ("image", "labels"):
            if not isinstance(entry, dict) or not isinstance(entry.get(key), str):
                raise bad(f"cases[{i}].{key}", "a string")
    spec = manifest.get("spec")
    num_classes = spec.get("num_classes") if isinstance(spec, dict) else None
    if type(num_classes) is not int or num_classes < 2:
        raise bad("spec.num_classes", "an integer >= 2")
    split = manifest.get("split")
    for key in ("train", "test"):
        ids = split.get(key) if isinstance(split, dict) else None
        if not isinstance(ids, list) or not all(type(i) is int and 0 <= i < len(cases) for i in ids):
            raise bad(f"split.{key}", f"a list of case indices in [0, {len(cases)})")
    return manifest, path.parent
