"""Training schedule, optimizer, checkpointing, and dataset preparation.

SGD with Nesterov momentum under a polynomial learning-rate decay; every
iteration samples random patches from the preprocessed cases, backpropagates
the compound Dice+CE loss, and steps. All randomness flows through one
counter-based stream that is saved in the checkpoint, so a resumed run
continues the exact trajectory of an unbroken one.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, GasaUNet, build_model
from .errors import InvalidConfig, InvalidEpoch, NonFiniteLoss, ShapeMismatch, VersionMismatch
from .gasa import GasaConfig
from .losses import soft_dice_ce_loss
from .phantom import load_manifest
from .tensor import Rng, Tensor
from .volume import NormStats, clip_normalize, compute_norm_stats, read_volume, resample_image, resample_labels, target_spacing

CKPT_MAGIC = b"GASACKPT1"
CKPT_VERSION = 1


@dataclass
class TrainConfig:
    lr0: float = 0.01
    momentum: float = 0.99
    epochs: int = 50              # paper-scale: 1000
    iters_per_epoch: int = 20     # paper-scale: 250
    batch: int = 2
    patch_size: tuple[int, int, int] = (16, 16, 16)
    seed: int = 0
    poly_exponent: float = 0.9

    def validate(self) -> None:
        if self.lr0 <= 0 or not 0 <= self.momentum < 1 or self.epochs < 1:
            raise InvalidConfig("need lr0 > 0, 0 <= momentum < 1, epochs >= 1")
        if self.batch < 1 or self.iters_per_epoch < 1:
            raise InvalidConfig(f"need batch >= 1 and iters_per_epoch >= 1, got {self.batch}, {self.iters_per_epoch}")
        if len(self.patch_size) != 3 or min(self.patch_size) < 1:
            raise InvalidConfig(f"patch_size must hold 3 extents >= 1, got {tuple(self.patch_size)}")


def poly_lr(epoch: int, epoch_max: int, lr0: float, exponent: float = 0.9) -> float:
    """lr0 * (1 - epoch/epoch_max)^exponent."""
    if not 0 <= epoch <= epoch_max:
        raise InvalidEpoch(f"epoch {epoch} outside [0, {epoch_max}]")
    return lr0 * (1.0 - epoch / epoch_max) ** exponent


def sgd_nesterov_step(
    named_params: list[tuple[str, Tensor]],
    momentum_buffers: dict[str, np.ndarray],
    lr: float,
    mu: float,
) -> None:
    """v <- mu*v + g; p <- p - lr*(g + mu*v). Parameters without a gradient
    are treated as having g = 0 (buffers still decay)."""
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        v = momentum_buffers[name]
        if v.shape != g.shape:
            raise ShapeMismatch(f"momentum buffer {name}: {v.shape} vs grad {g.shape}")
        v *= mu
        v += g
        p.data -= lr * (g + mu * v)


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    backbone: BackboneConfig
    params: dict[str, np.ndarray]
    momentum: dict[str, np.ndarray]
    epoch: int
    rng_state: tuple[int, int]
    extra: dict = field(default_factory=dict)


def _backbone_to_dict(cfg: BackboneConfig) -> dict:
    d = asdict(cfg)
    return d


def _backbone_from_dict(d: dict) -> BackboneConfig:
    gasa = d.get("gasa")
    cfg = BackboneConfig(
        in_channels=d["in_channels"],
        num_classes=d["num_classes"],
        stage_channels=tuple(d["stage_channels"]),
        downsample_strides=tuple(tuple(s) for s in d["downsample_strides"]),
        gasa=GasaConfig(
            in_channels=gasa["in_channels"],
            spatial=tuple(gasa["spatial"]),
            d_model=gasa["d_model"],
            heads=gasa["heads"],
            pe_mode=gasa["pe_mode"],
            use_layer_norm=gasa["use_layer_norm"],
            dropout_p=gasa["dropout_p"],
        ) if gasa is not None else None,
        variant=d["variant"],
        large_res_blocks=tuple(d["large_res_blocks"]),
    )
    cfg.validate()
    return cfg


def checkpoint_from_model(
    model: GasaUNet,
    momentum: dict[str, np.ndarray],
    epoch: int,
    rng: Rng,
    extra: dict | None = None,
) -> Checkpoint:
    return Checkpoint(
        backbone=model.cfg,
        params={name: p.data.copy() for name, p in model.named_params()},
        momentum={name: v.copy() for name, v in momentum.items()},
        epoch=epoch,
        rng_state=rng.state,
        extra=dict(extra or {}),
    )


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """magic + version + JSON header + concatenated float64 payloads.

    The bytes go to a temporary file in the same directory, which then
    replaces `path` in one step: a save that fails part-way leaves an earlier
    checkpoint at `path` intact and no temporary file behind.
    """
    tensors: list[tuple[str, np.ndarray]] = [(f"p.{k}", v) for k, v in ckpt.params.items()]
    tensors += [(f"m.{k}", v) for k, v in ckpt.momentum.items()]
    table = []
    offset = 0
    for name, arr in tensors:
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    header = {
        "backbone": _backbone_to_dict(ckpt.backbone),
        "epoch": ckpt.epoch,
        "rng": list(ckpt.rng_state),
        "extra": ckpt.extra,
        "tensors": table,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<IQ", CKPT_VERSION, len(blob)))
            fh.write(blob)
            for _, arr in tensors:
                fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _header_field(path, table, key: str, kind: type, where: str = "header"):
    """table[key] if table is a dict holding a `kind` there; else
    VersionMismatch naming the file and the field."""
    value = table.get(key) if isinstance(table, dict) else None
    if type(value) is not kind:
        raise VersionMismatch(f"{path}: checkpoint {where} field {key!r} is missing or not a {kind.__name__}")
    return value


def _int_list(path, table, key: str, where: str = "header") -> list[int]:
    values = _header_field(path, table, key, list, where)
    if not all(type(v) is int and v >= 0 for v in values):
        raise VersionMismatch(f"{path}: checkpoint {where} field {key!r} must list non-negative integers")
    return values


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; a header field that is missing or mistyped, a
    truncated payload or a non-finite tensor raises VersionMismatch naming
    the file and the field or tensor."""
    raw = Path(path).read_bytes()
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise VersionMismatch(f"{path}: bad checkpoint magic")
    try:
        version, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
        if version != CKPT_VERSION:
            raise VersionMismatch(f"{path}: checkpoint version {version}, expected {CKPT_VERSION}")
        hstart = len(CKPT_MAGIC) + 12
        header = json.loads(raw[hstart : hstart + hlen])
    except (struct.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise VersionMismatch(f"{path}: unreadable checkpoint header ({exc})") from exc
    payload = raw[hstart + hlen :]
    params: dict[str, np.ndarray] = {}
    momentum: dict[str, np.ndarray] = {}
    for i, entry in enumerate(_header_field(path, header, "tensors", list)):
        where = f"tensor table entry {i}"
        name = _header_field(path, entry, "name", str, where)
        shape = tuple(_int_list(path, entry, "shape", where))
        n = int(np.prod(shape)) if shape else 1
        start = _header_field(path, entry, "offset", int, where)
        if start < 0 or start + 8 * n > len(payload):
            raise VersionMismatch(
                f"{path}: tensor {name} needs payload bytes [{start}, {start + 8 * n}), "
                f"file has {len(payload)} (truncated?)"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=start).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise VersionMismatch(f"{path}: tensor {name} holds non-finite values")
        if name.startswith("p."):
            params[name[2:]] = arr
        else:
            momentum[name[2:]] = arr
    rng_state = tuple(_int_list(path, header, "rng"))
    if len(rng_state) != 2:
        raise VersionMismatch(f"{path}: checkpoint header field 'rng' must hold (seed, counter)")
    try:
        backbone = _backbone_from_dict(_header_field(path, header, "backbone", dict))
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise VersionMismatch(f"{path}: checkpoint header field 'backbone' is malformed ({exc!r})") from exc
    return Checkpoint(
        backbone=backbone,
        params=params,
        momentum=momentum,
        epoch=_header_field(path, header, "epoch", int),
        rng_state=rng_state,
        extra=_header_field(path, header, "extra", dict) if "extra" in header else {},
    )


def eval_fingerprint(ckpt: Checkpoint, path: str | Path) -> tuple[tuple[int, ...], NormStats, tuple[float, ...]]:
    """The patch size, intensity statistics and target spacing that train()
    stores in `extra`; a field that is missing or malformed raises
    VersionMismatch naming the file and the field."""
    extra = ckpt.extra
    patch = _int_list(path, extra, "patch_size", "extra")
    stats = _header_field(path, extra, "stats", dict, "extra")
    spacing = _header_field(path, extra, "spacing", list, "extra")
    stat_keys = ("p_lo", "p_hi", "mean", "std")
    if len(patch) != 3 or 0 in patch:
        raise VersionMismatch(f"{path}: checkpoint extra field 'patch_size' must hold 3 positive integers")
    if not all(type(stats.get(k)) in (int, float) for k in stat_keys):
        raise VersionMismatch(f"{path}: checkpoint extra field 'stats' must hold numbers {', '.join(stat_keys)}")
    if len(spacing) != 3 or not all(type(v) in (int, float) and v > 0 for v in spacing):
        raise VersionMismatch(f"{path}: checkpoint extra field 'spacing' must hold 3 positive numbers")
    return tuple(patch), NormStats.from_dict(stats), tuple(float(v) for v in spacing)


def model_from_checkpoint(ckpt: Checkpoint) -> GasaUNet:
    model = build_model(ckpt.backbone, Rng(0))
    for name, p in model.named_params():
        stored = ckpt.params.get(name)
        if stored is None or stored.shape != p.data.shape:
            raise VersionMismatch(f"checkpoint parameter {name} missing or misshaped")
        p.data[...] = stored
    return model


# ---------------------------------------------------------------------------
# dataset preparation
# ---------------------------------------------------------------------------


@dataclass
class PreparedCase:
    image: np.ndarray          # [1, W, H, D], normalized, resampled, padded
    labels: np.ndarray         # [W, H, D] int, same grid as image
    resampled_shape: tuple[int, int, int]  # grid extents before padding
    native_labels: np.ndarray  # original-grid labels for final scoring
    native_spacing: tuple[float, float, float]
    native_shape: tuple[int, int, int]


@dataclass
class PreparedData:
    train: list[PreparedCase]
    test: list[PreparedCase]
    stats: NormStats
    spacing: tuple[float, float, float]
    num_classes: int


def _pad_to(arr: np.ndarray, spatial: tuple[int, int, int]) -> np.ndarray:
    pads = [(0, max(0, want - have)) for want, have in zip(spatial, arr.shape[-3:])]
    if arr.ndim == 4:
        pads = [(0, 0)] + pads
    if all(p == (0, 0) for p in pads):
        return arr
    return np.pad(arr, pads)


def preprocess_manifest(
    manifest: dict,
    root: Path,
    patch_size: tuple[int, int, int],
    stats: NormStats | None = None,
    spacing: tuple[float, float, float] | None = None,
) -> PreparedData:
    """Normalization -> resampling -> padding for every case in the manifest.

    Foreground statistics and target spacing come from the training split
    unless supplied (evaluation passes the fingerprint saved at training
    time); both are applied unchanged to the held-out cases.
    """
    cases = manifest["cases"]
    num_classes = int(manifest["spec"]["num_classes"])
    volumes = []
    for entry in cases:
        img = read_volume(root / entry["image"])
        lab = read_volume(root / entry["labels"])
        volumes.append((img, lab))
    train_ids = list(manifest["split"]["train"])
    test_ids = list(manifest["split"]["test"])

    if stats is None:
        stats = compute_norm_stats([(volumes[i][0], volumes[i][1]) for i in train_ids])
    if spacing is None:
        spacing = target_spacing([volumes[i][0].spacing for i in train_ids])

    def prepare(idx: int) -> PreparedCase:
        img, lab = volumes[idx]
        norm = clip_normalize(img, fg_mask=lab, stats=stats)
        res_img = resample_image(norm, spacing)
        res_lab = resample_labels(lab, spacing, num_classes, out_shape=res_img.spatial_shape)
        return PreparedCase(
            image=_pad_to(res_img.data, patch_size),
            labels=_pad_to(res_lab.data.astype(np.int64), patch_size),
            resampled_shape=res_img.spatial_shape,
            native_labels=lab.data.astype(np.int64),
            native_spacing=lab.spacing,
            native_shape=lab.spatial_shape,
        )

    return PreparedData(
        train=[prepare(i) for i in train_ids],
        test=[prepare(i) for i in test_ids],
        stats=stats,
        spacing=spacing,
        num_classes=num_classes,
    )


def prepared_from_manifest_path(path: str | Path, patch_size: tuple[int, int, int]) -> PreparedData:
    manifest, root = load_manifest(path)
    return preprocess_manifest(manifest, root, patch_size)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _sample_patch(case: PreparedCase, patch: tuple[int, int, int], rng: Rng, num_classes: int):
    corners = [rng.randint(have - want + 1) for have, want in zip(case.image.shape[1:], patch)]
    sl = tuple(slice(c, c + p) for c, p in zip(corners, patch))
    img = case.image[(slice(None),) + sl]
    lab = case.labels[sl]
    onehot = np.stack([(lab == c) for c in range(num_classes)]).astype(np.float64)
    return img, onehot


def train(
    model: GasaUNet,
    data: PreparedData,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
    stop_epoch: int | None = None,
    log_path: str | Path | None = None,
) -> tuple[Checkpoint, list[dict]]:
    """Run epochs [resume.epoch if any, stop_epoch or cfg.epochs).

    cfg.epochs fixes the decay horizon; stop_epoch interrupts early so the
    run can be checkpointed and resumed on the identical trajectory. Returns
    the final checkpoint and the per-epoch log (epoch, lr, loss, seconds).
    A non-finite loss raises NonFiniteLoss before its backward pass, and a
    non-finite gradient raises it, naming the first such parameter, before
    the optimizer step; resume momentum that does not match the model's
    parameters by name and shape raises VersionMismatch before the first
    step.
    """
    cfg.validate()
    if not data.train:
        raise ValueError("training split is empty")
    named = list(model.named_params())
    if resume is not None:
        for name, p in named:
            v = resume.momentum.get(name)
            if v is None or v.shape != p.shape:
                found = "missing" if v is None else f"shaped {v.shape}"
                raise VersionMismatch(f"resume momentum for parameter {name} is {found}, parameter is shaped {p.shape}")
        unknown = sorted(set(resume.momentum) - {name for name, _ in named})
        if unknown:
            raise VersionMismatch(f"resume momentum for {unknown[0]} names no parameter of the model")
        momentum = {k: v.copy() for k, v in resume.momentum.items()}
        rng = Rng.from_state(resume.rng_state)
        start_epoch = resume.epoch
    else:
        momentum = {name: np.zeros_like(p.data) for name, p in named}
        rng = Rng(cfg.seed)
        start_epoch = 0
    end_epoch = cfg.epochs if stop_epoch is None else min(stop_epoch, cfg.epochs)

    log: list[dict] = []
    log_fh = open(log_path, "a") if log_path is not None else None
    try:
        for epoch in range(start_epoch, end_epoch):
            lr = poly_lr(epoch, cfg.epochs, cfg.lr0, cfg.poly_exponent)
            t0 = time.perf_counter()
            losses = []
            for it in range(cfg.iters_per_epoch):
                total = None
                for _ in range(cfg.batch):
                    case = data.train[rng.randint(len(data.train))]
                    img, onehot = _sample_patch(case, cfg.patch_size, rng, data.num_classes)
                    logits = model.forward(Tensor(img), training=True, rng=rng)
                    loss = soft_dice_ce_loss(logits, Tensor(onehot))
                    total = loss if total is None else total + loss
                total = total * Tensor(1.0 / cfg.batch)
                loss_value = total.item()
                if not math.isfinite(loss_value):
                    raise NonFiniteLoss(f"loss is {loss_value} at epoch {epoch}, iteration {it}")
                model.zero_grads()
                total.backward()
                for name, p in named:
                    if p.grad is not None and not np.isfinite(p.grad).all():
                        raise NonFiniteLoss(
                            f"gradient of parameter {name} is not finite at epoch {epoch}, iteration {it}"
                        )
                sgd_nesterov_step(named, momentum, lr, cfg.momentum)
                losses.append(loss_value)
            entry = {
                "epoch": epoch,
                "lr": lr,
                "loss": float(np.mean(losses)),
                "seconds": time.perf_counter() - t0,
            }
            log.append(entry)
            if log_fh is not None:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()

    extra = {
        "stats": data.stats.to_dict(),
        "spacing": list(data.spacing),
        "patch_size": list(cfg.patch_size),
        "num_classes": data.num_classes,
    }
    if resume is not None and resume.extra:
        extra = {**resume.extra, **extra}
    return checkpoint_from_model(model, momentum, end_epoch, rng, extra), log
