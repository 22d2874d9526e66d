"""Training schedule, optimizer, checkpointing, and dataset preparation.

SGD with Nesterov momentum under a polynomial learning-rate decay; every
iteration samples random patches from the preprocessed cases, backpropagates
the compound Dice+CE loss, and steps. All randomness flows through one
counter-based stream that is saved in the checkpoint, so a resumed run
continues the exact trajectory of an unbroken one.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from . import worker
from .backbone import BackboneConfig, GasaUNet, build_model
from .errors import InvalidConfig, InvalidEpoch, NonFiniteLoss, ShapeMismatch, VersionMismatch
from .gasa import GasaConfig, dropout_draws
from .losses import soft_dice_ce_loss
from .phantom import load_manifest
from .tensor import Rng, Tensor, keep_heap_resident, precision
from .volume import NormStats, clip_normalize, compute_norm_stats, read_volume, resample_image, resample_labels, target_spacing

CKPT_MAGIC = b"GASACKPT1"
# Version 2 adds a CRC-32 of the JSON header after its length; version 1
# files, without it, still load.
CKPT_VERSION = 2


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
        whole = lambda n: isinstance(n, (int, np.integer)) and not isinstance(n, bool)  # noqa: E731
        for name in ("epochs", "iters_per_epoch", "batch", "seed"):
            if not whole(getattr(self, name)):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 < self.lr0 < math.inf or not 0 <= self.momentum < 1 or self.epochs < 1:
            raise InvalidConfig("need finite lr0 > 0, 0 <= momentum < 1, epochs >= 1")
        if not math.isfinite(self.poly_exponent):
            raise InvalidConfig(f"poly_exponent must be finite, got {self.poly_exponent}")
        if self.batch < 1 or self.iters_per_epoch < 1:
            raise InvalidConfig(f"need batch >= 1 and iters_per_epoch >= 1, got {self.batch}, {self.iters_per_epoch}")
        if len(self.patch_size) != 3 or not all(whole(n) and n >= 1 for n in self.patch_size):
            raise InvalidConfig(f"patch_size must hold 3 integer extents >= 1, got {tuple(self.patch_size)}")


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
    """magic + version + header length + header CRC-32 + JSON header +
    concatenated float64 payloads. The header CRC-32 is the zlib CRC-32 of
    the JSON bytes; the header's `payload_crc32` is that of the payload.

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
    payload = b"".join(np.ascontiguousarray(arr, dtype=np.float64).tobytes() for _, arr in tensors)
    header = {
        "backbone": asdict(ckpt.backbone),
        "epoch": ckpt.epoch,
        "rng": list(ckpt.rng_state),
        "extra": ckpt.extra,
        "payload_crc32": zlib.crc32(payload),
        "tensors": table,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<IQI", CKPT_VERSION, len(blob), zlib.crc32(blob)))
            fh.write(blob)
            fh.write(payload)
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
    """Read a checkpoint of version 1 or 2; a version 2 header whose CRC-32
    differs from the stored one, a header field that is missing or
    mistyped, a tensor name that does not start with `p.` or `m.` or is
    stored twice, a truncated payload, a non-finite tensor or a payload whose
    CRC-32 differs from the header's `payload_crc32` raises VersionMismatch
    naming the file and the field or tensor. Version 1 files have no
    header CRC-32, and those written before the payload checksum existed
    have no `payload_crc32`; what is missing goes unchecked."""
    raw = Path(path).read_bytes()
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise VersionMismatch(f"{path}: bad checkpoint magic")
    try:
        version, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
        if version not in (1, CKPT_VERSION):
            raise VersionMismatch(f"{path}: checkpoint version {version}, expected 1 or {CKPT_VERSION}")
        hstart = len(CKPT_MAGIC) + 12
        if version == CKPT_VERSION:
            (header_crc,) = struct.unpack_from("<I", raw, hstart)
            hstart += 4
            if zlib.crc32(raw[hstart : hstart + hlen]) != header_crc:
                raise VersionMismatch(f"{path}: checkpoint header does not match its CRC-32 {header_crc} (corrupted)")
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
        n = math.prod(shape)
        start = _header_field(path, entry, "offset", int, where)
        if start < 0 or start + 8 * n > len(payload):
            raise VersionMismatch(
                f"{path}: tensor {name} needs payload bytes [{start}, {start + 8 * n}), "
                f"file has {len(payload)} (truncated?)"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=start).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise VersionMismatch(f"{path}: tensor {name} holds non-finite values")
        table = {"p.": params, "m.": momentum}.get(name[:2])
        if table is None or name[2:] in table:
            why = "is stored twice" if table is not None else "starts with neither 'p.' nor 'm.'"
            raise VersionMismatch(f"{path}: checkpoint {where} names tensor {name!r}, which {why}")
        table[name[2:]] = arr
    if "payload_crc32" in header:
        crc = _header_field(path, header, "payload_crc32", int)
        if zlib.crc32(payload) != crc:
            raise VersionMismatch(f"{path}: checkpoint payload does not match its CRC-32 {crc} (corrupted)")
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
    if len(patch) != 3 or 0 in patch:
        raise VersionMismatch(f"{path}: checkpoint extra field 'patch_size' must hold 3 positive integers")
    finite = lambda v: type(v) in (int, float) and math.isfinite(v)  # noqa: E731
    if not all(finite(stats.get(k)) for k in ("p_lo", "p_hi", "mean", "std")) or stats["std"] <= 0:
        raise VersionMismatch(f"{path}: checkpoint extra field 'stats' must hold finite p_lo, p_hi, mean and std > 0")
    if len(spacing) != 3 or not all(finite(v) and v > 0 for v in spacing):
        raise VersionMismatch(f"{path}: checkpoint extra field 'spacing' must hold 3 finite positive numbers")
    return tuple(patch), NormStats.from_dict(stats), tuple(float(v) for v in spacing)


# stored by older versions, cancelled by the maths: conv biases before a norm, the key's last shift, pe "none"'s table
_REMOVED = re.compile(r"(enc\d+\.\d+|dec\d+\.(reduce|post))\.b[12]?|gasa\.(bk|ln\.k_beta|pe)")


def _match_params(tensors: dict[str, np.ndarray], named: list, what: str, removed: re.Pattern | None = None) -> None:
    """VersionMismatch naming the tensor unless `tensors` holds an array shaped
    like each (name, parameter) of `named` and no other, `removed` ones aside."""
    for name, p in named:
        v = tensors.get(name)
        if v is None or v.shape != p.shape:
            found = "missing" if v is None else f"shaped {v.shape}"
            raise VersionMismatch(f"{what} for parameter {name} is {found}, parameter is shaped {p.shape}")
    for name in sorted(set(tensors) - {name for name, _ in named}):
        if not (removed and removed.fullmatch(name)):
            raise VersionMismatch(f"{what} for {name} names no parameter of the model")


def model_from_checkpoint(ckpt: Checkpoint) -> GasaUNet:
    """The model of `ckpt` with its parameters; stored _REMOVED ones are ignored."""
    model = build_model(ckpt.backbone, Rng(0))
    named = list(model.named_params())
    _match_params(ckpt.params, named, "checkpoint value", _REMOVED)
    for name, p in named:
        p.data[...] = ckpt.params[name]
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


def sample_loss(model: GasaUNet, img: np.ndarray, onehot: np.ndarray, rng: Rng) -> Tensor:
    """Dice+CE loss of one training sample, with dropout drawn from rng.

    The forward pass runs in float32 and the loss on its logits in float64.
    Each gradient is cast to the dtype of the tensor that receives it, so
    the backward pass runs in float32 through the model and delivers float64
    gradients to the float64 parameters, which the optimizer updates.
    """
    with precision(np.float32):
        logits = model.forward(Tensor(img), training=True, rng=rng)
    return soft_dice_ce_loss(logits, Tensor(onehot))


def _sample_draws(cfg: BackboneConfig) -> int:
    """Random draws one training sample consumes: its case, its three patch
    corners and the GASA block's dropout mask."""
    return 4 + (dropout_draws(cfg.gasa) if cfg.gasa is not None else 0)


def _backprop_sample(model: GasaUNet, data: PreparedData, cfg: TrainConfig, rng: Rng, draws: int,
                     weight: Tensor) -> float:
    """Draw one patch from rng, backpropagate weight * its loss, adding one
    gradient to each parameter's, and return the loss. Sample i of a step
    starts its draws at the step's counter + i * draws, so a sample that
    consumes any other number raises."""
    start = rng.counter
    case = data.train[rng.randint(len(data.train))]
    img, onehot = _sample_patch(case, cfg.patch_size, rng, data.num_classes)
    loss = sample_loss(model, img, onehot, rng)
    if rng.counter - start != draws:
        raise RuntimeError(f"a training sample drew {rng.counter - start} random numbers, expected {draws}")
    T.mul(loss, weight).backward()
    return loss.item()


def _views(flat: np.ndarray, named: list) -> list[np.ndarray]:
    """One view of `flat` per (name, parameter), shaped like it, in order."""
    ends = np.cumsum([p.size for _, p in named])
    return [flat[end - p.size : end].reshape(p.shape) for end, (_, p) in zip(ends, named)]


# ---------------------------------------------------------------------------
# two-process batch
# ---------------------------------------------------------------------------


def _exchange(pair: worker.Worker, step: int, params: list[Tensor]) -> Tensor:
    """A node whose backward waits until the worker has posted `step`, its
    rows written: inside the span that an outside tracer gives backward()."""
    return T._node(np.zeros(()), params, lambda _g: pair.wait(step))


def _worker_steps(pair: worker.Worker, model: GasaUNet, data: PreparedData, cfg: TrainConfig, rng_state: tuple[int, int],
                  epochs: range, samples: range) -> None:
    """The worker's side of a two-process train() call. Each step, once the
    parent has posted the one before (and stepped the parameters the two
    share), it backpropagates `samples`, writes each one's n gradients and
    loss into a row of `pair.shared`, [len(samples), n + 1], and posts."""
    named = list(model.named_params())
    draws = _sample_draws(model.cfg)
    table = pair.shared.reshape(len(samples), -1)
    rows = [_views(row, named) for row in table]
    (seed, counter), steps = rng_state, itertools.product(epochs, range(cfg.iters_per_epoch))
    for step, (epoch, it) in enumerate(steps):
        pair.wait(step)
        for row, views, i in zip(table, rows, samples):
            pair.note(f"sample {i} of epoch {epoch}, iteration {it}")
            rng = Rng(seed, counter + (step * cfg.batch + i) * draws)
            model.zero_grads()
            row[-1] = _backprop_sample(model, data, cfg, rng, draws, Tensor(1.0 / cfg.batch))
            for v, (_, p) in zip(views, named):
                v[...] = p.grad
        pair.post(step + 1)


def _step_loop(model: GasaUNet, data: PreparedData, cfg: TrainConfig, momentum: dict[str, np.ndarray], rng: Rng,
               epochs: range, log_fh, samples: range, pair: worker.Worker | None) -> tuple[Rng, list[dict]]:
    """Every step of `epochs`, this process computing samples `samples` of
    each, adding the gradients of the worker of `pair`, if any, to theirs
    in sample order, and taking every optimizer step; returns the RNG after
    the last step and the per-epoch log, which goes to log_fh too unless it
    is None."""
    named = list(model.named_params())
    params = [p for _, p in named]
    draws = _sample_draws(model.cfg)
    weight = Tensor(1.0 / cfg.batch)
    table = None if pair is None else pair.shared.reshape(cfg.batch - len(samples), -1)   # see _worker_steps
    rows = [] if pair is None else [_views(row, named) for row in table]
    log: list[dict] = []
    step = 0
    for epoch in epochs:
        lr = poly_lr(epoch, cfg.epochs, cfg.lr0, cfg.poly_exponent)
        t0 = time.perf_counter()
        losses = []
        for it in range(cfg.iters_per_epoch):
            step += 1
            start = rng.counter
            model.zero_grads()
            sample_losses = [_backprop_sample(model, data, cfg, Rng(rng.seed, start + i * draws), draws, weight)
                             for i in samples]
            if pair is not None:
                _exchange(pair, step, params).backward()
                for views in rows:
                    for p, v in zip(params, views):
                        p.accumulate_grad(v)
                sample_losses += table[:, -1].tolist()
            rng = Rng(rng.seed, start + cfg.batch * draws)
            batch_loss = sample_losses[0]
            for value in sample_losses[1:]:
                batch_loss += value
            loss_value = batch_loss * (1.0 / cfg.batch)
            if not math.isfinite(loss_value):
                raise NonFiniteLoss(f"loss is {loss_value} at epoch {epoch}, iteration {it}")
            name = next((name for name, p in named if not np.isfinite(p.grad).all()), None)
            if name is not None:
                raise NonFiniteLoss(f"gradient of parameter {name} is not finite at epoch {epoch}, iteration {it}")
            sgd_nesterov_step(named, momentum, lr, cfg.momentum)
            if pair is not None:
                pair.post(step)   # the worker may read the parameters of the next step
            losses.append(loss_value)
        entry = {"epoch": epoch, "lr": lr, "loss": float(np.mean(losses)), "seconds": time.perf_counter() - t0}
        log.append(entry)
        if log_fh is not None:
            log_fh.write(json.dumps(entry) + "\n")
            log_fh.flush()
    return rng, log


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
    Each sample's loss comes from sample_loss (float32 forward and
    backward, float64 loss) and is backpropagated on its own; each backward
    adds one gradient to every parameter's, so the batch gradient is the
    sum of the samples' gradients in sample order, and sample i of a step
    draws its random numbers from the step's RNG counter + i * (draws per
    sample), as one sample after another would.
    With a batch of 2 or more, 2 or more steps in the call, and a process
    that can run a worker (worker.usable), the worker process (gasaunet.worker)
    computes samples [ceil(batch/2), batch) of each step and this process
    the others, adds the worker's gradients to its own after them, and takes
    every optimizer step, both with one BLAS thread; the result is bitwise
    the same. The worker outlives the call; the data must not change in
    place between calls. A worker that fails raises WorkerError.
    A non-finite batch loss raises NonFiniteLoss, and so does a non-finite
    gradient, naming the first such parameter, both before the optimizer
    step. Resume momentum that does not match the model's parameters by
    name and shape raises VersionMismatch, and a training case smaller
    than cfg.patch_size on any axis ShapeMismatch, before the first step.
    Every step rebuilds buffers of the same shapes, so the first call sets
    the process's allocator to keep freed memory (tensor.keep_heap_resident):
    from then on the process's resident memory stays at its peak.
    """
    return _train(model, data, cfg, resume, stop_epoch, log_path, worker.usable())


def _train(
    model: GasaUNet,
    data: PreparedData,
    cfg: TrainConfig,
    resume: Checkpoint | None,
    stop_epoch: int | None,
    log_path: str | Path | None,
    split: bool,
) -> tuple[Checkpoint, list[dict]]:
    """train(), in two processes when `split`, the batch is 2 or more and
    the call has 2 or more steps, else in this one."""
    cfg.validate()
    cfg = replace(cfg, epochs=int(cfg.epochs), iters_per_epoch=int(cfg.iters_per_epoch), batch=int(cfg.batch),
                  seed=int(cfg.seed), patch_size=tuple(map(int, cfg.patch_size)))   # a NumPy integer would overflow
    if not data.train:
        raise ValueError("training split is empty")
    for i, case in enumerate(data.train):
        if any(have < want for have, want in zip(case.image.shape[1:], cfg.patch_size)):
            raise ShapeMismatch(f"training case {i} has grid {case.image.shape[1:]}, smaller than the patch "
                                f"{tuple(cfg.patch_size)}")
    keep_heap_resident()
    named = list(model.named_params())
    if resume is not None:
        _match_params(resume.momentum, named, "resume momentum")
        momentum = {k: v.copy() for k, v in resume.momentum.items()}
        rng = Rng.from_state(resume.rng_state)
        start_epoch = resume.epoch
    else:
        momentum = {name: np.zeros_like(p.data) for name, p in named}
        rng = Rng(cfg.seed)
        start_epoch = 0
    end_epoch = cfg.epochs if stop_epoch is None else min(stop_epoch, cfg.epochs)

    epochs = range(start_epoch, end_epoch)
    log_fh = open(log_path, "a") if log_path is not None else None
    try:
        if split and cfg.batch >= 2 and len(epochs) * cfg.iters_per_epoch >= 2:
            half = (cfg.batch + 1) // 2
            floats = (cfg.batch - half) * (sum(p.size for _, p in named) + 1)   # see _worker_steps
            with worker.section([model, data], floats) as pair:
                pair.submit(_worker_steps, model, data, cfg, rng.state, epochs, range(half, cfg.batch))
                rng, log = _step_loop(model, data, cfg, momentum, rng, epochs, log_fh, range(half), pair)
                pair.result()
        else:
            rng, log = _step_loop(model, data, cfg, momentum, rng, epochs, log_fh, range(cfg.batch), None)
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
