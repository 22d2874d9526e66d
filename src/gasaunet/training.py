"""Training schedule, optimizer, checkpointing, and dataset preparation.

SGD with Nesterov momentum under a polynomial learning-rate decay; every
iteration samples random patches from the preprocessed cases, backpropagates
the compound Dice+CE loss, and steps. All randomness flows through one
counter-based stream that is saved in the checkpoint, so a resumed run
continues the exact trajectory of an unbroken one.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import mmap
import os
import platform
import signal
import struct
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import BackboneConfig, GasaUNet, build_model
from .errors import InvalidConfig, InvalidEpoch, NonFiniteLoss, ShapeMismatch, TrainingWorkerError, VersionMismatch
from .gasa import GasaConfig, dropout_draws
from .losses import soft_dice_ce_loss
from .phantom import load_manifest
from .tensor import Rng, Tensor, keep_heap_resident, precision
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
    """magic + version + JSON header + concatenated float64 payloads. The
    header's `payload_crc32` is the zlib CRC-32 of the payload bytes.

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
            fh.write(struct.pack("<IQ", CKPT_VERSION, len(blob)))
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
    """Read a checkpoint; a header field that is missing or mistyped, a
    truncated payload, a non-finite tensor or a payload whose CRC-32 differs
    from the header's `payload_crc32` raises VersionMismatch naming the file
    and the field or tensor. Files written before the checksum existed have
    no `payload_crc32` and load unchecked."""
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
        if name.startswith("p."):
            params[name[2:]] = arr
        else:
            momentum[name[2:]] = arr
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
    """Draw one patch from rng, backpropagate weight * its loss into freshly
    zeroed parameter gradients, and return the loss. Sample i of a step
    starts its draws at the step's counter + i * draws, so a sample that
    consumes any other number raises."""
    start = rng.counter
    case = data.train[rng.randint(len(data.train))]
    img, onehot = _sample_patch(case, cfg.patch_size, rng, data.num_classes)
    loss = sample_loss(model, img, onehot, rng)
    if rng.counter - start != draws:
        raise RuntimeError(f"a training sample drew {rng.counter - start} random numbers, expected {draws}")
    model.zero_grads()
    T.mul(loss, weight).backward()
    return loss.item()


def _views(flat: np.ndarray, named: list[tuple[str, Tensor]]) -> list[np.ndarray]:
    """One view of `flat` per parameter, shaped like it, in order."""
    views, at = [], 0
    for _, p in named:
        views.append(flat[at : at + p.size].reshape(p.shape))
        at += p.size
    return views


def _sum_grads(samples: list[list[np.ndarray | None]], views: list[np.ndarray]) -> None:
    """Each view <- its parameter's gradients summed over the samples, in
    sample order; a missing gradient counts as 0."""
    for j, v in enumerate(views):
        v[...] = 0.0 if samples[0][j] is None else samples[0][j]
        for grads in samples[1:]:
            if grads[j] is not None:
                v += grads[j]


def _fold(prefix: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """out <- ((prefix + rows[0]) + rows[1]) + ...: the batch gradient summed
    in sample order. Both processes of a split batch run these same
    operations, so they get the same bits."""
    np.add(prefix, rows[0], out=out)
    for row in rows[1:]:
        out += row


# ---------------------------------------------------------------------------
# two-process batch
# ---------------------------------------------------------------------------

_PARENT, _WORKER, _ERROR_BYTES = 0, 1, 2   # slots of the shared flags
_ERROR_ROOM = 1 << 16
_SPINS_PER_CHECK = 1 << 14


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that NumPy loaded, or
    None where no such pair is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for stem, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{stem}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{stem}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _split_batch(batch: int) -> bool:
    """Whether train() runs the samples of each step in two processes. It
    needs a batch of 2 or more, 2 or more usable CPUs, os.fork, the
    OpenBLAS thread-count getter and setter, and an x86-64 CPU: the
    processes publish buffers before their flags, and Python has no memory
    fence, so this relies on x86-64 making stores visible in program order."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        batch >= 2
        and hasattr(os, "fork")
        and platform.machine().lower() in ("x86_64", "amd64")
        and affinity is not None
        and len(affinity(0)) >= 2
        and _openblas_threads() is not None
    )


class _BatchWorker:
    """A forked process that computes samples [first, batch) of every step of
    one train() call, while the parent computes samples [0, first).

    The two processes share one anonymous mapping made before the fork: a
    flag per process holding the last step it posted (the worker's is -1
    once it failed), two sets of step buffers, for odd and for even steps,
    and room for the worker's error message. A set holds the sum of the
    parent's sample gradients (`prefix`) and the worker's per-sample
    gradients (`rows`) and losses. Each process writes its buffers before
    its flag and spins on the other's flag; blocking waits stalled the
    step. Before a process writes a set for step k it has seen the other
    post step k-1, which the other does only after it has read step k-2,
    the set's previous use. Both sum the batch gradient with `_fold` and
    take the same optimizer step, so the parameters never cross.
    """

    def __init__(self, named: list[tuple[str, Tensor]], first: int, batch: int):
        n, rows = sum(p.size for _, p in named), batch - first
        width = n + rows * n + rows
        self._map = mmap.mmap(-1, 8 * (3 + 2 * width) + _ERROR_ROOM)
        self.flags = np.frombuffer(self._map, np.int64, 3)
        sets = np.frombuffer(self._map, np.float64, 2 * width, 8 * 3).reshape(2, width)
        self.prefix = sets[:, :n]
        self.rows = sets[:, n : n + rows * n].reshape(2, rows, n)
        self.losses = sets[:, n + rows * n :]
        self.error = np.frombuffer(self._map, np.uint8, _ERROR_ROOM, 8 * (3 + 2 * width))
        self.prefix_views = [_views(prefix, named) for prefix in self.prefix]
        self.row_views = [[_views(row, named) for row in rows] for rows in self.rows]
        self.named, self.first, self.batch = named, first, batch
        self.total = np.empty(n)   # each process's own batch gradient
        self.total_views = _views(self.total, named)
        self.parent = os.getpid()
        self.pid: int | None = None
        self.doing = ""

    # -- both processes -----------------------------------------------------

    def wait(self, slot: int, step: int) -> None:
        """Spin until the other process posts `step` in `slot`, checking
        now and then that it is still there."""
        flags, spins = self.flags, 0
        while flags[slot] != step:
            spins += 1
            if spins % _SPINS_PER_CHECK == 0 or flags[_WORKER] < 0:
                self._check_other()

    def _check_other(self) -> None:
        """In the parent, raise if the worker failed or died; in the
        worker, leave if the parent is gone."""
        if os.getpid() != self.parent:
            if os.getppid() != self.parent:
                os._exit(1)
            return
        if self.flags[_WORKER] < 0:
            text = bytes(self.error[: self.flags[_ERROR_BYTES]]).decode(errors="replace")
            message, _, trace = text.partition("\n")
            err = TrainingWorkerError(message)
            if hasattr(err, "add_note"):
                err.add_note(trace)
            raise err
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid:
            self.pid = None
            raise TrainingWorkerError(f"the training worker died (wait status {status}) during {self.doing}")

    # -- parent -------------------------------------------------------------

    def start(self, *steps) -> None:
        """Fork the worker, which runs run_steps(*steps) and leaves with
        os._exit. A forked child starts with the parent's model, data,
        momentum and RNG, so only gradients need to cross; it runs no other
        thread (OpenBLAS shuts its pool down across a fork, and BLAS runs
        one thread here)."""
        pid = os.fork()
        if pid:
            self.pid = pid
            return
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent's KeyboardInterrupt reaps this process
            self.run_steps(*steps)
            code = 0
        except BaseException as exc:
            text = f"{self.doing} raised in the training worker: {type(exc).__name__}: {exc}\n"
            data = (text + traceback.format_exc()).encode()[:_ERROR_ROOM]
            self.error[: len(data)] = np.frombuffer(data, np.uint8)
            self.flags[_ERROR_BYTES] = len(data)
            self.flags[_WORKER] = -1
        finally:
            os._exit(code)

    def gathered(self, step: int, own: list[list[np.ndarray | None]]) -> Tensor:
        """A node standing for the worker's samples of `step`. Its backward
        posts the sum of `own`, this process's sample gradients, waits for
        the worker's, and sets each parameter's gradient to its part of the
        batch gradient. Waiting in a backward pass keeps the wait inside the
        span that an outside tracer gives backward()."""
        k = step % 2

        def bw(_g):
            _sum_grads(own, self.prefix_views[k])
            self.flags[_PARENT] = step
            self.wait(_WORKER, step)
            _fold(self.prefix[k], self.rows[k], self.total)
            for (_, p), g in zip(self.named, self.total_views):
                p.grad = g

        return T._node(np.zeros(()), [p for _, p in self.named], bw)

    def close(self, kill: bool = False) -> None:
        """Reap the worker: after its last step it exits by itself; kill
        stops it first, for a run that ends early."""
        if self.pid is None:
            return
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None

    # -- worker -------------------------------------------------------------

    def run_steps(self, model: GasaUNet, data: PreparedData, cfg: TrainConfig, momentum: dict[str, np.ndarray],
                  rng: Rng, epochs: range, draws: int, weight: Tensor) -> None:
        """The worker's side of train()'s loop: the same steps, samples
        [first, batch) of each."""
        step, last = 0, len(epochs) * cfg.iters_per_epoch
        for epoch in epochs:
            lr = poly_lr(epoch, cfg.epochs, cfg.lr0, cfg.poly_exponent)
            for it in range(cfg.iters_per_epoch):
                step += 1
                k = step % 2
                start = rng.counter
                for j, i in enumerate(range(self.first, self.batch)):
                    self.doing = f"sample {i} of epoch {epoch}, iteration {it}"
                    rng_i = Rng(rng.seed, start + i * draws)
                    self.losses[k, j] = _backprop_sample(model, data, cfg, rng_i, draws, weight)
                    _sum_grads([[p.grad for _, p in self.named]], self.row_views[k][j])
                self.flags[_WORKER] = step
                if step == last:
                    return   # nothing reads the worker's parameters after its last post
                self.doing = f"the step of epoch {epoch}, iteration {it}"
                self.wait(_PARENT, step)
                _fold(self.prefix[k], self.rows[k], self.total)
                for (_, p), g in zip(self.named, self.total_views):
                    p.grad = g
                rng = Rng(rng.seed, start + self.batch * draws)
                sgd_nesterov_step(self.named, momentum, lr, cfg.momentum)


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
    backward, float64 loss) and is backpropagated on its own; the batch
    gradient is the sum of the samples' gradients in sample order, and
    sample i of a step draws its random numbers from the step's RNG counter
    + i * (draws per sample), as one sample after another would.
    With a batch of 2 or more, 2 or more usable CPUs, os.fork, OpenBLAS and
    an x86-64 CPU (_split_batch), a forked worker computes samples
    [ceil(batch/2), batch) of every step while this process computes the
    others, both with one BLAS thread; the result is bitwise the same. The
    worker lives for this call only and is reaped on return and on any
    exception; one that fails or dies raises TrainingWorkerError.
    A non-finite batch loss raises NonFiniteLoss, and so does a non-finite
    gradient, naming the first such parameter, both before the optimizer
    step; resume momentum that does not match the model's parameters by
    name and shape raises VersionMismatch before the first step.
    Every step rebuilds buffers of the same shapes, so the first call sets
    the process's allocator to keep freed memory (tensor.keep_heap_resident):
    from then on the process's resident memory stays at its peak.
    """
    return _train(model, data, cfg, resume, stop_epoch, log_path, _split_batch(cfg.batch))


def _train(
    model: GasaUNet,
    data: PreparedData,
    cfg: TrainConfig,
    resume: Checkpoint | None,
    stop_epoch: int | None,
    log_path: str | Path | None,
    split: bool,
) -> tuple[Checkpoint, list[dict]]:
    """train(), in two processes when `split`, else in this one."""
    cfg.validate()
    if not data.train:
        raise ValueError("training split is empty")
    keep_heap_resident()
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

    split = split and start_epoch < end_epoch
    draws = _sample_draws(model.cfg)
    weight = Tensor(1.0 / cfg.batch)
    first = (cfg.batch + 1) // 2 if split else cfg.batch
    worker = _BatchWorker(named, first, cfg.batch) if split else None
    if worker is None:
        grads = np.empty(sum(p.size for _, p in named))
        grad_views = _views(grads, named)
    else:
        grads, grad_views = worker.total, worker.total_views
    log: list[dict] = []
    log_fh = None
    blas_threads = None
    try:
        if worker is not None:
            get_threads, set_threads = _openblas_threads()
            blas_threads = get_threads()
            set_threads(1)
            worker.start(model, data, cfg, momentum, rng, range(start_epoch, end_epoch), draws, weight)
        log_fh = open(log_path, "a") if log_path is not None else None
        step = 0
        for epoch in range(start_epoch, end_epoch):
            lr = poly_lr(epoch, cfg.epochs, cfg.lr0, cfg.poly_exponent)
            t0 = time.perf_counter()
            losses = []
            for it in range(cfg.iters_per_epoch):
                step += 1
                start = rng.counter
                sample_losses, own = [], []
                for i in range(first):
                    sample_losses.append(
                        _backprop_sample(model, data, cfg, Rng(rng.seed, start + i * draws), draws, weight)
                    )
                    own.append([p.grad for _, p in named])
                if worker is None:
                    _sum_grads(own, grad_views)
                    for (_, p), g in zip(named, grad_views):
                        p.grad = g
                else:
                    worker.doing = f"epoch {epoch}, iteration {it}"
                    worker.gathered(step, own).backward()
                    sample_losses += worker.losses[step % 2].tolist()
                rng = Rng(rng.seed, start + cfg.batch * draws)
                batch_loss = sample_losses[0]
                for value in sample_losses[1:]:
                    batch_loss += value
                loss_value = batch_loss * (1.0 / cfg.batch)
                if not math.isfinite(loss_value):
                    raise NonFiniteLoss(f"loss is {loss_value} at epoch {epoch}, iteration {it}")
                if not np.isfinite(grads).all():
                    name = next(name for (name, _), g in zip(named, grad_views) if not np.isfinite(g).all())
                    raise NonFiniteLoss(f"gradient of parameter {name} is not finite at epoch {epoch}, iteration {it}")
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
        extra = {
            "stats": data.stats.to_dict(),
            "spacing": list(data.spacing),
            "patch_size": list(cfg.patch_size),
            "num_classes": data.num_classes,
        }
        if resume is not None and resume.extra:
            extra = {**resume.extra, **extra}
        ckpt = checkpoint_from_model(model, momentum, end_epoch, rng, extra)
        if worker is not None:
            worker.close()
    finally:
        if worker is not None:
            worker.close(kill=True)
        if blas_threads is not None:
            set_threads(blas_threads)
        if log_fh is not None:
            log_fh.close()
    return ckpt, log
