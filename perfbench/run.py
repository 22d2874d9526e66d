#!/usr/bin/env python3
"""Outside-in benchmark of the gasaunet engine.

    python3 perfbench/run.py --workload train16|train32|eval_tta|all \
        --seed N --seconds S --trace 0|1

Each workload runs in one process as a closed loop with one caller: the next
training step or evaluation case starts when the previous one has ended. The
inputs are a phantom dataset made by `phantom.make_dataset` from `--seed`
(20 cases of 32^3, 3 classes, 16 train / 4 test); the model and training
seeds are fixed. Only public gasaunet APIs are called.

Workloads:
  train16   `gasaunet train` defaults: 16^3 patches, batch 2, base U-Net with
            GASA (d_model 25, 5 heads, PE after), Nesterov momentum 0.99.
  train32   the same model derived for 32^3, batch 1, whole-volume patches;
            8x the working set of train16.
  eval_tta  `inference.evaluate_split` with mirror TTA on the 4 held-out
            cases, one case per call, with a model trained in set-up.

With `--trace 0` the run reports end-to-end metrics from untraced calls.
With `--trace 1` it wraps public functions and the model's blocks in spans
(see tracer.py) on every other round or case and reports per-layer metrics,
with the untraced rounds in between as the base for `trace.overhead`.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"

sys.path.insert(0, str(SRC))
try:
    from gasaunet import backbone, gasa, inference, metrics, phantom, tensor, training, volume
except ImportError as exc:
    sys.exit(f"perfbench: cannot import gasaunet from {SRC}: {exc}")
if not Path(tensor.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: gasaunet was imported from {tensor.__file__}, not from {SRC}")

from tracer import Tracer  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)

CASES, TEST_CASES, CASE_SIZE = 20, 4, (32, 32, 32)
MODEL_SEED = 0              # build_model and TrainConfig seeds; only the data follows --seed
HORIZON_STEPS = 1000        # poly-LR horizon: the `train` default of 50 epochs x 20 iterations
ALLOC_STEPS = 3             # steps under tracemalloc in a traced training run
EVAL_TRAIN_EPOCHS, EVAL_TRAIN_ITERS = 3, 20   # short schedule that gives the eval model real borders
TAU = 1.0                   # NSD tolerance, the `eval` default
DICE_FLOOR = 0.75           # mean foreground Dice of a run; per-case Dice on seeds 0-9 was 0.79-0.96
PROB_TOL = 1e-9
COVERAGE_FLOOR = 0.90


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train" or "eval"
    patch: int
    batch: int = 1
    setups: int = 9           # set-ups per run; setup_s is their median
    round_steps: int = 0      # steps per train() call; the clock is checked between calls
    collect_between_rounds: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train16", "train", patch=16, batch=2, round_steps=10),
        # Each 32^3 step leaves ~280 MB of cyclic garbage that only the cyclic
        # collector frees; without a collection between short rounds a 30 s run
        # would need ~5 GB. The rounds keep peak_rss_mb bounded and still show it.
        Workload("train32", "train", patch=32, batch=1, round_steps=4, collect_between_rounds=True),
        # set-up includes a 6 s training, so fewer repeats
        Workload("eval_tta", "eval", patch=16, batch=1, setups=3),
    )
}

BLOCKS = ["enc0.0", "enc0.1", "enc1.0", "enc1.1", "enc2.0", "enc2.1",
          "dec0.reduce", "dec0.post", "dec1.reduce", "dec1.post"]

END_TO_END = ("setup_s", "step_ms_p50", "step_ms_p90", "case_s_p50", "voxels_per_s", "peak_rss_mb")


class Report:
    """Metrics with unit and sample count, plus the operation tally."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def check(self, ok: bool, what: str) -> None:
        """One checked operation; a failure is noted with `what`."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")

    def check_each(self, oks: list[bool], what: str) -> None:
        """One checked operation per entry of `oks`."""
        bad = oks.count(False)
        self.attempted += len(oks)
        self.failed += bad
        if bad:
            self.notes.append(f"FAILED: {bad} of {len(oks)} {what}")


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def make_inputs(seed: int, patch: int, workdir: Path):
    """Synthesize the phantom dataset, preprocess it, build the model."""
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    phantom.make_dataset(phantom.PhantomSpec(size=CASE_SIZE, seed=seed), CASES, workdir, n_test=TEST_CASES)
    t1 = time.perf_counter()
    manifest, root = phantom.load_manifest(workdir)
    data = training.preprocess_manifest(manifest, root, (patch,) * 3)
    t2 = time.perf_counter()
    cfg = backbone.make_backbone_config(1, data.num_classes, (patch,) * 3)
    model = backbone.build_model(cfg, tensor.Rng(MODEL_SEED))
    t3 = time.perf_counter()
    times = {"phantom.make_dataset_s": t1 - t0, "training.preprocess_s": t2 - t1, "backbone.build_model_s": t3 - t2}
    return data, model, times


def report_setup(rep: Report, setups: list[dict], extra_s: float = 0.0) -> None:
    for key in ("phantom.make_dataset_s", "training.preprocess_s", "backbone.build_model_s"):
        rep.add(key, statistics.median(s[key] for s in setups), "s", len(setups))
    rep.add("setup_s", statistics.median(sum(s.values()) for s in setups) + extra_s, "s", len(setups))


def train_eval_model(seed: int, workdir: Path) -> None:
    """Set-up of eval_tta, run in a child process so that its training
    memory does not count in the evaluating process's peak RSS. Prints the
    timings of each set-up as one JSON line; leaves data/ and model.ckpt."""
    w = WORKLOADS["eval_tta"]
    patch = w.patch
    setups = []
    for _ in range(w.setups):
        data, model, times = make_inputs(seed, patch, workdir / "data")
        cfg = training.TrainConfig(epochs=EVAL_TRAIN_EPOCHS, iters_per_epoch=EVAL_TRAIN_ITERS,
                                   patch_size=(patch,) * 3, seed=MODEL_SEED)
        t0 = time.perf_counter()
        ckpt, _ = training.train(model, data, cfg)
        t1 = time.perf_counter()
        training.save_checkpoint(ckpt, workdir / "model.ckpt")
        t2 = time.perf_counter()
        setups.append({**times, "training.train_s": t1 - t0, "training.ckpt_save_s": t2 - t1})
        del data, model, ckpt
        gc.collect()
    print(json.dumps(setups))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def install_tracer(tr: Tracer, model) -> None:
    tr.wrap(tensor, "conv3d", "tensor.conv3d")
    tr.wrap(tensor.Tensor, "backward", "tensor.backward")
    tr.wrap(model, "forward", "backbone.forward")
    blocks = [(f"enc{i}.{j}", blk) for i, stage in enumerate(model.encoder) for j, blk in enumerate(stage)]
    blocks += [(f"dec{i}.reduce", blk) for i, blk in enumerate(model.reduce)]
    blocks += [(f"dec{i}.post", blk) for i, blk in enumerate(model.post)]
    for name, blk in blocks:
        tr.wrap(blk, "forward", f"backbone.{name}")
    tr.wrap(gasa, "gasa_forward", "gasa.fwd")
    tr.wrap(gasa, "axial_project", "gasa.project")
    tr.wrap(gasa, "mhsa", "gasa.mhsa")
    tr.wrap(gasa, "axial_expand", "gasa.expand")
    tr.wrap(training, "soft_dice_ce_loss", "losses.loss")
    tr.wrap(training, "sgd_nesterov_step", "training.optimizer")
    tr.wrap(inference, "predict_labels", "inference.predict")
    tr.wrap(inference, "predict_probs", "inference.probs")
    tr.wrap(inference, "tta_mirror_predict", "inference.tta")
    tr.wrap(inference, "sliding_window_predict", "inference.sliding_window")
    tr.wrap(volume, "resample_labels", "volume.resample_labels")
    tr.wrap(metrics, "evaluate_case", "metrics.evaluate_case")


# Layers that only one kind of loop calls. The other kind's traced run
# measures them with one probe unit (see probe_training / probe_evaluation).
TRAIN_ONLY = ("tensor.backward_ms", "losses.loss_ms", "training.optimizer_ms", "training.other_ms")
EVAL_ONLY = ("inference.predict_s", "inference.sliding_window_ms", "inference.tiles", "inference.tile_fwd_ms",
             "inference.blend_ms", "inference.tta_other_ms", "volume.resample_labels_ms",
             "metrics.evaluate_case_ms")


def layer_metrics(tr: Tracer, root: str, units: int, gflop: float) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics per unit of `root`: per training step or per case.
    `inference.sliding_window_ms` is per mirror pass and
    `inference.tile_fwd_ms` per tile."""
    roll = tr.rollup((root,))
    calls, self_s = roll["calls"], roll["self"]

    def ms(name: str, parent: str | None = None) -> tuple[float, str, int]:
        return 1e3 * tr.inclusive(roll, name, parent) / units, "ms", units

    def ms_per_call(name: str) -> tuple[float, str, int]:
        return 1e3 * tr.inclusive(roll, name) / max(calls[name], 1), "ms", calls[name]

    fwd_s = tr.inclusive(roll, "backbone.forward")
    tta_self = sum(self_s[k] for k in ("inference.predict", "inference.probs", "inference.tta"))
    return {
        "tensor.conv3d_fwd_ms": ms("tensor.conv3d"),
        "tensor.conv3d_calls": (calls["tensor.conv3d"] / units, "count", units),
        "tensor.backward_ms": ms("tensor.backward"),
        "backbone.forward_ms": ms("backbone.forward"),
        **{f"backbone.{name}.fwd_ms": ms(f"backbone.{name}") for name in BLOCKS},
        "backbone.head.fwd_ms": ms("tensor.conv3d", "backbone.forward"),
        "backbone.fwd_gflop": (gflop, "GFLOP", 1),
        "backbone.fwd_gflop_per_s": (gflop * calls["backbone.forward"] / fwd_s if fwd_s else 0.0, "GFLOP/s",
                                     calls["backbone.forward"]),
        "gasa.fwd_ms": ms("gasa.fwd"),
        "gasa.project_ms": ms("gasa.project"),
        "gasa.mhsa_ms": ms("gasa.mhsa"),
        "gasa.expand_ms": ms("gasa.expand"),
        "losses.loss_ms": ms("losses.loss"),
        "training.optimizer_ms": ms("training.optimizer"),
        "training.other_ms": (1e3 * self_s["training.round"] / units, "ms", units),
        "inference.predict_s": (tr.inclusive(roll, "inference.predict") / units, "s", units),
        "inference.sliding_window_ms": ms_per_call("inference.sliding_window"),
        "inference.tiles": (calls["inference.tile"] / units, "count", units),
        "inference.tile_fwd_ms": ms_per_call("inference.tile"),
        "inference.blend_ms": (1e3 * self_s["inference.sliding_window"] / units, "ms", units),
        "inference.tta_other_ms": (1e3 * tta_self / units, "ms", units),
        "volume.resample_labels_ms": ms("volume.resample_labels"),
        "metrics.evaluate_case_ms": ms("metrics.evaluate_case"),
        "trace.coverage": (roll["coverage"], "ratio", units),
    }


def report_layers(rep: Report, tr: Tracer, root: str, units: int, gflop: float, probe: dict) -> None:
    """Main-loop layer metrics, the probe's metrics for the layers the loop
    does not call, and the coverage gate."""
    main = layer_metrics(tr, root, units, gflop)
    for key, value in main.items():
        rep.add(key, *(probe[key] if key in probe else value))
    cov = main["trace.coverage"][0]
    rep.check(cov >= COVERAGE_FLOOR, f"traced layers cover {cov:.3f} of {root} time, below {COVERAGE_FLOOR}")


def probe_evaluation(model, data, patch: tuple[int, int, int]) -> dict:
    """Layers of evaluation, traced over one held-out case with mirror TTA."""
    tr = Tracer()
    swc = inference.SlidingWindowConfig(patch_size=patch, tta_mirror=True)
    install_tracer(tr, model)
    try:
        tile = tr.traced("inference.tile", model.predict_logits)
        tr.call("inference.case", inference.evaluate_split, tile, dataclasses.replace(data, test=data.test[:1]), swc, TAU)
    finally:
        tr.uninstall()
    found = layer_metrics(tr, "inference.case", 1, 0.0)
    return {k: found[k] for k in EVAL_ONLY}


def probe_training(model, data, patch: tuple[int, int, int]) -> dict:
    """Layers of training, traced over one `train` default step (batch 2)."""
    tr = Tracer()
    cfg = training.TrainConfig(epochs=HORIZON_STEPS, iters_per_epoch=1, patch_size=patch, seed=MODEL_SEED)
    install_tracer(tr, model)
    try:
        tr.call("training.round", training.train, model, data, cfg, stop_epoch=1)
    finally:
        tr.uninstall()
    found = layer_metrics(tr, "training.round", 1, 0.0)
    return {k: found[k] for k in TRAIN_ONLY}


def report_overhead(rep: Report, untraced: list[float], traced: list[float]) -> None:
    rep.add("trace.overhead", statistics.median(traced) / statistics.median(untraced), "ratio",
            min(len(traced), len(untraced)))


def ckpt_round_trip(rep: Report, ckpt, path: Path, tr: Tracer | None) -> None:
    """One save and one load; the loaded checkpoint must equal the saved one bit for bit."""
    call = tr.call if tr is not None else (lambda _name, fn, *a: fn(*a))
    t0 = time.perf_counter()
    call("training.ckpt_save", training.save_checkpoint, ckpt, path)
    t1 = time.perf_counter()
    back = call("training.ckpt_load", training.load_checkpoint, path)
    t2 = time.perf_counter()
    rep.add("training.ckpt_save_ms", 1e3 * (t1 - t0), "ms", 1)
    rep.add("training.ckpt_load_ms", 1e3 * (t2 - t1), "ms", 1)
    rep.add("training.ckpt_bytes", path.stat().st_size, "bytes", 1)

    def same(a: dict, b: dict) -> bool:
        return a.keys() == b.keys() and all(
            a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
        )

    rep.check(
        same(ckpt.params, back.params) and same(ckpt.momentum, back.momentum)
        and ckpt.epoch == back.epoch and tuple(ckpt.rng_state) == tuple(back.rng_state)
        and ckpt.backbone == back.backbone and ckpt.extra == back.extra,
        "checkpoint save -> load round-trip is not bit-exact",
    )


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


def run_train(w: Workload, seed: int, seconds: float, trace: bool, work: Path, rep: Report) -> None:
    setups = []
    for _ in range(w.setups):
        data, model, times = make_inputs(seed, w.patch, work / "data")
        setups.append(times)
    report_setup(rep, setups)

    patch = (w.patch,) * 3
    cfg = training.TrainConfig(epochs=HORIZON_STEPS, iters_per_epoch=1, batch=w.batch,
                               patch_size=patch, seed=MODEL_SEED)
    tr = Tracer() if trace else None
    step_s: dict[bool, list[float]] = {False: [], True: []}
    losses: list[float] = []
    ckpt = None
    epoch = 0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and epoch < HORIZON_STEPS:
        traced = trace and rounds % 2 == 1
        rounds += 1
        stop = min(epoch + w.round_steps, HORIZON_STEPS)
        train = tr.traced("training.round", training.train) if traced else training.train
        if traced:
            install_tracer(tr, model)
        try:
            ckpt, log = train(model, data, cfg, resume=ckpt, stop_epoch=stop)
        except Exception:
            traceback.print_exc()
            rep.check(False, f"the training round from step {epoch} raised an exception")
            break
        finally:
            if traced:
                tr.uninstall()
        epoch = stop
        step_s[traced] += [e["seconds"] for e in log]
        losses += [e["loss"] for e in log]
        del log
        if w.collect_between_rounds:
            gc.collect()

    steps = len(losses)
    rep.check_each([bool(np.isfinite(x)) for x in losses], "steps have a loss that is not finite")
    q = max(1, steps // 4)
    first, last = float(np.mean(losses[:q])), float(np.mean(losses[-q:]))
    rep.check(steps >= 4 and last < first, f"mean loss of the last quarter {last:.4f} is not below the first {first:.4f}")
    rep.notes.append(f"loss: first quarter {first:.4f}, last quarter {last:.4f}, {steps} steps")

    voxels_per_step = w.batch * w.patch ** 3
    case_voxels = int(np.prod(CASE_SIZE))
    if trace:
        report_layers(rep, tr, "training.round", len(step_s[True]),
                      backbone.count_model_flops(model.cfg, patch) / 1e9, probe_evaluation(model, data, patch))
        report_overhead(rep, step_s[False], step_s[True])
        if w.collect_between_rounds:
            gc.collect()
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(ALLOC_STEPS):
                tracemalloc.reset_peak()
                ckpt, _ = training.train(model, data, cfg, resume=ckpt, stop_epoch=epoch + 1)
                epoch += 1
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        rep.add("tensor.alloc_peak_mb", statistics.median(peaks), "MB", len(peaks))
    else:
        times = step_s[False]
        rep.add("step_ms_p50", 1e3 * statistics.median(times), "ms", len(times))
        rep.add("step_ms_p90", 1e3 * quantile(times, 0.9), "ms", len(times))
        rep.add("case_s_p50", statistics.median(times) * case_voxels / voxels_per_step, "s", len(times))
        rep.add("voxels_per_s", voxels_per_step * len(times) / sum(times), "1/s", len(times))
    ckpt_round_trip(rep, ckpt, work / "roundtrip.ckpt", tr)


# ---------------------------------------------------------------------------
# evaluation workload
# ---------------------------------------------------------------------------


def run_eval(w: Workload, seed: int, seconds: float, trace: bool, work: Path, rep: Report) -> None:
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--train-model", str(work), "--seed", str(seed)],
        capture_output=True, text=True, timeout=150,
    )
    if child.returncode != 0:
        raise RuntimeError(f"eval set-up failed (exit {child.returncode}):\n{child.stderr}")
    setups = json.loads(child.stdout.strip().splitlines()[-1])

    # what `gasaunet eval` does: load the checkpoint, preprocess with its fingerprint
    t0 = time.perf_counter()
    ckpt = training.load_checkpoint(work / "model.ckpt")
    model = training.model_from_checkpoint(ckpt)
    manifest, root = phantom.load_manifest(work / "data")
    patch = tuple(ckpt.extra["patch_size"])
    data = training.preprocess_manifest(
        manifest, root, patch,
        stats=volume.NormStats.from_dict(ckpt.extra["stats"]), spacing=tuple(ckpt.extra["spacing"]),
    )
    load_s = time.perf_counter() - t0
    report_setup(rep, setups, load_s)

    swc = inference.SlidingWindowConfig(patch_size=patch, tta_mirror=True)
    singles = [dataclasses.replace(data, train=[], test=[case]) for case in data.test]
    tr = Tracer() if trace else None
    tile_s: list[float] = []

    def model_fn(x: np.ndarray) -> np.ndarray:
        t = time.perf_counter()
        out = model.predict_logits(x)
        tile_s.append(time.perf_counter() - t)
        return out

    # keep each case's probability map and its labels on the native grid, as
    # evaluate_split computes them, for the output checks
    captured: dict[str, list] = {"probs": [], "native": []}
    patched = [(inference, "predict_probs", "probs"), (volume, "resample_labels", "native")]
    originals = [getattr(owner, attr) for owner, attr, _ in patched]

    def capturing(fn, sink: list):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(out)
            return out
        return wrapper

    case_s: dict[bool, list[float]] = {False: [], True: []}
    case_voxels: list[int] = []
    first: dict[int, tuple] = {}
    dice: list[float] = []
    for owner, attr, key in patched:
        setattr(owner, attr, capturing(getattr(owner, attr), captured[key]))
    try:
        n = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            idx = n % len(singles)
            traced = trace and n % 2 == 1
            n += 1
            evaluate = tr.traced("inference.case", inference.evaluate_split) if traced else inference.evaluate_split
            fn = tr.traced("inference.tile", model_fn) if traced else model_fn
            if traced:
                install_tracer(tr, model)
            try:
                t0 = time.perf_counter()
                res = evaluate(fn, singles[idx], swc, TAU)
                t1 = time.perf_counter()
            except Exception:
                traceback.print_exc()
                for sink in captured.values():
                    sink.clear()
                rep.check(False, f"case {idx} raised an exception")
                continue
            finally:
                if traced:
                    tr.uninstall()
            case_s[traced].append(t1 - t0)
            case = singles[idx].test[0]
            case_voxels.append(int(np.prod(case.resampled_shape)))

            probs = captured["probs"].pop()
            labels = captured["native"].pop().data
            now = (probs.tobytes(), labels.dtype, labels.tobytes(), res["cases"][0])
            prev = first.setdefault(idx, now)
            rep.check(
                probs.shape[0] == data.num_classes
                and bool(np.all(np.abs(probs.sum(axis=0) - 1.0) <= PROB_TOL))
                and labels.shape == tuple(case.native_shape)
                and 0 <= int(labels.min()) and int(labels.max()) < data.num_classes
                and prev == now,
                f"case {idx} pass {(n - 1) // len(singles)}: probabilities do not sum to 1, native-grid labels "
                "are out of range or of the wrong shape, or probabilities, labels or scores differ from the "
                "first pass",
            )
            dice.append(res["report"].mean_dice)
    finally:
        for (owner, attr, _), original in zip(patched, originals):
            setattr(owner, attr, original)

    mean_dice = float(np.mean(dice))
    rep.check(mean_dice > DICE_FLOOR, f"mean foreground Dice {mean_dice:.4f} not above {DICE_FLOOR}")
    rep.notes.append(f"mean foreground Dice {mean_dice:.4f} over {n} cases")

    if trace:
        report_layers(rep, tr, "inference.case", len(case_s[True]),
                      backbone.count_model_flops(model.cfg, patch) / 1e9, probe_training(model, data, patch))
        report_overhead(rep, case_s[False], case_s[True])
        gc.collect()
        tracemalloc.start()
        try:
            inference.evaluate_split(model_fn, singles[0], swc, TAU)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        rep.add("tensor.alloc_peak_mb", peak, "MB", 1)
    else:
        cases = case_s[False]
        rep.add("case_s_p50", statistics.median(cases), "s", len(cases))
        rep.add("step_ms_p50", 1e3 * statistics.median(tile_s), "ms", len(tile_s))
        rep.add("step_ms_p90", 1e3 * quantile(tile_s, 0.9), "ms", len(tile_s))
        rep.add("voxels_per_s", sum(case_voxels) / sum(cases), "1/s", len(cases))
    ckpt_round_trip(rep, ckpt, work / "roundtrip.ckpt", tr)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def print_report(name: str, seed: int, rep: Report) -> None:
    print(f"workload {name}  seed {seed}")
    for note in rep.notes:
        print(f"  {note}")
    width = max(len(k) for k in rep.metrics)
    for key, (value, unit, n) in rep.metrics.items():
        print(f"  {key:<{width}}  {value:>14.6g} {unit:<8} n={n}")


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    work = OUT / f"{w.name}-{os.getpid()}"
    print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    rep = Report()
    try:
        run = run_train if w.kind == "train" else run_eval
        run(w, args.seed, args.seconds, bool(args.trace), work, rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1)

    wanted = [k for k in rep.metrics if (k in END_TO_END) != bool(args.trace)]
    print_report(w.name, args.seed, rep)
    result = {
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": rep.metrics[k][0], "unit": rep.metrics[k][1]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            status = child.returncode or 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--train-model", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.train_model is not None:
        train_eval_model(args.seed, args.train_model)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
