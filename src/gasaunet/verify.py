"""Independent numerical oracles and the self-check suite behind `verify`.

Each check re-derives expected values by a route that does not share code
with the implementation it validates: central finite differences against the
autodiff engine, an all-pairs surface-distance scan against the metric, a
dense accumulation loop against the tiled inference path, analytic
functions against the resampler, and the float64 forward pass and its
gradients against the float32 ones that inference and training run,
a training step and mirror TTA in one process against the same work
split over two, and the convolution's in-place BLAS GEMMs against its NumPy
expression.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Rng, Tensor


def fd_grad(f: Callable[[], Tensor], param: Tensor, eps: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of scalar f with respect to param."""
    g = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        gflat[i] = _fd_element(f, flat, i, eps)
    return g


def _fd_element(f: Callable[[], Tensor], flat: np.ndarray, i: int, eps: float) -> float:
    orig = flat[i]
    flat[i] = orig + eps
    hi = f().item()
    flat[i] = orig - eps
    lo = f().item()
    flat[i] = orig
    return (hi - lo) / (2.0 * eps)


def max_rel_err(ad: np.ndarray, fd: np.ndarray, atol: float = 1e-6) -> float:
    """max |ad-fd| / (max(|ad|,|fd|) + atol), elementwise.

    The absolute floor keeps mathematically-zero gradients (where the central
    difference returns cancellation noise of order 1e-11) from reading as
    spurious relative error.
    """
    denom = np.maximum(np.abs(ad), np.abs(fd)) + atol
    return float(np.max(np.abs(ad - fd) / denom))


def gradcheck(
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    eps: float = 1e-4,
    tol: float = 1e-3,
    refine_eps: float = 1e-5,
) -> dict:
    """Compare autodiff gradients of scalar f against central differences.

    Elements whose probe at `eps` disagrees are re-probed at `refine_eps`:
    with leaky-ReLU in the graph a step of 1e-4 routinely straddles a kink,
    which corrupts the difference quotient without any autodiff error. A
    genuine gradient bug fails at every step size and still fails here. f is
    re-evaluated from scratch per probe so it must be deterministic.

    Returns {"passed", "max_rel_err", "worst_param", "refined_elements"}.
    """
    for _, p in params:
        p.zero_grad()
    f().backward()
    worst = 0.0
    worst_name = ""
    refined = 0
    for name, p in params:
        ad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        fd = fd_grad(f, p, eps=eps).reshape(-1)
        err = np.abs(ad - fd) / (np.maximum(np.abs(ad), np.abs(fd)) + 1e-6)
        flat = p.data.reshape(-1)
        for i in np.flatnonzero(err > tol):
            fd_i = _fd_element(f, flat, int(i), refine_eps)
            err[i] = abs(ad[i] - fd_i) / (max(abs(ad[i]), abs(fd_i)) + 1e-6)
            refined += 1
        emax = float(err.max()) if err.size else 0.0
        if emax > worst:
            worst = emax
            worst_name = name
    return {
        "passed": worst <= tol,
        "max_rel_err": worst,
        "worst_param": worst_name,
        "refined_elements": refined,
    }


# ---------------------------------------------------------------------------
# check suite (used by the CLI `verify` command and by the test suite)
# ---------------------------------------------------------------------------


def check_gradients(perturb: bool = False) -> dict:
    """Gradient check of a small full model + loss against finite differences.

    perturb=True injects a deliberate error into one gradient to prove the
    detector actually detects.
    """
    from .backbone import BackboneConfig, build_model
    from .gasa import GasaConfig
    from .losses import soft_dice_ce_loss

    rng = Rng(2024)
    cfg = BackboneConfig(
        in_channels=1,
        num_classes=2,
        stage_channels=(2, 4),
        downsample_strides=((1, 1, 1), (2, 2, 2)),
        gasa=GasaConfig(d_model=4, heads=2, in_channels=4, spatial=(3, 3, 3)),
    )
    model = build_model(cfg, rng)
    x = Tensor(rng.normal_array(6 * 6 * 6).reshape(1, 6, 6, 6))
    labels = rng.uniform_array(6 * 6 * 6).reshape(6, 6, 6) > 0.5
    onehot = np.stack([~labels, labels]).astype(np.float64)
    drop_rng_state = rng.state

    def f() -> Tensor:
        logits = model.forward(x, training=True, rng=Rng.from_state(drop_rng_state))
        return soft_dice_ce_loss(logits, Tensor(onehot))

    params = list(model.named_params())
    if perturb:
        # inject a fault into one autodiff gradient; the comparison must see it
        for _, p in params:
            p.zero_grad()
        f().backward()
        name0, p0 = params[0]
        ad = p0.grad.reshape(-1)
        ad[0] += 0.05 * (1.0 + abs(ad[0]))
        fd = fd_grad(f, p0).reshape(-1)
        err = max_rel_err(ad, fd)
        result = {"passed": err <= 1e-3, "max_rel_err": err, "worst_param": name0}
    else:
        result = gradcheck(f, params)
    result["name"] = "gradient_oracle"
    return result


def nsd_brute_force(
    pred: np.ndarray,
    gt: np.ndarray,
    class_ids: Sequence[int],
    tau: float,
    spacing: Sequence[float],
) -> float | None:
    """O(n^2) surface-distance reference: explicit border scan + all pairs."""
    sp = np.asarray(spacing, dtype=np.float64)

    def borders(mask: np.ndarray) -> list[tuple[int, int, int]]:
        w, h, d = mask.shape
        out = []
        for i in range(w):
            for j in range(h):
                for k in range(d):
                    if not mask[i, j, k]:
                        continue
                    on_edge = False
                    for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                        ni, nj, nk = i + di, j + dj, k + dk
                        if not (0 <= ni < w and 0 <= nj < h and 0 <= nk < d) or not mask[ni, nj, nk]:
                            on_edge = True
                            break
                    if on_edge:
                        out.append((i, j, k))
        return out

    pm = np.isin(pred, class_ids)
    gm = np.isin(gt, class_ids)
    if not pm.any() and not gm.any():
        return None
    bp = borders(pm)
    bg = borders(gm)

    def hits(src: list, dst: list) -> int:
        n = 0
        dst_pts = [np.array(v, dtype=np.float64) * sp for v in dst]
        for v in src:
            p = np.array(v, dtype=np.float64) * sp
            best = np.inf
            for q in dst_pts:
                dd = float(np.sqrt(((p - q) ** 2).sum()))
                if dd < best:
                    best = dd
            if best <= tau:
                n += 1
        return n

    num = hits(bp, bg) + hits(bg, bp)
    den = len(bp) + len(bg)
    return num / den


def check_nsd(n_cases: int = 40, seed: int = 7) -> dict:
    """Metric NSD vs the brute-force scan on random small volumes."""
    from .metrics import nsd

    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(n_cases):
        shape = tuple(rng.integers(2, 7, size=3))
        n_labels = int(rng.integers(2, 4))
        pred = rng.integers(0, n_labels, size=shape)
        gt = rng.integers(0, n_labels, size=shape)
        spacing = tuple(rng.choice([0.5, 1.0, 2.0], size=3))
        tau = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        ids = [1]
        got = nsd(pred, gt, ids, tau, spacing)
        want = nsd_brute_force(pred, gt, ids, tau, spacing)
        if got != want:
            mismatches += 1
    return {"name": "nsd_oracle", "passed": mismatches == 0, "mismatches": mismatches, "cases": n_cases}


def check_interpolation(seed: int = 11) -> dict:
    """Resampler against analytic ramps/constants and the no-novel-ids rule."""
    from .volume import Volume, resample_image, resample_labels

    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(20):
        shape = tuple(rng.integers(4, 10, size=3))
        const = float(rng.normal())
        vol = Volume(np.full(shape, const)[None], spacing=(1.0, 1.0, 1.0), kind="image")
        out = resample_image(vol, (0.5, 0.75, 1.25))
        if not np.all(out.data == const):
            ok = False
        axis_ramp = np.arange(shape[0], dtype=np.float64)[:, None, None]
        ramp = np.broadcast_to(axis_ramp, shape).copy()
        rvol = Volume(ramp[None], spacing=(1.0, 1.0, 1.0), kind="image")
        rout = resample_image(rvol, (0.5, 1.0, 1.0))
        expect = np.arange(rout.data.shape[1], dtype=np.float64) * 0.5
        # interior: all four cubic taps inside the grid (no border clamping)
        interior = (expect >= 1.0) & (expect <= shape[0] - 2.0)
        err = np.max(np.abs(rout.data[0, interior] - expect[interior, None, None]))
        worst = max(worst, float(err))
        labels = rng.integers(0, 4, size=shape).astype(np.uint16)
        lvol = Volume(labels, spacing=(1.0, 1.0, 1.0), kind="labels")
        lout = resample_labels(lvol, (0.6, 0.8, 1.4), num_classes=4)
        if not set(np.unique(lout.data)) <= set(np.unique(labels)):
            ok = False
    return {"name": "interpolation_oracle", "passed": ok and worst <= 1e-9, "max_ramp_err": worst}


def check_sliding_window(seed: int = 3) -> dict:
    """Tiled inference vs a dense accumulate/divide loop on a position stub."""
    from .inference import SlidingWindowConfig, gaussian_importance, sliding_window_predict

    shape = (11, 9, 10)
    patch = (4, 4, 4)

    def stub(x: np.ndarray) -> np.ndarray:
        s = x.sum(axis=0)
        return np.stack([s, -s, 0.5 * s])

    vol = np.random.default_rng(seed).normal(size=(2,) + shape)
    swc = SlidingWindowConfig(patch_size=patch, overlap=0.5)
    got = sliding_window_predict(stub, vol, swc)

    weight = gaussian_importance(patch, swc.sigma_scale)
    acc = np.zeros((3,) + shape)
    wacc = np.zeros(shape)
    starts = []
    for ax, (n, p) in enumerate(zip(shape, patch)):
        stride = max(1, int(round(p * (1.0 - swc.overlap))))
        s = list(range(0, max(n - p, 0) + 1, stride))
        if s[-1] != n - p:
            s.append(n - p)
        starts.append(sorted(set(s)))
    for i in starts[0]:
        for j in starts[1]:
            for k in starts[2]:
                win = vol[:, i : i + 4, j : j + 4, k : k + 4]
                logits = stub(win)
                e = np.exp(logits - logits.max(axis=0, keepdims=True))
                probs = e / e.sum(axis=0, keepdims=True)
                acc[:, i : i + 4, j : j + 4, k : k + 4] += probs * weight
                wacc[i : i + 4, j : j + 4, k : k + 4] += weight
    want = acc / wacc
    err = float(np.max(np.abs(got - want)))
    return {"name": "sliding_window_oracle", "passed": err <= 1e-12, "max_err": err}


# Largest logit difference allowed between float32 inference and the float64
# forward: ~1700 float32 roundoffs (6e-8) at unit logit scale, where about 5e-6
# is measured on untrained and trained models.
INFERENCE_LOGIT_TOL = 1e-4


def check_inference_precision(seed: int = 5) -> dict:
    """predict_logits (float32 forward) against the float64 forward of the
    default model on a random 16^3 tile: same argmax at every voxel, and
    logits within INFERENCE_LOGIT_TOL."""
    from . import tensor as T
    from .backbone import build_model, make_backbone_config

    rng = Rng(seed)
    model = build_model(make_backbone_config(1, 3, (16, 16, 16)), rng)
    x = rng.normal_array(16 ** 3).reshape(1, 16, 16, 16)
    with T.no_grad():
        want = model.forward(Tensor(x)).data
    got = model.predict_logits(x)
    err = float(np.max(np.abs(got - want)))
    flips = int(np.count_nonzero(got.argmax(axis=0) != want.argmax(axis=0)))
    return {
        "name": "inference_precision",
        "passed": flips == 0 and err <= INFERENCE_LOGIT_TOL,
        "max_logit_err": err,
        "argmax_flips": flips,
        "tol": INFERENCE_LOGIT_TOL,
    }


# Largest relative L2 difference allowed between a parameter's gradient from
# the float32 training forward and the all-float64 gradient; about 2e-6 is
# measured on the default model.
TRAINING_GRAD_TOL = 1e-4


def check_training_precision(seed: int = 5) -> dict:
    """The gradients train() computes (training.sample_loss: float32 forward
    and backward, float64 loss) against the all-float64 gradients of the
    default model on one 16^3 sample with the same dropout draws: every
    parameter's gradient must be float64 and within TRAINING_GRAD_TOL
    relative L2 error."""
    from . import training
    from .backbone import build_model, make_backbone_config
    from .losses import soft_dice_ce_loss

    rng = Rng(seed)
    model = build_model(make_backbone_config(1, 3, (16, 16, 16)), rng)
    x = rng.normal_array(16 ** 3).reshape(1, 16, 16, 16)
    labels = (rng.uniform_array(16 ** 3) * 3).astype(np.int64).reshape(16, 16, 16)
    onehot = np.stack([labels == c for c in range(3)]).astype(np.float64)
    drop_state = rng.state
    params = list(model.named_params())

    training.sample_loss(model, x, onehot, Rng.from_state(drop_state)).backward()
    got = {name: p.grad for name, p in params}
    model.zero_grads()
    logits = model.forward(Tensor(x), training=True, rng=Rng.from_state(drop_state))
    soft_dice_ce_loss(logits, Tensor(onehot)).backward()

    worst, worst_name, not_float64 = 0.0, "", []
    for name, p in params:
        g = got[name]
        if g is None or g.dtype != np.float64:
            not_float64.append(name)
            continue
        err = float(np.linalg.norm(g - p.grad) / np.linalg.norm(p.grad))
        if err >= worst:
            worst, worst_name = err, name
    return {
        "name": "training_precision",
        "passed": not not_float64 and worst <= TRAINING_GRAD_TOL,
        "max_rel_l2_err": worst,
        "worst_param": worst_name,
        "not_float64": not_float64,
        "tol": TRAINING_GRAD_TOL,
    }


def check_training_processes(seed: int = 5) -> dict:
    """Two train() steps of the default model on a random 20^3 case, at
    batch 2, 3 and 4, in this process and again with samples [ceil(B/2), B)
    of each step in the worker process (a one-step call does not use it):
    per batch the loss, parameters, momentum and RNG state must be bitwise
    equal. `path` says which way train() runs here; where this process
    cannot run a worker (worker.usable), both runs stay in this process."""
    from . import training, worker
    from .backbone import build_model, make_backbone_config
    from .volume import NormStats

    rng = Rng(seed)
    image = rng.normal_array(20 ** 3).reshape(1, 20, 20, 20)
    labels = (rng.uniform_array(20 ** 3) * 3).astype(np.int64).reshape(20, 20, 20)
    case = training.PreparedCase(image, labels, labels.shape, labels, (1.0, 1.0, 1.0), labels.shape)
    data = training.PreparedData([case], [], NormStats(0.0, 1.0, 0.0, 1.0), (1.0, 1.0, 1.0), 3)
    two = worker.usable()
    loss, same_loss, differ, same_rng = {}, {}, {}, True
    for batch in (2, 3, 4):
        cfg = training.TrainConfig(epochs=1, iters_per_epoch=2, batch=batch, patch_size=(16, 16, 16), seed=seed)
        (one, one_log), (other, other_log) = (
            training._train(build_model(make_backbone_config(1, 3, (16, 16, 16)), Rng(seed)), data, cfg, None, None,
                            None, split) for split in (False, two)
        )
        differ[batch] = [name for name in one.params if not np.array_equal(one.params[name], other.params[name])
                         or not np.array_equal(one.momentum[name], other.momentum[name])]
        loss[batch], same_loss[batch] = one_log[0]["loss"], one_log[0]["loss"] == other_log[0]["loss"]
        same_rng = same_rng and one.rng_state == other.rng_state
    return {
        "name": "training_processes",
        "passed": all(same_loss.values()) and not any(differ.values()) and same_rng,
        "path": "two processes" if two else "one process",
        "loss": loss,
        "same_loss": same_loss,
        "tensors_differ": differ,
    }


def check_tta_processes(seed: int = 5) -> dict:
    """Mirror TTA of the default 16^3 model on a random 20^3 volume (8
    tiles per pass), computed in this process and again with passes 4-7 in
    the worker process: the probability maps must be bitwise equal, for the
    bound predict_logits, for a bound method of another object that calls
    the model, for a closure over the model, and for that closure again
    after an in-place optimizer step on the model, which the same worker
    must see. `path` says which way tta_mirror_predict itself runs
    here; where this process cannot run a worker (worker.usable), both runs
    stay in this process."""
    from . import inference, worker
    from .backbone import build_model, make_backbone_config
    from .training import sgd_nesterov_step

    rng = Rng(seed)
    model = build_model(make_backbone_config(1, 3, (16, 16, 16)), rng)
    volume = rng.normal_array(20 ** 3).reshape(1, 20, 20, 20)
    swc = inference.SlidingWindowConfig(patch_size=(16, 16, 16), tta_mirror=True)
    two = worker.usable()
    same = lambda fn: _same_bits(*(inference._tta_mirror(fn, volume, swc, s) for s in (False, two)))  # noqa: E731
    closure = lambda x: model.predict_logits(x)  # noqa: E731

    class Holder:
        def predict(self, x):
            return model.predict_logits(x)

    same_bits = {"predict_logits": same(model.predict_logits), "bound method of another object": same(Holder().predict),
                 "closure": same(closure)}
    named = list(model.named_params())
    for _, p in named:
        p.grad = rng.normal_array(p.size).reshape(p.shape)
    sgd_nesterov_step(named, {name: np.zeros_like(p.data) for name, p in named}, 0.01, 0.99)
    same_bits["closure after an in-place step"] = same(closure)
    return {
        "name": "tta_processes",
        "passed": all(same_bits.values()),
        "path": "two processes" if two else "one process",
        "same_bits": same_bits,
    }


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def check_conv_blas(seed: int = 5) -> dict:
    """Every conv of the default 16^3 model that conv3d runs as shifted
    slices, forward and backward on random float32 and float64 data, once
    through the in-place CBLAS GEMMs and once through the NumPy expression:
    the output, dx and dW must be bitwise equal. `path` says which one
    conv3d takes here: cblas where the bundled OpenBLAS exports the GEMMs
    (tensor._gemm), numpy elsewhere, where both runs take the NumPy path."""
    from . import tensor as T
    from .backbone import build_model, conv_layers, make_backbone_config

    rng = Rng(seed)
    model = build_model(make_backbone_config(1, 3, (16, 16, 16)), rng)
    convs = [layer for layer in conv_layers(model, (16, 16, 16)) if T._shifted(layer[2], layer[1].shape[1], layer[1].shape[0])]
    differ = []
    for name, w, _, padding, grid_in, grid_out in convs:
        cout, cin = w.shape[:2]
        for dtype in (np.float32, np.float64):
            x = rng.normal_array(cin * int(np.prod(grid_in))).reshape((cin,) + grid_in).astype(dtype)
            g = rng.normal_array(cout * int(np.prod(grid_out))).reshape((cout,) + grid_out).astype(dtype)
            runs = []
            for blas in (True, False):
                out, grads = T._conv3d_shifted(x, w.data.astype(dtype), padding, (cout,) + grid_out, blas)
                runs.append((out, *grads(g, True, True)))
            if not all(_same_bits(a, b) for a, b in zip(*runs)):
                differ.append(f"{name} {np.dtype(dtype).name}")
    cblas = all(T._gemm(np.dtype(dtype)) is not None for dtype in (np.float32, np.float64))
    return {
        "name": "conv_blas",
        "passed": bool(convs) and not differ,
        "path": "cblas" if cblas else "numpy",
        "convs": [layer[0] for layer in convs],
        "differ": differ,
    }


def run_all(perturb_gradients: bool = False) -> list[dict]:
    return [
        check_gradients(perturb=perturb_gradients),
        check_nsd(),
        check_interpolation(),
        check_sliding_window(),
        check_inference_precision(),
        check_training_precision(),
        check_training_processes(),
        check_tta_processes(),
        check_conv_blas(),
    ]
