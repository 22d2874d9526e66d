import json
import os
import re
import struct

import numpy as np
import pytest

from gasaunet.backbone import make_backbone_config, build_model
from gasaunet import tensor as T
from gasaunet import training
from gasaunet.errors import InvalidEpoch, NonFiniteLoss, TrainingWorkerError, VersionMismatch
from gasaunet.losses import soft_dice_ce_loss
from gasaunet.tensor import Rng, Tensor
from gasaunet.training import (
    CKPT_MAGIC,
    CKPT_VERSION,
    Checkpoint,
    PreparedCase,
    PreparedData,
    TrainConfig,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    poly_lr,
    save_checkpoint,
    sgd_nesterov_step,
    train,
)


def test_poly_lr_at_zero():
    assert poly_lr(0, 1000, 0.01) == 0.01


def test_poly_lr_at_max():
    assert poly_lr(1000, 1000, 0.01) == 0.0


def test_poly_lr_midpoint():
    assert abs(poly_lr(500, 1000, 0.01, 0.9) - 0.0053589) <= 1e-7


def test_poly_lr_strictly_decreasing():
    vals = [poly_lr(e, 50, 0.01, 0.9) for e in range(51)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_poly_lr_invalid_epoch():
    with pytest.raises(InvalidEpoch):
        poly_lr(-1, 10, 0.01)
    with pytest.raises(InvalidEpoch):
        poly_lr(11, 10, 0.01)


def test_sgd_mu_zero_is_plain_sgd():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.5])
    bufs = {"p": np.zeros(2)}
    sgd_nesterov_step([("p", p)], bufs, lr=0.1, mu=0.0)
    assert np.allclose(p.data, [0.95, 2.05])


def test_sgd_lr_zero_updates_buffers_only():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    bufs = {"p": np.array([3.0])}
    sgd_nesterov_step([("p", p)], bufs, lr=0.0, mu=0.5)
    assert p.data.tolist() == [1.0]
    assert bufs["p"].tolist() == [3.5]


def test_sgd_two_steps_match_scalar_recurrence():
    # quadratic f(p) = 0.5*p^2, grad = p; hand-rolled recurrence
    mu, lr = 0.9, 0.1
    p_ref, v_ref = 1.0, 0.0
    for _ in range(2):
        g = p_ref
        v_ref = mu * v_ref + g
        p_ref = p_ref - lr * (g + mu * v_ref)

    p = Tensor(np.array([1.0]), requires_grad=True)
    bufs = {"p": np.zeros(1)}
    for _ in range(2):
        p.grad = p.data.copy()
        sgd_nesterov_step([("p", p)], bufs, lr=lr, mu=mu)
        p.zero_grad()
    assert p.data[0] == p_ref
    assert bufs["p"][0] == v_ref


# -- training loop -------------------------------------------------------------


def tiny_data(n_train=3, n_test=1, size=12, seed=0) -> PreparedData:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_train + n_test):
        labels = np.zeros((size, size, size), dtype=np.int64)
        c = rng.integers(3, size - 3, size=3)
        labels[c[0] - 2 : c[0] + 2, c[1] - 2 : c[1] + 2, c[2] - 2 : c[2] + 2] = 1
        image = labels.astype(np.float64) + rng.normal(scale=0.1, size=labels.shape)
        cases.append(
            PreparedCase(
                image=image[None],
                labels=labels,
                resampled_shape=labels.shape,
                native_labels=labels,
                native_spacing=(1.0, 1.0, 1.0),
                native_shape=labels.shape,
            )
        )
    from gasaunet.volume import NormStats

    return PreparedData(
        train=cases[:n_train],
        test=cases[n_train:],
        stats=NormStats(0.0, 1.0, 0.5, 1.0),
        spacing=(1.0, 1.0, 1.0),
        num_classes=2,
    )


def tiny_model(seed=1):
    cfg = make_backbone_config(
        1, 2, (8, 8, 8), stage_channels=(2, 3), d_model=2, heads=1, dropout_p=0.5
    )
    return build_model(cfg, Rng(seed))


def tiny_train_cfg(epochs=3) -> TrainConfig:
    return TrainConfig(epochs=epochs, iters_per_epoch=3, batch=2, patch_size=(8, 8, 8), seed=5)


def test_train_log_shape_and_determinism():
    data = tiny_data()
    ckpt1, log1 = train(tiny_model(), data, tiny_train_cfg())
    ckpt2, log2 = train(tiny_model(), data, tiny_train_cfg())
    assert len(log1) == 3
    assert [e["epoch"] for e in log1] == [0, 1, 2]
    assert [e["loss"] for e in log1] == [e["loss"] for e in log2]
    assert [e["lr"] for e in log1] == [e["lr"] for e in log2]
    for name in ckpt1.params:
        assert np.array_equal(ckpt1.params[name], ckpt2.params[name])


def test_checkpoint_roundtrip_bitwise(tmp_path):
    data = tiny_data()
    ckpt, _ = train(tiny_model(), data, tiny_train_cfg(epochs=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.epoch == ckpt.epoch
    assert back.rng_state == ckpt.rng_state
    assert back.backbone == ckpt.backbone
    assert set(back.params) == set(ckpt.params)
    for name in ckpt.params:
        assert np.array_equal(back.params[name], ckpt.params[name])
    for name in ckpt.momentum:
        assert np.array_equal(back.momentum[name], ckpt.momentum[name])
    assert back.extra == ckpt.extra


def test_resume_matches_unbroken_run(tmp_path):
    data = tiny_data()

    full_ckpt, full_log = train(tiny_model(seed=2), data, tiny_train_cfg(epochs=4))

    half_ckpt, half_log = train(tiny_model(seed=2), data, tiny_train_cfg(epochs=4), stop_epoch=2)
    path = tmp_path / "half.ckpt"
    save_checkpoint(half_ckpt, path)
    loaded = load_checkpoint(path)
    model = model_from_checkpoint(loaded)
    rest_ckpt, rest_log = train(model, data, tiny_train_cfg(epochs=4), resume=loaded)

    losses_joined = [e["loss"] for e in half_log + rest_log]
    losses_full = [e["loss"] for e in full_log]
    assert np.allclose(losses_joined, losses_full, rtol=0, atol=1e-12)
    for name in full_ckpt.params:
        assert np.allclose(rest_ckpt.params[name], full_ckpt.params[name], rtol=0, atol=1e-12)


def test_corrupted_magic_raises(tmp_path):
    data = tiny_data()
    ckpt, _ = train(tiny_model(), data, tiny_train_cfg(epochs=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def _saved_untrained_checkpoint(path):
    model = tiny_model()
    momentum = {name: np.full_like(p.data, 0.5) for name, p in model.named_params()}
    ckpt = checkpoint_from_model(model, momentum, 0, Rng(0))
    save_checkpoint(ckpt, path)
    return ckpt


def test_truncated_checkpoint_names_file_and_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = _saved_untrained_checkpoint(path)
    last = f"m.{list(ckpt.momentum)[-1]}"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}.*{re.escape(last)}"):
        load_checkpoint(path)


@pytest.mark.parametrize("table", ["params", "momentum"])
def test_non_finite_checkpoint_tensor_rejected(tmp_path, table):
    path = tmp_path / "model.ckpt"
    ckpt = _saved_untrained_checkpoint(path)
    name = sorted(getattr(ckpt, table))[0]
    getattr(ckpt, table)[name].reshape(-1)[0] = np.nan
    save_checkpoint(ckpt, path)
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}.*{re.escape(table[0] + '.' + name)}"):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    raw = path.read_bytes()
    start = len(CKPT_MAGIC) + 12
    _, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
    blob = json.dumps(edit(json.loads(raw[start : start + hlen]))).encode()
    path.write_bytes(CKPT_MAGIC + struct.pack("<IQ", CKPT_VERSION, len(blob)) + blob + raw[start + hlen :])


def _without(table, key):
    del table[key]


@pytest.mark.parametrize("edit, field", [
    (lambda h: {"epoch": 0}, "tensors"),
    (lambda h: [h], "tensors"),
    (lambda h: {**h, "tensors": {}}, "tensors"),
    (lambda h: _without(h["tensors"][0], "offset") or h, "offset"),
    (lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": "4"}]}, "shape"),
    (lambda h: {**h, "tensors": [{**h["tensors"][0], "name": 7}]}, "name"),
    (lambda h: _without(h, "backbone") or h, "backbone"),
    (lambda h: _without(h["backbone"], "num_classes") or h, "backbone"),
    (lambda h: {**h, "epoch": "0"}, "epoch"),
    (lambda h: _without(h, "rng") or h, "rng"),
    (lambda h: {**h, "rng": [1]}, "rng"),
    (lambda h: {**h, "extra": []}, "extra"),
    (lambda h: {**h, "payload_crc32": "0"}, "payload_crc32"),
])
def test_malformed_checkpoint_header_names_file_and_field(tmp_path, edit, field):
    path = tmp_path / "model.ckpt"
    _saved_untrained_checkpoint(path)
    _rewrite_header(path, edit)
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}.*'{field}'"):
        load_checkpoint(path)


def test_checkpoint_shape_whose_size_overflows_int64_names_file_and_tensor(tmp_path):
    # 2**32 * 2**32 elements wrap to 0 in int64 arithmetic
    path = tmp_path / "model.ckpt"
    ckpt = _saved_untrained_checkpoint(path)
    _rewrite_header(path, lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [2**32, 2**32]}]})
    first = f"p.{list(ckpt.params)[0]}"
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}.*{re.escape(first)} needs payload bytes"):
        load_checkpoint(path)


def test_checkpoint_without_payload_checksum_loads(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = _saved_untrained_checkpoint(path)
    _rewrite_header(path, lambda h: _without(h, "payload_crc32") or h)
    loaded = load_checkpoint(path)
    assert all(np.array_equal(loaded.params[k], v) for k, v in ckpt.params.items())


def test_non_finite_loss_stops_training():
    data = tiny_data()
    for case in data.train:
        case.image[:, 4:10, 4:10, 4:10] = np.nan
    with pytest.raises(NonFiniteLoss, match="epoch 0, iteration 0"):
        train(tiny_model(), data, tiny_train_cfg())


def test_non_finite_gradient_stops_training_before_the_step(monkeypatch):
    model = tiny_model()
    params = dict(model.named_params())
    before = {name: p.data.copy() for name, p in params.items()}
    poisoned = params["dec0.post.gamma"]

    def loss_fn(logits, onehot):
        # the loss value and every other gradient stay as they are
        loss = soft_dice_ce_loss(logits, onehot)

        def bw(g):
            loss.accumulate_grad(g)
            poisoned.accumulate_grad(np.full(poisoned.shape, np.inf))

        return T._node(loss.data, (loss, poisoned), bw)

    monkeypatch.setattr(training, "soft_dice_ce_loss", loss_fn)
    with pytest.raises(NonFiniteLoss, match=r"parameter dec0\.post\.gamma is not finite at epoch 0, iteration 0"):
        train(model, tiny_data(), tiny_train_cfg())
    assert all(np.array_equal(p.data, before[name]) for name, p in params.items())


def test_loss_decreases_on_easy_task():
    data = tiny_data()
    cfg = TrainConfig(epochs=8, iters_per_epoch=4, batch=2, patch_size=(8, 8, 8), seed=3)
    _, log = train(tiny_model(seed=4), data, cfg)
    assert log[-1]["loss"] < log[0]["loss"]


def test_preprocess_uses_supplied_fingerprint(tmp_path):
    from gasaunet.phantom import PhantomSpec, load_manifest, make_dataset
    from gasaunet.training import preprocess_manifest
    from gasaunet.volume import NormStats, read_volume

    spec = PhantomSpec(size=(16, 16, 16), seed=1)
    make_dataset(spec, 2, tmp_path, n_test=1)
    manifest, root = load_manifest(tmp_path)
    auto = preprocess_manifest(manifest, root, (8, 8, 8))
    stats = NormStats(p_lo=-1e9, p_hi=1e9, mean=0.0, std=2.0)
    forced = preprocess_manifest(manifest, root, (8, 8, 8), stats=stats, spacing=(1.0, 1.0, 1.0))
    raw = read_volume(root / manifest["cases"][0]["image"]).data
    assert np.allclose(forced.train[0].image, raw / 2.0)
    assert not np.allclose(auto.train[0].image, forced.train[0].image)


@pytest.mark.parametrize("edit", ["missing", "misshaped", "unknown"])
def test_resume_momentum_mismatch_stops_before_the_first_step(edit):
    data = tiny_data()
    ckpt, _ = train(tiny_model(), data, tiny_train_cfg(epochs=2), stop_epoch=1)
    if edit == "missing":
        del ckpt.momentum["head.b"]
    elif edit == "misshaped":
        ckpt.momentum["head.b"] = np.zeros(7)
    else:
        ckpt.momentum["head.extra"] = np.zeros(2)
    model = model_from_checkpoint(ckpt)
    before = {name: p.data.copy() for name, p in model.named_params()}
    with pytest.raises(VersionMismatch, match="head.extra" if edit == "unknown" else "head.b"):
        train(model, data, tiny_train_cfg(epochs=2), resume=ckpt)
    for name, p in model.named_params():
        assert np.array_equal(p.data, before[name]), name


def test_failed_save_keeps_the_earlier_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = _saved_untrained_checkpoint(path)
    saved = path.read_bytes()
    # a tensor that cannot be written as float64 makes the save fail after
    # the header and the parameters are written
    ckpt.momentum["unwritable"] = np.array([object()], dtype=object)
    with pytest.raises(TypeError):
        save_checkpoint(ckpt, path)
    assert path.read_bytes() == saved
    assert list(tmp_path.iterdir()) == [path]


def test_training_backward_runs_in_float32_and_parameters_stay_float64(monkeypatch):
    """A float64 gradient leaking into the float32 graph keeps every numerical
    test green and loses the speed of the float32 pass; this test sees it."""
    received = []  # (closure name, output dtype, gradient dtype) per backward call
    node = T._node

    def recording_node(data, parents, backward):
        name, dtype = backward.__qualname__.split(".")[0], np.asarray(data).dtype

        def bw(g):
            received.append((name, dtype, g.dtype))
            backward(g)

        return node(data, parents, bw)

    monkeypatch.setattr(T, "_node", recording_node)
    # in one process, so that this process records both samples' closures
    monkeypatch.setattr(training, "_split_batch", lambda batch: False)
    model = tiny_model()
    ckpt, _ = train(model, tiny_data(), TrainConfig(epochs=1, iters_per_epoch=1, batch=2, patch_size=(8, 8, 8)))
    convs = [r for r in received if r[0] == "conv3d"]
    assert len(convs) == 2 * 7  # per sample: 4 encoder convs, the reduce, the post and the head
    assert all(out == g == np.float32 for _, out, g in convs)
    assert all(out == g for _, out, g in received)
    assert {out for _, out, _ in received} == {np.dtype(np.float32), np.dtype(np.float64)}
    for name, p in model.named_params():
        assert p.data.dtype == p.grad.dtype == ckpt.momentum[name].dtype == np.float64, name


# -- the samples of a step in two processes -------------------------------------

two_processes = pytest.mark.skipif(not training._split_batch(2), reason="train() cannot fork a batch worker here")


def joint_graph_train(model, data, cfg):
    """The training loop before the batch was split: one graph holds every
    sample of a step, and one backward pass sums their gradients."""
    named = list(model.named_params())
    momentum = {name: np.zeros_like(p.data) for name, p in named}
    rng = Rng(cfg.seed)
    log = []
    for epoch in range(cfg.epochs):
        lr = poly_lr(epoch, cfg.epochs, cfg.lr0, cfg.poly_exponent)
        losses = []
        for _ in range(cfg.iters_per_epoch):
            total = None
            for _ in range(cfg.batch):
                case = data.train[rng.randint(len(data.train))]
                img, onehot = training._sample_patch(case, cfg.patch_size, rng, data.num_classes)
                loss = training.sample_loss(model, img, onehot, rng)
                total = loss if total is None else T.add(total, loss)
            total = T.mul(total, Tensor(1.0 / cfg.batch))
            losses.append(total.item())
            model.zero_grads()
            total.backward()
            sgd_nesterov_step(named, momentum, lr, cfg.momentum)
        log.append(float(np.mean(losses)))
    return checkpoint_from_model(model, momentum, cfg.epochs, rng), log


def assert_same_run(a, b):
    """Two (checkpoint, loss log) pairs are bitwise equal; a log lists
    train()'s entries or bare losses."""
    (ckpt_a, log_a), (ckpt_b, log_b) = a, b
    losses = lambda log: [e["loss"] if isinstance(e, dict) else e for e in log]  # noqa: E731
    assert losses(log_a) == losses(log_b)
    assert ckpt_a.rng_state == ckpt_b.rng_state
    assert ckpt_a.params.keys() == ckpt_b.params.keys() == ckpt_a.momentum.keys() == ckpt_b.momentum.keys()
    for name in ckpt_a.params:
        assert np.array_equal(ckpt_a.params[name], ckpt_b.params[name]), name
        assert np.array_equal(ckpt_a.momentum[name], ckpt_b.momentum[name]), name


def split_cfg(batch=2, epochs=2) -> TrainConfig:
    return TrainConfig(epochs=epochs, iters_per_epoch=3, batch=batch, patch_size=(8, 8, 8), seed=5)


@pytest.mark.parametrize("split", [False, pytest.param(True, marks=two_processes)])
def test_batch_of_two_is_bitwise_the_joint_graph_loop(split):
    data, cfg = tiny_data(), split_cfg()
    want = joint_graph_train(tiny_model(), data, cfg)
    got = training._train(tiny_model(), data, cfg, None, None, None, split)
    assert_same_run(got, want)


@two_processes
@pytest.mark.parametrize("batch", [3, 4])
def test_two_processes_are_bitwise_one_process(batch):
    data, cfg = tiny_data(), split_cfg(batch)
    one = training._train(tiny_model(), data, cfg, None, None, None, False)
    two = training._train(tiny_model(), data, cfg, None, None, None, True)
    assert_same_run(one, two)


def test_one_usable_cpu_runs_in_one_process(monkeypatch):
    data, cfg = tiny_data(), split_cfg()
    want = train(tiny_model(), data, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_run(train(tiny_model(), data, cfg), want)


def test_a_sample_that_draws_another_count_raises(monkeypatch):
    model = tiny_model()
    draws = training._sample_draws(model.cfg)
    assert draws == 4 + 12 * 2   # case, corners; dropout on 4 + 4 + 4 tokens x d_model 2
    monkeypatch.setattr(training, "_sample_draws", lambda cfg: draws - 1)
    with pytest.raises(RuntimeError, match=f"drew {draws} random numbers, expected {draws - 1}"):
        train(model, tiny_data(), split_cfg())


def in_worker(parent=os.getpid()) -> bool:
    return os.getpid() != parent


def forked_pids(monkeypatch) -> list[int]:
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


@two_processes
def test_an_exception_in_a_worker_sample_names_epoch_iteration_and_sample(monkeypatch):
    calls, real = [0], training.sample_loss

    def failing(*args):
        if in_worker():
            calls[0] += 1
            if calls[0] == 5:   # the worker's 5th sample: epoch 1, iteration 1
                raise ValueError("bad patch")
        return real(*args)

    monkeypatch.setattr(training, "sample_loss", failing)
    pids = forked_pids(monkeypatch)
    with pytest.raises(TrainingWorkerError, match=r"^sample 1 of epoch 1, iteration 1 raised .*ValueError: bad patch"):
        train(tiny_model(), tiny_data(), split_cfg())
    assert_reaped(pids)


@two_processes
def test_a_worker_that_dies_is_reported(monkeypatch):
    real = training.sample_loss

    def dying(*args):
        if in_worker():
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(training, "sample_loss", dying)
    pids = forked_pids(monkeypatch)
    with pytest.raises(TrainingWorkerError, match="died .* epoch 0, iteration 0"):
        train(tiny_model(), tiny_data(), split_cfg())
    assert_reaped(pids)


@two_processes
def test_a_non_finite_loss_in_a_worker_sample_stops_training(monkeypatch):
    real = training.sample_loss

    def nan_in_worker(*args):
        loss = real(*args)
        return T.mul(loss, Tensor(np.nan)) if in_worker() else loss

    monkeypatch.setattr(training, "sample_loss", nan_in_worker)
    model = tiny_model()
    before = {name: p.data.copy() for name, p in model.named_params()}
    with pytest.raises(NonFiniteLoss, match=r"^loss is nan at epoch 0, iteration 0$"):
        train(model, tiny_data(), split_cfg())
    assert all(np.array_equal(p.data, before[name]) for name, p in model.named_params())


@two_processes
def test_a_non_finite_gradient_in_a_worker_sample_stops_training(monkeypatch):
    model = tiny_model()
    poisoned = dict(model.named_params())["dec0.post.gamma"]
    real = training.sample_loss

    def inf_grad_in_worker(*args):
        loss = real(*args)
        if not in_worker():
            return loss

        def bw(g):
            loss.accumulate_grad(g)
            poisoned.accumulate_grad(np.full(poisoned.shape, np.inf))

        return T._node(loss.data, (loss, poisoned), bw)

    monkeypatch.setattr(training, "sample_loss", inf_grad_in_worker)
    with pytest.raises(NonFiniteLoss, match=r"parameter dec0\.post\.gamma is not finite at epoch 0, iteration 0"):
        train(model, tiny_data(), split_cfg())


@two_processes
def test_keyboard_interrupt_in_the_parent_reaps_the_worker(monkeypatch):
    real, steps = training.sgd_nesterov_step, [0]

    def interrupted(*args):
        steps[0] += 1
        if steps[0] == 2 and not in_worker():
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(training, "sgd_nesterov_step", interrupted)
    pids = forked_pids(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        train(tiny_model(), tiny_data(), split_cfg())
    assert_reaped(pids)
