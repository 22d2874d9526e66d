import copy
import dataclasses
import json
import mmap
import os
import pickle
import re
import signal
import struct
import time
import zlib

import numpy as np
import pytest

from gasaunet.backbone import BackboneConfig, make_backbone_config, build_model
from gasaunet import tensor as T
from gasaunet import training, worker
from gasaunet.gasa import GasaConfig
from gasaunet.errors import InvalidConfig, InvalidEpoch, NonFiniteLoss, ShapeMismatch, WorkerError, VersionMismatch
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


@pytest.mark.parametrize("key, value", [
    ("lr0", float("nan")), ("lr0", float("inf")), ("poly_exponent", float("nan")), ("poly_exponent", float("-inf")),
])
def test_train_config_rejects_a_non_finite_learning_rate_schedule(key, value):
    with pytest.raises(InvalidConfig, match="finite"):
        TrainConfig(**{key: value}).validate()


@pytest.mark.parametrize("change", [
    dict(patch_size=(8, 8, 8.5)), dict(patch_size=(8, 8, True)), dict(batch=2.5), dict(batch=True),
    dict(iters_per_epoch=1.5), dict(epochs=2.5), dict(seed=1.5), dict(seed=np.float64(5)),
], ids=repr)
def test_train_config_rejects_a_count_that_is_not_an_integer(change):
    cfg = TrainConfig(**{**vars(split_cfg()), **change})
    with pytest.raises(InvalidConfig, match="integer"):
        train(tiny_model(), tiny_data(), cfg)


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(epochs=np.int64(2), iters_per_epoch=np.int32(3), batch=np.uint8(2),
                      patch_size=tuple(np.full(3, 8)), seed=np.int16(5))
    cfg.validate()
    data = tiny_data()
    assert_same_run(training._train(tiny_model(), data, cfg, None, None, None, False),
                    training._train(tiny_model(), data, split_cfg(), None, None, None, False))


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


@pytest.mark.parametrize("edit", ["missing", "misshaped", "unknown"])
def test_checkpoint_parameters_must_match_the_model(edit):
    ckpt = checkpoint_from_model(tiny_model(), {}, 0, Rng(0))
    if edit == "missing":
        del ckpt.params["head.b"]
    elif edit == "misshaped":
        ckpt.params["head.b"] = np.zeros(7)
    else:
        ckpt.params["head.extra"] = np.zeros(2)
    name = "head.extra" if edit == "unknown" else "parameter head.b"
    with pytest.raises(VersionMismatch, match=f"^checkpoint value for {name} "):
        model_from_checkpoint(ckpt)


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
    """Apply `edit` to a saved checkpoint's JSON header, stored with its
    new CRC-32, so that the field checks behind the CRC are what is tested."""
    raw = path.read_bytes()
    start = len(CKPT_MAGIC) + 16
    _, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
    blob = json.dumps(edit(json.loads(raw[start : start + hlen]))).encode()
    prefix = struct.pack("<IQI", CKPT_VERSION, len(blob), zlib.crc32(blob))
    path.write_bytes(CKPT_MAGIC + prefix + blob + raw[start + hlen :])


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


@pytest.mark.parametrize("table, key", [("backbone", f.name) for f in dataclasses.fields(BackboneConfig)]
                         + [("gasa", f.name) for f in dataclasses.fields(GasaConfig)])
def test_checkpoint_header_without_a_model_config_field_names_backbone(tmp_path, table, key):
    path = tmp_path / "model.ckpt"
    _saved_untrained_checkpoint(path)

    def edit(header):
        backbone = header["backbone"]
        del (backbone if table == "backbone" else backbone["gasa"])[key]
        return header

    _rewrite_header(path, edit)
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}: checkpoint header field 'backbone' is malformed"):
        load_checkpoint(path)


def test_checkpoint_round_trips_a_model_config_unlike_the_defaults(tmp_path):
    cfg = make_backbone_config(1, 2, (8, 8, 8), stage_channels=(2, 4), variant="large", d_model=2, heads=2,
                               pe_mode="before", use_layer_norm=True, dropout_p=0.25)
    cfg.large_res_blocks = (1, 2)
    for obj in (cfg, cfg.gasa):
        for f in dataclasses.fields(obj):
            assert f.default is dataclasses.MISSING or getattr(obj, f.name) != f.default, f.name
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(cfg, Rng(0)), {}, 0, Rng(0)), path)
    assert load_checkpoint(path).backbone == cfg


def test_checkpoint_shape_whose_size_overflows_int64_names_file_and_tensor(tmp_path):
    # 2**32 * 2**32 elements wrap to 0 in int64 arithmetic
    path = tmp_path / "model.ckpt"
    ckpt = _saved_untrained_checkpoint(path)
    _rewrite_header(path, lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [2**32, 2**32]}]})
    first = f"p.{list(ckpt.params)[0]}"
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}.*{re.escape(first)} needs payload bytes"):
        load_checkpoint(path)


def test_flipped_header_digit_that_still_parses_is_rejected(tmp_path):
    """Epoch 0 read as epoch 1 would load and resume on the wrong schedule."""
    path = tmp_path / "model.ckpt"
    _saved_untrained_checkpoint(path)
    raw = path.read_bytes()
    assert raw.count(b'"epoch": 0') == 1
    path.write_bytes(raw.replace(b'"epoch": 0', b'"epoch": 1'))
    with pytest.raises(VersionMismatch, match=f"{re.escape(str(path))}: checkpoint header does not match its CRC-32"):
        load_checkpoint(path)


def test_version_1_checkpoint_without_header_checksum_loads(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = _saved_untrained_checkpoint(path)
    raw = path.read_bytes()
    _, hlen = struct.unpack_from("<IQ", raw, len(CKPT_MAGIC))
    path.write_bytes(CKPT_MAGIC + struct.pack("<IQ", 1, hlen) + raw[len(CKPT_MAGIC) + 16 :])
    loaded = load_checkpoint(path)
    assert loaded.epoch == ckpt.epoch
    assert all(np.array_equal(loaded.params[k], v) for k, v in ckpt.params.items())


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


def test_a_training_case_smaller_than_the_patch_stops_before_the_first_step():
    data = tiny_data()
    case = data.train[1]
    case.image, case.labels = case.image[:, :, :7], case.labels[:, :7]
    model = tiny_model()
    before = {name: p.data.copy() for name, p in model.named_params()}
    with pytest.raises(ShapeMismatch, match=r"training case 1 has grid \(12, 7, 12\), smaller than the patch \(8, 8, 8\)"):
        train(model, data, tiny_train_cfg())
    for name, p in model.named_params():
        assert np.array_equal(p.data, before[name]), name


@pytest.mark.parametrize("resume_epoch, stop_epoch, epochs", [
    (5, 3, 6),        # stop before the resume epoch
    (None, -2, 3),    # a negative stop epoch
    (4, None, 3),     # a resume epoch past cfg.epochs
    (-1, None, 3),    # a negative resume epoch
])
def test_an_epoch_range_that_runs_backwards_raises_before_any_step(monkeypatch, resume_epoch, stop_epoch, epochs):
    model = tiny_model()
    named = list(model.named_params())
    resume = None
    if resume_epoch is not None:
        resume = checkpoint_from_model(model, {n: np.zeros_like(p.data) for n, p in named}, resume_epoch, Rng(5))
    calls = []
    monkeypatch.setattr(training, "keep_heap_resident", lambda: calls.append("keep_heap_resident"))
    monkeypatch.setattr(training, "sample_loss", lambda *a: calls.append("sample_loss"))
    before = {name: p.data.copy() for name, p in named}
    with pytest.raises(InvalidEpoch, match="need 0 <= start <= stop"):
        train(model, tiny_data(), tiny_train_cfg(epochs=epochs), resume=resume, stop_epoch=stop_epoch)
    assert calls == []
    for name, p in named:
        assert np.array_equal(p.data, before[name]), name


def test_a_stop_epoch_equal_to_the_resume_epoch_runs_no_step():
    model = tiny_model()
    momentum = {n: np.ones_like(p.data) for n, p in model.named_params()}
    ckpt, log = train(model, tiny_data(), tiny_train_cfg(epochs=4),
                      resume=checkpoint_from_model(model, momentum, 2, Rng(5)), stop_epoch=2)
    assert log == [] and ckpt.epoch == 2 and ckpt.rng_state == Rng(5).state
    assert all(np.array_equal(ckpt.momentum[n], v) for n, v in momentum.items())


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
    monkeypatch.setattr(worker, "usable", lambda: False)
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

two_processes = pytest.mark.skipif(not worker.usable(), reason="this process cannot run a worker")


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


@two_processes
def test_the_worker_rows_are_added_in_sample_order(monkeypatch):
    """Samples 2 and 3 of a batch of 4 are the worker's. Samples 0 and 2
    are scaled by +-2^24, so that their terms cancel, and sample 3 by 2^-20:
    the sum keeps bits of sample 3's terms that it would round away if the
    worker's rows or losses were added in another order."""
    real, draws = training.sample_loss, training._sample_draws(tiny_model().cfg)
    scales = (2.0 ** 24, 1.0, -2.0 ** 24, 2.0 ** -20)

    def scaled(model, img, onehot, rng):
        i = ((rng.counter - 4) // draws) % 4   # the sample's place in its step: 4 draws precede this call
        return T.mul(real(model, img, onehot, rng), Tensor(scales[i]))

    monkeypatch.setattr(training, "sample_loss", scaled)
    data, cfg = tiny_data(), split_cfg(batch=4)
    one = training._train(tiny_model(), data, cfg, None, None, None, False)
    assert_same_run(training._train(tiny_model(), data, cfg, None, None, None, True), one)


GASA_KINDS = [None] + [dict(pe_mode=pe, use_layer_norm=ln) for pe in ("none", "before", "after") for ln in (False, True)]


@pytest.mark.parametrize("variant", ["base", "large"])
@pytest.mark.parametrize("gasa", GASA_KINDS, ids=lambda kw: "bypass" if kw is None else f"{kw['pe_mode']}-ln{kw['use_layer_norm']:d}")
def test_a_sample_backward_gives_every_parameter_one_gradient(monkeypatch, variant, gasa):
    """A step adds each sample's gradient to p.grad as it arrives; that is
    the sum over samples in sample order, in one process and in two, only
    if no parameter receives two terms from one sample."""
    kw = {} if gasa is None else dict(d_model=4, heads=2, dropout_p=0.5, **gasa)
    cfg = make_backbone_config(1, 2, (4, 4, 4), stage_channels=(2, 3), gasa_enabled=gasa is not None, variant=variant,
                               **kw)
    model = build_model(cfg, Rng(5))
    counts, real = {}, Tensor.accumulate_grad

    def counting(self, g):
        counts[id(self)] = counts.get(id(self), 0) + 1
        real(self, g)

    monkeypatch.setattr(Tensor, "accumulate_grad", counting)
    rng = Rng(7)
    labels = rng.uniform_array(4 ** 3).reshape(4, 4, 4) < 0.5
    onehot = np.stack([~labels, labels]).astype(np.float64)
    training.sample_loss(model, rng.normal_array(4 ** 3).reshape(1, 4, 4, 4), onehot, rng).backward()
    assert {name: counts.get(id(p)) for name, p in model.named_params()} == {name: 1 for name, _ in model.named_params()}


def mapping(model):
    """The one mmap that every parameter of `model` views, else None."""
    found = set()
    for _, p in model.named_params():
        base = p.data
        while isinstance(base, np.ndarray):
            base = base.base
        found.add(base.obj if isinstance(base, memoryview) else base)
    return found.pop() if len(found) == 1 and isinstance(next(iter(found)), mmap.mmap) else None


@pytest.mark.parametrize("split", [False, pytest.param(True, marks=two_processes)])
def test_parameters_stay_views_of_the_model_mapping(split):
    model = tiny_model()
    shared = mapping(model)
    ckpt, _ = training._train(model, tiny_data(), split_cfg(), None, None, None, split)
    assert shared is not None and mapping(model) is shared
    assert mapping(model_from_checkpoint(ckpt)) is not None
    assert mapping(copy.deepcopy(model)) not in (None, shared)
    assert mapping(pickle.loads(pickle.dumps(model))) not in (None, shared)


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
    with pytest.raises(WorkerError, match=r"^sample 1 of epoch 1, iteration 1 raised .*ValueError: bad patch"):
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
    with pytest.raises(WorkerError, match="died .* epoch 0, iteration 0"):
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


@two_processes
def test_a_parent_late_to_its_wait_still_finishes(monkeypatch):
    """A parent that reads the worker's flag late still sees the step it
    waits for: the spin ends once the flag has reached the step."""
    real, calls = worker.Worker.wait, [0]

    def late(self, *args):
        if not in_worker():
            calls[0] += 1
            if calls[0] == 2:
                time.sleep(0.06)   # the worker posts step 2 meanwhile
        return real(self, *args)

    def expire(signum, frame):
        raise TimeoutError("train() did not finish within 20 s")

    data, cfg = tiny_data(), split_cfg()
    one = training._train(tiny_model(), data, cfg, None, None, None, False)
    monkeypatch.setattr(worker.Worker, "wait", late)
    pids = forked_pids(monkeypatch)
    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        two = training._train(tiny_model(), data, cfg, None, None, None, True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert calls[0] >= 2
    assert_same_run(one, two)
    assert pids == [worker._current.pid]   # the worker outlives the call


@two_processes
def test_the_worker_computes_a_step_only_after_the_parent_has_stepped_the_parameters(monkeypatch):
    """The two share the parameters: a parent slow to take its optimizer
    step must not let the worker start the next step on the old ones."""
    data, cfg = tiny_data(), split_cfg()
    one = training._train(tiny_model(), data, cfg, None, None, None, False)
    real = training.sgd_nesterov_step

    def slow(*args):
        time.sleep(0.02)
        return real(*args)

    monkeypatch.setattr(training, "sgd_nesterov_step", slow)
    assert_same_run(training._train(tiny_model(), data, cfg, None, None, None, True), one)


def test_a_one_step_call_runs_in_one_process(monkeypatch):
    """Forking and reaping a worker costs more than it saves on one step."""
    data = tiny_data()
    cfg = TrainConfig(epochs=2, iters_per_epoch=1, batch=2, patch_size=(8, 8, 8), seed=5)
    want = training._train(tiny_model(), data, cfg, None, 1, None, False)

    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_run(train(tiny_model(), data, cfg, stop_epoch=1), want)


def test_a_batch_of_one_runs_in_one_process(monkeypatch):
    """A worker would get none of the samples of a batch of one."""
    data, cfg = tiny_data(), split_cfg(batch=1)
    want = training._train(tiny_model(), data, cfg, None, None, None, False)

    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_run(training._train(tiny_model(), data, cfg, None, None, None, True), want)
