import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gasaunet import gasa, training
from gasaunet import tensor as T
from gasaunet.backbone import (
    BackboneConfig,
    GasaUNet,
    build_model,
    conv_flops,
    count_model_flops,
    count_model_params,
    make_backbone_config,
)
from gasaunet.errors import InvalidConfig, ShapeMismatch
from gasaunet.gasa import GasaConfig, count_gasa_params
from gasaunet.losses import soft_dice_ce_loss
from gasaunet.tensor import Rng, Tensor
from gasaunet.training import load_checkpoint, model_from_checkpoint
from gasaunet.verify import (
    INFERENCE_LOGIT_TOL,
    TRAINING_GRAD_TOL,
    check_inference_precision,
    check_training_precision,
    fd_grad,
    max_rel_err,
)

DATA = Path(__file__).parent / "data"


def tiny_cfg(gasa_enabled=True, **kw) -> BackboneConfig:
    return make_backbone_config(
        in_channels=1,
        num_classes=2,
        patch_size=(4, 4, 4),
        stage_channels=(2, 3),
        gasa_enabled=gasa_enabled,
        d_model=2,
        heads=1,
        dropout_p=0.0,
        **kw,
    )


def test_build_is_deterministic():
    cfg = tiny_cfg()
    m1 = build_model(cfg, Rng(42))
    m2 = build_model(cfg, Rng(42))
    for (n1, p1), (n2, p2) in zip(m1.named_params(), m2.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_large_variant_has_more_params():
    base = count_model_params(tiny_cfg())
    large = count_model_params(tiny_cfg(variant="large"))
    assert large > base


@pytest.mark.parametrize("variant, tensors, scalars", [("base", 46, 114_601), ("large", 112, 443_849)])
def test_param_counts_of_the_default_models(variant, tensors, scalars):
    # the CLI defaults: 3 classes, 16^3 patches, stages (8, 16, 32), GASA with d_model 25, PE after
    cfg = make_backbone_config(1, 3, (16, 16, 16), variant=variant)
    assert len(list(build_model(cfg, Rng(1)).named_params())) == tensors
    assert count_model_params(cfg) == scalars


def test_gasa_param_delta():
    with_g = count_model_params(tiny_cfg(gasa_enabled=True))
    without = count_model_params(tiny_cfg(gasa_enabled=False))
    gcfg = GasaConfig(in_channels=3, spatial=(2, 2, 2), d_model=2, heads=1, dropout_p=0.0)
    delta = with_g - without
    # bypass also shrinks the first decoder reduce conv, so the difference is
    # the block itself plus the extra 3*d_model input columns of that conv
    extra_reduce = 3 * gcfg.d_model * tiny_cfg().stage_channels[-2]
    assert delta == count_gasa_params(gcfg) + extra_reduce


def test_forward_output_shape():
    cfg = make_backbone_config(1, 3, (8, 8, 8), stage_channels=(4, 6, 8), d_model=4, heads=2)
    model = build_model(cfg, Rng(2))
    out = model.forward(Tensor(np.zeros((1, 8, 8, 8))))
    assert out.shape == (3, 8, 8, 8)


def test_forward_shape_roundtrip_various_extents():
    for spatial in ((8, 8, 8), (8, 12, 16), (4, 8, 12)):
        cfg = make_backbone_config(2, 4, spatial, stage_channels=(2, 3), d_model=2, heads=1)
        model = build_model(cfg, Rng(11))
        out = model.forward(Tensor(np.zeros((2,) + spatial)))
        assert out.shape == (4,) + spatial


def test_forward_shape_with_bypass():
    cfg = tiny_cfg(gasa_enabled=False)
    model = build_model(cfg, Rng(3))
    out = model.forward(Tensor(Rng(4).normal_array(64).reshape(1, 4, 4, 4)))
    assert out.shape == (2, 4, 4, 4)
    assert np.all(np.isfinite(out.data))


def test_bottleneck_contract():
    cfg_on = tiny_cfg(gasa_enabled=True)
    cfg_off = tiny_cfg(gasa_enabled=False)
    m_on = build_model(cfg_on, Rng(5))
    m_off = build_model(cfg_off, Rng(5))
    c_bot = cfg_on.stage_channels[-1]
    assert m_on.reduce[0].w.shape[1] == c_bot + 3 * cfg_on.gasa.d_model
    assert m_off.reduce[0].w.shape[1] == c_bot


def test_indivisible_input_raises():
    model = build_model(tiny_cfg(), Rng(6))
    with pytest.raises(ShapeMismatch):
        model.forward(Tensor(np.zeros((1, 5, 4, 4))))


def test_config_validation():
    with pytest.raises(InvalidConfig):
        BackboneConfig(in_channels=1, num_classes=2, stage_channels=(8,)).validate()
    cfg = tiny_cfg()
    cfg.gasa.in_channels = 99
    with pytest.raises(InvalidConfig):
        cfg.validate()


@pytest.mark.parametrize("changes, key", [
    ({"stage_channels": (8, 16, 0)}, "stage_channels"),
    ({"stage_channels": (-4, 16, 32)}, "stage_channels"),
    ({"stage_channels": (8, True, 32)}, "stage_channels"),
    ({"stage_channels": (8, 16.0, 32)}, "stage_channels"),
    ({"large_res_blocks": (3,)}, "large_res_blocks"),
    ({"large_res_blocks": (3, -1)}, "large_res_blocks"),
    ({"large_res_blocks": (2.5, 5)}, "large_res_blocks"),
])
def test_config_rejects_a_stage_width_below_1_or_a_bad_res_block_count(changes, key):
    cfg = dataclasses.replace(make_backbone_config(1, 3, (16,) * 3, gasa_enabled=False), **changes)
    with pytest.raises(InvalidConfig, match=key):
        cfg.validate()
    with pytest.raises(InvalidConfig, match=key):
        build_model(cfg, Rng(0))
    if "stage_channels" in changes:
        with pytest.raises(InvalidConfig, match=key):
            make_backbone_config(1, 3, (16,) * 3, stage_channels=changes["stage_channels"], gasa_enabled=False)


def test_tiny_model_gradient_check():
    cfg = tiny_cfg()
    model = build_model(cfg, Rng(7))
    x = Tensor(Rng(8).normal_array(64).reshape(1, 4, 4, 4))
    labels = Rng(9).uniform_array(64).reshape(4, 4, 4) > 0.5
    onehot = Tensor(np.stack([~labels, labels]).astype(np.float64))

    def f():
        return soft_dice_ce_loss(model.forward(x), onehot)

    model.zero_grads()
    f().backward()
    for name, p in model.named_params():
        ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert max_rel_err(ad, fd_grad(f, p)) <= 1e-3, name


def _graph_nodes(root: Tensor) -> list[Tensor]:
    """Distinct non-leaf tensors reachable from root through _parents."""
    seen, stack, nodes = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            nodes.append(t)
        stack.extend(t._parents)
    return nodes


def _default_16cube():
    model = build_model(make_backbone_config(1, 3, (16, 16, 16)), Rng(0))
    rng = Rng(1)
    x = Tensor(rng.normal_array(16 ** 3).reshape(1, 16, 16, 16))
    labels = np.floor(rng.uniform_array(16 ** 3) * 3).astype(int).reshape(16, 16, 16)
    onehot = Tensor(np.stack([labels == c for c in range(3)]).astype(np.float64))
    return model, x, onehot


def test_graph_size_per_training_sample():
    model, x, onehot = _default_16cube()
    loss = soft_dice_ce_loss(model.forward(x, training=True, rng=Rng(2)), onehot)
    assert len(_graph_nodes(loss)) <= 42


@pytest.mark.parametrize("pe_mode, use_layer_norm, nodes", [
    ("after", False, 16), ("after", True, 30),
    ("before", False, 16), ("before", True, 30),
    ("none", False, 15), ("none", True, 29),
])
def test_graph_size_of_the_gasa_block(pe_mode, use_layer_norm, nodes):
    """Three biased projection contractions and their concat, three Q/K/V
    contractions, one attention node, the biased output contraction,
    dropout, the positional embedding, the expansion and the channel
    concat; layer norm adds 14 nodes (5 for q and v, 4 for k)."""
    cfg = GasaConfig(in_channels=2, spatial=(3, 4, 5), d_model=4, heads=2, pe_mode=pe_mode,
                     use_layer_norm=use_layer_norm)
    params = gasa.init_gasa_params(cfg, Rng(0))
    x = Tensor(Rng(1).normal_array(2 * 60).reshape(2, 3, 4, 5), requires_grad=True)
    assert len(_graph_nodes(gasa.gasa_forward(x, params, cfg, training=True, rng=Rng(2)))) <= nodes


def test_forward_only_graph_freed_without_cyclic_gc():
    model, x, _ = _default_16cube()
    gc.disable()
    try:
        logits = model.forward(x)
        buffers = [weakref.ref(t.data) for t in _graph_nodes(logits)]
        assert len(buffers) >= 40
        del logits
        assert sum(ref() is not None for ref in buffers) == 0
    finally:
        gc.enable()


def test_conv_flops_formula():
    # 1x1x1 conv without bias: 2*Cin*Cout*WHD multiply-adds
    assert conv_flops(4, 6, 1, 100) == 2 * 4 * 6 * 100


def test_model_flops_monotone_and_positive():
    cfg = tiny_cfg()
    f_small = count_model_flops(cfg, (4, 4, 4))
    f_large = count_model_flops(cfg, (8, 8, 8))
    assert 0 < f_small < f_large


def test_flops_gasa_delta_positive():
    on = count_model_flops(tiny_cfg(gasa_enabled=True), (4, 4, 4))
    off = count_model_flops(tiny_cfg(gasa_enabled=False), (4, 4, 4))
    assert on > off


def test_model_flops_count_reduce_at_the_coarse_grid():
    cfg = tiny_cfg(gasa_enabled=False)  # stages (2, 3), 4^3 input, 2^3 bottleneck
    expected = (
        conv_flops(1, 2, 3, 64) + conv_flops(2, 2, 3, 64)
        + conv_flops(2, 3, 3, 8) + conv_flops(3, 3, 3, 8)
        + conv_flops(3, 2, 1, 8)       # dec0.reduce, before upsampling
        + conv_flops(4, 2, 3, 64)      # dec0.post
        + conv_flops(2, 2, 1, 64) + 2 * 64  # head and its bias adds
    )
    assert count_model_flops(cfg, (4, 4, 4)) == expected


def test_model_flops_of_the_default_16cube_model():
    cfg = make_backbone_config(1, 3, (16, 16, 16))
    assert count_model_flops(cfg, (16, 16, 16)) == 75_259_728


def test_model_flops_reject_an_input_the_forward_rejects():
    cfg = make_backbone_config(1, 3, (16, 16, 16))
    model = build_model(cfg, Rng(0))
    for shape in [(17, 16, 16), (16, 16, 6), (17, 33, 9)]:
        with pytest.raises(ShapeMismatch):
            model.forward(Tensor(np.zeros((1,) + shape)))
        with pytest.raises(ShapeMismatch):
            count_model_flops(cfg, shape)


def _randomized(model, seed):
    """Perturb every parameter so norms, affines and activations all matter."""
    rng = Rng(seed)
    for _, p in model.named_params():
        p.data += 0.5 * rng.normal_array(p.size).reshape(p.shape)
    return model


def _upsample_then_reduce(model, x):
    """The decoder in its original order: nearest upsampling, then the 1x1x1 reduce."""
    skips, h = [], x
    for blocks in model.encoder:
        for blk in blocks:
            h = blk.forward(h)
        skips.append(h)
    h = gasa.gasa_forward(h, model.gasa, model.cfg.gasa)
    n_stages = len(model.cfg.stage_channels)
    for idx, lvl in enumerate(range(n_stages - 2, -1, -1)):
        h = T.upsample_nearest(h, model.cfg.downsample_strides[lvl + 1])
        h = model.reduce[idx].forward(h)
        h = T.concat([h, skips[lvl]], axis=0)
        h = model.post[idx].forward(h)
    return T.conv3d(h, model.head_w, model.head_b)


def test_reduce_before_upsampling_matches_original_decoder_order():
    model, x, onehot = _default_16cube()
    _randomized(model, 3)

    def logits_and_grads(forward):
        model.zero_grads()
        logits = forward(x)
        soft_dice_ce_loss(logits, onehot).backward()
        return logits.data, {name: p.grad for name, p in model.named_params()}

    ref_logits, ref_grads = logits_and_grads(lambda inp: _upsample_then_reduce(model, inp))
    logits, grads = logits_and_grads(model.forward)
    assert np.allclose(logits, ref_logits, rtol=0, atol=1e-12)
    for name, g in ref_grads.items():
        assert np.allclose(grads[name], g, rtol=0, atol=1e-12), name


def test_checkpoint_saved_with_upsample_then_reduce_predicts_the_same():
    # checkpoint and logits written by the code that ran the 1x1x1 reduce after upsampling
    model = model_from_checkpoint(load_checkpoint(DATA / "decoder_upsample_first.ckpt"))
    x = Rng(13).normal_array(8 ** 3).reshape(1, 8, 8, 8)
    expected = np.load(DATA / "decoder_upsample_first_logits.npy")
    with T.no_grad():
        logits = model.forward(Tensor(x)).data
    assert logits.dtype == np.float64
    assert np.allclose(logits, expected, rtol=0, atol=1e-10)
    # predict_logits runs the same forward in float32
    assert np.allclose(model.predict_logits(x), logits, rtol=0, atol=INFERENCE_LOGIT_TOL)


def test_predict_logits_is_forward_without_a_graph():
    model, x, _ = _default_16cube()
    with T.precision(np.float32):
        reference = model.forward(x).data.astype(np.float64)
    seen = []
    forward = model.forward
    model.forward = lambda inp, **kw: seen.append(forward(inp, **kw)) or seen[-1]
    logits = model.predict_logits(x.data)
    assert logits.dtype == np.float64 and np.array_equal(logits, reference)
    assert seen[0].data.dtype == np.float32
    assert not seen[0].requires_grad and seen[0]._parents == () and seen[0]._backward is None
    with pytest.raises(ShapeMismatch):
        model.predict_logits(x.data[:, :8])
    assert model.forward(x)._parents  # the graph is recorded again after the error


def test_inference_precision_check_passes_and_sees_a_drift(monkeypatch):
    assert check_inference_precision()["passed"]
    predict = GasaUNet.predict_logits
    monkeypatch.setattr(GasaUNet, "predict_logits", lambda self, x: predict(self, x) + 2 * INFERENCE_LOGIT_TOL)
    result = check_inference_precision()
    assert not result["passed"] and result["argmax_flips"] == 0


def test_training_precision_check_passes_and_sees_a_drift(monkeypatch):
    result = check_training_precision()
    assert result["passed"] and result["max_rel_l2_err"] < TRAINING_GRAD_TOL and result["not_float64"] == []
    sample_loss = training.sample_loss

    def drifted(*args):
        return T.mul(sample_loss(*args), Tensor(1.0 + 2 * TRAINING_GRAD_TOL))

    monkeypatch.setattr(training, "sample_loss", drifted)
    result = check_training_precision()
    assert not result["passed"] and result["not_float64"] == []
    assert result["max_rel_l2_err"] == pytest.approx(2 * TRAINING_GRAD_TOL, rel=0.05)


def test_training_precision_check_sees_float32_parameter_grads(monkeypatch):
    def keep_as_given(self, g):
        self.grad = np.asarray(g) if self.grad is None else self.grad + g

    monkeypatch.setattr(Tensor, "accumulate_grad", keep_as_given)
    result = check_training_precision()
    assert not result["passed"] and "head.w" in result["not_float64"]


@pytest.mark.parametrize("variant", ["base", "large"])
@pytest.mark.parametrize("pe_mode", ["none", "before", "after"])
@pytest.mark.parametrize("layer_norm", [False, True])
def test_every_parameter_receives_a_gradient(variant, pe_mode, layer_norm):
    """The attention key has no last additive term, whose gradient would be
    zero (softmax is invariant to a shift that is the same for every key),
    so every parameter is live."""
    cfg = make_backbone_config(1, 2, (4, 4, 4), stage_channels=(2, 3), variant=variant, d_model=4,
                               heads=2, pe_mode=pe_mode, use_layer_norm=layer_norm, dropout_p=0.5)
    model = _randomized(build_model(cfg, Rng(5)), 6)
    rng = Rng(7)
    x = Tensor(rng.normal_array(4 ** 3).reshape(1, 4, 4, 4))
    labels = rng.uniform_array(4 ** 3).reshape(4, 4, 4) < 0.5
    onehot = Tensor(np.stack([~labels, labels]).astype(np.float64))
    soft_dice_ce_loss(model.forward(x, training=True, rng=rng), onehot).backward()
    params = dict(model.named_params())
    largest = max(np.abs(p.grad).max() for p in params.values() if p.grad is not None)
    dead = {name for name, p in params.items() if p.grad is None or np.abs(p.grad).max() <= 1e-10 * largest}
    assert dead == set()
