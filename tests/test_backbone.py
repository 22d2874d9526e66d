import gc
import weakref

import numpy as np
import pytest

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
from gasaunet.verify import fd_grad, max_rel_err


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


def test_param_count_matches_registry():
    for variant in ("base", "large"):
        for gasa_enabled in (True, False):
            cfg = tiny_cfg(gasa_enabled=gasa_enabled, variant=variant)
            model = build_model(cfg, Rng(1))
            walked = sum(p.size for _, p in model.named_params())
            assert walked == count_model_params(cfg), (variant, gasa_enabled)


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
    assert len(_graph_nodes(loss)) <= 130


def test_forward_only_graph_freed_without_cyclic_gc():
    model, x, _ = _default_16cube()
    gc.disable()
    try:
        logits = model.forward(x)
        buffers = [weakref.ref(t.data) for t in _graph_nodes(logits)]
        assert len(buffers) > 50
        del logits
        assert sum(ref() is not None for ref in buffers) == 0
    finally:
        gc.enable()


def test_conv_flops_formula():
    # 1x1x1 conv: 2*Cin*Cout*WHD multiply-adds plus Cout*WHD bias adds
    assert conv_flops(4, 6, 1, 100) == 2 * 4 * 6 * 100 + 6 * 100


def test_model_flops_monotone_and_positive():
    cfg = tiny_cfg()
    f_small = count_model_flops(cfg, (4, 4, 4))
    f_large = count_model_flops(cfg, (8, 8, 8))
    assert 0 < f_small < f_large


def test_flops_gasa_delta_positive():
    on = count_model_flops(tiny_cfg(gasa_enabled=True), (4, 4, 4))
    off = count_model_flops(tiny_cfg(gasa_enabled=False), (4, 4, 4))
    assert on > off
