import numpy as np
import pytest

from gasaunet import tensor as T
from gasaunet.errors import InvalidConfig, ShapeMismatch
from gasaunet.gasa import (
    GasaConfig,
    add_positional_embedding,
    axial_expand,
    axial_project,
    count_gasa_params,
    gasa_flops,
    gasa_forward,
    init_gasa_params,
    mhsa,
)
from gasaunet.tensor import Rng, Tensor
from gasaunet.verify import fd_grad, max_rel_err


def small_cfg(**kw) -> GasaConfig:
    base = dict(in_channels=2, spatial=(3, 4, 5), d_model=4, heads=2, dropout_p=0.0)
    base.update(kw)
    return GasaConfig(**base)


def test_token_count():
    cfg = small_cfg(spatial=(4, 6, 8))
    params = init_gasa_params(cfg, Rng(0))
    x = Tensor(np.zeros((2, 4, 6, 8)))
    tokens = axial_project(x, params, cfg)
    assert tokens.shape == (18, 4)


def test_token_count_random_shapes():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w, h, d = (int(v) for v in rng.integers(1, 17, size=3))
        c = int(rng.integers(1, 4))
        cfg = small_cfg(in_channels=c, spatial=(w, h, d), d_model=2, heads=1)
        params = init_gasa_params(cfg, Rng(1))
        tokens = axial_project(Tensor(np.zeros((c, w, h, d))), params, cfg)
        assert tokens.shape == (w + h + d, 2)


def test_zero_input_tokens_equal_biases():
    cfg = small_cfg()
    params = init_gasa_params(cfg, Rng(3))
    params.proj_w_b.data[:] = [1.0, 2.0, 3.0, 4.0]
    params.proj_h_b.data[:] = [5.0, 6.0, 7.0, 8.0]
    params.proj_d_b.data[:] = [-1.0, -2.0, -3.0, -4.0]
    tokens = axial_project(Tensor(np.zeros((2, 3, 4, 5))), params, cfg)
    w, h, d = cfg.spatial
    assert np.all(tokens.data[:w] == params.proj_w_b.data)
    assert np.all(tokens.data[w : w + h] == params.proj_h_b.data)
    assert np.all(tokens.data[w + h :] == params.proj_d_b.data)


def test_projection_matches_dense_dot():
    cfg = GasaConfig(in_channels=3, spatial=(4, 4, 4), d_model=6, heads=2, dropout_p=0.0)
    params = init_gasa_params(cfg, Rng(5))
    rng = Rng(6)
    x = rng.normal_array(3 * 4 * 4 * 4).reshape(3, 4, 4, 4)
    tokens = axial_project(Tensor(x), params, cfg)
    # row 2 of the W group: kernel spans the full H x D plane of slice 2
    kernel = params.proj_w.data  # [6, 3, 1, 4, 4]
    expect = np.array(
        [np.sum(kernel[m, :, 0] * x[:, 2]) + params.proj_w_b.data[m] for m in range(6)]
    )
    assert np.allclose(tokens.data[2], expect, atol=1e-12)


def test_mhsa_single_token():
    cfg = GasaConfig(in_channels=1, spatial=(1, 1, 1), d_model=4, heads=2, dropout_p=0.0)
    params = init_gasa_params(cfg, Rng(7))
    tok = Rng(8).normal_array(4).reshape(1, 4)
    out = mhsa(Tensor(tok), params, cfg)
    v = tok @ params.wv.data + params.bv.data
    expect = v @ params.wo.data + params.bo.data
    assert np.allclose(out.data, expect, atol=1e-12)


def test_attention_rows_sum_to_one():
    cfg = small_cfg(spatial=(4, 6, 8), d_model=25, heads=5)
    params = init_gasa_params(cfg, Rng(9))
    tokens = Tensor(Rng(10).normal_array(18 * 25).reshape(18, 25))
    _, weights = mhsa(tokens, params, cfg, return_weights=True)
    for wmat in weights:
        assert np.max(np.abs(wmat.data.sum(axis=-1) - 1.0)) <= 1e-12


def test_mhsa_matches_brute_force():
    # independent dense evaluation with hand-set weights
    cfg = GasaConfig(in_channels=1, spatial=(1, 1, 1), d_model=2, heads=1, dropout_p=0.0)
    params = init_gasa_params(cfg, Rng(11))
    params.wq.data[:] = [[1.0, 0.5], [0.0, 1.0]]
    params.wk.data[:] = [[0.3, -0.2], [0.7, 0.1]]
    params.wv.data[:] = [[1.0, 1.0], [-1.0, 0.5]]
    params.wo.data[:] = [[0.5, 0.0], [0.25, 1.0]]
    params.bq.data[:] = [0.1, -0.1]
    params.bv.data[:] = [0.3, 0.0]
    params.bo.data[:] = [-0.2, 0.4]
    x = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])

    q = x @ params.wq.data + params.bq.data
    # a key bias shifts all of a query's scores by q.bk, which the softmax
    # cancels; the block has none, and the reference keeps one to show it
    k = x @ params.wk.data + np.array([0.0, 0.2])
    v = x @ params.wv.data + params.bv.data
    scores = q @ k.T / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    expect = (probs @ v) @ params.wo.data + params.bo.data

    out = mhsa(Tensor(x), params, cfg)
    assert np.allclose(out.data, expect, atol=1e-12)


def test_mhsa_heads_match_per_head_reference():
    # head h owns columns [h*d_k, (h+1)*d_k) of Q, K and V; merged heads keep that order
    cfg = small_cfg(spatial=(4, 6, 8), d_model=25, heads=5)
    params = init_gasa_params(cfg, Rng(33))
    x = Rng(34).normal_array(18 * 25).reshape(18, 25)
    q = x @ params.wq.data + params.bq.data
    k = x @ params.wk.data
    v = x @ params.wv.data + params.bv.data
    head_outs, head_probs = [], []
    for hd in range(5):
        cols = slice(5 * hd, 5 * hd + 5)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(5.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        head_probs.append(probs)
        head_outs.append(probs @ v[:, cols])
    expect = np.concatenate(head_outs, axis=1) @ params.wo.data + params.bo.data

    out, weights = mhsa(Tensor(x), params, cfg, return_weights=True)
    assert np.allclose(out.data, expect, rtol=0, atol=1e-12)
    assert len(weights) == 5
    for got, want in zip(weights, head_probs):
        assert got.shape == (18, 18)
        assert np.allclose(got.data, want, rtol=0, atol=1e-12)


def test_axial_expand_broadcast_constancy():
    cfg = small_cfg()
    att = Tensor(Rng(12).normal_array(12 * 4).reshape(12, 4))
    out = axial_expand(att, cfg)
    assert out.shape == (12, 3, 4, 5)
    # W group: constant over H and D
    assert np.all(out.data[:4, :, 0:1, 0:1] == out.data[:4])
    # H group: constant over W and D
    assert np.all(out.data[4:8, 0:1, :, 0:1] == out.data[4:8])
    # D group: constant over W and H
    assert np.all(out.data[8:, 0:1, 0:1, :] == out.data[8:])


def test_axial_expand_all_ones():
    cfg = small_cfg()
    out = axial_expand(Tensor(np.ones((12, 4))), cfg)
    assert np.all(out.data == 1.0)


def test_axial_expand_gradient_fanout():
    cfg = small_cfg()
    att = Tensor(Rng(13).normal_array(12 * 4).reshape(12, 4), requires_grad=True)
    T.tsum(axial_expand(att, cfg)).backward()
    w, h, d = cfg.spatial
    assert np.all(att.grad[:w] == h * d)
    assert np.all(att.grad[w : w + h] == w * d)
    assert np.all(att.grad[w + h :] == w * h)

    def f():
        return T.tsum(axial_expand(att, cfg))

    assert max_rel_err(att.grad, fd_grad(f, att)) <= 1e-6


def test_pe_zero_is_identity():
    tokens = Tensor(Rng(14).normal_array(12 * 4).reshape(12, 4))
    pe = T.zeros([12, 4])
    out = add_positional_embedding(tokens, pe, "after")
    assert np.array_equal(out.data, tokens.data)


def test_pe_mode_none_identity_and_zero_grad():
    tokens = Tensor(Rng(15).normal_array(8).reshape(2, 4), requires_grad=True)
    pe = T.zeros([2, 4], requires_grad=True)
    out = add_positional_embedding(tokens, pe, "none")
    assert out is tokens
    T.tsum(out).backward()
    assert pe.grad is None


def test_pe_after_elementwise():
    tokens = Tensor(Rng(16).normal_array(8).reshape(2, 4))
    pe = Tensor(Rng(17).normal_array(8).reshape(2, 4))
    out = add_positional_embedding(tokens, pe, "after")
    assert np.array_equal(out.data, tokens.data + pe.data)


def test_pe_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        add_positional_embedding(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), "after")


def test_gasa_forward_passthrough_and_channels():
    cfg = GasaConfig(in_channels=3, spatial=(3, 3, 3), d_model=25, heads=5)
    params = init_gasa_params(cfg, Rng(18))
    x = Tensor(Rng(19).normal_array(3 * 27).reshape(3, 3, 3, 3))
    out = gasa_forward(x, params, cfg)
    assert out.shape == (78, 3, 3, 3)  # 3 + 3*25
    assert np.array_equal(out.data[:3], x.data)


def test_gasa_forward_gradient_check():
    cfg = small_cfg(dropout_p=0.5)
    params = init_gasa_params(cfg, Rng(20))
    x = Tensor(Rng(21).normal_array(2 * 3 * 4 * 5).reshape(2, 3, 4, 5), requires_grad=True)
    coef = Rng(22).normal_array(14 * 3 * 4 * 5).reshape(14, 3, 4, 5)
    drop_state = Rng(23).state

    def f():
        out = gasa_forward(x, params, cfg, training=True, rng=Rng.from_state(drop_state))
        return T.tsum(T.mul(out, Tensor(coef)))

    f().backward()
    checked = [("x", x)] + list(params.named())
    for name, p in checked:
        assert max_rel_err(p.grad if p.grad is not None else np.zeros_like(p.data),
                           fd_grad(f, p)) <= 1e-3, name


def test_gasa_forward_layer_norm_path_gradient():
    cfg = small_cfg(use_layer_norm=True)
    params = init_gasa_params(cfg, Rng(24))
    x = Tensor(Rng(25).normal_array(2 * 3 * 4 * 5).reshape(2, 3, 4, 5))
    coef = Rng(26).normal_array(14 * 3 * 4 * 5).reshape(14, 3, 4, 5)

    def f():
        out = gasa_forward(x, params, cfg, training=False)
        return T.tsum(T.mul(out, Tensor(coef)))

    f().backward()
    for name, p in params.named():
        assert max_rel_err(p.grad if p.grad is not None else np.zeros_like(p.data),
                           fd_grad(f, p)) <= 1e-3, name


def test_count_gasa_params_hand_enumeration():
    cfg = GasaConfig(in_channels=2, spatial=(2, 2, 2), d_model=2, heads=1)
    # 3*(2*4*2+2) + (4*4 + 3*2) + 6*2 = 54 + 22 + 12: q, k, v, o weights, no key bias
    assert count_gasa_params(cfg) == 88


@pytest.mark.parametrize("ln, projection_biases", [(False, 2), (True, 3)])
def test_gasa_flops_hand_enumeration(ln, projection_biases):
    cfg = GasaConfig(in_channels=2, spatial=(2, 2, 2), d_model=2, heads=1, use_layer_norm=ln)
    tokens = 6
    expected = (
        3 * (2 * 2 * (2 * 4) * 2 + 2 * 2)             # per axis: 2 slices x (2 ch x 4 voxels) x 2 features, bias
        + 3 * 2 * tokens * 2 * 2                      # q, k, v weights
        + projection_biases * tokens * 2              # bq, bv, and bk only with layer norm
        + 2 * tokens * 2 * tokens                     # scores
        + 2 * tokens * tokens * 2                     # attention * values
        + 2 * tokens * 2 * 2 + tokens * 2             # output mix and its bias
    )
    assert gasa_flops(cfg) == expected


def test_count_gasa_params_superlinear_in_d_model():
    cfg1 = small_cfg(d_model=4, heads=2)
    cfg2 = small_cfg(d_model=8, heads=2)
    assert count_gasa_params(cfg2) > 2 * count_gasa_params(cfg1)


def test_pe_table_size_contribution():
    cfg = small_cfg()
    no_pe = count_gasa_params(cfg) - cfg.tokens * cfg.d_model
    params = init_gasa_params(cfg, Rng(28))
    assert params.pe.size == cfg.tokens * cfg.d_model
    assert sum(p.size for n, p in params.named() if not n.endswith(".pe")) == no_pe


def test_mhsa_permutation_equivariance():
    cfg = small_cfg(pe_mode="none")
    params = init_gasa_params(cfg, Rng(29))
    tokens = Rng(30).normal_array(12 * 4).reshape(12, 4)
    perm = np.random.default_rng(4).permutation(12)
    out = mhsa(Tensor(tokens), params, cfg).data
    out_perm = mhsa(Tensor(tokens[perm]), params, cfg).data
    assert np.allclose(out_perm, out[perm], rtol=0, atol=1e-13)


def test_pe_before_equals_after_when_zero():
    x = Tensor(Rng(31).normal_array(2 * 3 * 4 * 5).reshape(2, 3, 4, 5))
    outs = []
    for mode in ("before", "after"):
        cfg = small_cfg(pe_mode=mode)
        params = init_gasa_params(cfg, Rng(32))
        outs.append(gasa_forward(x, params, cfg).data)
    assert np.array_equal(outs[0], outs[1])


def test_config_validation():
    with pytest.raises(InvalidConfig):
        GasaConfig(in_channels=1, spatial=(2, 2, 2), d_model=5, heads=2).validate()
    with pytest.raises(InvalidConfig):
        GasaConfig(in_channels=1, spatial=(2, 2, 2), pe_mode="sideways").validate()
