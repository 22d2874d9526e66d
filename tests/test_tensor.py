import gc
import math
import weakref

import numpy as np
import pytest

from gasaunet import tensor as T
from gasaunet.errors import InvalidProbability, NotScalar, ShapeMismatch
from gasaunet.tensor import Rng, Tensor
from gasaunet.verify import fd_grad, max_rel_err


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2))
    out = T.einsum("ij,jk->ik", eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_inner_product():
    a = Tensor(np.array([1.0, 2.0]).reshape(1, 2))
    b = Tensor(np.array([3.0, 4.0]).reshape(2, 1))
    assert T.einsum("ij,jk->ik", a, b).data.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.einsum("ij,jk->ik", Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.arange(4.0).reshape(2, 2)))


def test_matmul_gradient_matches_finite_differences():
    rng = Rng(5)
    a = Tensor(rng.normal_array(9).reshape(3, 3), requires_grad=True)
    b = Tensor(rng.normal_array(9).reshape(3, 3), requires_grad=True)

    def f():
        return T.einsum("ij,ij->", T.einsum("ij,jk->ik", a, b), Tensor(np.ones((3, 3))))

    f().backward()
    fd = fd_grad(f, a, eps=1e-5)
    assert max_rel_err(a.grad, fd) <= 1e-6


@pytest.mark.parametrize("spec, shapes", [
    ("cwhd,ochd->wo", [(2, 3, 4, 5), (6, 2, 4, 5)]),     # axial plane projection
    ("nc,co->no", [(7, 4), (4, 4)]),                      # token projection
    ("qhd,khd->hqk", [(7, 2, 3), (7, 2, 3)]),             # per-head scores
    ("hqk,khd->qhd", [(2, 7, 7), (7, 2, 3)]),             # per-head weighted values
])
def test_einsum_gradients_match_finite_differences(spec, shapes):
    rng = Rng(41)
    ops = [Tensor(rng.normal_array(int(np.prod(s))).reshape(s), requires_grad=True) for s in shapes]
    out_shape = T.einsum(spec, *ops).shape
    coef = rng.normal_array(int(np.prod(out_shape))).reshape(out_shape)

    def f():
        out = T.einsum(spec, *ops)
        idx = "abc"[: out.data.ndim]
        return T.einsum(f"{idx},{idx}->", out, Tensor(coef))

    f().backward()
    for p in ops:
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-6


def test_einsum_same_operand_twice():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    T.einsum("ij,ij->", x, x).backward()
    assert np.array_equal(x.grad, 2.0 * x.data)


@pytest.mark.parametrize("spec, shapes", [
    ("ij,jk->ik", [(2, 3), (4, 2)]),     # j has extents 3 and 4
    ("ii,ij->j", [(2, 2), (2, 3)]),      # repeated index within one operand
    ("ij,jk->k", [(2, 3), (3, 4)]),      # i is in neither the output nor another operand
    ("ij,jk", [(2, 3), (3, 4)]),         # implicit output
    ("ij->ij", [(2, 3), (3, 4)]),        # one term for two operands
    ("ijk,jk->ik", [(2, 3), (3, 4)]),    # term longer than the operand's rank
    ("ij,jk->iik", [(2, 3), (3, 4)]),    # output repeats an index
    ("ij,jk->iz", [(2, 3), (3, 4)]),     # output names an index no operand has
    ("ij->ij", [(2, 3)]),                # one operand
    ("ij,jk,kl->il", [(2, 3), (3, 4), (4, 5)]),  # three operands
])
def test_einsum_rejects_bad_specs(spec, shapes):
    ops = [Tensor(np.ones(s)) for s in shapes]
    with pytest.raises(ShapeMismatch):
        T.einsum(spec, *ops)


def test_softmax_uniform():
    out = T.softmax_array(np.array([0.0, 0.0, 0.0]), axis=-1)
    assert np.allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_no_overflow():
    out = T.softmax_array(np.array([1000.0, 0.0]), axis=-1)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)


def test_softmax_rows_sum_to_one():
    rng = Rng(17)
    y = T.softmax_array(rng.normal_array(35).reshape(5, 7) * 10, axis=-1)
    assert np.max(np.abs(y.sum(axis=-1) - 1.0)) <= 1e-12
    assert np.all((y >= 0) & (y <= 1))


def test_softmax_axis_zero_matches_last_axis_of_transpose():
    x = Rng(29).normal_array(12).reshape(3, 4)
    assert np.array_equal(T.softmax_array(x, axis=0), T.softmax_array(x.T, axis=-1).T)


def _qkv(rng: Rng, n: int, d: int) -> list[Tensor]:
    return [Tensor(rng.normal_array(n * d).reshape(n, d), requires_grad=True) for _ in range(3)]


@pytest.mark.parametrize("heads", [1, 3])
def test_attention_gradients_match_finite_differences(heads):
    rng = Rng(23)
    q, k, v = _qkv(rng, 5, 6)
    coef = rng.normal_array(5 * 6).reshape(5, 6)

    def f():
        return T.einsum("nd,nd->", T.attention(q, k, v, heads, 0.7)[0], Tensor(coef))

    f().backward()
    for p in (q, k, v):
        assert p.grad.dtype == np.float64
        assert max_rel_err(p.grad, fd_grad(f, p, eps=1e-6)) <= 1e-6


def test_attention_matches_the_numpy_reference():
    rng = Rng(47)
    n, heads, d_k, scale = 7, 3, 2, 0.6
    q, k, v = _qkv(rng, n, heads * d_k)
    out, weights = T.attention(q, k, v, heads, scale)
    qh, kh, vh = (t.data.reshape(n, heads, d_k) for t in (q, k, v))
    want = T.softmax_array(scale * np.einsum("qhd,khd->hqk", qh, kh), axis=-1)
    assert weights.shape == (heads, n, n)
    np.testing.assert_allclose(weights, want, rtol=1e-13, atol=0)
    np.testing.assert_allclose(out.data, np.einsum("hqk,khd->qhd", want, vh).reshape(n, heads * d_k), rtol=1e-13, atol=1e-15)
    assert out._parents == (q, k, v)


@pytest.mark.parametrize("shapes, heads", [
    ([(4, 6), (4, 6), (5, 6)], 2),   # v has another token count
    ([(4, 6), (4, 4), (4, 6)], 2),   # k has another width
    ([(4, 6)] * 3, 4),               # 6 columns do not split into 4 heads
    ([(4, 6)] * 3, 0),               # no heads
    ([(2, 4, 6)] * 3, 2),            # not [n, d] rows
])
def test_attention_rejects_mismatched_shapes(shapes, heads):
    with pytest.raises(ShapeMismatch):
        T.attention(*(Tensor(np.ones(s)) for s in shapes), heads, 1.0)


def test_einsum_bias_gradient_matches_finite_differences():
    rng = Rng(53)
    a = Tensor(rng.normal_array(4 * 3).reshape(4, 3), requires_grad=True)
    b = Tensor(rng.normal_array(3 * 5).reshape(3, 5), requires_grad=True)
    bias = Tensor(rng.normal_array(5), requires_grad=True)
    coef = rng.normal_array(4 * 5).reshape(4, 5)

    def f():
        return T.einsum("ij,ij->", T.einsum("ij,jk->ik", a, b, bias=bias), Tensor(coef))

    out = T.einsum("ij,jk->ik", a, b, bias=bias)
    assert np.array_equal(out.data, T.einsum("ij,jk->ik", a, b).data + bias.data)
    f().backward()
    for p in (a, b, bias):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-6


@pytest.mark.parametrize("spec, shapes, bias_shape", [
    ("ij,jk->ik", [(2, 3), (3, 4)], (2,)),      # bias over the first output axis
    ("ij,jk->ik", [(2, 3), (3, 4)], (2, 4)),    # bias of the output's full shape
    ("ij,ij->", [(2, 3), (2, 3)], (1,)),        # scalar output has no last axis
])
def test_einsum_rejects_a_bias_not_over_the_last_output_axis(spec, shapes, bias_shape):
    with pytest.raises(ShapeMismatch):
        T.einsum(spec, *(Tensor(np.ones(s)) for s in shapes), bias=Tensor(np.ones(bias_shape)))


def test_conv3d_identity_kernel_exact():
    rng = Rng(2)
    x = Tensor(rng.normal_array(2 * 4 * 4 * 4).reshape(2, 4, 4, 4))
    w = np.zeros((2, 2, 1, 1, 1))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    out = T.conv3d(x, Tensor(w), T.zeros([2]))
    assert np.array_equal(out.data, x.data)


def test_conv3d_all_ones_sum():
    x = Tensor(np.ones((1, 2, 2, 2)))
    w = Tensor(np.ones((1, 1, 2, 2, 2)))
    out = T.conv3d(x, w, T.zeros([1]))
    assert out.data.reshape(-1).tolist() == [8.0]


def test_conv3d_kernel_too_large():
    x = Tensor(np.ones((1, 2, 2, 2)))
    w = Tensor(np.ones((1, 1, 3, 2, 2)))
    with pytest.raises(T.KernelTooLarge):
        T.conv3d(x, w, T.zeros([1]))


def test_conv3d_weight_gradient_matches_finite_differences():
    rng = Rng(9)
    x = Tensor(rng.normal_array(2 * 4 * 4 * 4).reshape(2, 4, 4, 4), requires_grad=True)
    w = Tensor(rng.normal_array(3 * 2 * 8).reshape(3, 2, 2, 2, 2), requires_grad=True)
    b = Tensor(rng.normal_array(3), requires_grad=True)
    coef = rng.normal_array(3 * 27).reshape(3, 3, 3, 3)

    def f():
        return T.einsum("cwhd,cwhd->", T.conv3d(x, w, b, stride=(1, 1, 1)), Tensor(coef))

    f().backward()
    for p in (w, x, b):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-5


def test_conv3d_stride_and_padding_gradient():
    rng = Rng(13)
    x = Tensor(rng.normal_array(2 * 5 * 4 * 5).reshape(2, 5, 4, 5), requires_grad=True)
    w = Tensor(rng.normal_array(2 * 2 * 27).reshape(2, 2, 3, 3, 3), requires_grad=True)
    b = Tensor(rng.normal_array(2), requires_grad=True)

    def f():
        y = T.conv3d(x, w, b, stride=(2, 1, 2), padding=(1, 1, 1))
        return T.einsum("cwhd,cwhd->", y, y)

    f().backward()
    for p in (x, w, b):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-4


def test_layer_norm_constant_slice_collapses():
    x = Tensor(np.array([5.0, 5.0, 5.0]).reshape(1, 3))
    out = T.layer_norm(x, Tensor(np.ones(3)), T.zeros([3]))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_point():
    # direct formula: (x - 0) / sqrt(1 + 1e-5)
    x = Tensor(np.array([1.0, -1.0]).reshape(1, 2))
    out = T.layer_norm(x, Tensor(np.ones(2)), T.zeros([2]))
    expect = 1.0 / math.sqrt(1.0 + 1e-5)
    assert out.data.reshape(-1).tolist() == pytest.approx([expect, -expect], abs=1e-15)


def test_layer_norm_beta_dominates():
    x = Tensor(np.array([3.0, 1.0, 4.0, 1.0]).reshape(2, 2))
    out = T.layer_norm(x, T.zeros([2]), Tensor(np.full(2, 7.0)))
    assert np.all(out.data == 7.0)


def test_layer_norm_gradient():
    rng = Rng(31)
    x = Tensor(rng.normal_array(12).reshape(3, 4), requires_grad=True)
    g = Tensor(rng.normal_array(4), requires_grad=True)
    b = Tensor(rng.normal_array(4), requires_grad=True)
    coef = rng.normal_array(12).reshape(3, 4)

    def f():
        return T.einsum("ij,ij->", T.layer_norm(x, g, b), Tensor(coef))

    f().backward()
    for p in (x, g, b):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-4


def test_instance_norm_gradient():
    rng = Rng(37)
    x = Tensor(rng.normal_array(2 * 3 * 3 * 3).reshape(2, 3, 3, 3), requires_grad=True)
    g = Tensor(rng.normal_array(2), requires_grad=True)
    b = Tensor(rng.normal_array(2), requires_grad=True)
    coef = rng.normal_array(2 * 27).reshape(2, 3, 3, 3)

    def f():
        return T.einsum("cwhd,cwhd->", T.instance_norm(x, g, b), Tensor(coef))

    f().backward()
    for p in (x, g, b):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-4


def test_dropout_p_zero_is_identity():
    x = Tensor(np.arange(8.0))
    assert T.dropout(x, 0.0, training=True, rng=Rng(0)) is x


def test_dropout_inference_is_identity():
    x = Tensor(np.arange(8.0))
    assert T.dropout(x, 0.5, training=False) is x


def test_dropout_invalid_probability():
    with pytest.raises(InvalidProbability):
        T.dropout(Tensor([1.0]), 1.0, training=True, rng=Rng(0))


def test_dropout_survivor_fraction():
    x = Tensor(np.ones(1_000_000))
    out = T.dropout(x, 0.5, training=True, rng=Rng(99))
    survivors = np.count_nonzero(out.data) / x.size
    assert abs(survivors - 0.5) <= 0.002
    # inverted scaling: survivors carry 1/(1-p)
    assert np.all(np.isin(out.data, [0.0, 2.0]))


def test_dropout_gradient():
    rng = Rng(41)
    x = Tensor(rng.normal_array(50), requires_grad=True)
    state = rng.state

    def f():
        return T.einsum("i,i->", T.dropout(x, 0.3, training=True, rng=Rng.from_state(state)), x)

    f().backward()
    assert max_rel_err(x.grad, fd_grad(f, x)) <= 1e-5


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.einsum("ij,ij->", x, Tensor(np.ones((2, 3)))).backward()
    assert np.all(x.grad == 1.0)


def test_backward_square():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    T.einsum("i,i->", x, x).backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_accumulates_without_zero_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    T.einsum("i,i->", x, x).backward()
    T.einsum("i,i->", x, x).backward()
    assert x.grad.tolist() == [4.0, 8.0]


def test_backward_frees_graph_without_cyclic_gc():
    rng = Rng(3)
    x = Tensor(rng.normal_array(2 * 4 * 4 * 4).reshape(2, 4, 4, 4), requires_grad=True)
    w = Tensor(rng.normal_array(2 * 2 * 27).reshape(2, 2, 3, 3, 3), requires_grad=True)
    gc.disable()
    try:
        h = T.conv3d(x, w, T.zeros([2]), padding=(1, 1, 1))
        alive = weakref.ref(h.data)
        loss = T.einsum("cwhd,cwhd->", h, h)
        del h
        loss.backward()
        del loss
        assert alive() is None
    finally:
        gc.enable()
    assert x.grad is not None and w.grad is not None


def test_backward_frees_intermediate_gradients():
    rng = Rng(4)
    x = Tensor(rng.normal_array(6), requires_grad=True)
    w = Tensor(rng.normal_array(6), requires_grad=True)
    seen = []

    def probe(a):
        # identity node that keeps a weak reference to the gradient it receives
        def bw(g):
            seen.append(weakref.ref(g))
            a.accumulate_grad(g)
        return T._node(a.data, (a,), bw)

    gc.disable()
    try:
        h = probe(T.mul(x, w))
        T.einsum("i,i->", h, h).backward()
        assert len(seen) == 1 and seen[0]() is None
        assert h.grad is None
    finally:
        gc.enable()
    assert np.array_equal(x.grad, 2.0 * h.data * w.data)
    assert np.array_equal(w.grad, 2.0 * h.data * x.data)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NotScalar):
        T.mul(x, x).backward()


def test_composite_gradients_small_graphs():
    # random composites of the primitive ops, total size < 2000
    rng = Rng(55)
    a = Tensor(rng.normal_array(20).reshape(4, 5), requires_grad=True)
    c = Tensor(rng.normal_array(25).reshape(5, 5), requires_grad=True)

    def f():
        h = T.einsum("ij,jk->ik", a, c)
        h = T.leaky_relu(h, 0.01)
        h, _ = T.attention(h, h, T.einsum("ij,jk->ik", h, c), 1, 0.5)
        return T.mul(T.einsum("ij,ij->", h, h), Tensor(1.0 / h.size))

    f().backward()
    for p in (a, c):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-3


def test_upsample_nearest_and_gradient():
    rng = Rng(61)
    x = Tensor(rng.normal_array(2 * 2 * 2 * 2).reshape(2, 2, 2, 2), requires_grad=True)
    out = T.upsample_nearest(x, (2, 2, 2))
    assert out.shape == (2, 4, 4, 4)
    assert np.all(out.data[:, ::2, ::2, ::2] == x.data)
    coef = rng.normal_array(out.size).reshape(out.shape)

    def f():
        return T.einsum("cwhd,cwhd->", T.upsample_nearest(x, (2, 2, 2)), Tensor(coef))

    f().backward()
    assert max_rel_err(x.grad, fd_grad(f, x)) <= 1e-6


@pytest.mark.parametrize("factors", [(2, 2, 2), (1, 2, 2), (3, 1, 2)])
def test_upsample_nearest_gradient_matches_reshape_sum(factors):
    """Each input voxel's gradient is the sum over its fw*fh*fd copies."""
    fw, fh, fd = factors
    rng = Rng(71)
    c, w, h, d = 3, 2, 4, 3
    x = Tensor(rng.normal_array(c * w * h * d).reshape(c, w, h, d), requires_grad=True)
    out = T.upsample_nearest(x, factors)
    g = rng.normal_array(out.size).reshape(out.shape)
    T.einsum("cwhd,cwhd->", out, Tensor(g)).backward()
    ref = g.reshape(c, w, fw, h, fh, d, fd).sum(axis=(2, 4, 6))
    assert x.grad.shape == x.shape
    assert np.allclose(x.grad, ref, rtol=1e-12, atol=0)


def test_concat_and_row_selection_gradients():
    rng = Rng(67)
    a = Tensor(rng.normal_array(6).reshape(2, 3), requires_grad=True)
    b = Tensor(rng.normal_array(9).reshape(3, 3), requires_grad=True)
    rows_1_to_3 = Tensor(np.eye(5)[1:4])

    def f():
        cat = T.concat([a, b], axis=0)
        part = T.einsum("ri,ij->rj", rows_1_to_3, cat)
        return T.einsum("rj,rj->", part, part)

    f().backward()
    for p in (a, b):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-6


def test_forward_determinism_bitwise():
    def run():
        rng = Rng(123)
        x = Tensor(rng.normal_array(64).reshape(4, 16))
        w = T.init_uniform((16, 16), fan_in=16, rng=rng)
        h = T.einsum("ij,jk->ik", x, w)
        y, _ = T.attention(h, h, h, 4, 0.5)
        return T.dropout(y, 0.25, training=True, rng=rng).data

    assert np.array_equal(run(), run())


def test_rng_scalar_vector_stream_consistency():
    a = Rng(77)
    b = Rng(77)
    vec = a.uniform_array(5)
    sca = np.array([b.uniform() for _ in range(5)])
    assert np.array_equal(vec, sca)
    assert a.state == b.state


def test_rng_state_roundtrip():
    r = Rng(5)
    r.normal_array(3)
    clone = Rng.from_state(r.state)
    assert np.array_equal(r.uniform_array(4), clone.uniform_array(4))


def test_no_grad_records_no_graph_and_restores_the_mode():
    x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
        with T.no_grad():
            pass
        z = T.add(y, x)  # still inside the outer block after the inner one exits
    for t in (y, z):
        assert not t.requires_grad and t._parents == () and t._backward is None
    assert np.array_equal(z.data, x.data * x.data + x.data)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("fails inside the block")
    w = T.mul(x, x)
    assert w.requires_grad and w._parents == (x, x)


def test_precision_casts_operands_and_is_restored_after_an_exception():
    w = Tensor(np.arange(1.0, 5.0), requires_grad=True)  # a float64 parameter
    with T.precision(np.float32):
        x = Tensor(np.full(4, 0.1))
        y = T.add(T.mul(x, w), w)
        with T.precision(np.float64):
            assert Tensor(0.1).data.dtype == np.float64
        z = T.einsum("i,i->", y, w)  # still float32 after the inner block exits
    for t in (x, y, z):
        assert t.data.dtype == np.float32
    assert np.array_equal(y.data, np.float32(0.1) * w.data.astype(np.float32) + w.data.astype(np.float32))
    assert w.data.dtype == np.float64
    with pytest.raises(RuntimeError):
        with T.precision(np.float32):
            raise RuntimeError("fails inside the block")
    assert Tensor(0.1).data.dtype == np.float64 and T.mul(w, w).data.dtype == np.float64


def test_gradient_of_a_tensor_used_twice():
    rng = Rng(71)
    x = Tensor(rng.normal_array(5), requires_grad=True)
    coef = rng.normal_array(5)
    T.einsum("i,i->", T.add(x, x), Tensor(coef)).backward()
    assert np.array_equal(x.grad, 2.0 * coef)
    y = Tensor(rng.normal_array(5), requires_grad=True)
    T.einsum("i,i->", y, y).backward()
    assert np.array_equal(y.grad, 2.0 * y.data)


def test_gradient_hand_off_never_aliases_two_leaves():
    # add() hands one array to both leaves; a later sweep that reaches only
    # `a` must accumulate into `a` without changing `b`
    rng = Rng(73)
    a = Tensor(rng.normal_array(4), requires_grad=True)
    b = Tensor(rng.normal_array(4), requires_grad=True)
    c1, c2 = rng.normal_array(4), rng.normal_array(4)
    T.einsum("i,i->", T.add(a, b), Tensor(c1)).backward()
    assert np.array_equal(a.grad, c1) and np.array_equal(b.grad, c1)
    T.einsum("i,i->", a, Tensor(c2)).backward()
    assert np.array_equal(a.grad, c1 + c2)
    assert np.array_equal(b.grad, c1)

