import gc
import math
import weakref

import numpy as np
import pytest

from gasaunet import tensor as T
from gasaunet.errors import InvalidProbability, NotScalar, ShapeMismatch
from gasaunet.tensor import Rng, Tensor, tensor_new
from gasaunet.verify import fd_grad, max_rel_err


def test_tensor_new_constructor_identity():
    t = tensor_new([2, 2], [1, 2, 3, 4])
    assert t.shape == (2, 2)
    assert t.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_tensor_new_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        tensor_new([3], [0, 0])


def test_tensor_new_scalar_leaf():
    lr = tensor_new([1], [0.01])
    assert lr.item() == 0.01


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = tensor_new([2, 2], [1, 2, 3, 4])
    out = T.einsum("ij,jk->ik", eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_inner_product():
    a = tensor_new([1, 2], [1, 2])
    b = tensor_new([2, 1], [3, 4])
    assert T.einsum("ij,jk->ik", a, b).data.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.einsum("ij,jk->ik", tensor_new([2, 3], range(6)), tensor_new([2, 2], range(4)))


def test_matmul_gradient_matches_finite_differences():
    rng = Rng(5)
    a = Tensor(rng.normal_array(9).reshape(3, 3), requires_grad=True)
    b = Tensor(rng.normal_array(9).reshape(3, 3), requires_grad=True)

    def f():
        return T.tsum(T.einsum("ij,jk->ik", a, b))

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
        return T.tsum(T.mul(T.einsum(spec, *ops), Tensor(coef)))

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
])
def test_einsum_rejects_bad_specs(spec, shapes):
    ops = [Tensor(np.ones(s)) for s in shapes]
    with pytest.raises(ShapeMismatch):
        T.einsum(spec, *ops)


def test_softmax_uniform():
    out = T.softmax(tensor_new([3], [0, 0, 0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_no_overflow():
    out = T.softmax(tensor_new([2], [1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)


def test_softmax_rows_sum_to_one():
    rng = Rng(17)
    x = Tensor(rng.normal_array(35).reshape(5, 7) * 10)
    y = T.softmax(x)
    assert np.max(np.abs(y.data.sum(axis=-1) - 1.0)) <= 1e-12
    assert np.all((y.data >= 0) & (y.data <= 1))


def test_softmax_gradient():
    rng = Rng(23)
    x = Tensor(rng.normal_array(12).reshape(3, 4), requires_grad=True)
    coef = rng.normal_array(12).reshape(3, 4)

    def f():
        return T.tsum(T.mul(T.softmax(x), Tensor(coef)))

    f().backward()
    assert max_rel_err(x.grad, fd_grad(f, x)) <= 1e-5


def test_softmax_axis_zero_matches_last_axis_of_transpose():
    rng = Rng(29)
    x = Tensor(rng.normal_array(12).reshape(3, 4), requires_grad=True)
    coef = rng.normal_array(12).reshape(3, 4)
    y = T.softmax(x, axis=0)
    assert np.array_equal(y.data, T.softmax(Tensor(x.data.T)).data.T)

    def f():
        return T.tsum(T.mul(T.softmax(x, axis=0), Tensor(coef)))

    f().backward()
    assert max_rel_err(x.grad, fd_grad(f, x)) <= 1e-5


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
        return T.tsum(T.mul(T.conv3d(x, w, b, stride=(1, 1, 1)), Tensor(coef)))

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
        return T.tsum(T.mul(y, y))

    f().backward()
    for p in (x, w, b):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-4


def test_layer_norm_constant_slice_collapses():
    x = tensor_new([1, 3], [5, 5, 5])
    out = T.layer_norm(x, Tensor(np.ones(3)), T.zeros([3]))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_point():
    # direct formula: (x - 0) / sqrt(1 + 1e-5)
    x = tensor_new([1, 2], [1, -1])
    out = T.layer_norm(x, Tensor(np.ones(2)), T.zeros([2]))
    expect = 1.0 / math.sqrt(1.0 + 1e-5)
    assert out.data.reshape(-1).tolist() == pytest.approx([expect, -expect], abs=1e-15)


def test_layer_norm_beta_dominates():
    x = tensor_new([2, 2], [3, 1, 4, 1])
    out = T.layer_norm(x, T.zeros([2]), Tensor(np.full(2, 7.0)))
    assert np.all(out.data == 7.0)


def test_layer_norm_gradient():
    rng = Rng(31)
    x = Tensor(rng.normal_array(12).reshape(3, 4), requires_grad=True)
    g = Tensor(rng.normal_array(4), requires_grad=True)
    b = Tensor(rng.normal_array(4), requires_grad=True)
    coef = rng.normal_array(12).reshape(3, 4)

    def f():
        return T.tsum(T.mul(T.layer_norm(x, g, b), Tensor(coef)))

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
        return T.tsum(T.mul(T.instance_norm(x, g, b), Tensor(coef)))

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
        return T.tsum(T.mul(T.dropout(x, 0.3, training=True, rng=Rng.from_state(state)), x))

    f().backward()
    assert max_rel_err(x.grad, fd_grad(f, x)) <= 1e-5


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.tsum(x).backward()
    assert np.all(x.grad == 1.0)


def test_backward_square():
    x = tensor_new([2], [1, 2], requires_grad=True)
    T.tsum(T.mul(x, x)).backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_accumulates_without_zero_grad():
    x = tensor_new([2], [1, 2], requires_grad=True)
    T.tsum(T.mul(x, x)).backward()
    T.tsum(T.mul(x, x)).backward()
    assert x.grad.tolist() == [4.0, 8.0]


def test_backward_frees_graph_without_cyclic_gc():
    rng = Rng(3)
    x = Tensor(rng.normal_array(2 * 4 * 4 * 4).reshape(2, 4, 4, 4), requires_grad=True)
    w = Tensor(rng.normal_array(2 * 2 * 27).reshape(2, 2, 3, 3, 3), requires_grad=True)
    gc.disable()
    try:
        h = T.conv3d(x, w, T.zeros([2]), padding=(1, 1, 1))
        alive = weakref.ref(h.data)
        loss = T.tsum(T.mul(h, h))
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
        T.tsum(T.mul(h, h)).backward()
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
        h = T.softmax(h)
        h = T.log(T.clamp_min(h, 1e-12))
        return T.mul(T.tsum(T.mul(h, h)), Tensor(1.0 / h.size))

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
        return T.tsum(T.mul(T.upsample_nearest(x, (2, 2, 2)), Tensor(coef)))

    f().backward()
    assert max_rel_err(x.grad, fd_grad(f, x)) <= 1e-6


def test_concat_and_row_selection_gradients():
    rng = Rng(67)
    a = Tensor(rng.normal_array(6).reshape(2, 3), requires_grad=True)
    b = Tensor(rng.normal_array(9).reshape(3, 3), requires_grad=True)
    rows_1_to_3 = Tensor(np.eye(5)[1:4])

    def f():
        cat = T.concat([a, b], axis=0)
        part = T.einsum("ri,ij->rj", rows_1_to_3, cat)
        return T.tsum(T.mul(part, part))

    f().backward()
    for p in (a, b):
        assert max_rel_err(p.grad, fd_grad(f, p)) <= 1e-6


def test_forward_determinism_bitwise():
    def run():
        rng = Rng(123)
        x = Tensor(rng.normal_array(64).reshape(4, 16))
        w = T.init_uniform((16, 16), fan_in=16, rng=rng)
        y = T.softmax(T.einsum("ij,jk->ik", x, w))
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
    T.tsum(T.mul(T.add(x, x), Tensor(coef))).backward()
    assert np.array_equal(x.grad, 2.0 * coef)
    y = Tensor(rng.normal_array(5), requires_grad=True)
    T.tsum(T.mul(y, y)).backward()
    assert np.array_equal(y.grad, 2.0 * y.data)


def test_gradient_hand_off_never_aliases_two_leaves():
    # add() hands one array to both leaves; a later sweep that reaches only
    # `a` must accumulate into `a` without changing `b`
    rng = Rng(73)
    a = Tensor(rng.normal_array(4), requires_grad=True)
    b = Tensor(rng.normal_array(4), requires_grad=True)
    c1, c2 = rng.normal_array(4), rng.normal_array(4)
    T.tsum(T.mul(T.add(a, b), Tensor(c1))).backward()
    assert np.array_equal(a.grad, c1) and np.array_equal(b.grad, c1)
    T.tsum(T.mul(a, Tensor(c2))).backward()
    assert np.array_equal(a.grad, c1 + c2)
    assert np.array_equal(b.grad, c1)

