"""conv3d against a reference im2col implementation.

The reference is the straightforward im2col + one matmul (and col2im in the
backward pass) that conv3d used before it read shifted slices. Every shape
runs through the public op and through each internal path that accepts it,
so a change to the path selection cannot hide a broken path.
"""

import tracemalloc

import numpy as np
import pytest

from gasaunet import tensor as T
from gasaunet.tensor import Rng, Tensor

ATOL = 1e-10


def reference_conv3d(x, w, b, stride, padding, g):
    """(out, dx, dw, db) of the cross-correlation for output gradient g."""
    cin = x.shape[0]
    cout, _, kw, kh, kd = w.shape
    sw, sh, sd = stride
    pw, ph, pd = padding
    xp = np.pad(x, ((0, 0), (pw, pw), (ph, ph), (pd, pd)))
    ow = (xp.shape[1] - kw) // sw + 1
    oh = (xp.shape[2] - kh) // sh + 1
    od = (xp.shape[3] - kd) // sd + 1
    cols = np.empty((cin, kw, kh, kd, ow, oh, od))
    for a in range(kw):
        for bb in range(kh):
            for c in range(kd):
                cols[:, a, bb, c] = xp[:, a : a + sw * ow : sw, bb : bb + sh * oh : sh, c : c + sd * od : sd]
    cols_2d = cols.reshape(cin * kw * kh * kd, -1)
    w2d = w.reshape(cout, -1)
    out = (w2d @ cols_2d + b[:, None]).reshape(cout, ow, oh, od)
    g2d = g.reshape(cout, -1)
    dw = (g2d @ cols_2d.T).reshape(w.shape)
    db = g2d.sum(axis=1)
    dcols = (w2d.T @ g2d).reshape(cols.shape)
    dxp = np.zeros_like(xp)
    for a in range(kw):
        for bb in range(kh):
            for c in range(kd):
                dxp[:, a : a + sw * ow : sw, bb : bb + sh * oh : sh, c : c + sd * od : sd] += dcols[:, a, bb, c]
    dx = dxp[:, pw : pw + x.shape[1], ph : ph + x.shape[2], pd : pd + x.shape[3]]
    return out, dx, dw, db


# (cin, cout, spatial, kernel, stride, padding)
SHAPES = {
    "cin1": (1, 8, (6, 6, 6), (3, 3, 3), (1, 1, 1), (1, 1, 1)),
    "cin<cout": (2, 5, (5, 4, 6), (3, 3, 3), (1, 1, 1), (1, 1, 1)),
    "cin>cout": (6, 3, (5, 4, 6), (3, 3, 3), (1, 1, 1), (1, 1, 1)),
    "cin=cout-pad0": (4, 4, (6, 5, 7), (3, 3, 3), (1, 1, 1), (0, 0, 0)),
    "stride222": (3, 4, (8, 8, 8), (3, 3, 3), (2, 2, 2), (1, 1, 1)),
    "stride212": (3, 2, (7, 6, 5), (3, 3, 3), (2, 1, 2), (1, 1, 1)),
    "stride222-pad0": (4, 2, (7, 6, 8), (3, 3, 3), (2, 2, 2), (0, 0, 0)),
    "1x1x1": (7, 3, (4, 5, 6), (1, 1, 1), (1, 1, 1), (0, 0, 0)),
    "1x1x1-cin<cout": (3, 5, (4, 5, 6), (1, 1, 1), (1, 1, 1), (0, 0, 0)),
    "1x1x1-pad1": (4, 2, (3, 4, 5), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
    "plane-w": (6, 4, (4, 5, 3), (1, 5, 3), (1, 1, 1), (0, 0, 0)),
    "plane-h": (6, 4, (4, 5, 3), (4, 1, 3), (1, 1, 1), (0, 0, 0)),
    "plane-d": (6, 4, (4, 5, 3), (4, 5, 1), (1, 1, 1), (0, 0, 0)),
    "even-kernel": (2, 2, (4, 5, 4), (2, 2, 2), (1, 1, 1), (0, 0, 0)),
    "mixed-kernel": (3, 3, (5, 4, 6), (3, 1, 2), (1, 1, 1), (1, 0, 1)),
}


def _draw(case, seed):
    cin, cout, spatial, kernel, stride, padding = case
    rng = Rng(seed)
    x = rng.normal_array(cin * int(np.prod(spatial))).reshape((cin,) + spatial)
    w = rng.normal_array(cout * cin * int(np.prod(kernel))).reshape((cout, cin) + kernel)
    b = rng.normal_array(cout)
    out_shape, _, _ = T._conv3d_geometry(x.shape, w.shape, stride, padding)
    g = rng.normal_array(int(np.prod(out_shape))).reshape(out_shape)
    return x, w, b, g, out_shape


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_conv3d_matches_reference(name):
    *_, stride, padding = SHAPES[name]
    x, w, b, g, _ = _draw(SHAPES[name], seed=len(name))
    for with_bias in (True, False):
        # without a bias the reference is the same conv with a zero bias
        ref_b = b if with_bias else np.zeros_like(b)
        ref_out, ref_dx, ref_dw, ref_db = reference_conv3d(x, w, ref_b, stride, padding, g)

        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = T.conv3d(xt, wt, bt if with_bias else None, stride=stride, padding=padding)
        assert out._parents == ((xt, wt, bt) if with_bias else (xt, wt))
        T.einsum("cwhd,cwhd->", out, Tensor(g)).backward()
        assert out.shape == ref_out.shape
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=ATOL)
        np.testing.assert_allclose(wt.grad, ref_dw, rtol=0, atol=ATOL)
        np.testing.assert_allclose(xt.grad, ref_dx, rtol=0, atol=ATOL)
        if with_bias:
            np.testing.assert_allclose(bt.grad, ref_db, rtol=0, atol=ATOL)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_conv3d_paths_match_reference(name):
    *_, stride, padding = SHAPES[name]
    x, w, b, g, out_shape = _draw(SHAPES[name], seed=len(name))
    ref_out, ref_dx, ref_dw, _ = reference_conv3d(x, w, np.zeros_like(b), stride, padding, g)
    paths = [T._conv3d_gather(x, w, stride, padding, out_shape)]
    if stride == (1, 1, 1):
        paths.append(T._conv3d_shifted(x, w, padding, out_shape))
    for out, grads in paths:
        # an output view into a larger buffer would keep the cropped columns alive
        assert out.flags.c_contiguous and (out.base is None or out.base.size == out.size)
        dx, dw = grads(g, True, True)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=ATOL)
        np.testing.assert_allclose(dw, ref_dw, rtol=0, atol=ATOL)
        np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=ATOL)
        assert grads(g, False, False) == (None, None)



def loop_weight_grad(x, w_shape, padding, g_out):
    """The shifted-slice weight gradient as 27 products per column block,
    one per kernel offset, accumulated in the order _conv3d_shifted uses."""
    cin, w_, h_, d_ = x.shape
    cout, _, kw, kh, kd = w_shape
    pw, ph, pd = padding
    _, ow, oh, od = g_out.shape
    hp, dp = h_ + 2 * ph, d_ + 2 * pd
    plane = hp * dp
    n_grid = (w_ + 2 * pw) * plane
    span = ow * plane
    xf = np.zeros((cin, n_grid + (kh - 1) * dp + kd - 1), dtype=x.dtype)
    xf[:, :n_grid].reshape(cin, -1, hp, dp)[:, pw : pw + w_, ph : ph + h_, pd : pd + d_] = x
    g = np.zeros((cout, ow, hp, dp), dtype=g_out.dtype)
    g[:, :, :oh, :od] = g_out
    g = g.reshape(cout, span)
    n_blocks = max(1, round(span / T._CONV_BLOCK))
    dwk = np.zeros((kw * kh * kd, cout, cin), dtype=x.dtype)
    for i in range(n_blocks):
        lo, hi = span * i // n_blocks, span * (i + 1) // n_blocks
        for k, (a, bb, c) in enumerate(np.ndindex(kw, kh, kd)):
            off = a * plane + bb * dp + c
            dwk[k] += g[:, lo:hi] @ xf[:, off + lo : off + hi].T
    return np.ascontiguousarray(dwk.transpose(1, 2, 0)).reshape(w_shape)


# (cin, cout, edge): the bottleneck, middle and full-resolution decoder convs
# of the default 16^3 model, and a 32^3 grid that spans several column blocks
WEIGHT_GRAD_SHAPES = [(32, 32, 4), (16, 16, 8), (16, 8, 16), (4, 4, 32)]


@pytest.mark.parametrize("dtype, uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
@pytest.mark.parametrize("cin, cout, edge", WEIGHT_GRAD_SHAPES)
def test_shifted_weight_gradient_is_bitwise_the_loop(dtype, uint, cin, cout, edge):
    """The batched weight gradient does the loop's products and sums in the
    loop's order, so it matches it bit for bit, not just to a tolerance."""
    rng = Rng(cin + edge)
    x = rng.normal_array(cin * edge ** 3).reshape(cin, edge, edge, edge).astype(dtype)
    w = rng.normal_array(cout * cin * 27).reshape(cout, cin, 3, 3, 3).astype(dtype)
    out_shape = (cout, edge, edge, edge)
    g = rng.normal_array(cout * edge ** 3).reshape(out_shape).astype(dtype)
    if edge == 32:
        assert round(edge * (edge + 2) ** 2 / T._CONV_BLOCK) > 1
    _, grads = T._conv3d_shifted(x, w, (1, 1, 1), out_shape)
    _, dw = grads(g, False, True)
    ref = loop_weight_grad(x, w.shape, (1, 1, 1), g)
    assert dw.dtype == ref.dtype and dw.shape == ref.shape and dw.flags.c_contiguous
    assert np.array_equal(dw.view(uint), ref.view(uint))


def test_shifted_backward_allocates_no_window_copy():
    """The weight gradient reads the 27 kernel windows as a strided view of
    the padded input: a float32 16->8 backward at 16^3 peaks at ~2.4x the
    padded input's bytes, where a copied window stack would take ~27x."""
    rng = Rng(9)
    x = rng.normal_array(16 * 16 ** 3).reshape(16, 16, 16, 16).astype(np.float32)
    w = rng.normal_array(8 * 16 * 27).reshape(8, 16, 3, 3, 3).astype(np.float32)
    g = rng.normal_array(8 * 16 ** 3).reshape(8, 16, 16, 16).astype(np.float32)
    _, grads = T._conv3d_shifted(x, w, (1, 1, 1), (8, 16, 16, 16))
    padded_bytes = 16 * 18 ** 3 * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dx, dw = grads(g, True, True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert dx.shape == x.shape and dw.shape == w.shape
    assert peak < 4 * padded_bytes
