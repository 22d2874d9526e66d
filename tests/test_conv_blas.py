"""The stride-1 conv's in-place CBLAS GEMMs against its NumPy expression.

_conv3d_shifted adds each (block, offset) product into its output with one
cblas_{s,d}gemm call at beta = 1 where NumPy's bundled OpenBLAS exports it,
and otherwise writes the product to a temporary and adds that. Both must
give the same bits. The tests draw the conv shape space, check that each
failed precondition takes the NumPy loop before any pointer is handed to
BLAS, that a process without the library runs the NumPy loop, and that a
training run does not move by a bit.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gasaunet import tensor as T
from gasaunet import training
from gasaunet.backbone import build_model, conv_layers, make_backbone_config
from gasaunet.tensor import Rng
from gasaunet.volume import NormStats

needs_cblas = pytest.mark.skipif(
    T._gemm(np.dtype(np.float32)) is None or T._gemm(np.dtype(np.float64)) is None,
    reason="NumPy's bundled OpenBLAS does not export cblas_{s,d}gemm here",
)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.fixture
def gemm_calls(monkeypatch):
    """(M, N, K) of every in-place GEMM call, which still runs."""
    calls = []
    real = T._gemm

    def counting(dtype):
        fn = real(dtype)
        if fn is None:
            return None

        def call(*args):
            calls.append(args[3:6])
            fn(*args)

        return call

    monkeypatch.setattr(T, "_gemm", counting)
    return calls


def shifted_both_ways(x, w, padding, g):
    """(out, dx, dW) through the CBLAS path and through the NumPy loop."""
    out_shape, _, padding = T._conv3d_geometry(x.shape, w.shape, (1, 1, 1), padding)
    runs = []
    for blas in (True, False):
        out, grads = T._conv3d_shifted(x, w, padding, out_shape, blas)
        runs.append((out, *grads(g, True, True)))
    return runs


@settings(deadline=None, max_examples=120)
@given(
    cin=st.integers(1, 20),
    cout=st.integers(1, 20),
    grid=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    kernel=st.sampled_from([1, 3]),
    pad=st.sampled_from([0, 1]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(cin=20, cout=20, grid=(20, 20, 20), kernel=3, pad=1, dtype=np.float32, seed=0)  # 2 column blocks
def test_cblas_path_is_bitwise_the_numpy_loop(cin, cout, grid, kernel, pad, dtype, seed):
    assume(kernel <= min(grid) + 2 * pad)
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((cin,) + grid).astype(dtype)
    w = gen.standard_normal((cout, cin, kernel, kernel, kernel)).astype(dtype)
    out_grid = tuple(n + 2 * pad - kernel + 1 for n in grid)
    # a non-contiguous output gradient: every other column of a wider array
    g = gen.standard_normal((cout,) + out_grid[:2] + (2 * out_grid[2],)).astype(dtype)[..., ::2]
    (out, dx, dw), (ref_out, ref_dx, ref_dw) = shifted_both_ways(x, w, (pad,) * 3, g)
    assert same_bits(out, ref_out)
    assert same_bits(dx, ref_dx)
    assert same_bits(dw, ref_dw)


@needs_cblas
def test_forward_and_dx_make_one_gemm_per_block_and_offset(gemm_calls):
    """16->8 at 16^3: one column block of 16*18*18 columns, 27 offsets each
    way, no temporary: M, N, K are those of the products themselves."""
    rng = Rng(3)
    x = rng.normal_array(16 * 16 ** 3).reshape(16, 16, 16, 16).astype(np.float32)
    w = rng.normal_array(8 * 16 * 27).reshape(8, 16, 3, 3, 3).astype(np.float32)
    g = rng.normal_array(8 * 16 ** 3).reshape(8, 16, 16, 16).astype(np.float32)
    (out, dx, dw), ref = shifted_both_ways(x, w, (1, 1, 1), g)
    span = 16 * 18 * 18
    assert round(span / T._CONV_BLOCK) == 1
    assert gemm_calls == [(8, span, 16)] * 27 + [(16, span, 8)] * 27
    assert all(same_bits(a, b) for a, b in zip((out, dx, dw), ref))


def accumulate_case(dtype=np.float32, inner=6, m=5, n_k=3, width=40):
    gen = np.random.default_rng(inner + m)
    wk = gen.standard_normal((n_k, m, inner)).astype(dtype)
    src = gen.standard_normal((inner, width + 8)).astype(dtype)
    dst = np.zeros((m, width + 8), dtype=dtype)
    shifts = [(k * 4, 0) for k in range(n_k)]
    blocks = [(0, width // 2), (width // 2, width)]
    return wk, src, dst, shifts, blocks


def numpy_accumulate(wk, src, dst, shifts, blocks):
    dst = dst.copy()
    T._accumulate(wk, False, src, dst, shifts, blocks, blas=False)
    return dst


@needs_cblas
def test_accumulate_takes_gemm_when_every_precondition_holds(gemm_calls):
    wk, src, dst, shifts, blocks = accumulate_case()
    want = numpy_accumulate(wk, src, dst, shifts, blocks)
    T._accumulate(wk, False, src, dst, shifts, blocks)
    assert len(gemm_calls) == len(blocks) * len(shifts)
    assert same_bits(dst, want)


@needs_cblas
@pytest.mark.parametrize("defect", [
    "dst not C-contiguous", "src not C-contiguous", "wk not C-contiguous", "dst read-only", "dtypes differ",
    "integer dtype",
    "slice past src", "slice past dst", "negative shift", "shift count", "inner too long", "width 1", "rows 1",
])
def test_a_failed_precondition_takes_the_numpy_loop(gemm_calls, defect):
    kw = {"inner": T._GEMM_MAX_INNER + 1} if defect == "inner too long" else {"m": 1} if defect == "rows 1" else {}
    wk, src, dst, shifts, blocks = accumulate_case(**kw)
    if defect == "dst not C-contiguous":
        dst = np.asfortranarray(dst)
    elif defect == "src not C-contiguous":
        src = np.asfortranarray(src)
    elif defect == "wk not C-contiguous":
        wk = np.asfortranarray(wk)
    elif defect == "dst read-only":
        dst.flags.writeable = False
    elif defect == "dtypes differ":
        src = src.astype(np.float64)
    elif defect == "integer dtype":
        wk, src, dst = wk.astype(np.int64), src.astype(np.int64), dst.astype(np.int64)
    elif defect == "slice past src":
        shifts = [(s + 9, d) for s, d in shifts]
    elif defect == "slice past dst":
        shifts = [(s, 9) for s, _ in shifts]
    elif defect == "negative shift":
        shifts = [(-1, 0)] + shifts[1:]
    elif defect == "shift count":
        shifts = shifts[:-1]
    elif defect == "width 1":
        blocks = [(0, 1), (1, 40)]
    if defect in ("slice past src", "slice past dst", "negative shift", "dst read-only"):
        # the NumPy loop's slices then do not line up, or its add cannot
        # write, so it raises instead of touching memory it may not
        with pytest.raises(ValueError):
            T._accumulate(wk, False, src, dst, shifts, blocks)
    else:
        want = numpy_accumulate(wk, src, dst, shifts, blocks)
        T._accumulate(wk, False, src, dst, shifts, blocks)
        assert same_bits(dst, want)
    assert gemm_calls == []


def test_without_openblas_the_numpy_loop_runs(monkeypatch):
    """Where NumPy bundles no OpenBLAS there is no GEMM to call; conv3d
    then runs the NumPy expression and gives the same bits."""
    rng = Rng(4)
    x = rng.normal_array(8 * 6 ** 3).reshape(8, 6, 6, 6)
    w = rng.normal_array(4 * 8 * 27).reshape(4, 8, 3, 3, 3)
    g = rng.normal_array(4 * 6 ** 3).reshape(4, 6, 6, 6)
    _, ref = shifted_both_ways(x, w, (1, 1, 1), g)
    monkeypatch.setattr(T, "_openblas_libs", lambda: ())
    T._gemm.cache_clear()
    try:
        assert T._gemm(np.dtype(np.float64)) is None
        xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
        out = T.conv3d(xt, wt, padding=(1, 1, 1))
        T.einsum("cwhd,cwhd->", out, T.Tensor(g)).backward()
    finally:
        T._gemm.cache_clear()
    assert same_bits(out.data, ref[0])
    assert same_bits(xt.grad, ref[1])
    assert same_bits(wt.grad, ref[2])


@needs_cblas
def test_train_is_bitwise_the_same_with_and_without_cblas(monkeypatch, gemm_calls):
    """Three batch-2 steps of the default model: the loss log, parameters,
    momentum and RNG state do not move by a bit when the GEMMs are absent."""
    rng = Rng(6)
    image = rng.normal_array(12 ** 3).reshape(1, 12, 12, 12)
    labels = (rng.uniform_array(12 ** 3) * 3).astype(np.int64).reshape(12, 12, 12)
    case = training.PreparedCase(image, labels, labels.shape, labels, (1.0, 1.0, 1.0), labels.shape)
    data = training.PreparedData([case], [], NormStats(0.0, 1.0, 0.0, 1.0), (1.0, 1.0, 1.0), 3)
    cfg = training.TrainConfig(epochs=3, iters_per_epoch=1, batch=2, patch_size=(8, 8, 8), seed=6)
    runs = []
    for cblas in (True, False):
        if not cblas:
            monkeypatch.setattr(T, "_gemm", lambda dtype: None)
        model = build_model(make_backbone_config(1, 3, (8, 8, 8)), Rng(6))
        runs.append(training.train(model, data, cfg))
        if cblas:
            assert gemm_calls
    (ckpt, log), (ref_ckpt, ref_log) = runs
    assert [e["loss"] for e in log] == [e["loss"] for e in ref_log]
    assert ckpt.rng_state == ref_ckpt.rng_state
    for name in ref_ckpt.params:
        assert same_bits(ckpt.params[name], ref_ckpt.params[name]), name
        assert same_bits(ckpt.momentum[name], ref_ckpt.momentum[name]), name


@needs_cblas
def test_one_by_one_convs_take_the_numpy_loop_and_larger_kernels_the_gemm(gemm_calls):
    """The default 16^3 model's shifted convs, forward and backward: the
    1x1x1 decoder reduces and head make no GEMM call, every 3x3x3 conv does."""
    rng = Rng(8)
    model = build_model(make_backbone_config(1, 3, (16, 16, 16)), rng)
    calls = {}
    for name, w, stride, padding, grid_in, grid_out in conv_layers(model, (16, 16, 16)):
        if not T._shifted(stride, w.shape[1], w.shape[0]):
            continue
        cout, cin = w.shape[:2]
        x = rng.normal_array(cin * int(np.prod(grid_in))).reshape((cin,) + grid_in).astype(np.float32)
        g = rng.normal_array(cout * int(np.prod(grid_out))).reshape((cout,) + grid_out).astype(np.float32)
        before = len(gemm_calls)
        _, grads = T._conv3d_shifted(x, w.data.astype(np.float32), padding, (cout,) + grid_out)
        grads(g, True, True)
        calls[name] = (w.shape[2:], len(gemm_calls) - before)
    ones = {name for name, (kernel, _) in calls.items() if kernel == (1, 1, 1)}
    assert ones == {"dec0.reduce.w", "dec1.reduce.w", "head.w"}
    assert all((n == 0) == (name in ones) for name, (_, n) in calls.items()), calls
