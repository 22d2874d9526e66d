"""Property tests: the fused instance_norm node against its unfused
composition, and the activations against their masked formulations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gasaunet import tensor as T
from gasaunet.errors import InvalidConfig
from gasaunet.tensor import Tensor
from gasaunet.verify import fd_grad, max_rel_err

EPS = 1e-5


def _rsqrt(v: Tensor) -> Tensor:
    """(v + EPS)^-1/2 as a node of its own; the engine has no sqrt op."""
    out = 1.0 / np.sqrt(v.data + EPS)

    def bw(g):
        v.accumulate_grad(-0.5 * g * out ** 3)

    return T._node(out, (v,), bw)


def unfused(x: Tensor, gamma: Tensor, beta: Tensor, slope):
    c = x.shape[0]
    inv_n = Tensor(1.0 / (x.size // c))
    per_channel = (c, 1, 1, 1)
    mean = T.mul(T.reshape(T.einsum("cwhd,whd->c", x, Tensor(np.ones(x.shape[1:]))), per_channel), inv_n)
    centered = T.add(x, T.mul(mean, Tensor(-1.0)))
    var = T.mul(T.reshape(T.einsum("cwhd,cwhd->c", centered, centered), per_channel), inv_n)
    y = T.mul(centered, _rsqrt(var))
    z = T.add(T.mul(y, T.reshape(gamma, per_channel)), T.reshape(beta, per_channel))
    return z if slope is None else T.leaky_relu(z, slope)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 4) for _ in range(4))),
    slope=st.one_of(st.none(), st.floats(0.001, 0.5)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_fused_instance_norm_matches_unfused_composition(shape, slope, seed):
    rng = np.random.default_rng(seed)
    c = shape[0]
    x = Tensor(rng.standard_normal(shape) * rng.uniform(0.1, 10.0), requires_grad=True)
    gamma = Tensor(rng.standard_normal(c), requires_grad=True)
    beta = Tensor(rng.standard_normal(c), requires_grad=True)
    coef = Tensor(rng.standard_normal(shape))
    params = (x, gamma, beta)

    def loss(fn):
        return T.einsum("cwhd,cwhd->", fn(x, gamma, beta, slope), coef)

    ref_out = unfused(x, gamma, beta, slope)
    out = T.instance_norm(x, gamma, beta, slope)
    assert np.allclose(out.data, ref_out.data, rtol=0, atol=1e-10)

    loss(unfused).backward()
    ref_grads = [p.grad for p in params]
    for p in params:
        p.zero_grad()
    loss(T.instance_norm).backward()
    for p, ref in zip(params, ref_grads):
        assert np.allclose(p.grad, ref, rtol=0, atol=1e-10)

    # finite differences are only meaningful away from the activation's kink;
    # 1e-3 is the gradient-check tolerance of the acceptance criteria
    pre_activation = T.instance_norm(x, gamma, beta).data
    assume(slope is None or np.abs(pre_activation).min() > 1e-3)
    for p in params:
        assert max_rel_err(p.grad, fd_grad(lambda: loss(T.instance_norm), p, eps=1e-5)) <= 1e-3


# -- bitwise parity of the activations with their masked formulations ----------

SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
SLOPES = st.one_of(st.sampled_from([1.0, 0.01, 5e-324]), st.floats(0.0, 1.0, exclude_min=True))


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def masked_leaky(a: Tensor, slope: float) -> Tensor:
    """The fused instance-norm activation as a node of its own, in the masked
    form it used to run: inputs <= 0 (NaN excluded) are multiplied by slope."""
    neg = a.data <= 0
    out = a.data.copy()
    np.multiply(out, slope, out=out, where=neg)

    def bw(g):
        g = g.copy()
        np.multiply(g, slope, out=g, where=neg)
        a.accumulate_grad(g)

    return T._node(out, (a,), bw)


def where_leaky(a: Tensor, slope: float) -> Tensor:
    """leaky_relu as it used to run: inputs > 0 pass, all others (NaN
    included) are multiplied by slope."""
    pos = a.data > 0

    def bw(g):
        a.accumulate_grad(g * np.where(pos, 1.0, slope))

    return T._node(np.where(pos, a.data, slope * a.data), (a,), bw)


def out_and_grads(fn, inputs, upstream):
    """fn(*inputs) and the gradient of each input under the given upstream gradient."""
    for t in inputs:
        t.zero_grad()
    with np.errstate(all="ignore"):  # NaN and inf inputs are the point
        out = fn(*inputs)
        idx = "cwhd"[4 - out.data.ndim:]
        T.einsum(f"{idx},{idx}->", out, Tensor(upstream)).backward()
    return out.data, [t.grad for t in inputs]


def leaf(values, shape) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64).reshape(shape), requires_grad=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), slope=SLOPES, n=st.integers(1, 40))
def test_leaky_relu_is_bitwise_its_where_form(data, slope, n):
    x = leaf(data.draw(st.lists(VALUES, min_size=n, max_size=n)), (n,))
    g = np.array(data.draw(st.lists(VALUES, min_size=n, max_size=n)))
    out, (gx,) = out_and_grads(lambda a: T.leaky_relu(a, slope), [x], g)
    ref_out, (ref_gx,) = out_and_grads(lambda a: where_leaky(a, slope), [x], g)
    assert same_bits(out, ref_out) and same_bits(gx, ref_gx)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    slope=SLOPES,
    shape=st.tuples(*(st.integers(1, 3) for _ in range(4))),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_fused_instance_norm_activation_is_bitwise_its_masked_form(data, slope, shape, seed):
    # zero, NaN and infinite affine terms put +-0, NaN and +-inf into the
    # normalized values that the activation sees
    rng = np.random.default_rng(seed)
    c = shape[0]
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    x.data.reshape(-1)[0] = data.draw(st.sampled_from([0.0, np.nan, np.inf]))
    gamma = leaf(data.draw(st.lists(VALUES, min_size=c, max_size=c)), (c,))
    beta = leaf(data.draw(st.lists(VALUES, min_size=c, max_size=c)), (c,))
    g = np.array(data.draw(st.lists(VALUES, min_size=x.size, max_size=x.size))).reshape(shape)
    inputs = [x, gamma, beta]
    out, grads = out_and_grads(lambda *a: T.instance_norm(*a, slope), inputs, g)
    ref_out, ref_grads = out_and_grads(lambda *a: masked_leaky(T.instance_norm(*a), slope), inputs, g)
    assert same_bits(out, ref_out)
    for got, want in zip(grads, ref_grads):
        assert same_bits(got, want)


@pytest.mark.parametrize("slope", [0.0, -0.0, -0.01, 1.5, np.nan, np.inf])
def test_activation_slope_outside_the_unit_interval_is_rejected(slope):
    x = Tensor(np.ones((1, 2, 2, 2)))
    with pytest.raises(InvalidConfig):
        T.leaky_relu(x, slope)
    with pytest.raises(InvalidConfig):
        T.instance_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), slope)
