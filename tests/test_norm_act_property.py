"""Property test: the fused instance_norm node against its unfused composition."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gasaunet import tensor as T
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
    mean = T.mul(T.tsum(x, axis=(1, 2, 3), keepdims=True), inv_n)
    centered = T.sub(x, mean)
    var = T.mul(T.tsum(T.mul(centered, centered), axis=(1, 2, 3), keepdims=True), inv_n)
    y = T.mul(centered, _rsqrt(var))
    z = T.add(T.mul(y, T.reshape(gamma, (c, 1, 1, 1))), T.reshape(beta, (c, 1, 1, 1)))
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
        return T.tsum(T.mul(fn(x, gamma, beta, slope), coef))

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
