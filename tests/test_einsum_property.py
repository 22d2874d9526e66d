"""T.einsum against np.einsum on random two-operand specs, and a guard that a
training sample calls neither np.einsum nor np.pad.

T.einsum runs every contraction as one np.matmul by a cached plan. The specs
drawn here mix batch indices (in both operands and the output), contracted
ones (in both operands only) and free ones (in one operand and the output),
each term and the output in a random order, so every branch of the plan is
exercised: no batch, no contraction, scalar output, size-1 extents.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gasaunet import tensor as T
from gasaunet import training
from gasaunet.backbone import build_model, make_backbone_config
from gasaunet.tensor import Rng, Tensor

RTOL = 1e-12


@st.composite
def contractions(draw):
    """(spec, shape_a, shape_b) of a valid two-operand contraction."""
    kinds = draw(st.lists(st.sampled_from(["batch", "contracted", "free_a", "free_b"]), max_size=6))
    letters = "abcdefghij"[: len(kinds)]
    extents = {i: draw(st.integers(1, 4)) for i in letters}
    in_a = [i for i, k in zip(letters, kinds) if k != "free_b"]
    in_b = [i for i, k in zip(letters, kinds) if k != "free_a"]
    in_out = [i for i, k in zip(letters, kinds) if k != "contracted"]
    ta, tb, out = ("".join(draw(st.permutations(idx))) for idx in (in_a, in_b, in_out))
    return f"{ta},{tb}->{out}", tuple(extents[i] for i in ta), tuple(extents[i] for i in tb)


def _close(actual, spec, a, b):
    """actual matches np.einsum(spec, a, b) to RTOL of the terms' magnitude."""
    ref = np.einsum(spec, a, b)
    scale = np.einsum(spec, np.abs(a), np.abs(b))
    assert actual.shape == ref.shape
    assert np.all(np.abs(actual - ref) <= RTOL * scale)


@settings(deadline=None, max_examples=200)
@given(case=contractions(), seed=st.integers(0, 2**32 - 1))
def test_einsum_and_gradients_match_numpy(case, seed):
    spec, shape_a, shape_b = case
    gen = np.random.default_rng(seed)
    a_np, b_np = gen.standard_normal(shape_a), gen.standard_normal(shape_b)
    a, b = Tensor(a_np, requires_grad=True), Tensor(b_np, requires_grad=True)
    out = T.einsum(spec, a, b)
    _close(out.data, spec, a_np, b_np)

    coef = gen.standard_normal(out.shape)
    lhs, _, out_idx = spec.partition("->")
    T.einsum(f"{out_idx},{out_idx}->", out, Tensor(coef)).backward()
    ta, tb = lhs.split(",")
    _close(a.grad, f"{out_idx},{tb}->{ta}", coef, b_np)
    _close(b.grad, f"{out_idx},{ta}->{tb}", coef, a_np)
    assert a.grad.dtype == b.grad.dtype == np.float64


class _RecordingNumpy:
    """numpy for tensor.py, counting its einsum, matmul and pad calls."""

    def __init__(self):
        self.einsum_calls = 0
        self.matmul_calls = 0
        self.pad_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, *args, **kwargs):
        self.einsum_calls += 1
        return np.einsum(*args, **kwargs)

    def matmul(self, *args, **kwargs):
        self.matmul_calls += 1
        return np.matmul(*args, **kwargs)

    def pad(self, *args, **kwargs):
        self.pad_calls += 1
        return np.pad(*args, **kwargs)


def test_training_sample_calls_no_optimizing_einsum_and_no_pad(monkeypatch):
    rng = Rng(3)
    model = build_model(make_backbone_config(1, 3, (16, 16, 16)), rng)
    x = rng.normal_array(16 ** 3).reshape(1, 16, 16, 16)
    labels = (rng.uniform_array(16 ** 3) * 3).astype(np.int64).reshape(16, 16, 16)
    onehot = np.stack([labels == c for c in range(3)]).astype(np.float64)
    recorder = _RecordingNumpy()
    monkeypatch.setattr(T, "np", recorder)
    training.sample_loss(model, x, onehot, rng).backward()
    # every contraction and conv runs through np.matmul, so a zero count
    # would mean the recorder was never reached
    assert recorder.matmul_calls > 0
    assert recorder.einsum_calls == 0
    assert recorder.pad_calls == 0
