"""Reverse-mode automatic differentiation on n-dimensional float arrays.

The engine is define-by-run: every operation returns a new Tensor that
remembers its parents and a closure that routes the output gradient back to
them. A closure receives that gradient as its argument and never refers to
its own output, so the graph has no cycles and a graph that is dropped
without a backward pass is freed by reference counting. backward() seeds
the scalar root with 1 and replays the closures in reverse topological
order. Inside a no_grad() block ops record no graph at all.

Arrays are float64 unless a precision() block selects another dtype: inside
it, new Tensors and every op's operands are cast to that dtype, so float64
parameters take part in a float32 forward pass without a copy being kept.
Every gradient is cast to the dtype of the tensor that receives it, so the
backward pass of a float32 forward runs in float32 even when a float64 loss
is computed on its output, and float64 parameters still get float64 grads.
Training (training.sample_loss) and inference (GasaUNet.predict_logits) run
their forward passes in float32; parameters, gradients, the optimizer, the
gradient checks and checkpoints are float64.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    InvalidConfig,
    InvalidProbability,
    KernelTooLarge,
    NotScalar,
    ShapeMismatch,
)

Array = np.ndarray

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)
_TWO53_INV = 1.0 / (1 << 53)


class Rng:
    """Counter-based deterministic random stream (splitmix64).

    The i-th raw draw is a pure function of (seed, counter + i), so bulk
    generation with numpy uint64 arithmetic produces bitwise the same stream
    as repeated scalar calls. State is the pair (seed, counter) and can be
    checkpointed exactly.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter) & _MASK64

    # -- raw stream ---------------------------------------------------------

    def _next_u64(self, n: int) -> Array:
        idx = np.arange(1, n + 1, dtype=np.uint64) + _U64(self.counter)
        self.counter = (self.counter + n) & _MASK64
        z = (_U64(self.seed) + idx * _SM64_GAMMA).astype(np.uint64)
        z = (z ^ (z >> _U64(30))) * _SM64_M1
        z = (z ^ (z >> _U64(27))) * _SM64_M2
        return z ^ (z >> _U64(31))

    # -- derived draws ------------------------------------------------------

    def uniform_array(self, n: int) -> Array:
        """n doubles in [0, 1)."""
        return (self._next_u64(n) >> _U64(11)).astype(np.float64) * _TWO53_INV

    def uniform(self) -> float:
        return float(self.uniform_array(1)[0])

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        return int(self.uniform() * n)

    def normal_array(self, n: int) -> Array:
        """n standard normals via Box-Muller (consumes 2n raw draws)."""
        raw = self._next_u64(2 * n)
        u1 = ((raw[:n] >> _U64(11)).astype(np.float64) + 1.0) * _TWO53_INV
        u2 = (raw[n:] >> _U64(11)).astype(np.float64) * _TWO53_INV
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def normal(self) -> float:
        return float(self.normal_array(1)[0])

    def spawn(self, key: int) -> "Rng":
        """Independent substream derived from (seed, key)."""
        z = (self.seed + ((int(key) & _MASK64) + 1) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 30)) * 0x94D049BB133111EB) & _MASK64
        return Rng(z ^ (z >> 31))

    @property
    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    @classmethod
    def from_state(cls, state: Sequence[int]) -> "Rng":
        return cls(state[0], state[1])


class Tensor:
    """Array in the current precision (float64 by default) plus gradient
    bookkeeping.

    grad has the dtype of data: the first gradient received, cast only if
    its dtype differs; later ones are added into a new array. Intermediate
    tensors keep references to their parents and a backward closure until
    backward() consumes them; leaves keep neither, and only leaves keep a
    grad after backward().
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple["Tensor", ...] = ()
        self._backward: Callable[[Array], None] | None = None

    # -- basics -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: Array) -> None:
        # A gradient is cast to this tensor's dtype: a float32 node fed by the
        # float64 loss keeps its backward in float32, and a float64 parameter
        # of a float32 forward stores a float64 grad. Never in place: a
        # closure may hand the same array to several parents. A first
        # gradient of the right dtype is kept as given, so closures hand over
        # contiguous arrays for weights (strided ones slow the optimizer).
        g = np.asarray(g)
        if g.dtype != self.data.dtype:
            g = g.astype(self.data.dtype)
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    # -- autograd core ------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root.

        Repeated calls without zero_grad accumulate into leaf gradients. The
        sweep consumes the graph: once a node's closure has run, the node
        drops its closure, its parents and its gradient, so each buffer is
        freed as soon as the sweep is past it. A second sweep needs a fresh
        forward pass.
        """
        if self.data.size != 1:
            raise NotScalar(f"backward() root must be scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()


_grad_enabled = True
_dtype = np.dtype(np.float64)


@contextlib.contextmanager
def no_grad():
    """Block in which ops record no graph: results need no gradient and keep
    no parents, closures or backward buffers. The previous mode is restored
    on exit, also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


@contextlib.contextmanager
def precision(dtype):
    """Block in which new Tensors, op operands and op results use `dtype`.
    The previous precision is restored on exit, also when the block raises."""
    global _dtype
    previous, _dtype = _dtype, np.dtype(dtype)
    try:
        yield
    finally:
        _dtype = previous


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30
_heap_kept: bool | None = None


def _find_mallopt():
    """The C library's mallopt(int, int) -> int, or None where the process's
    C library has none (musl, macOS, Windows)."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


def keep_heap_resident() -> bool:
    """Keep freed memory in this process's heap instead of returning it to
    the kernel; True when the C library accepted both settings.

    A training step or an inference tile rebuilds buffers of the same shapes
    every time. By default glibc serves arrays above its (dynamic) mmap
    threshold with fresh mappings and trims the heap top once 128 KiB of it
    are free, so each step's arrays are faulted in and zero-filled by the
    kernel again. This sets M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD
    to 1 GiB; setting either also stops glibc from moving the mmap threshold,
    which is why both are set (a trim threshold alone can freeze the mmap
    threshold at 128 KiB and make every array an mmap). The process's
    resident memory then stays at its peak: no array, value or result
    changes.

    The setting is process-wide and one-way (glibc has no getter to restore
    it), so it is applied on the first call only and later calls return the
    first call's result. Where there is no mallopt the call does nothing
    and returns False, as it does when the C library refuses a setting.
    """
    global _heap_kept
    if _heap_kept is None:
        mallopt = _find_mallopt()
        _heap_kept = mallopt is not None and all(
            [mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1,
             mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1]
        )
    return _heap_kept


def _data(t: Tensor) -> Array:
    """t.data in the current precision. A tensor made in another precision,
    such as a float64 parameter inside precision(np.float32), is cast on
    every read; no copy is cached, because the optimizer updates parameters
    in place."""
    d = t.data
    return d if d.dtype is _dtype else d.astype(_dtype)


def _node(data: Array, parents: Iterable[Tensor], backward: Callable[[Array], None]) -> Tensor:
    """Result tensor; records the graph edge only when a parent needs grads
    and recording is not switched off by no_grad()."""
    parents = tuple(parents)
    out = Tensor(data, requires_grad=_grad_enabled and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum g down to shape, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / reduction ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = _data(a) + _data(b)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _node(out_data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = _data(a), _data(b)
    out_data = ad * bd

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * bd, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ad, b.shape))

    return _node(out_data, (a, b), bw)


def tsum(a: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    out_data = _data(a).sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    return _node(out_data, (a,), bw)


def _check_slope(slope: float) -> None:
    # max(slope*x, x) is the leaky ReLU only for slope <= 1, and for slope > 0:
    # a zero slope would turn x = +inf into 0*inf = NaN
    if not 0.0 < slope <= 1.0:
        raise InvalidConfig(f"leaky ReLU slope must be in (0, 1], got {slope}")


def _leaky(x: Array, slope: float) -> Array:
    """max(slope*x, x) into a new array: x for x > 0, slope*x otherwise."""
    out = x * slope
    return np.maximum(out, x, out=out)


def _leaky_grad(g: Array, pos: Array, slope: float) -> Array:
    """g where pos, g*slope elsewhere, built in place without a masked ufunc."""
    factor = pos.astype(g.dtype)
    np.maximum(factor, slope, out=factor)
    factor *= g
    return factor


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    """x for x > 0, slope*x otherwise (NaN included)."""
    _check_slope(slope)
    ad = _data(a)
    out_data = _leaky(ad, slope)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_leaky_grad(g, ad > 0, slope))

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out_data = _data(a).reshape(shape)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _node(out_data, (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([_data(t) for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]

    def bw(g):
        offset = 0
        for t, ext in zip(tensors, extents):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + ext)
                t.accumulate_grad(g[tuple(sl)])
            offset += ext

    return _node(out_data, tensors, bw)


def upsample_nearest(a: Tensor, factors: Sequence[int]) -> Tensor:
    """Nearest-neighbor upsampling of a [C, W, H, D] tensor by integer factors."""
    if a.data.ndim != 4:
        raise ShapeMismatch(f"upsample_nearest expects [C,W,H,D], got {a.shape}")
    fw, fh, fd = (int(f) for f in factors)
    out_data = _data(a).repeat(fw, axis=1).repeat(fh, axis=2).repeat(fd, axis=3)

    def bw(g):
        if a.requires_grad:
            # each input voxel sums its fw*fh*fd copies: strided slices per axis
            g = sum(g[:, i::fw] for i in range(fw))
            g = sum(g[:, :, i::fh] for i in range(fh))
            a.accumulate_grad(sum(g[:, :, :, i::fd] for i in range(fd)))

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# contraction and softmax
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _einsum_plan(spec: str, shape_a: tuple[int, ...], shape_b: tuple[int, ...]):
    """Validate a two-operand spec against the operand shapes and return the
    matmul plan (perm_a, mat_a, perm_b, mat_b, mid, perm_out): operand A
    transposed by perm_a and reshaped to mat_a = [batch, free-A, contracted],
    B transposed by perm_b and reshaped to mat_b = [batch, contracted,
    free-B]; their matmul, reshaped to mid and transposed by perm_out, is the
    output. The batch axis is left out when there is no batch index. Cached
    per (spec, shapes), so a repeated contraction neither parses nor checks."""
    lhs, arrow, out_idx = spec.partition("->")
    terms = lhs.split(",")
    if not arrow or len(terms) != 2:
        raise ShapeMismatch(f"einsum spec {spec!r} needs '->' and one term per operand (2)")
    extents: dict[str, int] = {}
    for i, (term, shape) in enumerate(zip(terms, (shape_a, shape_b))):
        if len(term) != len(shape) or len(set(term)) != len(term):
            raise ShapeMismatch(f"einsum term {term!r} does not index operand {i} of shape {shape} once per axis")
        elsewhere = out_idx + terms[1 - i]
        for idx, n in zip(term, shape):
            if idx not in elsewhere:
                raise ShapeMismatch(f"einsum index {idx!r} of term {term!r} appears in no other term or the output")
            if extents.setdefault(idx, n) != n:
                raise ShapeMismatch(f"einsum index {idx!r} has extents {extents[idx]} and {n} in {spec!r}")
    if len(set(out_idx)) != len(out_idx) or not set(out_idx) <= set(extents):
        raise ShapeMismatch(f"einsum output {out_idx!r} repeats an index or names one no operand has")
    ta, tb = terms
    batch = [i for i in out_idx if i in ta and i in tb]
    free_a = [i for i in ta if i in out_idx and i not in tb]
    free_b = [i for i in tb if i in out_idx and i not in ta]
    contracted = [i for i in ta if i not in out_idx]

    def size(indices):
        return math.prod(extents[i] for i in indices)

    lead = (size(batch),) if batch else ()
    mid = batch + free_a + free_b
    return (
        tuple(ta.index(i) for i in batch + free_a + contracted),
        lead + (size(free_a), size(contracted)),
        tuple(tb.index(i) for i in batch + contracted + free_b),
        lead + (size(contracted), size(free_b)),
        tuple(extents[i] for i in mid),
        tuple(mid.index(i) for i in out_idx),
    )


def _contract(spec: str, a: Array, b: Array) -> Array:
    """np.einsum(spec, a, b) as one np.matmul by the cached plan."""
    perm_a, mat_a, perm_b, mat_b, mid, perm_out = _einsum_plan(spec, a.shape, b.shape)
    out = np.matmul(a.transpose(perm_a).reshape(mat_a), b.transpose(perm_b).reshape(mat_b))
    return out.reshape(mid).transpose(perm_out)


def einsum(spec: str, *operands: Tensor) -> Tensor:
    """Contraction of two operands over an explicit "ab,bc->ac" spec,
    differentiable in both.

    Each index is a batch index (in both operands and the output), a free
    index (in one operand and the output) or a contracted one (in both
    operands only). So the contraction is one np.matmul of the operands
    transposed and reshaped to [batch, free-A, contracted] and [batch,
    contracted, free-B]; the plan for that is built once per (spec, shapes)
    and cached (`_einsum_plan`). np.einsum is never called: for the small
    token and plane contractions here its Python dispatch costs several
    times the matmul. The gradient of an operand is the contraction of the
    output gradient with the other operand, written back to that operand's
    indices, and runs through the same plans. For that to be a plain
    contraction, no operand may repeat an index (no diagonals), and every
    index of an operand must also appear in the output or in the other
    operand (no index that only one operand sums away). Any other operand
    count raises ShapeMismatch.
    """
    if len(operands) != 2:
        raise ShapeMismatch(f"einsum takes two operands, got {len(operands)}")
    a, b = operands
    spec = spec.replace(" ", "")
    ad, bd = _data(a), _data(b)
    out_data = _contract(spec, ad, bd)

    def bw(g):
        lhs, _, out_idx = spec.partition("->")
        ta, tb = lhs.split(",")
        if a.requires_grad:
            a.accumulate_grad(np.asarray(_contract(f"{out_idx},{tb}->{ta}", g, bd), order="C"))
        if b.requires_grad:
            b.accumulate_grad(np.asarray(_contract(f"{out_idx},{ta}->{tb}", g, ad), order="C"))

    return _node(out_data, operands, bw)


def softmax_array(x: Array, axis: int) -> Array:
    """Softmax of a NumPy array over one axis, max-subtracted for stability."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax over one axis, max-subtracted for stability."""
    if a.data.ndim == 0 or a.shape[axis] < 1:
        raise ShapeMismatch(f"softmax needs a nonempty axis {axis}, got shape {a.shape}")
    y = softmax_array(_data(a), axis)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _node(y, (a,), bw)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor | None = None) -> Tensor:
    """Normalize over the last axis, then apply the per-feature scale and,
    if given, shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or (beta is not None and beta.shape != (d,)):
        raise ShapeMismatch(
            f"layer_norm affine must have shape ({d},), got {gamma.shape}/{getattr(beta, 'shape', None)}"
        )
    rows = reshape(x, (-1, d, 1, 1))
    n = rows.shape[0]
    y = mul(reshape(instance_norm(rows, Tensor(np.ones(n)), Tensor(np.zeros(n))), x.shape), gamma)
    return y if beta is None else add(y, beta)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, slope: float | None = None) -> Tensor:
    """Per-channel normalization of a [C, W, H, D] tensor over its spatial
    axes (population variance), the per-channel affine and, when slope is
    given, a leaky ReLU, as one node.

    With y the normalized input and g the gradient after the activation, the
    backward pass reuses the per-channel sums dbeta = sum(g) and
    dgamma = sum(g*y): dx = gamma*inv_std*(g - dbeta/N - y*dgamma/N).
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"instance_norm expects [C,W,H,D], got {x.shape}")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatch(
            f"instance_norm affine must have shape ({c},), got {gamma.shape}/{beta.shape}"
        )
    if slope is not None:
        _check_slope(slope)
    n = x.size // c
    per_channel = (c, 1, 1, 1)
    xd, gd = _data(x), _data(gamma)
    y = xd - xd.mean(axis=(1, 2, 3), keepdims=True)
    flat = y.reshape(c, n)
    # per-channel dot products as one batched matmul ([c, 1, n] by [c, n, 1])
    inv_std = 1.0 / np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]).reshape(c) / n + _NORM_EPS)
    y *= inv_std.reshape(per_channel)
    out_data = y * gd.reshape(per_channel)
    out_data += _data(beta).reshape(per_channel)
    if slope is not None:
        out_data = _leaky(out_data, slope)

    def bw(g):
        if slope is not None:
            # the activation keeps each value's class, so the output tells
            # which inputs were <= 0; NaN counts as positive
            g = _leaky_grad(g, ~(out_data <= 0), slope)
        g_flat = g.reshape(c, n)
        dbeta = g_flat.sum(axis=1)
        dgamma = np.matmul(g_flat[:, None, :], flat[:, :, None]).reshape(c)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)
        if x.requires_grad:
            dx = y * (-dgamma / n).reshape(per_channel)
            dx += g
            dx -= (dbeta / n).reshape(per_channel)
            dx *= (gd * inv_std).reshape(per_channel)
            x.accumulate_grad(dx)

    return _node(out_data, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, training: bool, rng: Rng | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p) so inference is identity."""
    if not 0.0 <= p < 1.0:
        raise InvalidProbability(f"dropout p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise InvalidProbability("training dropout needs an Rng")
    keep = (rng.uniform_array(x.size) >= p).reshape(x.shape)
    scale = 1.0 / (1.0 - p)
    out_data = _data(x) * keep * scale

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * keep * scale)

    return _node(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# 3-d convolution
# ---------------------------------------------------------------------------


def _conv3d_geometry(x_shape, w_shape, stride, padding):
    cin, w, h, d = x_shape
    cout, cin_w, kw, kh, kd = w_shape
    if cin_w != cin:
        raise ShapeMismatch(f"conv3d channels: input {cin}, kernel expects {cin_w}")
    sw, sh, sd = stride
    pw, ph, pd = padding
    ow = (w + 2 * pw - kw) // sw + 1
    oh = (h + 2 * ph - kh) // sh + 1
    od = (d + 2 * pd - kd) // sd + 1
    if kw > w + 2 * pw or kh > h + 2 * ph or kd > d + 2 * pd:
        raise KernelTooLarge(
            f"kernel ({kw},{kh},{kd}) exceeds padded input ({w + 2 * pw},{h + 2 * ph},{d + 2 * pd})"
        )
    return (cout, ow, oh, od), (sw, sh, sd), (pw, ph, pd)


# Columns per block of the shifted-slice loops. At 32^3 a block's input
# slices and partial sums then stay in L2 across the kernel offsets (1.5x
# faster than whole rows); much smaller blocks lose to per-call overhead.
_CONV_BLOCK = 4096


def _conv3d_shifted(xd: Array, wd: Array, padding, out_shape):
    """Stride-1 convolution as one matmul per kernel offset, with no column buffer.

    The padded input is flattened to [Cin, N]. The output voxel at flat index
    p of the padded grid is sum_k W_k @ xp[:, p + off_k], with
    off_k = a*Hp*Dp + b*Dp + c, so each offset reads the contiguous slice
    xp[:, off_k : off_k + L]. Outputs computed at pad positions of H and D
    are garbage and are cropped; the trailing zeros let the last slices fit.
    The loops run over blocks of about _CONV_BLOCK columns.

    The forward pass and dx keep one matmul per offset: batching them was
    slower or took more memory, as measured. The weight gradient takes one
    matmul per block against a read-only strided view [kw, kh, kd, Cin, L]
    of the padded input, whose window (a, b, c) is the offset's slice. That
    view must not be reshaped to [K, Cin, L]: its strides do not merge, so
    the reshape would copy a K-fold column buffer. Each window's product and
    the sum over blocks are those of the per-offset loop, so dW equals that
    loop's result bit for bit.
    """
    cin, w_, h_, d_ = xd.shape
    cout, _, kw, kh, kd = wd.shape
    _, ow, oh, od = out_shape
    pw, ph, pd = padding
    hp, dp = h_ + 2 * ph, d_ + 2 * pd
    plane = hp * dp
    n_grid = (w_ + 2 * pw) * plane
    span = ow * plane
    offsets = [a * plane + bb * dp + c for a in range(kw) for bb in range(kh) for c in range(kd)]
    cropped = (oh, od) != (hp, dp)
    if cropped or pw or ph or pd:
        xf = np.zeros((cin, n_grid + (kh - 1) * dp + kd - 1), dtype=xd.dtype)
        xf[:, :n_grid].reshape(cin, -1, hp, dp)[:, pw : pw + w_, ph : ph + h_, pd : pd + d_] = xd
    else:
        xf = xd.reshape(cin, n_grid)
    wk = wd.reshape(cout, cin, -1).transpose(2, 0, 1).copy()  # [K, Cout, Cin]

    n_blocks = max(1, round(span / _CONV_BLOCK))
    blocks = [(span * i // n_blocks, span * (i + 1) // n_blocks) for i in range(n_blocks)]
    acc = np.zeros((cout, span), dtype=xd.dtype)
    for lo, hi in blocks:
        out_block = acc[:, lo:hi]
        for k, off in enumerate(offsets):
            out_block += wk[k] @ xf[:, off + lo : off + hi]
    # the crop is copied, so a kept output does not pin the garbage columns
    out_data = acc.reshape(cout, ow, hp, dp)[:, :, :oh, :od].copy() if cropped else acc.reshape(out_shape)

    def grads(g_out: Array, need_x: bool, need_w: bool):
        if cropped:
            g = np.zeros((cout, ow, hp, dp), dtype=g_out.dtype)
            g[:, :, :oh, :od] = g_out
            g = g.reshape(cout, span)
        else:
            g = g_out.reshape(cout, span)
        dw = dx = None
        if need_w:
            # windows[a, b, c, :, l] = xf[:, off_k + l], a read-only view of xf
            s_ch, s_col = xf.strides
            windows = as_strided(xf, (kw, kh, kd, cin, span), (plane * s_col, dp * s_col, s_col, s_ch, s_col),
                                 writeable=False)
            dwk = np.zeros((kw, kh, kd, cout, cin), dtype=wk.dtype)
            for lo, hi in blocks:
                dwk += np.matmul(g[:, lo:hi], windows[..., lo:hi].swapaxes(-1, -2))
            dw = np.ascontiguousarray(dwk.transpose(3, 4, 0, 1, 2))
        if need_x:
            dxf = np.zeros_like(xf)
            for lo, hi in blocks:
                for k, off in enumerate(offsets):
                    dxf[:, off + lo : off + hi] += wk[k].T @ g[:, lo:hi]
            dx = dxf[:, :n_grid].reshape(cin, -1, hp, dp)[:, pw : pw + w_, ph : ph + h_, pd : pd + d_]
        return dx, dw

    return out_data, grads


def _conv3d_gather(xd: Array, wd: Array, stride, padding, out_shape):
    """Any-stride convolution as im2col + one matmul; col2im in backward."""
    cin, w_, h_, d_ = xd.shape
    cout, _, kw, kh, kd = wd.shape
    _, ow, oh, od = out_shape
    sw, sh, sd = stride
    pw, ph, pd = padding
    if pw or ph or pd:
        xp = np.zeros((cin, w_ + 2 * pw, h_ + 2 * ph, d_ + 2 * pd), dtype=xd.dtype)
        xp[:, pw : pw + w_, ph : ph + h_, pd : pd + d_] = xd
    else:
        xp = xd
    along_w = [slice(a, a + sw * ow, sw) for a in range(kw)]
    along_h = [slice(a, a + sh * oh, sh) for a in range(kh)]
    along_d = [slice(a, a + sd * od, sd) for a in range(kd)]
    windows = [(slice(None), i, j, k) for i in along_w for j in along_h for k in along_d]
    cols = np.empty((cin, len(windows), ow, oh, od), dtype=xd.dtype)
    for k, win in enumerate(windows):
        cols[:, k] = xp[win]
    cols_2d = cols.reshape(-1, ow * oh * od)
    out_data = (wd.reshape(cout, -1) @ cols_2d).reshape(out_shape)

    def grads(g_out: Array, need_x: bool, need_w: bool):
        g2d = g_out.reshape(cout, -1)
        dw = (g2d @ cols_2d.T).reshape(wd.shape) if need_w else None
        dx = None
        if need_x:
            dcols = (wd.reshape(cout, -1).T @ g2d).reshape(cols.shape)
            dxp = np.zeros_like(xp)
            for k, win in enumerate(windows):
                dxp[win] += dcols[:, k]
            dx = dxp[:, pw : pw + w_, ph : ph + h_, pd : pd + d_]
        return dx, dw

    return out_data, grads


def conv3d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride: Sequence[int] = (1, 1, 1),
    padding: Sequence[int] = (0, 0, 0),
) -> Tensor:
    """3-d cross-correlation of [Cin,W,H,D] with [Cout,Cin,kw,kh,kd], plus bias b if given.

    No implicit padding: `padding` is explicit, default 0.

    Stride-1 convolutions run one matmul per kernel offset over shifted
    slices of the flattened padded input (`_conv3d_shifted`): no column
    buffer is built, only the padded input is kept for the backward pass,
    and a 1x1x1 kernel is a single matmul. The path is picked from the
    shapes alone; im2col (`_conv3d_gather`) is faster, as measured, when
    - the stride is not 1: stride 1 then subsampling wastes most products;
    - Cin < Cout, as in the Cin=1 stem: each offset is then a thin product
      whose [Cout, L] accumulation costs more than gathering the columns.
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"conv3d input must be [Cin,W,H,D], got {x.shape}")
    if w.data.ndim != 5:
        raise ShapeMismatch(f"conv3d kernel must be [Cout,Cin,kw,kh,kd], got {w.shape}")
    out_shape, stride, padding = _conv3d_geometry(x.shape, w.shape, stride, padding)
    cout = out_shape[0]
    if b is not None and b.shape != (cout,):
        raise ShapeMismatch(f"conv3d bias must have shape ({cout},), got {b.shape}")

    if stride == (1, 1, 1) and x.shape[0] >= cout:
        out_data, grads = _conv3d_shifted(_data(x), _data(w), padding, out_shape)
    else:
        out_data, grads = _conv3d_gather(_data(x), _data(w), stride, padding, out_shape)
    if b is not None:
        out_data += _data(b)[:, None, None, None]

    def bw(g):
        dx, dw = grads(g, x.requires_grad, w.requires_grad)
        if w.requires_grad:
            w.accumulate_grad(dw)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=(1, 2, 3)))
        if x.requires_grad:
            x.accumulate_grad(dx)

    return _node(out_data, (x, w) if b is None else (x, w, b), bw)


# ---------------------------------------------------------------------------
# parameter init
# ---------------------------------------------------------------------------


def init_uniform(shape: Sequence[int], fan_in: int, rng: Rng) -> Tensor:
    """Learnable leaf drawn from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    shape = tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    bound = 1.0 / math.sqrt(fan_in)
    vals = (rng.uniform_array(n) * 2.0 - 1.0) * bound
    return Tensor(vals.reshape(shape), requires_grad=True)


def zeros(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape)), requires_grad=requires_grad)


def named_tensors(obj, prefix: str):
    """(prefix.attr, tensor) for each Tensor attribute of obj, in the order they were assigned."""
    for name, value in vars(obj).items():
        if isinstance(value, Tensor):
            yield f"{prefix}.{name}", value
