"""Global axial self-attention block.

One token per slice along each spatial axis: a full-plane kernel projects
every W/H/D slice to a d_model vector, the w+h+d tokens go through MLP-free
multi-head self-attention (one `T.attention` node between biased `T.einsum`
projections), each attended token is broadcast back over its slice, and the
three axis volumes are concatenated onto the input channels. An optional learnable positional embedding is added to the tokens
either before or after attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import InvalidConfig, ShapeMismatch
from .tensor import Rng, Tensor

PE_NONE = "none"
PE_BEFORE = "before"
PE_AFTER = "after"
PE_MODES = (PE_NONE, PE_BEFORE, PE_AFTER)


@dataclass
class GasaConfig:
    in_channels: int
    spatial: tuple[int, int, int]
    d_model: int = 25
    heads: int = 5
    pe_mode: str = PE_AFTER
    use_layer_norm: bool = False
    dropout_p: float = 0.5

    def validate(self) -> None:
        w, h, d = self.spatial
        if min(w, h, d) < 1 or self.in_channels < 1:
            raise InvalidConfig(f"bad extents {self.spatial} / channels {self.in_channels}")
        if self.d_model < 1 or self.heads < 1 or self.d_model % self.heads != 0:
            raise InvalidConfig(f"d_model {self.d_model} must be a positive multiple of heads {self.heads}")
        if self.pe_mode not in PE_MODES:
            raise InvalidConfig(f"pe_mode must be one of {PE_MODES}, got {self.pe_mode!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvalidConfig(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads

    @property
    def tokens(self) -> int:
        return sum(self.spatial)


@dataclass
class GasaParams:
    """Learnable state of one block; field order fixes the checkpoint layout; pe is None in pe_mode "none".

    The key projection ends without an additive term (bk exists only in
    front of the layer norm, which has no key shift): softmax cancels a
    shift shared by all of a query's scores, so its gradient would be zero.
    """

    proj_w: Tensor
    proj_w_b: Tensor
    proj_h: Tensor
    proj_h_b: Tensor
    proj_d: Tensor
    proj_d_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor | None
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    pe: Tensor | None = None
    ln: dict[str, Tensor] = field(default_factory=dict)

    def named(self, prefix: str = "gasa"):
        yield from T.named_tensors(self, prefix)
        for name in sorted(self.ln):
            yield f"{prefix}.ln.{name}", self.ln[name]


def init_gasa_params(cfg: GasaConfig, rng: Rng) -> GasaParams:
    cfg.validate()
    c = cfg.in_channels
    w, h, d = cfg.spatial
    dm = cfg.d_model

    def proj(plane: int, shape) -> Tensor:
        return T.init_uniform(shape, fan_in=c * plane, rng=rng)

    params = GasaParams(
        proj_w=proj(h * d, (dm, c, 1, h, d)),
        proj_w_b=T.zeros([dm], requires_grad=True),
        proj_h=proj(w * d, (dm, c, w, 1, d)),
        proj_h_b=T.zeros([dm], requires_grad=True),
        proj_d=proj(w * h, (dm, c, w, h, 1)),
        proj_d_b=T.zeros([dm], requires_grad=True),
        wq=T.init_uniform((dm, dm), fan_in=dm, rng=rng),
        bq=T.zeros([dm], requires_grad=True),
        wk=T.init_uniform((dm, dm), fan_in=dm, rng=rng),
        bk=T.zeros([dm], requires_grad=True) if cfg.use_layer_norm else None,
        wv=T.init_uniform((dm, dm), fan_in=dm, rng=rng),
        bv=T.zeros([dm], requires_grad=True),
        wo=T.init_uniform((dm, dm), fan_in=dm, rng=rng),
        bo=T.zeros([dm], requires_grad=True),
        pe=T.zeros([w + h + d, dm], requires_grad=True) if cfg.pe_mode != PE_NONE else None,
    )
    if cfg.use_layer_norm:
        for key in ("q", "k", "v"):
            params.ln[f"{key}_gamma"] = Tensor(np.ones(dm), requires_grad=True)
            if key != "k":
                params.ln[f"{key}_beta"] = T.zeros([dm], requires_grad=True)
    return params


def axial_project(x: Tensor, params: GasaParams, cfg: GasaConfig) -> Tensor:
    """One token per slice: each W, H and D slice contracted with its
    full-plane kernel. Returns the [(w+h+d), d_model] token sequence, W
    tokens first, then H, then D."""
    w, h, d = cfg.spatial
    c = cfg.in_channels
    if x.shape != (c, w, h, d):
        raise ShapeMismatch(f"expected input {(c, w, h, d)}, got {x.shape}")
    dm = cfg.d_model
    p_w = T.einsum("cwhd,ochd->wo", x, T.reshape(params.proj_w, (dm, c, h, d)), bias=params.proj_w_b)
    p_h = T.einsum("cwhd,ocwd->ho", x, T.reshape(params.proj_h, (dm, c, w, d)), bias=params.proj_h_b)
    p_d = T.einsum("cwhd,ocwh->do", x, T.reshape(params.proj_d, (dm, c, w, h)), bias=params.proj_d_b)
    return T.concat([p_w, p_h, p_d], axis=0)


def mhsa(
    tokens: Tensor,
    params: GasaParams,
    cfg: GasaConfig,
    training: bool = False,
    rng: Rng | None = None,
    return_weights: bool = False,
):
    """Multi-head scaled dot-product self-attention over the token sequence.

    Head h owns feature columns [h*d_k, (h+1)*d_k) of Q, K and V
    (`T.attention`). No MLP follows: the merged heads are mixed by the
    output projection and (when training) hit by dropout. Layer norm after
    each of the Q/K/V projections is optional and off by default. With
    return_weights, also returns one row-stochastic [n, n] Tensor per head.
    """
    if tokens.data.ndim != 2 or tokens.shape[1] != cfg.d_model:
        raise ShapeMismatch(f"tokens must be [n, {cfg.d_model}], got {tokens.shape}")

    def project(key: str) -> Tensor:
        out = T.einsum("nc,co->no", tokens, getattr(params, f"w{key}"), bias=getattr(params, f"b{key}"))
        return T.layer_norm(out, params.ln[f"{key}_gamma"], params.ln.get(f"{key}_beta")) if cfg.use_layer_norm else out

    merged, probs = T.attention(project("q"), project("k"), project("v"), cfg.heads, 1.0 / math.sqrt(cfg.d_k))
    out = T.einsum("nc,co->no", merged, params.wo, bias=params.bo)
    out = T.dropout(out, cfg.dropout_p, training=training, rng=rng)
    if return_weights:
        return out, [Tensor(head) for head in probs]
    return out


def axial_expand(att: Tensor, cfg: GasaConfig) -> Tensor:
    """Broadcast each token back over its slice; stack the three axis volumes.

    W tokens fill channels [0, d_model), H tokens [d_model, 2*d_model), D
    tokens [2*d_model, 3*d_model).
    """
    w, h, d = cfg.spatial
    dm = cfg.d_model
    if att.shape != (w + h + d, dm):
        raise ShapeMismatch(f"expected ({w + h + d}, {dm}) attention rows, got {att.shape}")
    a = att.data
    out_data = np.empty((3 * dm, w, h, d), dtype=a.dtype)
    out_data[:dm] = np.broadcast_to(a[:w].T[:, :, None, None], (dm, w, h, d))
    out_data[dm : 2 * dm] = np.broadcast_to(a[w : w + h].T[:, None, :, None], (dm, w, h, d))
    out_data[2 * dm :] = np.broadcast_to(a[w + h :].T[:, None, None, :], (dm, w, h, d))

    def bw(g):
        if att.requires_grad:
            datt = np.empty_like(a)
            datt[:w] = g[:dm].sum(axis=(2, 3)).T
            datt[w : w + h] = g[dm : 2 * dm].sum(axis=(1, 3)).T
            datt[w + h :] = g[2 * dm :].sum(axis=(1, 2)).T
            att.accumulate_grad(datt)

    return T._node(out_data, (att,), bw)


def add_positional_embedding(tokens_or_att: Tensor, pe: Tensor, mode: str) -> Tensor:
    """Elementwise token+embedding addition; mode "none" is a true identity."""
    if mode not in PE_MODES:
        raise InvalidConfig(f"unknown pe mode {mode!r}")
    if mode == PE_NONE:
        return tokens_or_att
    if tokens_or_att.shape != pe.shape:
        raise ShapeMismatch(f"tokens {tokens_or_att.shape} vs embedding {pe.shape}")
    return T.add(tokens_or_att, pe)


def gasa_forward(
    x: Tensor,
    params: GasaParams,
    cfg: GasaConfig,
    training: bool = False,
    rng: Rng | None = None,
) -> Tensor:
    """Full block: project -> (PE) -> attention -> (PE) -> expand -> concat.

    The first in_channels output channels are the untouched input.
    """
    tokens = axial_project(x, params, cfg)
    if cfg.pe_mode == PE_BEFORE:
        tokens = add_positional_embedding(tokens, params.pe, PE_BEFORE)
    att = mhsa(tokens, params, cfg, training=training, rng=rng)
    if cfg.pe_mode == PE_AFTER:
        att = add_positional_embedding(att, params.pe, PE_AFTER)
    vol = axial_expand(att, cfg)
    return T.concat([x, vol], axis=0)


def dropout_draws(cfg: GasaConfig) -> int:
    """Random draws one training forward of the block consumes: one per
    entry of the (W + H + D, d_model) attention output that dropout masks,
    none when dropout_p is 0."""
    return sum(cfg.spatial) * cfg.d_model if cfg.dropout_p > 0 else 0


def count_gasa_params(cfg: GasaConfig) -> int:
    """Learnable scalars of one block."""
    return sum(p.size for _, p in init_gasa_params(cfg, Rng(0)).named())


def matmul_flops(m: int, k: int, n: int) -> int:
    return 2 * m * k * n


def gasa_flops(cfg: GasaConfig) -> int:
    """Forward FLOPs of the block's projections and matmuls, bias adds included."""
    w, h, d = cfg.spatial
    dm = cfg.d_model
    t = cfg.tokens
    total = sum(matmul_flops(extent, cfg.in_channels * plane, dm) + extent * dm  # axial projections
                for extent, plane in ((w, h * d), (h, w * d), (d, w * h)))
    n_biases = 3 if cfg.use_layer_norm else 2  # q and v; k only in front of a layer norm
    total += 3 * matmul_flops(t, dm, dm) + n_biases * t * dm  # q, k, v projections
    total += matmul_flops(t, dm, t)                           # scores (all heads)
    total += matmul_flops(t, t, dm)                           # attention * values
    total += matmul_flops(t, dm, dm) + t * dm                 # output mix
    return total
