"""Compact 3D encoder-decoder segmentation network with the axial-attention
bottleneck.

Encoder stages are strided 3x3x3 conv blocks (instance norm + leaky ReLU);
the large variant appends residual blocks per stage. The attention block sits
between encoder and decoder and widens the bottleneck by 3*d_model channels;
the decoder reduces the channels with a 1x1x1 conv block, upsamples
nearest-neighbor, concatenates the encoder skip, and refines with one 3x3x3
conv block. Only the head conv has a bias: an instance norm subtracts each
channel's mean, which would cancel a bias in front of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gasa
from . import tensor as T
from .errors import InvalidConfig, ShapeMismatch
from .gasa import GasaConfig
from .tensor import Rng, Tensor

LEAKY_SLOPE = 0.01

VARIANT_BASE = "base"
VARIANT_LARGE = "large"


@dataclass
class BackboneConfig:
    in_channels: int
    num_classes: int
    stage_channels: tuple[int, ...] = (8, 16, 32)
    downsample_strides: tuple[tuple[int, int, int], ...] = ((1, 1, 1), (2, 2, 2), (2, 2, 2))
    gasa: GasaConfig | None = None
    variant: str = VARIANT_BASE
    large_res_blocks: tuple[int, int] = (3, 5)

    def validate(self) -> None:
        if len(self.stage_channels) < 2:
            raise InvalidConfig("need at least two stages")
        if len(self.downsample_strides) != len(self.stage_channels):
            raise InvalidConfig("one stride triple per stage")
        if any(s != (1, 1, 1) for s in self.downsample_strides[:1]):
            raise InvalidConfig("first stage must not downsample")
        if self.variant not in (VARIANT_BASE, VARIANT_LARGE):
            raise InvalidConfig(f"unknown variant {self.variant!r}")
        if self.num_classes < 2 or self.in_channels < 1:
            raise InvalidConfig("need >=1 input channel and >=2 classes")
        if self.gasa is not None:
            self.gasa.validate()
            if self.gasa.in_channels != self.stage_channels[-1]:
                raise InvalidConfig(
                    f"attention expects {self.gasa.in_channels} channels, bottleneck has {self.stage_channels[-1]}"
                )

    @property
    def stride_product(self) -> tuple[int, int, int]:
        prod = [1, 1, 1]
        for s in self.downsample_strides:
            prod = [a * b for a, b in zip(prod, s)]
        return tuple(prod)

    def bottleneck_spatial(self, input_spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        prod = self.stride_product
        if any(v % p != 0 for v, p in zip(input_spatial, prod)):
            raise ShapeMismatch(f"input {input_spatial} not divisible by stride product {prod}")
        return tuple(v // p for v, p in zip(input_spatial, prod))


def make_backbone_config(
    in_channels: int,
    num_classes: int,
    patch_size: tuple[int, int, int],
    stage_channels: tuple[int, ...] = (8, 16, 32),
    gasa_enabled: bool = True,
    variant: str = VARIANT_BASE,
    **gasa_kw,
) -> BackboneConfig:
    """Config with the attention geometry derived from the training patch size."""
    strides = tuple((1, 1, 1) if i == 0 else (2, 2, 2) for i in range(len(stage_channels)))
    cfg = BackboneConfig(
        in_channels=in_channels,
        num_classes=num_classes,
        stage_channels=tuple(stage_channels),
        downsample_strides=strides,
        variant=variant,
    )
    if gasa_enabled:
        spatial = cfg.bottleneck_spatial(tuple(patch_size))
        cfg.gasa = GasaConfig(in_channels=stage_channels[-1], spatial=spatial, **gasa_kw)
    cfg.validate()
    return cfg


class ConvBlock:
    """conv(k^3, same padding unless k=1, no bias) -> instance norm -> leaky ReLU."""

    def __init__(self, cin: int, cout: int, rng: Rng, stride=(1, 1, 1), kernel: int = 3):
        k = kernel
        self.stride = tuple(stride)
        self.padding = (k // 2,) * 3
        self.w = T.init_uniform((cout, cin, k, k, k), fan_in=cin * k ** 3, rng=rng)
        self.gamma = Tensor(np.ones(cout), requires_grad=True)
        self.beta = T.zeros([cout], requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        h = T.conv3d(x, self.w, stride=self.stride, padding=self.padding)
        return T.instance_norm(h, self.gamma, self.beta, LEAKY_SLOPE)


class ResBlock:
    """Two 3x3x3 conv+norm layers (no conv bias) with an additive skip."""

    stride = (1, 1, 1)
    padding = (1, 1, 1)

    def __init__(self, channels: int, rng: Rng):
        c = channels
        self.w1 = T.init_uniform((c, c, 3, 3, 3), fan_in=c * 27, rng=rng)
        self.g1 = Tensor(np.ones(c), requires_grad=True)
        self.be1 = T.zeros([c], requires_grad=True)
        self.w2 = T.init_uniform((c, c, 3, 3, 3), fan_in=c * 27, rng=rng)
        self.g2 = Tensor(np.ones(c), requires_grad=True)
        self.be2 = T.zeros([c], requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        h = T.conv3d(x, self.w1, padding=self.padding)
        h = T.instance_norm(h, self.g1, self.be1, LEAKY_SLOPE)
        h = T.conv3d(h, self.w2, padding=self.padding)
        h = T.instance_norm(h, self.g2, self.be2)
        return T.leaky_relu(T.add(h, x), LEAKY_SLOPE)


class GasaUNet:
    """Model parameters plus forward pass. Deterministic given the build rng."""

    def __init__(self, cfg: BackboneConfig, rng: Rng):
        cfg.validate()
        self.cfg = cfg
        ch = cfg.stage_channels
        n_stages = len(ch)

        self.encoder: list[list] = []
        cin = cfg.in_channels
        for i, c in enumerate(ch):
            blocks = [
                ConvBlock(cin, c, rng, stride=cfg.downsample_strides[i]),
                ConvBlock(c, c, rng),
            ]
            if cfg.variant == VARIANT_LARGE:
                n_res = cfg.large_res_blocks[1] if i == n_stages - 1 else cfg.large_res_blocks[0]
                blocks.extend(ResBlock(c, rng) for _ in range(n_res))
            self.encoder.append(blocks)
            cin = c

        self.gasa = gasa.init_gasa_params(cfg.gasa, rng) if cfg.gasa is not None else None
        bottom_ch = ch[-1] + (3 * cfg.gasa.d_model if cfg.gasa is not None else 0)

        self.reduce: list[ConvBlock] = []
        self.post: list[ConvBlock] = []
        prev = bottom_ch
        for lvl in range(n_stages - 2, -1, -1):
            self.reduce.append(ConvBlock(prev, ch[lvl], rng, kernel=1))
            self.post.append(ConvBlock(2 * ch[lvl], ch[lvl], rng))
            prev = ch[lvl]

        self.head_w = T.init_uniform((cfg.num_classes, ch[0], 1, 1, 1), fan_in=ch[0], rng=rng)
        self.head_b = T.zeros([cfg.num_classes], requires_grad=True)
        T.share_memory([p for _, p in self.named_params()])   # for the worker process (gasaunet.worker)

    def __setstate__(self, state):   # a deep copy or an unpickled model shares its parameters too
        self.__dict__.update(state)
        T.share_memory([p for _, p in self.named_params()])

    # -- forward -------------------------------------------------------------

    def forward(self, x: Tensor, training: bool = False, rng: Rng | None = None) -> Tensor:
        if x.data.ndim != 4 or x.shape[0] != self.cfg.in_channels:
            raise ShapeMismatch(f"expected [{self.cfg.in_channels},W,H,D], got {x.shape}")
        self.cfg.bottleneck_spatial(x.shape[1:])
        skips = []
        h = x
        for blocks in self.encoder:
            for blk in blocks:
                h = blk.forward(h)
            skips.append(h)
        if self.gasa is not None:
            h = gasa.gasa_forward(h, self.gasa, self.cfg.gasa, training=training, rng=rng)
        n_stages = len(self.cfg.stage_channels)
        for idx, lvl in enumerate(range(n_stages - 2, -1, -1)):
            # The 1x1x1 conv, the leaky ReLU and the instance-norm statistics
            # all commute with integer nearest upsampling, so reducing first
            # gives the same result on 1/8 of the voxels.
            h = self.reduce[idx].forward(h)
            h = T.upsample_nearest(h, self.cfg.downsample_strides[lvl + 1])
            h = T.concat([h, skips[lvl]], axis=0)
            h = self.post[idx].forward(h)
        return T.conv3d(h, self.head_w, self.head_b)

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Inference helper: numpy in, float64 logits out, no dropout, no graph.

        The forward pass runs in float32, which roughly halves the bytes the
        convolutions move; the softmax, blending and averaging that callers
        apply to the logits stay in float64.
        """
        with T.no_grad(), T.precision(np.float32):
            logits = self.forward(Tensor(x)).data
        return logits.astype(np.float64)

    # -- parameter registry ----------------------------------------------------

    def named_params(self):
        for i, blocks in enumerate(self.encoder):
            for j, blk in enumerate(blocks):
                yield from T.named_tensors(blk, f"enc{i}.{j}")
        if self.gasa is not None:
            yield from self.gasa.named("gasa")
        for idx, (reduce, post) in enumerate(zip(self.reduce, self.post)):
            yield from T.named_tensors(reduce, f"dec{idx}.reduce")
            yield from T.named_tensors(post, f"dec{idx}.post")
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def zero_grads(self) -> None:
        for _, p in self.named_params():
            p.zero_grad()


def build_model(cfg: BackboneConfig, rng: Rng) -> GasaUNet:
    return GasaUNet(cfg, rng)


# ---------------------------------------------------------------------------
# parameter / FLOP accounting, read off a built model
# ---------------------------------------------------------------------------


def count_model_params(cfg: BackboneConfig) -> int:
    """Learnable scalars the model registers."""
    return sum(p.size for _, p in build_model(cfg, Rng(0)).named_params())


def conv_flops(cin: int, cout: int, kernel: int, out_voxels: int) -> int:
    """Multiply-adds of a conv without bias, 2 ops each."""
    return out_voxels * cout * (2 * cin * kernel ** 3)


def conv_layers(model: GasaUNet, input_shape: tuple[int, int, int]) -> list[tuple]:
    """(name, kernel, stride, padding, input grid, output grid) of each conv
    that `model.forward` runs on an input of spatial shape `input_shape`, in
    forward order: the reduce convs at the coarse grid, as forward runs
    them. An input that forward rejects raises ShapeMismatch as it does."""
    model.cfg.bottleneck_spatial(tuple(input_shape))
    layers, grids, grid = [], [], tuple(input_shape)

    def add(name, w, stride, padding, grid_in):
        grid_out = T._conv3d_geometry((w.shape[1],) + grid_in, w.shape, stride, padding)[0][1:]
        layers.append((name, w, tuple(stride), tuple(padding), grid_in, grid_out))
        return grid_out

    for i, blocks in enumerate(model.encoder):
        for j, blk in enumerate(blocks):
            for name, w in T.named_tensors(blk, f"enc{i}.{j}"):
                if w.data.ndim == 5:
                    grid = add(name, w, blk.stride, blk.padding, grid)
        grids.append(grid)
    for idx, lvl in enumerate(range(len(grids) - 2, -1, -1)):
        add(f"dec{idx}.reduce.w", model.reduce[idx].w, (1, 1, 1), model.reduce[idx].padding, grids[lvl + 1])
        add(f"dec{idx}.post.w", model.post[idx].w, (1, 1, 1), model.post[idx].padding, grids[lvl])
    add("head.w", model.head_w, (1, 1, 1), (0, 0, 0), grids[0])
    return layers


def count_model_flops(cfg: BackboneConfig, input_shape: tuple[int, int, int]) -> int:
    """Forward FLOPs of convolutions and matmuls only (norms/activations free).
    An input that `GasaUNet.forward` rejects raises ShapeMismatch, as in
    forward, instead of being priced."""
    model = build_model(cfg, Rng(0))
    layers = conv_layers(model, input_shape)
    total = sum(conv_flops(w.shape[1], w.shape[0], w.shape[2], math.prod(grid_out)) for _, w, *_, grid_out in layers)
    if cfg.gasa is not None:
        total += gasa.gasa_flops(cfg.gasa)
    return total + model.head_b.size * math.prod(layers[-1][-1])  # the head (last) and its bias adds
