"""Compound soft-Dice + cross-entropy training loss.

total = [1 - (1/N_c) * sum_c 2*sum_j(L*Y) / (sum_j L^2 + sum_j Y^2)]
      + [-(1/N_y) * sum_c sum_j L * log(Y)]

with Y the per-voxel class softmax of the logits, L the one-hot labels, unit
weights on both terms, and the log clamped at 1e-12.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ShapeMismatch
from .tensor import Tensor

LOG_FLOOR = 1e-12


def soft_dice_ce_parts(logits: Tensor, onehot: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """(total, dice term, cross-entropy term); the parts sum to the total.

    A class absent from both the labels and the prediction support has a
    zero Dice denominator; it scores a perfect 1 with zero gradient, through
    a mask added to its numerator and denominator.
    """
    if logits.shape != onehot.shape or logits.data.ndim != 4:
        raise ShapeMismatch(f"logits {logits.shape} vs one-hot labels {onehot.shape}")
    k = logits.shape[0]
    n = logits.size // k
    probs = T.softmax(T.reshape(logits, (k, n)), axis=0)         # [K, N]
    labels = T.reshape(onehot, (k, n))                           # [K, N]

    inter = T.tsum(T.mul(labels, probs), axis=1)                 # [K]
    den = T.add(T.tsum(T.mul(labels, labels), axis=1), T.tsum(T.mul(probs, probs), axis=1))
    absent = Tensor((den.data == 0.0) * 1.0)
    dice = T.div(T.add(T.mul(inter, Tensor(2.0)), absent), T.add(den, absent))
    dice_term = T.sub(Tensor(1.0), T.mul(T.tsum(dice), Tensor(1.0 / k)))

    log_y = T.log(T.clamp_min(probs, LOG_FLOOR))
    ce_term = T.mul(T.tsum(T.mul(labels, log_y)), Tensor(-1.0 / n))

    return T.add(dice_term, ce_term), dice_term, ce_term


def soft_dice_ce_loss(logits: Tensor, onehot: Tensor) -> Tensor:
    total, _, _ = soft_dice_ce_parts(logits, onehot)
    return total
