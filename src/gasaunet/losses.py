"""Compound soft-Dice + cross-entropy training loss.

total = [1 - (1/N_c) * sum_c 2*sum_j(L*Y) / (sum_j L^2 + sum_j Y^2)]
      + [-(1/N_y) * sum_c sum_j L * log(Y)]

with Y the per-voxel class softmax of the logits, L the one-hot labels, unit
weights on both terms, and the log clamped at 1e-12.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeMismatch
from .tensor import Tensor

LOG_FLOOR = 1e-12


def soft_dice_ce_parts(logits: Tensor, onehot: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """(total, dice term, cross-entropy term); the parts sum to the total.

    The total is one graph node whose only parent is `logits` (the labels
    get no gradient); the two terms are graph-free Tensors, for logging. The
    loss runs on [K, N] arrays in the current precision (float64 outside a
    precision() block, also for float32 logits). Its backward pass applies
    the softmax Jacobian, gz = y * (gy - sum_c gy*y), to the closed-form
    gradient with respect to the probabilities,
        gy = (2*y*dice_c - 2*L) / (K*den_c) - L/max(y, 1e-12) * (y > 1e-12) / N,
    with dice_c the per-class ratio and den_c its denominator.

    A class absent from both the labels and the prediction support has a
    zero Dice denominator; it scores a perfect 1 with zero gradient, through
    a mask added to its numerator and denominator. The cross-entropy passes
    a gradient only where y > 1e-12, strictly: its clamp is flat below.
    """
    if logits.shape != onehot.shape or logits.data.ndim != 4:
        raise ShapeMismatch(f"logits {logits.shape} vs one-hot labels {onehot.shape}")
    k = logits.shape[0]
    n = logits.size // k
    z = T._data(logits).reshape(k, n)
    labels = T._data(onehot).reshape(k, n)
    y = T.softmax_array(z, axis=0)                                      # [K, N]

    inter = (labels * y).sum(axis=1)                                    # [K]
    den = (labels * labels).sum(axis=1) + (y * y).sum(axis=1)
    absent = (den == 0.0) * 1.0
    den += absent
    dice = (inter * 2.0 + absent) / den
    dice_term = 1.0 - dice.sum() * (1.0 / k)
    ce_term = (labels * np.log(np.maximum(y, LOG_FLOOR))).sum() * (-1.0 / n)

    def bw(g):
        # Dice: one division by den per class, never den squared, so the
        # tiny den_c of a class missing from the labels divides a zero
        gz = (y * dice[:, None] - labels) * 2.0
        gz /= (k * den)[:, None]
        gz *= y
        gz -= y * gz.sum(axis=0, keepdims=True)
        # CE: -L/(N*y) above the floor, which the Jacobian turns into
        # (y*sum_c(L') - L')/N with L' = L*(y > floor), without dividing by y
        passed = labels * (y > LOG_FLOOR)
        gz += (y * passed.sum(axis=0, keepdims=True) - passed) * (1.0 / n)
        gz *= g
        logits.accumulate_grad(gz.reshape(logits.shape))

    total = T._node(dice_term + ce_term, (logits,), bw)
    return total, Tensor(dice_term), Tensor(ce_term)


def soft_dice_ce_loss(logits: Tensor, onehot: Tensor) -> Tensor:
    total, _, _ = soft_dice_ce_parts(logits, onehot)
    return total
