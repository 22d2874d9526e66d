import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasaunet.errors import ShapeMismatch
from gasaunet.losses import LOG_FLOOR, soft_dice_ce_loss, soft_dice_ce_parts
from gasaunet.tensor import Rng, Tensor
from gasaunet.verify import fd_grad, gradcheck, max_rel_err


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    return np.stack([(labels == c).astype(np.float64) for c in range(k)])


def test_perfect_hard_prediction_zero_loss():
    labels = np.zeros((3, 3, 3), dtype=int)
    labels[1:, 1:, 1:] = 1
    oh = one_hot(labels, 2)
    logits = Tensor((oh * 2.0 - 1.0) * 60.0)  # saturates the softmax
    loss = soft_dice_ce_loss(logits, Tensor(oh))
    assert abs(loss.item()) <= 1e-9


def test_uniform_two_class_ce_is_ln2():
    labels = (np.arange(8).reshape(2, 2, 2) % 2).astype(int)
    oh = one_hot(labels, 2)
    logits = Tensor(np.zeros((2, 2, 2, 2)))
    _, _, ce = soft_dice_ce_parts(logits, Tensor(oh))
    assert abs(ce.item() - math.log(2.0)) <= 1e-9


def dense_loss(logits: np.ndarray, oh: np.ndarray) -> float:
    """The displayed loss evaluated directly, one class at a time."""
    k = logits.shape[0]
    z = logits.reshape(k, -1)
    e = np.exp(z - z.max(axis=0))
    y = e / e.sum(axis=0)
    l = oh.reshape(k, -1)
    dice = 0.0
    for c in range(k):
        den = (l[c] ** 2).sum() + (y[c] ** 2).sum()
        dice += 1.0 if den == 0.0 else 2.0 * (l[c] * y[c]).sum() / den
    return (1.0 - dice / k) - (l * np.log(np.maximum(y, 1e-12))).sum() / l.shape[1]


def test_total_matches_direct_formula_on_2cube():
    # independent dense evaluation of the displayed loss on a 2^3 volume
    rng = Rng(2)
    logits = rng.normal_array(2 * 8).reshape(2, 2, 2, 2)
    labels = (rng.uniform_array(8).reshape(2, 2, 2) > 0.4).astype(int)
    oh = one_hot(labels, 2)
    got = soft_dice_ce_loss(Tensor(logits), Tensor(oh)).item()
    assert got == pytest.approx(dense_loss(logits, oh), abs=1e-12)


def test_parts_are_graph_free_and_sum_to_the_total():
    rng = Rng(6)
    logits = Tensor(rng.normal_array(3 * 8).reshape(3, 2, 2, 2), requires_grad=True)
    oh = Tensor(one_hot(np.floor(rng.uniform_array(8) * 3).astype(int).reshape(2, 2, 2), 3))
    total, dice, ce = soft_dice_ce_parts(logits, oh)
    assert total._parents == (logits,)
    assert not dice.requires_grad and not ce.requires_grad
    assert total.item() == dice.item() + ce.item()


def test_gradient_matches_finite_differences():
    rng = Rng(3)
    logits = Tensor(rng.normal_array(2 * 27).reshape(2, 3, 3, 3), requires_grad=True)
    labels = (rng.uniform_array(27).reshape(3, 3, 3) > 0.5).astype(int)
    oh = Tensor(one_hot(labels, 2))

    def f():
        return soft_dice_ce_loss(logits, oh)

    f().backward()
    assert max_rel_err(logits.grad, fd_grad(f, logits)) <= 1e-4


def test_loss_nonnegative_random_inputs():
    rng = Rng(4)
    for _ in range(1000):
        k = 2 + rng.randint(2)
        logits = Tensor(rng.normal_array(k * 8).reshape(k, 2, 2, 2) * 3.0)
        labels = np.floor(rng.uniform_array(8) * k).astype(int).reshape(2, 2, 2)
        loss = soft_dice_ce_loss(logits, Tensor(one_hot(labels, k)))
        assert loss.item() >= 0.0


def test_absent_class_guard():
    # class 2 never appears in the labels
    labels = np.zeros((2, 2, 2), dtype=int)
    labels[0, 0, 0] = 1
    oh = one_hot(labels, 3)

    # tiny but nonzero predicted mass: the ratio is 0/positive = 0, so the
    # absent class costs 1/N_c, exactly as the formula says
    loss_soft = soft_dice_ce_loss(Tensor((oh * 2.0 - 1.0) * 60.0), Tensor(oh))
    assert loss_soft.item() == pytest.approx(1.0 / 3.0, abs=1e-9)

    # fully underflowed mass: zero support on both sides trips the guard and
    # the absent class contributes a perfect score
    loss_hard = soft_dice_ce_loss(Tensor((oh * 2.0 - 1.0) * 500.0), Tensor(oh))
    assert abs(loss_hard.item()) <= 1e-9


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        soft_dice_ce_loss(Tensor(np.zeros((2, 2, 2, 2))), Tensor(np.zeros((3, 2, 2, 2))))


def test_gradient_stays_finite_when_an_absent_class_squared_mass_underflows():
    # class 1 is absent from the labels and holds e^-300 of each voxel: its
    # summed squared mass (~5e-261) is positive, but its square underflows
    # to 0, so a quotient rule through den*den reads 0/0 here
    logits = Tensor(np.array([0.0, 0.0, -300.0, -300.0]).reshape(2, 1, 1, 2), requires_grad=True)
    oh = Tensor(one_hot(np.zeros((1, 1, 2), dtype=int), 2))
    loss = soft_dice_ce_loss(logits, oh)
    assert loss.item() == 0.5
    loss.backward()
    assert np.isfinite(logits.grad).all()
    y1 = math.exp(-300.0) / (1.0 + math.exp(-300.0))
    assert logits.grad.reshape(-1).tolist() == pytest.approx([0.0, 0.0, y1 / 2, y1 / 2], rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 4),
    extents=st.tuples(*(st.integers(1, 4) for _ in range(3))),
    scale=st.floats(0.1, 40.0),
    drop=st.one_of(st.none(), st.integers(0, 3)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_fused_loss_matches_dense_formula_and_finite_differences(k, extents, scale, drop, seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.standard_normal((k,) + extents) * scale, requires_grad=True)
    labels = rng.integers(0, k, size=extents)
    if drop is not None:  # leave one class out of the labels
        labels[labels == drop % k] = (drop + 1) % k
    oh = one_hot(labels, k)
    got = soft_dice_ce_loss(logits, Tensor(oh)).item()
    assert got == pytest.approx(dense_loss(logits.data, oh), rel=1e-12, abs=1e-12)
    result = gradcheck(lambda: soft_dice_ce_loss(logits, Tensor(oh)), [("logits", logits)], tol=1e-4)
    assert result["passed"], result


def test_cross_entropy_is_flat_below_the_log_floor():
    # voxel 0 is labelled class 0 but holds e^-40 of it, below LOG_FLOOR:
    # the clamped log is constant there, so only the Dice term moves it
    logits = Tensor(np.array([-40.0, 0.3, -0.2, 0.0, -0.1, 0.4]).reshape(2, 1, 1, 3), requires_grad=True)
    oh = Tensor(one_hot(np.array([0, 1, 0]).reshape(1, 1, 3), 2))
    assert math.exp(-40.0) < LOG_FLOOR

    def ce():
        return soft_dice_ce_parts(logits, oh)[2]

    fd_ce = fd_grad(ce, logits).reshape(2, 3)
    assert np.all(fd_ce[:, 0] == 0.0)
    result = gradcheck(lambda: soft_dice_ce_loss(logits, oh), [("logits", logits)], tol=1e-4)
    assert result["passed"], result
