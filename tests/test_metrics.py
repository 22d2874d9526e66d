import numpy as np
import pytest

from gasaunet.errors import InvalidSpacing, ShapeMismatch
from gasaunet.metrics import HecSpec, dice_score, evaluate_case, hec_evaluate, kits_hec, nsd
from gasaunet.verify import nsd_brute_force


def test_dice_identical_masks():
    a = np.zeros((3, 3, 3), dtype=int)
    a[1, 1, 1] = 1
    assert dice_score(a, a.copy(), [1]) == 1.0


def test_dice_disjoint_masks():
    p = np.zeros((3, 3, 3), dtype=int)
    g = np.zeros((3, 3, 3), dtype=int)
    p[0, 0, 0] = 1
    g[2, 2, 2] = 1
    assert dice_score(p, g, [1]) == 0.0


def test_dice_partial_overlap():
    p = np.zeros((4, 1, 1), dtype=int)
    g = np.zeros((4, 1, 1), dtype=int)
    p[0] = p[1] = 1
    g[1] = 1
    assert dice_score(p, g, [1]) == pytest.approx(2.0 / 3.0)


def test_dice_undefined_when_both_empty():
    z = np.zeros((2, 2, 2), dtype=int)
    assert dice_score(z, z, [1]) is None


def test_dice_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.integers(0, 2, size=(4, 4, 4))
        g = rng.integers(0, 2, size=(4, 4, 4))
        assert dice_score(p, g, [1]) == dice_score(g, p, [1])


def test_dice_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dice_score(np.zeros((2, 2, 2), dtype=int), np.zeros((3, 2, 2), dtype=int), [1])


def test_nsd_identical_masks():
    a = np.zeros((4, 4, 4), dtype=int)
    a[1:3, 1:3, 1:3] = 1
    for tau in (0.0, 0.5, 3.0):
        assert nsd(a, a.copy(), [1], tau, (1.0, 1.0, 1.0)) == 1.0


def test_nsd_threshold_crossing():
    p = np.zeros((5, 1, 1), dtype=int)
    g = np.zeros((5, 1, 1), dtype=int)
    p[0] = 1
    g[2] = 1  # two voxels apart at unit spacing
    assert nsd(p, g, [1], 1.0, (1.0, 1.0, 1.0)) == 0.0
    assert nsd(p, g, [1], 2.0, (1.0, 1.0, 1.0)) == 1.0


def test_nsd_undefined_and_one_sided():
    z = np.zeros((3, 3, 3), dtype=int)
    m = z.copy()
    m[1, 1, 1] = 1
    assert nsd(z, z, [1], 1.0, (1.0, 1.0, 1.0)) is None
    assert nsd(m, z, [1], 1.0, (1.0, 1.0, 1.0)) == 0.0


def test_nsd_invalid_spacing():
    a = np.zeros((2, 2, 2), dtype=int)
    with pytest.raises(InvalidSpacing):
        nsd(a, a, [1], 1.0, (1.0, 0.0, 1.0))
    with pytest.raises(InvalidSpacing):
        nsd(a, a, [1], -1.0, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nsd_rejects_a_non_finite_spacing(bad):
    a = np.zeros((6, 6, 6), dtype=int)
    a[1:4, 1:4, 1:4] = 1
    with pytest.raises(InvalidSpacing, match="spacing must be 3 finite positive numbers"):
        nsd(a, a, [1], 1.0, (bad, 1.0, 1.0))


def test_nsd_rejects_a_nan_tolerance():
    """Every distance compares false with NaN, which read as NSD 0."""
    a = np.zeros((6, 6, 6), dtype=int)
    a[1:4, 1:4, 1:4] = 1
    with pytest.raises(InvalidSpacing, match="tolerance must be >= 0, got nan"):
        nsd(a, a, [1], float("nan"), (1.0, 1.0, 1.0))


def test_nsd_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        shape = tuple(rng.integers(2, 7, size=3))
        pred = rng.integers(0, 3, size=shape)
        gt = rng.integers(0, 3, size=shape)
        spacing = tuple(rng.choice([0.5, 0.7, 1.0, 3.0], size=3))
        tau = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        ids = [int(rng.integers(1, 3))]
        assert nsd(pred, gt, ids, tau, spacing) == nsd_brute_force(pred, gt, ids, tau, spacing)


def test_nsd_symmetry():
    rng = np.random.default_rng(9)
    p = rng.integers(0, 2, size=(5, 5, 5))
    g = rng.integers(0, 2, size=(5, 5, 5))
    assert nsd(p, g, [1], 1.0, (1.0, 2.0, 0.5)) == nsd(g, p, [1], 1.0, (1.0, 2.0, 0.5))


def test_nsd_monotone_in_tau():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.integers(0, 2, size=(5, 5, 5))
        g = rng.integers(0, 2, size=(5, 5, 5))
        if not (p.any() or g.any()):
            continue
        vals = [nsd(p, g, [1], tau, (1.0, 1.0, 1.0)) for tau in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_hec_singleton_reduces_to_plain_metrics():
    rng = np.random.default_rng(13)
    p = rng.integers(0, 3, size=(4, 4, 4))
    g = rng.integers(0, 3, size=(4, 4, 4))
    spec = HecSpec({"solo": (1,)})
    report = hec_evaluate(p, g, spec, 1.0, (1.0, 1.0, 1.0))
    assert report.dice["solo"] == dice_score(p, g, [1])
    assert report.nsd["solo"] == nsd(p, g, [1], 1.0, (1.0, 1.0, 1.0))


def test_hec_tumor_only_ignores_other_labels():
    p = np.zeros((4, 4, 4), dtype=int)
    g = np.zeros((4, 4, 4), dtype=int)
    g[1, 1, 1] = 2
    p[1, 1, 1] = 2
    p[0] = 1   # spurious organ prediction must not affect the tumor group
    g[3] = 3
    spec = kits_hec(4)
    report = hec_evaluate(p, g, spec, 1.0, (1.0, 1.0, 1.0))
    assert report.dice["tumor"] == 1.0


def test_hec_crafted_volume_matches_hand_binarization():
    rng = np.random.default_rng(17)
    p = rng.integers(0, 3, size=(4, 4, 4))
    g = rng.integers(0, 3, size=(4, 4, 4))
    spec = HecSpec({"both": (1, 2), "two_only": (2,)})
    report = hec_evaluate(p, g, spec, 1.0, (1.0, 1.0, 1.0))
    for name, ids in spec.groups.items():
        pm = np.isin(p, ids).astype(int)
        gm = np.isin(g, ids).astype(int)
        assert report.dice[name] == dice_score(pm, gm, [1])
        assert report.nsd[name] == nsd(pm, gm, [1], 1.0, (1.0, 1.0, 1.0))


def test_evaluate_case_report_ranges():
    rng = np.random.default_rng(19)
    p = rng.integers(0, 3, size=(5, 5, 5))
    g = rng.integers(0, 3, size=(5, 5, 5))
    report = evaluate_case(p, g, num_classes=3, tau=1.0, spacing=(1.0, 1.0, 1.0), hec=kits_hec(3))
    for v in list(report.dice.values()) + list(report.nsd.values()):
        assert v is None or 0.0 <= v <= 1.0
    d = report.to_dict(scale=100.0)
    assert 0.0 <= d["mean_dice"] <= 100.0


def test_kits_hec_structure():
    spec = kits_hec(4)
    assert spec.groups["organ_and_masses"] == (1, 2, 3)
    assert spec.groups["masses"] == (2, 3)
    assert spec.groups["tumor"] == (2,)
    spec.validate(4)
    with pytest.raises(ValueError):
        HecSpec({"bad": ()}).validate()
