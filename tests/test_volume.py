import json
import re

import numpy as np
import pytest

from gasaunet.errors import EmptyForeground, FormatError, InvalidSpacing
from gasaunet.volume import (
    NormStats,
    Volume,
    clip_normalize,
    compute_norm_stats,
    read_volume,
    resample_image,
    resample_labels,
    target_spacing,
    write_volume,
)


def make_image(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=np.float64), spacing=spacing, kind="image")


def make_labels(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=np.uint16), spacing=spacing, kind="labels")


# -- file format -------------------------------------------------------------


def test_volume_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = make_image(rng.normal(size=(2, 3, 4, 5)), spacing=(0.7, 0.7, 3.0))
    path = tmp_path / "case.gvol"
    write_volume(img, path)
    back = read_volume(path)
    assert np.array_equal(back.data, img.data)
    assert back.spacing == (0.7, 0.7, 3.0)
    assert back.kind == "image"
    assert back.origin == img.origin

    lab = make_labels(rng.integers(0, 4, size=(3, 4, 5)))
    lpath = tmp_path / "case_seg.gvol"
    write_volume(lab, lpath)
    lback = read_volume(lpath)
    assert np.array_equal(lback.data, lab.data)
    assert lback.data.dtype == np.uint16


def test_truncated_file_raises(tmp_path):
    img = make_image(np.zeros((1, 2, 2, 2)))
    path = tmp_path / "t.gvol"
    write_volume(img, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        read_volume(path)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.gvol"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    (tmp_path / "bad.gvol.json").write_text("{}")
    with pytest.raises(FormatError):
        read_volume(path)


@pytest.mark.parametrize(
    "field, edit",
    [
        ("JSON object", lambda h: [h]),
        ("shape", lambda h: {**h, "shape": 5}),
        ("shape", lambda h: {**h, "shape": [None, 2, 2, 2]}),
        ("shape", lambda h: {**h, "shape": [1, 2, True, 2]}),
        ("dtype", lambda h: {**h, "dtype": []}),
        ("spacing", lambda h: {**h, "spacing": 2.0}),
        ("spacing", lambda h: {**h, "spacing": ["a", "b", "c"]}),
        ("spacing", lambda h: {**h, "spacing": [1.0, 0.0, 1.0]}),
        ("origin", lambda h: {**h, "origin": 3}),
        ("kind", lambda h: {k: v for k, v in h.items() if k != "kind"}),
    ],
)
def test_mistyped_header_field_raises_format_error_naming_file_and_field(tmp_path, field, edit):
    path = tmp_path / "case.gvol"
    write_volume(make_image(np.zeros((1, 2, 2, 2))), path)
    header_path = tmp_path / "case.gvol.json"
    header_path.write_text(json.dumps(edit(json.loads(header_path.read_text()))))
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: header.*{field}"):
        read_volume(path)


def test_shape_that_does_not_fit_the_kind_names_the_file(tmp_path):
    path = tmp_path / "case.gvol"
    write_volume(make_image(np.zeros((1, 2, 2, 2))), path)
    header_path = tmp_path / "case.gvol.json"
    header_path.write_text(json.dumps({**json.loads(header_path.read_text()), "shape": [2, 2, 2]}))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        read_volume(path)


def test_write_is_byte_deterministic(tmp_path):
    img = make_image(np.arange(8.0).reshape(1, 2, 2, 2), spacing=(0.7, 0.7, 3.0))
    write_volume(img, tmp_path / "a.gvol")
    write_volume(img, tmp_path / "b.gvol")
    assert (tmp_path / "a.gvol").read_bytes() == (tmp_path / "b.gvol").read_bytes()
    assert (tmp_path / "a.gvol.json").read_text() == (tmp_path / "b.gvol.json").read_text()


# -- normalization -----------------------------------------------------------


def test_constant_foreground_normalizes_to_zero():
    data = np.full((1, 4, 4, 4), 7.0)
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask[1:3, 1:3, 1:3] = True
    out = clip_normalize(make_image(data), fg_mask=mask)
    assert np.all(out.data == 0.0)


def test_percentiles_linear_interpolation():
    # order statistics of 0..999: index (n-1)*q, linearly interpolated
    data = np.arange(1000, dtype=np.float64).reshape(1, 10, 10, 10)
    stats = compute_norm_stats([(make_image(data), np.ones((10, 10, 10), dtype=bool))])
    assert stats.p_lo == pytest.approx(4.995, abs=1e-9)
    assert stats.p_hi == pytest.approx(994.005, abs=1e-9)


def test_zscore_identity_without_clipping():
    # two-point distribution: the percentile window spans it, so no clipping
    data = np.zeros((1, 10, 10, 10))
    data[0, 5:] = 1.0
    mask = np.ones((10, 10, 10), dtype=bool)
    out = clip_normalize(make_image(data), fg_mask=mask)
    fg = out.data[0][mask]
    assert abs(fg.mean()) <= 1e-9
    assert abs(fg.std() - 1.0) <= 1e-9


def test_normalization_idempotent_on_normalized_data():
    rng = np.random.default_rng(3)
    data = rng.choice([2.0, 5.0], size=(1, 8, 8, 8))
    mask = np.ones((8, 8, 8), dtype=bool)
    once = clip_normalize(make_image(data), fg_mask=mask)
    twice = clip_normalize(once, fg_mask=mask)
    assert np.allclose(twice.data, once.data, atol=1e-12)


def test_empty_foreground_raises():
    data = np.zeros((1, 3, 3, 3))
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[0, 0, 0] = True
    with pytest.raises(EmptyForeground):
        clip_normalize(make_image(data), fg_mask=mask)


def test_precomputed_stats_are_used():
    data = np.full((1, 2, 2, 2), 10.0)
    stats = NormStats(p_lo=0.0, p_hi=20.0, mean=8.0, std=2.0)
    out = clip_normalize(make_image(data), stats=stats)
    assert np.all(out.data == 1.0)


# -- target spacing ------------------------------------------------------------


def test_target_spacing_isotropic():
    assert target_spacing([(1.0, 1.0, 1.0)] * 5 ) == (1.0, 1.0, 1.0)


def test_target_spacing_anisotropic_tenth_percentile():
    spacings = [
        (0.7, 0.7, 2.0),
        (0.7, 0.7, 2.5),
        (0.7, 0.7, 3.0),
        (0.7, 0.7, 3.5),
        (0.7, 0.7, 5.0),
    ]
    # median (0.7, 0.7, 3.0): ratio 4.29 > 3, so z uses the 10th percentile
    # of [2, 2.5, 3, 3.5, 5]: index 0.4 -> 2 + 0.4*0.5 = 2.2
    got = target_spacing(spacings)
    assert got[:2] == (0.7, 0.7)
    assert got[2] == pytest.approx(2.2, abs=1e-12)


def test_target_spacing_single_case():
    assert target_spacing([(0.5, 0.5, 0.9)]) == (0.5, 0.5, 0.9)
    # anisotropic single case: the 10th percentile of one value is itself
    assert target_spacing([(0.5, 0.5, 4.0)]) == (0.5, 0.5, 4.0)


# -- resampling ----------------------------------------------------------------


def test_resample_identity_is_bitwise():
    rng = np.random.default_rng(5)
    img = make_image(rng.normal(size=(2, 4, 5, 6)))
    out = resample_image(img, (1.0, 1.0, 1.0))
    assert np.array_equal(out.data, img.data)


def test_resample_constant_exact():
    img = make_image(np.full((1, 5, 6, 7), 3.25))
    out = resample_image(img, (0.4, 0.7, 1.3))
    assert np.all(out.data == 3.25)


def test_resample_linear_ramp():
    n = 12
    ramp = np.arange(n, dtype=np.float64).reshape(1, n, 1, 1)
    out = resample_image(make_image(np.broadcast_to(ramp, (1, n, 4, 4)).copy()), (0.5, 1.0, 1.0))
    t = np.arange(out.data.shape[1]) * 0.5
    interior = (t >= 1.0) & (t <= n - 2.0)
    err = np.abs(out.data[0, interior, 0, 0] - t[interior])
    assert np.max(err) <= 1e-9


def test_resample_invalid_spacing():
    img = make_image(np.zeros((1, 4, 4, 4)))
    with pytest.raises(InvalidSpacing):
        resample_image(img, (1.0, -1.0, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_volume_rejects_a_non_finite_spacing(bad):
    with pytest.raises(InvalidSpacing, match="spacing must be 3 finite positive numbers"):
        make_image(np.zeros((1, 4, 4, 4)), spacing=(1.0, bad, 1.0))


def test_resample_rejects_a_nan_target_spacing():
    img = make_image(np.zeros((1, 4, 4, 4)))
    with pytest.raises(InvalidSpacing, match="target spacing must be 3 finite positive numbers"):
        resample_image(img, (1.0, float("nan"), 1.0))


def test_target_spacing_rejects_a_nan_spacing():
    with pytest.raises(InvalidSpacing, match="spacing must be 3 finite positive numbers"):
        target_spacing([(1.0, 1.0, 1.0), (float("nan"), 1.0, 1.0)])


def test_resample_labels_identity():
    rng = np.random.default_rng(7)
    lab = make_labels(rng.integers(0, 3, size=(4, 5, 6)))
    out = resample_labels(lab, (1.0, 1.0, 1.0), num_classes=3)
    assert np.array_equal(out.data, lab.data)


def test_resample_labels_single_label_everywhere():
    lab = make_labels(np.full((4, 4, 4), 2))
    out = resample_labels(lab, (0.6, 1.3, 0.9), num_classes=3)
    assert np.all(out.data == 2)


def test_resample_labels_edge_tie_breaks_low():
    lab = make_labels(np.array([0, 1]).reshape(2, 1, 1))
    out = resample_labels(lab, (0.5, 1.0, 1.0), num_classes=2)
    # samples at t = 0, 0.5, 1.0, 1.5; the exact tie at 0.5 goes to class 0
    assert out.data.reshape(-1).tolist() == [0, 0, 1, 1]


def test_resample_labels_no_novel_ids():
    rng = np.random.default_rng(11)
    for _ in range(100):
        shape = tuple(rng.integers(2, 8, size=3))
        lab = make_labels(rng.integers(0, 4, size=shape))
        sp = tuple(rng.choice([0.4, 0.8, 1.0, 1.7], size=3))
        out = resample_labels(lab, sp, num_classes=5)
        assert set(np.unique(out.data)) <= set(np.unique(lab.data))


def test_resample_anisotropic_uses_nearest_on_lowres_axis():
    # spacing and shape anisotropy both > 3: the z axis must stay nearest,
    # which keeps label planes intact instead of blending them
    lab_data = np.zeros((16, 16, 4), dtype=np.uint16)
    lab_data[:, :, 2:] = 1
    lab = make_labels(lab_data, spacing=(0.5, 0.5, 3.0))
    out = resample_labels(lab, (0.5, 0.5, 1.5), num_classes=2)
    assert out.data.shape[2] == 8
    assert set(np.unique(out.data)) == {0, 1}


def test_resample_out_shape_override():
    img = make_image(np.random.default_rng(13).normal(size=(1, 6, 6, 6)))
    out = resample_image(img, (0.9, 0.9, 0.9), out_shape=(7, 7, 7))
    assert out.spatial_shape == (7, 7, 7)
