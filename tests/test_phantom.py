import math

import numpy as np
import pytest

from gasaunet.errors import InvalidSpec
from gasaunet.phantom import PhantomSpec, generate_phantom, load_manifest, make_dataset
from gasaunet.volume import read_volume


def test_same_seed_same_case_is_identical():
    spec = PhantomSpec(size=(24, 24, 24), seed=5)
    img1, lab1 = generate_phantom(spec, 3)
    img2, lab2 = generate_phantom(spec, 3)
    assert np.array_equal(img1.data, img2.data)
    assert np.array_equal(lab1.data, lab2.data)


def test_different_cases_differ():
    spec = PhantomSpec(size=(24, 24, 24), seed=5)
    _, lab1 = generate_phantom(spec, 0)
    _, lab2 = generate_phantom(spec, 1)
    assert not np.array_equal(lab1.data, lab2.data)


def test_zero_noise_gives_piecewise_constant_image():
    spec = PhantomSpec(size=(20, 20, 20), noise_sigma=0.0, seed=1)
    img, lab = generate_phantom(spec, 0)
    for c in range(3):
        region = img.data[0][lab.data == c]
        assert np.all(region == float(c))


def test_every_class_present_over_many_seeds():
    for seed in range(100):
        spec = PhantomSpec(size=(20, 20, 20), num_classes=3, seed=seed)
        _, lab = generate_phantom(spec, 0)
        assert set(np.unique(lab.data)) == {0, 1, 2}


def test_four_class_phantom():
    spec = PhantomSpec(size=(28, 28, 28), num_classes=4, seed=9)
    _, lab = generate_phantom(spec, 0)
    assert set(np.unique(lab.data)) == {0, 1, 2, 3}


def test_tumor_nested_inside_organ():
    spec = PhantomSpec(size=(32, 32, 32), seed=2)
    _, lab = generate_phantom(spec, 0)
    tumor = lab.data == 2
    # every face-neighbor of a tumor voxel is tumor or organ, never background
    organ_or_tumor = lab.data >= 1
    idx = np.argwhere(tumor)
    for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        nb = idx + (di, dj, dk)
        assert np.all(organ_or_tumor[nb[:, 0], nb[:, 1], nb[:, 2]])


def test_intensity_contrast():
    spec = PhantomSpec(size=(24, 24, 24), noise_sigma=0.1, seed=4)
    img, lab = generate_phantom(spec, 0)
    bg_mean = img.data[0][lab.data == 0].mean()
    for c in (1, 2):
        assert abs(img.data[0][lab.data == c].mean() - bg_mean) > 0.5


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        generate_phantom(PhantomSpec(size=(6, 6, 6)), 0)
    with pytest.raises(InvalidSpec):
        generate_phantom(PhantomSpec(num_classes=1), 0)
    with pytest.raises(InvalidSpec):
        generate_phantom(PhantomSpec(class_means=(0.0, 1.0)), 0)


@pytest.mark.parametrize("changes", [
    {"noise_sigma": math.nan},
    {"noise_sigma": -1.0},
    {"noise_sigma": math.inf},
    {"class_sigmas": (0.1, -0.1, 0.1)},
    {"class_sigmas": (0.1, math.nan, 0.1)},
    {"class_means": (0.0, math.inf, 2.0)},
    {"class_means": (0.0, math.nan, 2.0)},
])
def test_a_non_finite_or_negative_noise_level_or_mean_is_rejected(tmp_path, changes):
    spec = PhantomSpec(size=(16, 16, 16), **changes)
    with pytest.raises(InvalidSpec):
        generate_phantom(spec, 0)
    with pytest.raises(InvalidSpec):
        make_dataset(spec, 2, tmp_path)
    assert not list(tmp_path.iterdir())


def test_make_dataset_manifest(tmp_path):
    spec = PhantomSpec(size=(16, 16, 16), seed=7)
    manifest = make_dataset(spec, 5, tmp_path, n_test=2)
    assert len(manifest["cases"]) == 5
    assert manifest["split"] == {"train": [0, 1, 2], "test": [3, 4]}
    loaded, root = load_manifest(tmp_path)
    assert loaded == manifest
    img = read_volume(root / loaded["cases"][0]["image"])
    lab = read_volume(root / loaded["cases"][0]["labels"])
    assert img.spatial_shape == (16, 16, 16)
    assert lab.data.dtype == np.uint16


def test_make_dataset_regeneration_is_byte_identical(tmp_path):
    spec = PhantomSpec(size=(16, 16, 16), seed=11)
    make_dataset(spec, 2, tmp_path / "a")
    make_dataset(spec, 2, tmp_path / "b")
    for name in ("manifest.json", "case_000.gvol", "case_000.gvol.json", "case_001.gvol"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_anisotropic_spacing_propagates():
    spec = PhantomSpec(size=(16, 16, 16), anisotropic_spacing=(0.7, 0.7, 3.0), seed=3)
    img, lab = generate_phantom(spec, 0)
    assert img.spacing == (0.7, 0.7, 3.0)
    assert lab.spacing == (0.7, 0.7, 3.0)
