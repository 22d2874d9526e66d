import math
from itertools import product

import numpy as np
import pytest

from gasaunet.inference import (
    SlidingWindowConfig,
    _tile_starts,
    gaussian_importance,
    predict_labels,
    sliding_window_predict,
    tta_mirror_predict,
)


def softmax0(logits):
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def test_gaussian_center_weight_is_one():
    w = gaussian_importance((7, 7, 7), 0.125)
    assert w[3, 3, 3] == 1.0
    assert np.all(w > 0)
    assert np.all(w <= 1.0)


def test_gaussian_symmetric_under_flips():
    w = gaussian_importance((8, 6, 5), 0.2)
    for ax in range(3):
        assert np.allclose(w, np.flip(w, axis=ax), atol=0)


def test_gaussian_corner_closed_form():
    # 8^3 patch with sigma = 1 voxel: corner at distance 3.5 per axis
    w = gaussian_importance((8, 8, 8), sigma_scale=1.0 / 8.0)
    expect = math.exp(-3.0 * 3.5 ** 2 / 2.0)
    assert abs(w[0, 0, 0] - expect) <= 1e-12


def test_single_window_equals_plain_forward():
    rng = np.random.default_rng(0)
    vol = rng.normal(size=(2, 4, 4, 4))
    wmat = rng.normal(size=(3, 2))

    def stub(x):
        return np.einsum("kc,cwhd->kwhd", wmat, x)

    swc = SlidingWindowConfig(patch_size=(4, 4, 4))
    got = sliding_window_predict(stub, vol, swc)
    want = softmax0(stub(vol))
    assert np.allclose(got, want, atol=1e-12)


def test_constant_stub_overlap_invariant():
    rng = np.random.default_rng(1)
    vol = rng.normal(size=(1, 10, 9, 11))
    logits = rng.normal(size=3)

    def stub(x):
        return np.broadcast_to(logits[:, None, None, None], (3,) + x.shape[1:]).copy()

    expect = softmax0(logits.reshape(3, 1, 1, 1))
    for overlap in (0.0, 0.25, 0.5, 0.75):
        swc = SlidingWindowConfig(patch_size=(4, 4, 4), overlap=overlap)
        got = sliding_window_predict(stub, vol, swc)
        assert np.max(np.abs(got - expect)) <= 1e-12


def test_position_dependent_stub_matches_dense_oracle():
    from gasaunet.verify import check_sliding_window

    result = check_sliding_window()
    assert result["passed"], result


def test_tile_order_invariance():
    rng = np.random.default_rng(3)
    vol = rng.normal(size=(2, 9, 8, 7))

    def stub(x):
        s = x.sum(axis=0)
        return np.stack([s, 2 * s, -s])

    swc = SlidingWindowConfig(patch_size=(4, 4, 4), overlap=0.5)
    starts = [_tile_starts(n, 4, 0.5) for n in (9, 8, 7)]
    tiles = list(product(*starts))
    base = sliding_window_predict(stub, vol, swc, tile_order=tiles)
    perm = [tiles[i] for i in rng.permutation(len(tiles))]
    shuffled = sliding_window_predict(stub, vol, swc, tile_order=perm)
    assert np.max(np.abs(base - shuffled)) <= 1e-12


def test_probabilities_on_simplex():
    rng = np.random.default_rng(4)
    vol = rng.normal(size=(1, 9, 9, 9))

    def stub(x):
        return np.stack([x[0], -x[0], 0.3 * x[0]])

    swc = SlidingWindowConfig(patch_size=(4, 4, 4), overlap=0.5)
    probs = sliding_window_predict(stub, vol, swc)
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-9
    assert np.all(probs >= 0)
    tta = tta_mirror_predict(stub, vol, swc)
    assert np.max(np.abs(tta.sum(axis=0) - 1.0)) <= 1e-9


def test_tta_identity_on_flip_equivariant_stub():
    rng = np.random.default_rng(5)

    def stub(x):  # pointwise, hence exactly flip-equivariant
        return np.stack([x[0] + x[1], x[0] - x[1]])

    # single window: all eight terms are bitwise equal, so the average is exact
    vol = rng.normal(size=(2, 4, 4, 4))
    swc = SlidingWindowConfig(patch_size=(4, 4, 4), overlap=0.5)
    assert np.array_equal(
        sliding_window_predict(stub, vol, swc), tta_mirror_predict(stub, vol, swc)
    )

    # tiled volume: mirrored tile traversal reorders the accumulation, so the
    # identity holds to float rounding
    vol = rng.normal(size=(2, 8, 8, 8))
    plain = sliding_window_predict(stub, vol, swc)
    tta = tta_mirror_predict(stub, vol, swc)
    assert np.max(np.abs(plain - tta)) <= 1e-12


def test_tta_two_flip_toy_matches_hand_average():
    rng = np.random.default_rng(6)
    vol = rng.normal(size=(1, 4, 1, 1))

    def stub(x):
        ramp = np.arange(4.0).reshape(1, 4, 1, 1)
        return np.concatenate([x * ramp, -x], axis=0)

    swc = SlidingWindowConfig(patch_size=(4, 1, 1))
    # H/D flips are no-ops at extent 1, so TTA averages two distinct terms
    p_id = sliding_window_predict(stub, vol, swc)
    p_w = np.flip(sliding_window_predict(stub, np.flip(vol, axis=1), swc), axis=1)
    want = (p_id + p_w) / 2.0
    got = tta_mirror_predict(stub, vol, swc)
    assert np.allclose(got, want, atol=1e-15)


def test_volume_smaller_than_patch_is_padded_and_cropped():
    rng = np.random.default_rng(7)
    vol = rng.normal(size=(1, 3, 5, 2))

    def stub(x):
        return np.stack([x[0], -x[0]])

    swc = SlidingWindowConfig(patch_size=(4, 4, 4))
    probs = sliding_window_predict(stub, vol, swc)
    assert probs.shape == (2, 3, 5, 2)
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-9


def test_predict_labels_shape():
    rng = np.random.default_rng(8)
    vol = rng.normal(size=(1, 6, 6, 6))

    def stub(x):
        return np.stack([x[0], -x[0], x[0] * 0.5])

    swc = SlidingWindowConfig(patch_size=(4, 4, 4), tta_mirror=True)
    labels = predict_labels(stub, vol, swc)
    assert labels.shape == (6, 6, 6)
    assert set(np.unique(labels)) <= {0, 1, 2}


def test_ensemble_probability_averaging():
    from gasaunet.inference import predict_probs

    rng = np.random.default_rng(9)
    vol = rng.normal(size=(1, 6, 6, 6))

    def stub_a(x):
        return np.stack([x[0], -x[0]])

    def stub_b(x):
        return np.stack([0.5 * x[0], x[0]])

    swc = SlidingWindowConfig(patch_size=(4, 4, 4))
    pa = predict_probs(stub_a, vol, swc)
    pb = predict_probs(stub_b, vol, swc)
    # identical members average back exactly; distinct members give the mean
    assert np.array_equal(predict_probs([stub_a, stub_a], vol, swc), pa)
    assert np.allclose(predict_probs([stub_a, stub_b], vol, swc), (pa + pb) / 2.0, atol=1e-15)


def test_tile_starts_cover_and_clamp():
    starts = _tile_starts(10, 4, 0.5)
    assert starts[0] == 0
    assert starts[-1] == 6
    covered = set()
    for s in starts:
        covered.update(range(s, s + 4))
    assert covered == set(range(10))



def test_float32_inference_agrees_with_the_float64_forward(tmp_path, monkeypatch):
    """predict_logits runs in float32: on held-out phantom cases of a briefly
    trained model, its labels must match float64 inference on >= 99.9% of the
    voxels, and no case's Dice may move by more than 1e-3."""
    from gasaunet import inference
    from gasaunet import tensor as T
    from gasaunet.backbone import build_model, make_backbone_config
    from gasaunet.phantom import PhantomSpec, load_manifest, make_dataset
    from gasaunet.tensor import Rng, Tensor
    from gasaunet.training import TrainConfig, preprocess_manifest, train

    make_dataset(PhantomSpec(size=(24, 24, 24), num_classes=3, seed=1), 6, tmp_path, n_test=2)
    patch = (16, 16, 16)
    data = preprocess_manifest(*load_manifest(tmp_path), patch)
    model = build_model(make_backbone_config(1, 3, patch), Rng(7))
    train(model, data, TrainConfig(epochs=4, iters_per_epoch=10, batch=1, patch_size=patch, seed=0))

    def forward64(x):
        with T.no_grad():
            return model.forward(Tensor(x)).data

    labels = []
    predict = inference.predict_labels
    monkeypatch.setattr(inference, "predict_labels", lambda *a: labels.append(predict(*a)) or labels[-1])
    swc = SlidingWindowConfig(patch_size=patch)
    cases = [inference.evaluate_split(fn, data, swc, tau=1.0)["cases"] for fn in (forward64, model.predict_logits)]
    ref_labels, got_labels = labels[: len(data.test)], labels[len(data.test) :]
    assert len(got_labels) == len(ref_labels) == len(data.test)
    agree = sum(np.count_nonzero(a == b) for a, b in zip(ref_labels, got_labels))
    assert agree >= 0.999 * sum(a.size for a in ref_labels)
    for ref, got in zip(*cases):
        assert ref["dice"].keys() == got["dice"].keys()
        for key, want in ref["dice"].items():
            assert (want is None) == (got["dice"][key] is None)
            assert want is None or abs(got["dice"][key] - want) <= 1e-3, (key, want, got["dice"][key])
    assert all(d > 0.5 for case in cases[0] for d in case["dice"].values())  # every class is found
