import dataclasses
import re
import warnings

import numpy as np
import pytest

from lanekit import synth
from lanekit.affinity import AffinityPair, best_label_agreement, decode, encode_affinities
from lanekit.dataset import serialize_annotation
from lanekit.errors import SceneError
from oracles import generate_ref


def test_single_straight_lane():
    spec = synth.SceneSpec(lane_count=1, curvature=(0.0, 0.0), seed=3)
    mask, ann = synth.generate(spec)
    assert mask.max() == 1
    xs = np.asarray(ann.lanes[0])
    present = xs >= 0
    assert present.sum() >= 20
    # zero curvature still allows a linear slope; fit a line and check residuals
    ys = np.asarray(ann.h_samples, dtype=np.float64)[present]
    coef = np.polyfit(ys, xs[present], 1)
    assert np.abs(np.polyval(coef, ys) - xs[present]).max() <= 1.0


def test_same_seed_same_scene():
    spec = synth.SceneSpec(lane_count=4, seed=11)
    mask_a, ann_a = synth.generate(spec)
    mask_b, ann_b = synth.generate(spec)
    assert (mask_a == mask_b).all()
    assert ann_a == ann_b
    mask_c, _ = synth.generate(synth.SceneSpec(lane_count=4, seed=12))
    assert not (mask_a == mask_c).all()


def test_500_random_specs_never_cross():
    for seed in range(500):
        spec = synth.random_scene_spec(seed)
        _, ann = synth.generate(spec)
        lanes = np.asarray(ann.lanes, dtype=np.float64)
        for col in range(lanes.shape[1]):
            xs = lanes[:, col]
            xs = xs[xs >= 0]
            if len(xs) >= 2:
                assert (np.diff(np.sort(xs)) > 0).all(), f"seed {seed} col {col}"


def test_spec_validation():
    with pytest.raises(ValueError):
        synth.SceneSpec(lane_count=0)
    with pytest.raises(ValueError):
        synth.SceneSpec(lane_count=7)
    with pytest.raises(ValueError):
        synth.SceneSpec(spacing=5.0, width=2)  # below 3 * width
    with pytest.raises(ValueError):
        synth.SceneSpec(curvature=(1e-4, -1e-4))


def _scene_bytes(generate, spec):
    try:
        mask, ann = generate(spec)
    except SceneError as e:
        return f"SceneError: {e}"
    return mask.dtype, mask.shape, mask.tobytes(), serialize_annotation(ann)


def test_uncrossable_spec_rejected():
    # curvature so extreme the lane envelope cannot fit in the frame
    spec = synth.SceneSpec(lane_count=6, curvature=(0.03, 0.031), spacing=20.0, seed=0)
    with pytest.raises(SceneError):
        synth.generate(spec)
    assert _scene_bytes(synth.generate, spec) == _scene_bytes(generate_ref, spec)


@pytest.mark.parametrize("seed", range(200))
def test_generate_bytes_equal_reference(seed):
    # every width the random specs leave out, and one scene in two merging
    spec = synth.random_scene_spec(seed)
    spec = dataclasses.replace(spec, width=1 + seed % 3,
                               merge_split=seed % 2 == 0 and spec.lane_count >= 2)
    assert _scene_bytes(synth.generate, spec) == _scene_bytes(generate_ref, spec)


def test_every_generated_scene_roundtrips_exactly():
    for seed in (0, 7, 19, 42):
        spec = synth.random_scene_spec(seed)
        agreement, n_gt, n_dec, _ = synth.roundtrip_scene(spec)
        assert n_dec == n_gt == spec.lane_count
        assert agreement >= 0.99


def test_merge_split_lane_is_own_instance():
    spec = synth.SceneSpec(lane_count=5, merge_split=True, spacing=15.0, seed=33)
    mask, ann = synth.generate(spec)
    # one lane terminates mid-image: its top row sits well below the others
    tops = []
    for lane in range(1, 6):
        rows = np.nonzero(mask == lane)[0]
        tops.append(rows.min())
    tops.sort()
    assert tops[-1] - tops[0] >= 10
    decoded = decode((mask > 0).astype(np.float32), encode_affinities(mask))
    assert len(decoded.lanes) == 5
    assert best_label_agreement(mask, decoded.cluster_map) >= 0.99


def test_perturb_sigma_zero_is_identity():
    mask, _ = synth.generate(synth.random_scene_spec(8))
    af = encode_affinities(mask)
    out = synth.perturb_fields(af, 0.0, seed=5)
    assert (out.haf == af.haf).all() and (out.vaf == af.vaf).all()


@pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf"), 1e38, 1e308])
def test_perturb_and_roundtrip_reject_negative_non_finite_or_overflowing_sigma(sigma):
    # the round trip once ran noise-free for -0.5 and NaN, and 1e38 and 1e308 gave
    # fields that were NaN at every foreground pixel
    spec = synth.random_scene_spec(8)
    af = encode_affinities(synth.generate(spec)[0])
    want = (f"sigma {sigma} draws angles beyond float32's range" if 0 <= sigma < np.inf
            else f"sigma must be finite and >= 0, got {sigma}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor may numpy's float32 cast warn
        for call in (lambda: synth.perturb_fields(af, sigma),
                     lambda: synth.roundtrip_scene(spec, sigma=sigma)):
            with pytest.raises(ValueError, match=re.escape(want)):
                call()


def test_perturb_leaves_a_map_without_foreground_unchanged():
    empty = AffinityPair(np.zeros((4, 5), np.float32), np.zeros((2, 4, 5), np.float32))
    out = synth.perturb_fields(empty, 0.5, seed=1)
    assert out.haf is not empty.haf and out.vaf is not empty.vaf
    assert not out.haf.any() and not out.vaf.any()


def test_perturb_keeps_unit_norms():
    mask, _ = synth.generate(synth.random_scene_spec(9))
    af = encode_affinities(mask)
    out = synth.perturb_fields(af, 0.4, seed=6)
    norms = np.sqrt(out.vaf[0] ** 2 + out.vaf[1] ** 2)
    nz = norms > 0
    assert np.abs(norms[nz] - 1.0).max() <= 1e-4
    assert ((out.haf != 0) == (af.haf != 0)).all()


def test_perturb_degrades_roundtrip_monotonically():
    sigmas = (0.0, 0.1, 0.3, 0.6)
    means = []
    for sigma in sigmas:
        scores = []
        for seed in range(50):
            spec = synth.random_scene_spec(seed + 300)
            agreement, _, _, _ = synth.roundtrip_scene(spec, sigma=sigma,
                                                       noise_seed=seed)
            scores.append(agreement)
        means.append(float(np.mean(scores)))
    assert means[0] >= 0.99
    assert all(a >= b for a, b in zip(means, means[1:])), means
