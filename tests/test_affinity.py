import json

import numpy as np
import pytest

from lanekit import affinity as af
from lanekit import synth
from lanekit.errors import CodecError, FormatError, ShapeError
from lanekit.evaluate import EvalConfig

from oracles import association_error_ref, best_label_agreement_ref, decode_ref, encode_ref


def vertical_lane_mask(width=3, rows=10, h=16, w=24, lane=1, x0=10):
    mask = np.zeros((h, w), dtype=np.int32)
    mask[h - rows:, x0:x0 + width] = lane
    return mask


# ----------------------------------------------------------------- encode

def test_encode_vertical_lane_haf_pattern():
    mask = vertical_lane_mask(width=3)
    pair = af.encode_affinities(mask)
    for r in range(6, 16):
        assert pair.haf[r, 10] == 1.0    # left pixel points right
        assert pair.haf[r, 11] == 0.0    # center has no preference
        assert pair.haf[r, 12] == -1.0   # right pixel points left


def test_encode_vertical_lane_vaf():
    mask = vertical_lane_mask(width=3)
    pair = af.encode_affinities(mask)
    # center column aims straight up; flank pixels aim diagonally at the
    # center of the row above, per the field definition
    inv = 1.0 / np.sqrt(2.0)
    for r in range(7, 16):
        assert np.allclose(pair.vaf[:, r, 11], (0.0, -1.0), atol=1e-6)
        assert np.allclose(pair.vaf[:, r, 10], (inv, -inv), atol=1e-6)
        assert np.allclose(pair.vaf[:, r, 12], (-inv, -inv), atol=1e-6)
    # top row of the lane: straight up everywhere
    for x in (10, 11, 12):
        assert np.allclose(pair.vaf[:, 6, x], (0.0, -1.0), atol=1e-6)


def test_encode_diagonal_lane_45_degrees():
    mask = np.zeros((8, 16), dtype=np.int32)
    for i in range(6):
        mask[7 - i, 10 - i] = 1  # shifts 1 px left per row up
    pair = af.encode_affinities(mask)
    inv = 1.0 / np.sqrt(2.0)
    assert np.allclose(pair.vaf[:, 7, 10], (-inv, -inv), atol=1e-6)


def test_encode_matches_rederivation_oracle():
    for seed in range(100):
        mask, _ = synth.generate(synth.random_scene_spec(seed + 9000))
        ref_haf, ref_vaf = encode_ref(mask)
        # the integer mask, and the float32 coding it has when read from .aft
        for coded in (mask, mask.astype(np.float32)):
            pair = af.encode_affinities(coded)
            assert np.abs(pair.haf - ref_haf).max() <= 1e-5
            assert np.abs(pair.vaf - ref_vaf).max() <= 1e-5


def test_encode_field_invariants():
    mask, _ = synth.generate(synth.random_scene_spec(31))
    pair = af.encode_affinities(mask)
    bg = mask == 0
    assert (pair.haf[bg] == 0).all()
    assert (pair.vaf[:, bg] == 0).all()
    assert pair.haf.min() >= -1.0 and pair.haf.max() <= 1.0
    norms = np.sqrt(pair.vaf[0] ** 2 + pair.vaf[1] ** 2)
    nz = norms > 0
    assert np.abs(norms[nz] - 1.0).max() <= 1e-4


def test_encode_haf_monotone_within_lane_row():
    mask, _ = synth.generate(synth.random_scene_spec(77))
    pair = af.encode_affinities(mask)
    for lane in range(1, mask.max() + 1):
        rows, cols = np.nonzero(mask == lane)
        for r in np.unique(rows):
            vals = pair.haf[r, np.sort(cols[rows == r])]
            assert (np.diff(vals) <= 0).all()  # + ... 0 ... - left to right


def test_encode_is_repeatable():
    mask = vertical_lane_mask()
    a = af.encode_affinities(mask)
    b = af.encode_affinities(mask)
    assert (a.haf == b.haf).all() and (a.vaf == b.vaf).all()


def test_encode_rejects_split_row_run():
    mask = np.zeros((4, 8), dtype=np.int32)
    mask[2, 1] = 1
    mask[2, 3] = 1  # same lane, same row, gap between
    with pytest.raises(CodecError):
        af.encode_affinities(mask)


def test_encode_reports_lowest_lane_then_lowest_row():
    mask = np.zeros((8, 12), dtype=np.int32)
    mask[5:, 8:10] = 2
    mask[1, 8] = mask[1, 10] = 2     # lane 2 row 1: split run
    mask[2:, 1:3] = 1
    mask[6, 4] = 1                   # lane 1 row 6: split run
    mask[4, 2], mask[4, 3] = 0, 1    # lane 1 row 4: split run
    # float32 is how masks come back from .aft; the id still prints as an int
    for coded in (mask, mask.astype(np.float32)):
        with pytest.raises(CodecError, match=r"^lane 1 row 4 is not a contiguous run$"):
            af.validate_mask(coded)


def test_validate_mask_run_table():
    mask = np.zeros((6, 8), dtype=np.int32)
    mask[3:, 1:4] = 1
    mask[4, 6] = 2
    runs = af.validate_mask(mask)
    assert runs.key.tolist() == [6 + 3, 6 + 4, 6 + 5, 2 * 6 + 4]   # lane * H + row
    assert runs.count.tolist() == [3, 3, 3, 1]
    assert runs.col_min.tolist() == [1, 1, 1, 6]
    assert runs.col_max.tolist() == [3, 3, 3, 6]
    assert af.validate_mask(np.zeros((3, 3))).key.size == 0


def test_encode_rejects_non_contiguous_ids():
    mask = np.zeros((4, 8), dtype=np.int32)
    mask[2, 1:3] = 2  # lane 2 exists without lane 1
    with pytest.raises(CodecError):
        af.encode_affinities(mask)


# ---------------------------------------------------------- row clustering

def test_cluster_row_two_ideal_lanes():
    haf_row = np.array([1, 0, -1, 1, 0, -1], dtype=np.float32)
    fg_row = np.ones(6, dtype=bool)
    clusters = af.cluster_row_haf(haf_row, fg_row)
    assert len(clusters) == 2
    assert clusters[0].tolist() == [0, 1, 2]
    assert clusters[1].tolist() == [3, 4, 5]


def test_cluster_row_empty():
    assert af.cluster_row_haf(np.zeros(6, dtype=np.float32), np.zeros(6, dtype=bool)) == []


def test_cluster_row_min_size_filter():
    haf_row = np.array([0, -1, 1], dtype=np.float32)
    fg_row = np.array([True, True, True])
    assert len(af.cluster_row_haf(haf_row, fg_row, min_cluster_size=1)) == 2
    assert len(af.cluster_row_haf(haf_row, fg_row, min_cluster_size=2)) == 1


def test_cluster_row_counts_match_ground_truth():
    for seed in (3, 17, 51):
        mask, _ = synth.generate(synth.random_scene_spec(seed))
        pair = af.encode_affinities(mask)
        fg = mask > 0
        for r in range(mask.shape[0]):
            expected = len(np.unique(mask[r][fg[r]]))
            clusters = af.cluster_row_haf(pair.haf[r], fg[r], min_cluster_size=1)
            assert len(clusters) == expected


# -------------------------------------------------------------- association

def ideal_track(xs, row):
    return af.LaneTrack(1, np.asarray(xs, dtype=np.int64), row,
                        points=[(float(np.mean(xs)), row)])


def test_association_error_zero_on_true_field():
    mask = vertical_lane_mask(width=3)
    pair = af.encode_affinities(mask)
    track = ideal_track([10, 11, 12], 12)
    err = af.association_error([track], [11.0], 11, pair.vaf)
    assert err.shape == (1, 1) and err[0, 0] <= 1e-6


def test_association_two_lanes_cross_error_is_lane_distance():
    h, w = 16, 64
    mask = np.zeros((h, w), dtype=np.int32)
    mask[:, 10] = 1
    mask[:, 50] = 2
    pair = af.encode_affinities(mask)
    tracks = [ideal_track([10], 8), ideal_track([50], 8)]
    err = af.association_error(tracks, [10.0, 50.0], 7, pair.vaf)
    assert err.shape == (2, 2)
    assert err[0, 0] <= 1e-6 and err[1, 1] <= 1e-6
    assert err[0, 1] > 35.0 and err[1, 0] > 35.0  # roughly the 40 px lane separation
    assert af.associate_clusters_vaf(tracks, [10.0, 50.0], pair.vaf, 7) == {0: 0, 1: 1}


def test_association_error_matches_bruteforce_on_toy_grid():
    rng = np.random.default_rng(5)
    vaf = rng.uniform(-1, 1, (2, 6, 8)).astype(np.float32)
    # tracks of different lengths on different rows, so each pixel has its own dy
    tracks = [ideal_track([1, 2], 4), ideal_track([5, 6, 7], 5), ideal_track([3], 4)]
    centroids = [float(np.mean(cl)) for cl in ([0, 1], [4, 5], [7])]
    for row_above in (3, 1):
        err = af.association_error(tracks, centroids, row_above, vaf)
        assert err.shape == (3, 3)
        for ti, track in enumerate(tracks):
            for ci, cx in enumerate(centroids):
                ref = association_error_ref(track.pixel_xs, track.row, cx, row_above, vaf)
                assert abs(err[ti, ci] - ref) <= 1e-6


def test_association_respects_threshold():
    vaf = np.zeros((2, 8, 8), dtype=np.float32)
    vaf[1] = -1.0
    track = ideal_track([1], 5)
    far_centroid = [7.0]  # ~6 px away horizontally
    assert af.associate_clusters_vaf([track], far_centroid, vaf, 4,
                                     assoc_threshold=3.0) == {}
    assert af.associate_clusters_vaf([track], far_centroid, vaf, 4,
                                     assoc_threshold=12.0) == {0: 0}


# ------------------------------------------------------------------ decode

def test_decode_recovers_four_lane_scene():
    spec = synth.SceneSpec(lane_count=4, seed=12)
    mask, _ = synth.generate(spec)
    pair = af.encode_affinities(mask)
    decoded = af.decode((mask > 0).astype(np.float32), pair)
    assert len(decoded.lanes) == 4
    assert af.best_label_agreement(mask, decoded.cluster_map) >= 0.99


def test_decode_empty_map_yields_no_lanes():
    pair = af.AffinityPair(np.zeros((8, 8), np.float32), np.zeros((2, 8, 8), np.float32))
    decoded = af.decode(np.zeros((8, 8), np.float32), pair)
    assert decoded.lanes == ()
    assert (decoded.cluster_map == 0).all()


def test_decode_five_lane_merge_split_scene():
    spec = synth.SceneSpec(lane_count=5, merge_split=True, spacing=16.0, seed=21)
    mask, _ = synth.generate(spec)
    pair = af.encode_affinities(mask)
    decoded = af.decode((mask > 0).astype(np.float32), pair)
    assert len(decoded.lanes) == 5
    assert af.best_label_agreement(mask, decoded.cluster_map) >= 0.99


def test_decode_resolution_mismatch_rejected():
    pair = af.AffinityPair(np.zeros((8, 8), np.float32), np.zeros((2, 8, 8), np.float32))
    with pytest.raises(ShapeError):
        af.decode(np.zeros((8, 9), np.float32), pair)


def test_decode_only_thresholded_set_matters():
    mask, _ = synth.generate(synth.random_scene_spec(40))
    pair = af.encode_affinities(mask)
    faint = np.where(mask > 0, 0.51, 0.49).astype(np.float32)
    confident = np.where(mask > 0, 0.999, 0.001).astype(np.float32)
    a = af.decode(faint, pair)
    b = af.decode(confident, pair)
    assert (a.cluster_map == b.cluster_map).all()
    assert len(a.lanes) == len(b.lanes)


def test_decode_points_strictly_decreasing_y():
    mask, _ = synth.generate(synth.random_scene_spec(41))
    pair = af.encode_affinities(mask)
    decoded = af.decode((mask > 0).astype(np.float32), pair)
    for lane in decoded.lanes:
        ys = [y for _, y in lane.points]
        assert all(b < a for a, b in zip(ys, ys[1:]))


def test_decode_cluster_map_covers_only_assigned_foreground():
    mask, _ = synth.generate(synth.random_scene_spec(42))
    pair = af.encode_affinities(mask)
    fg = (mask > 0).astype(np.float32)
    decoded = af.decode(fg, pair)
    assert (decoded.cluster_map[mask == 0] == 0).all()
    ids = np.unique(decoded.cluster_map)
    assert ids[-1] == len(decoded.lanes)


def test_decode_survives_short_gap():
    mask = vertical_lane_mask(width=2, rows=14, h=20, w=16)
    pair = af.encode_affinities(mask)
    seg = (mask > 0).astype(np.float32)
    seg[10, :] = 0.0  # one occluded row
    decoded = af.decode(seg, pair)
    assert len(decoded.lanes) == 1
    rows_covered = np.unique(np.nonzero(decoded.cluster_map)[0])
    assert 9 in rows_covered and 11 in rows_covered


@pytest.mark.parametrize("max_gap", [0, 2, 3])
def test_decode_bridges_at_most_max_gap_rows(max_gap):
    mask = vertical_lane_mask(width=2, rows=22, h=24, w=16)
    pair = af.encode_affinities(mask)
    cfg = af.DecodeConfig(max_gap_rows=max_gap)
    for occluded, lanes in ((max_gap, 1), (max_gap + 1, 2)):
        seg = (mask > 0).astype(np.float32)
        seg[12 - occluded:12] = 0.0  # leaves >= 6 lane rows above, 12 below
        decoded = af.decode(seg, pair, cfg)
        assert len(decoded.lanes) == lanes, (max_gap, occluded)


@pytest.mark.parametrize("min_rows", [1, 3, 5])
def test_decode_keeps_lanes_of_at_least_min_lane_rows(min_rows):
    cfg = af.DecodeConfig(min_lane_rows=min_rows)
    for rows, lanes in ((min_rows - 1, 0), (min_rows, 1)):
        mask = vertical_lane_mask(width=2, rows=rows, h=12, w=16)
        decoded = af.decode((mask > 0).astype(np.float32), af.encode_affinities(mask), cfg)
        assert len(decoded.lanes) == lanes, (min_rows, rows)
        assert (decoded.cluster_map > 0).sum() == 2 * rows * lanes


@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.6])
def test_decode_bytes_equal_reference_on_scenes(sigma):
    for seed in range(20):
        mask, _ = synth.generate(synth.random_scene_spec(seed))
        pair = synth.perturb_fields(af.encode_affinities(mask), sigma, seed)
        seg = (mask > 0).astype(np.float32)
        got, ref = af.decode(seg, pair), decode_ref(seg, pair, af.DecodeConfig())
        assert got.to_json() == ref.to_json(), seed
        assert got.cluster_map.dtype == ref.cluster_map.dtype
        assert got.cluster_map.tobytes() == ref.cluster_map.tobytes(), seed


def test_decode_cost_is_bounded_on_adversarial_map(monkeypatch):
    # every pixel foreground and every other haf positive: each row splits
    # into W/2 two-pixel clusters, and each carries on the track below it, so
    # each (cluster, pixel one row below) pair is scored once and no table of
    # a longer gap is built
    h, w = 88, 160
    haf = np.tile(np.where(np.arange(w) % 2 == 0, 1.0, -1.0), (h, 1))
    vaf = np.zeros((2, h, w))
    vaf[1] = -1.0
    scored, gaps, per_row = [], set(), []
    kernel, rule = af._mean_residuals, af._clusters

    def counted_kernel(cx, dy, start, count, *pixels):
        scored.append(int(count.sum()))
        gaps.update(np.unique(-np.asarray(dy)).tolist())
        return kernel(cx, dy, start, count, *pixels)

    def counted_clusters(rows, hv, min_cluster_size):
        start, count = rule(rows, hv, min_cluster_size)
        per_row.append(int(np.bincount(rows[start]).max()))
        return start, count

    monkeypatch.setattr(af, "_mean_residuals", counted_kernel)
    monkeypatch.setattr(af, "_clusters", counted_clusters)
    decoded = af.decode(np.ones((h, w), np.float32), af.AffinityPair(haf, vaf))
    assert len(decoded.lanes) == w // 2
    assert sum(scored) <= (h - 1) * -(-w // 2) * w
    assert gaps == {1}
    assert per_row and max(per_row) <= -(-w // 2)


def test_best_label_agreement_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    for trial in range(150):
        h, w = (int(v) for v in rng.integers(1, 10, 2))
        gt = rng.integers(0, int(rng.integers(1, 8)), (h, w))    # up to 6 lane ids
        pred = rng.integers(0, int(rng.integers(1, 8)), (h, w))
        assert af.best_label_agreement(gt, pred) == best_label_agreement_ref(gt, pred), trial


def test_best_label_agreement_is_exact_above_eight_ids():
    # gt 1 is 3 px of pred 1 and 2 px of pred 2; gt 2 is 2 px of pred 1;
    # gt 3..9 are one px each of pred 3..9.  Taking (1, 1) first gives 10/14;
    # the optimum pairs gt 1 with pred 2 and gt 2 with pred 1: 11/14.
    gt = np.array([[1, 1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9]])
    pred = np.array([[1, 1, 1, 2, 2, 1, 1, 3, 4, 5, 6, 7, 8, 9]])
    assert af.best_label_agreement(gt, pred) == 11 / 14


@pytest.mark.parametrize("field,value", [("min_cluster_size", 0), ("min_lane_rows", 0),
                                         ("min_lane_rows", -1), ("max_gap_rows", -1)])
def test_decode_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ValueError, match=field):
        af.DecodeConfig(**{field: value})


@pytest.mark.parametrize("config,field", [(af.DecodeConfig, "assoc_threshold"),
                                          (EvalConfig, "px_threshold"),
                                          (EvalConfig, "lane_match_threshold")])
def test_configs_reject_nan_thresholds(config, field):
    with pytest.raises(ValueError):
        config(**{field: float("nan")})


def test_decode_config_accepts_smallest_counts():
    af.DecodeConfig(min_cluster_size=1, min_lane_rows=1, max_gap_rows=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_decoded_lanes_json_rejects_a_non_finite_x_naming_its_lane(bad):
    lanes = (af.DecodedLane(1, ((3.5, 9), (4.0, 8))), af.DecodedLane(2, ((7.0, 9), (bad, 8))))
    with pytest.raises(FormatError, match="lane 2 holds a non-finite x"):
        af.DecodedLanes(lanes, np.zeros((10, 12), np.int32)).to_json()
    assert json.loads(af.DecodedLanes(lanes[:1], np.zeros((10, 12), np.int32)).to_json()) == {
        "lanes": [{"id": 1, "points": [[3.5, 9], [4.0, 8]]}], "resolution": [10, 12]}


def test_decode_json_schema():
    mask, _ = synth.generate(synth.SceneSpec(lane_count=2, seed=5))
    pair = af.encode_affinities(mask)
    decoded = af.decode((mask > 0).astype(np.float32), pair)
    payload = json.loads(decoded.to_json())
    assert payload["resolution"] == [88, 160]
    assert len(payload["lanes"]) == 2
    assert {"id", "points"} <= set(payload["lanes"][0])
    x, y = payload["lanes"][0]["points"][0]
    assert isinstance(x, float) and isinstance(y, int)
