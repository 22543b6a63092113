import json

import numpy as np
import pytest

from lanekit import dataset as D
from lanekit import synth
from lanekit.affinity import DecodeConfig, decode, encode_affinities
from lanekit.errors import FormatError

H_SAMPLES = list(range(160, 720, 10))


def write_labels(tmp_path, lines, name="labels.json"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def label_line(lanes, raw_file="clips/1/20.jpg", h_samples=H_SAMPLES):
    return json.dumps({"lanes": lanes, "h_samples": h_samples, "raw_file": raw_file})


def vertical_lane(x):
    return [x] * len(H_SAMPLES)


# ------------------------------------------------------------------- parse

def test_parse_well_formed_file(tmp_path):
    lines = [label_line([vertical_lane(640)], raw_file=f"c/{i}.jpg") for i in range(3)]
    errors: list[str] = []
    anns = D.parse_tusimple(write_labels(tmp_path, lines), errors)
    assert len(anns) == 3 and errors == []
    assert anns[1].raw_file == "c/1.jpg"
    assert anns[0].lanes[0][0] == 640


def test_parse_ragged_lane_rejected_others_kept(tmp_path):
    good = label_line([vertical_lane(300)], raw_file="good.jpg")
    bad = json.dumps({"lanes": [[300.0] * 10], "h_samples": H_SAMPLES,
                      "raw_file": "bad.jpg"})
    errors: list[str] = []
    anns = D.parse_tusimple(write_labels(tmp_path, [good, bad, good]), errors)
    assert len(anns) == 2
    assert len(errors) == 1 and errors[0].startswith("line 2:")


def test_parse_reports_missing_keys_and_bad_json(tmp_path):
    errors: list[str] = []
    lines = ["{not json", json.dumps({"lanes": []}), label_line([])]
    anns = D.parse_tusimple(write_labels(tmp_path, lines), errors)
    assert len(anns) == 1
    assert len(errors) == 2
    assert errors[0].startswith("line 1:") and errors[1].startswith("line 2:")


def test_parse_reports_lines_that_are_not_objects(tmp_path):
    errors: list[str] = []
    lines = ["5", "[1, 2]", label_line([vertical_lane(300)])]
    anns = D.parse_tusimple(write_labels(tmp_path, lines), errors)
    assert len(anns) == 1
    assert errors == ["line 1: expected a JSON object, got int",
                      "line 2: expected a JSON object, got list"]


def test_parse_reports_overflowing_h_samples(tmp_path):
    errors: list[str] = []
    bad = '{"raw_file": "a.jpg", "h_samples": [1e999], "lanes": []}'
    anns = D.parse_tusimple(write_labels(tmp_path, [bad, label_line([])]), errors)
    assert len(anns) == 1
    assert len(errors) == 1 and errors[0].startswith("line 1:")


def test_parse_reports_strings_where_lists_belong(tmp_path):
    errors: list[str] = []
    lines = ['{"raw_file": "a", "h_samples": "123", "lanes": [[5, 6, 7]]}',
             '{"raw_file": "a", "h_samples": [1, 2, 3], "lanes": "567"}',
             '{"raw_file": "a", "h_samples": [1, 2, 3], "lanes": ["567"]}',
             label_line([vertical_lane(300)])]
    anns = D.parse_tusimple(write_labels(tmp_path, lines), errors)
    assert len(anns) == 1
    assert errors == ["line 1: h_samples must be a list, got str",
                      "line 2: lanes must be a list, got str",
                      "line 3: lane 0 must be a list, got str"]


@pytest.mark.parametrize("h_samples, lane, message", [
    ([160.7], [5], "h_samples entry 0 must be a whole number, got 160.7"),
    ([160, "170"], [5, 6], "h_samples entry 1 must be a number, got str"),
    ([160, True], [5, 6], "h_samples entry 1 must be a number, got bool"),
    ([160], ["5"], "lane 0 entry 0 must be a number, got str"),
    ([160, 170], [5, False], "lane 0 entry 1 must be a number, got bool"),
])
def test_annotation_rejects_coerced_values(tmp_path, h_samples, lane, message):
    with pytest.raises(FormatError, match=message):
        D.LaneAnnotation("a", h_samples, [lane])
    errors: list[str] = []
    line = json.dumps({"raw_file": "a", "h_samples": h_samples, "lanes": [lane]})
    anns = D.parse_tusimple(write_labels(tmp_path, [label_line([]), line]), errors)
    assert len(anns) == 1 and errors == [f"line 2: {message}"]


def test_annotation_keeps_whole_float_and_numpy_numbers():
    ann = D.LaneAnnotation("a", [160.0, np.int64(170)], [[5, np.float32(6.5)]])
    assert ann.h_samples == (160, 170) and ann.lanes == ((5.0, 6.5),)
    assert [type(y) for y in ann.h_samples] == [int, int]


def test_parse_reports_undecodable_line_and_keeps_parsing(tmp_path):
    path = tmp_path / "labels.json"
    good = label_line([vertical_lane(300)]).encode()
    path.write_bytes(good + b"\n" + b'{"raw_file": "\xff\xfe"}\n' + good + b"\n")
    errors: list[str] = []
    anns = D.parse_tusimple(str(path), errors)
    assert len(anns) == 2
    assert errors == ["line 2: not valid UTF-8"]


def test_parse_rejects_out_of_range_x(tmp_path):
    errors: list[str] = []
    anns = D.parse_tusimple(
        write_labels(tmp_path, [label_line([vertical_lane(1400)])]), errors)
    assert anns == [] and len(errors) == 1


@pytest.mark.parametrize("y", [-1, -5000, D.ORIG_H, 10 ** 400])
def test_parse_reports_out_of_range_h_samples(tmp_path, y):
    with pytest.raises(FormatError, match="h_samples y="):
        D.LaneAnnotation("a", [160, y], [[5, 6]])
    errors: list[str] = []
    line = json.dumps({"raw_file": "a", "h_samples": [160, y], "lanes": [[5, 6]]})
    anns = D.parse_tusimple(write_labels(tmp_path, [line, label_line([])]), errors)
    assert len(anns) == 1
    assert errors == [f"line 1: h_samples y={y} outside [0, {D.ORIG_H - 1}]"]


@pytest.mark.parametrize("h_samples, message", [
    ([160, 170, 165], "y=165 after y=170"),
    ([710, 300], "y=300 after y=710"),
    ([160, 170, 170], "y=170 after y=170"),
])
def test_parse_reports_h_samples_that_do_not_increase(tmp_path, h_samples, message):
    # a descending lane was once accepted and painted at one constant column
    lane = [600.0] * len(h_samples)
    with pytest.raises(FormatError, match=message):
        D.LaneAnnotation("a", h_samples, [lane])
    errors: list[str] = []
    line = json.dumps({"raw_file": "a", "h_samples": h_samples, "lanes": [lane]})
    anns = D.parse_tusimple(write_labels(tmp_path, [label_line([]), line]), errors)
    assert len(anns) == 1
    assert errors == [f"line 2: h_samples must be strictly increasing: {message}"]


def test_out_of_range_h_sample_is_reported_before_the_order():
    with pytest.raises(FormatError, match=r"^h_samples y=800 outside \[0, 719\]$"):
        D.LaneAnnotation("a", [300, 160, 800], [[5, 6, 7]])


def test_annotation_accepts_every_row_of_the_frame_and_synth_labels():
    assert D.LaneAnnotation("a", [0, D.ORIG_H - 1], [[5, 6]]).h_samples == (0, D.ORIG_H - 1)
    _, ann = synth.generate(synth.SceneSpec(seed=3))
    assert ann.h_samples == tuple(range(160, 711, 10))


def test_serialize_parse_round_trip(tmp_path):
    ann = D.LaneAnnotation("clips/x.jpg", H_SAMPLES,
                           (tuple(vertical_lane(512)), tuple(vertical_lane(-2))))
    line = D.serialize_annotation(ann)
    back = D.parse_tusimple(write_labels(tmp_path, [line]), [])[0]
    assert back == ann


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_serialize_annotation_rejects_a_non_finite_x_naming_its_lane(bad):
    # the constructor rejects such an x, so an annotation that holds one was changed after
    ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple(vertical_lane(512)),) * 2)
    object.__setattr__(ann, "lanes", (ann.lanes[0], (bad, *ann.lanes[1][1:])))
    with pytest.raises(FormatError, match="lane 1 holds a non-finite x"):
        D.serialize_annotation(ann)


# --------------------------------------------------------------- rasterize

def test_rasterize_vertical_midline():
    ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple(vertical_lane(640)),))
    mask = D.rasterize(ann)
    assert mask.shape == (88, 160)
    rows = np.unique(np.nonzero(mask)[0])
    assert rows.min() == int(np.ceil(160 * 88 / 720))
    for r in rows:
        cols = np.nonzero(mask[r])[0]
        assert 80 in cols and len(cols) == 2


def test_rasterize_all_absent_is_empty():
    ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple([-2.0] * len(H_SAMPLES)),))
    assert (D.rasterize(ann) == 0).all()


def test_rasterize_single_vertex_lane_skipped():
    lane = [-2.0] * len(H_SAMPLES)
    lane[10] = 500.0
    ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple(lane),))
    assert (D.rasterize(ann) == 0).all()


def test_rasterize_vertices_land_near_their_lane():
    rng = np.random.default_rng(3)
    for trial in range(20):
        x0 = float(rng.uniform(200, 1000))
        drift = float(rng.uniform(-200, 200))
        lane = [x0 + drift * i / len(H_SAMPLES) for i in range(len(H_SAMPLES))]
        ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple(lane),))
        thickness = int(rng.integers(1, 4))
        mask = D.rasterize(ann, thickness=thickness)
        ys, xs = np.nonzero(mask)
        assert len(xs) > 0
        pts = np.stack([xs, ys], axis=1).astype(np.float64)
        for i, y in enumerate(H_SAMPLES):
            sx, sy = lane[i] * 160 / 1280, y * 88 / 720
            if sy < np.ceil(min(l[1] for l in pts)) or sy > max(l[1] for l in pts):
                continue
            d = np.sqrt(((pts - (sx, sy)) ** 2).sum(axis=1)).min()
            assert d <= thickness / 2 + 1


def test_rasterize_never_writes_out_of_bounds():
    lane = [float(x) for x in np.linspace(0, 1279, len(H_SAMPLES))]
    ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple(lane),))
    mask = D.rasterize(ann, thickness=5)
    assert mask.shape == (88, 160)  # clipping happened silently


def test_rasterize_later_lane_overwrites():
    l1 = vertical_lane(640)
    l2 = vertical_lane(642)  # lands on the same map columns
    ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple(l1), tuple(l2)))
    mask = D.rasterize(ann)
    ids = np.unique(mask)
    assert 1 in ids  # overwritten lane compacts to id 1
    assert mask.max() == 1


def test_rasterize_interpolates_between_increasing_samples():
    ann = D.LaneAnnotation("a.jpg", [300, 710], [[680.0, 600.0]])
    mask = D.rasterize(ann)
    assert [np.nonzero(mask[r])[0].tolist() for r in (40, 60, 80)] == [[83, 84], [79, 80],
                                                                         [75, 76]]


def test_rasterize_compacts_ids_on_a_fully_painted_mask():
    # the second lane paints every pixel and erases the first: no 0 is left
    ann = D.LaneAnnotation("a.jpg", [0, D.ORIG_H - 1], [[3.0, 3.0], [640.0, 640.0]])
    mask = D.rasterize(ann, (9, 7), thickness=7)
    assert mask.dtype == np.int32 and (mask == 1).all()


# ------------------------------------------------------ lanes_to_annotation

def test_lanes_to_annotation_inverts_rasterize_example():
    ann = D.LaneAnnotation("a.jpg", H_SAMPLES, (tuple(vertical_lane(640)),))
    mask = D.rasterize(ann)
    decoded = decode((mask > 0).astype(np.float32), encode_affinities(mask))
    back = D.lanes_to_annotation(decoded, H_SAMPLES)
    xs = np.asarray(back.lanes[0])
    covered = xs >= 0
    assert covered.sum() > 40
    assert np.abs(xs[covered] - 640.0).max() <= 4.0


def test_lanes_to_annotation_outside_extent_absent():
    from lanekit.affinity import DecodedLane, DecodedLanes
    # centroid 79.5 = cells {79, 80}, whose span is centered on original x=640
    lanes = DecodedLanes(
        (DecodedLane(1, ((79.5, 50), (79.5, 49), (79.5, 48), (79.5, 47))),),
        np.zeros((88, 160), dtype=np.int32))
    ann = D.lanes_to_annotation(lanes, H_SAMPLES)
    xs = np.asarray(ann.lanes[0])
    ys = np.asarray(H_SAMPLES, dtype=np.float64)
    extent = (ys >= 47.5 * 720 / 88) & (ys <= 50.5 * 720 / 88)
    assert (xs[~extent] == -2).all()
    assert np.allclose(xs[extent], 640.0)


def test_lanes_to_annotation_no_coverage_all_absent():
    from lanekit.affinity import DecodedLane, DecodedLanes
    lanes = DecodedLanes(
        (DecodedLane(1, ((10.0, 2), (10.0, 1))),),  # above every h_sample
        np.zeros((88, 160), dtype=np.int32))
    ann = D.lanes_to_annotation(lanes, H_SAMPLES)
    assert all(x == -2 for x in ann.lanes[0])


def test_full_pipeline_geometric_fidelity():
    deltas = []
    for seed in range(25):
        spec = synth.random_scene_spec(seed + 500)
        mask, src = synth.generate(spec)
        decoded = decode((mask > 0).astype(np.float32), encode_affinities(mask),
                         DecodeConfig())
        back = D.lanes_to_annotation(decoded, src.h_samples)
        src_lanes = [np.asarray(l) for l in src.lanes]
        for lane in back.lanes:
            xs = np.asarray(lane)
            best = None
            for ref in src_lanes:
                both = (xs >= 0) & (ref >= 0)
                if both.sum() < 5:
                    continue
                diff = np.abs(xs[both] - ref[both]).mean()
                if best is None or diff < best:
                    best = diff
            assert best is not None
            deltas.append(best)
    assert np.mean(deltas) <= 4.0
