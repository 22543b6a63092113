import numpy as np
import pytest

from lanekit.dataset import LaneAnnotation
from lanekit.errors import EvalError
from lanekit import evaluate as E

from oracles import optimal_match_counts

H_SAMPLES = tuple(range(160, 720, 10))


def make_ann(lanes, raw_file="frame.jpg"):
    return LaneAnnotation(raw_file, H_SAMPLES, tuple(tuple(l) for l in lanes))


def straight_lane(x, present=range(0, 56)):
    lane = [-2.0] * len(H_SAMPLES)
    for i in present:
        lane[i] = float(x)
    return lane


def shifted(lane, dx):
    return [x + dx if x >= 0 else x for x in lane]


# ------------------------------------------------------------------- frame

def test_exact_match_perfect_scores():
    gt = make_ann([straight_lane(300), straight_lane(600), straight_lane(900)])
    res = E.evaluate_frame(gt, gt)
    assert res.accuracy == 1.0 and res.fp_rate == 0.0 and res.fn_rate == 0.0
    assert res.f1 == 1.0


def test_shift_beyond_threshold_all_false():
    gt = make_ann([straight_lane(300), straight_lane(600)])
    pred = make_ann([shifted(straight_lane(300), 25), shifted(straight_lane(600), 25)])
    res = E.evaluate_frame(pred, gt)
    assert res.accuracy == 0.0
    assert res.counts.false_lanes == 2
    assert res.fp_rate == 1.0


def test_shift_within_threshold_counts():
    gt = make_ann([straight_lane(300)])
    pred = make_ann([shifted(straight_lane(300), 20)])  # exactly at threshold
    res = E.evaluate_frame(pred, gt)
    assert res.accuracy == 1.0


def test_missing_and_hallucinated_lanes():
    gt = make_ann([straight_lane(300), straight_lane(600), straight_lane(900)])
    pred = make_ann([straight_lane(300), straight_lane(600), straight_lane(1150)])
    res = E.evaluate_frame(pred, gt)
    ref = optimal_match_counts([l for l in pred.lanes], [l for l in gt.lanes],
                               20.0, 0.85)
    assert res.counts._tuple() == ref
    # two matched correctly, the hallucinated lane is false, one gt missed
    assert res.counts.false_lanes == 1
    assert res.counts.missed_lanes == 0  # 1150-lane greedily matches gt 900 with acc 0
    assert res.counts.correct_vertices == 2 * 56


def test_absent_vertices_excluded_from_gt_count():
    gt = make_ann([straight_lane(300, present=range(10, 30))])
    res = E.evaluate_frame(gt, gt)
    assert res.counts.gt_vertices == 20
    assert res.accuracy == 1.0


def test_pred_absent_vertex_is_incorrect():
    gt = make_ann([straight_lane(300)])
    pred_lane = straight_lane(300)
    pred_lane[0] = -2.0
    res = E.evaluate_frame(make_ann([pred_lane]), gt)
    assert res.counts.correct_vertices == 55


def test_lane_reordering_invariance():
    rng = np.random.default_rng(0)
    gt_lanes = [straight_lane(200), straight_lane(500), straight_lane(800)]
    pred_lanes = [shifted(l, 5) for l in gt_lanes]
    base = E.evaluate_frame(make_ann(pred_lanes), make_ann(gt_lanes))
    for _ in range(4):
        rng.shuffle(pred_lanes)
        rng.shuffle(gt_lanes)
        res = E.evaluate_frame(make_ann(pred_lanes), make_ann(gt_lanes))
        assert res.counts == base.counts


def test_greedy_equals_exhaustive_on_small_frames():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n_gt = int(rng.integers(1, 5))
        n_pred = int(rng.integers(0, 5))
        xs = rng.permutation(np.arange(100, 1200, 120))  # >=120 px apart
        gt_lanes = [straight_lane(xs[i]) for i in range(n_gt)]
        pred_lanes = []
        for i in range(n_pred):
            if i < n_gt and rng.random() < 0.7:
                pred_lanes.append(shifted(gt_lanes[i], float(rng.uniform(-30, 30))))
            else:
                pred_lanes.append(straight_lane(xs[5 + i]))
        res = E.evaluate_frame(make_ann(pred_lanes), make_ann(gt_lanes))
        ref = optimal_match_counts(pred_lanes, gt_lanes, 20.0, 0.85)
        assert res.counts._tuple() == ref, f"trial {trial}"


def test_frame_without_h_samples_matches_exhaustive():
    gt = LaneAnnotation("frame.jpg", (), ((), ()))
    pred = LaneAnnotation("frame.jpg", (), ((), (), ()))
    res = E.evaluate_frame(pred, gt)
    assert res.counts._tuple() == optimal_match_counts(pred.lanes, gt.lanes, 20.0, 0.85)
    assert res.counts._tuple() == (0, 0, 3, 3, 0, 0)


def test_frame_without_predictions_matches_exhaustive():
    gt_lanes = [straight_lane(300), straight_lane(700, present=range(10, 40))]
    res = E.evaluate_frame(make_ann([]), make_ann(gt_lanes))
    assert res.counts._tuple() == optimal_match_counts([], gt_lanes, 20.0, 0.85)
    assert (res.accuracy, res.fp_rate, res.fn_rate) == (0.0, 0.0, 1.0)


def test_mismatched_h_samples_rejected():
    gt = make_ann([straight_lane(300)])
    pred = LaneAnnotation("frame.jpg", tuple(range(160, 710, 10)),
                          (tuple([-2.0] * 55),))
    with pytest.raises(EvalError):
        E.evaluate_frame(pred, gt)


# --------------------------------------------------------------- aggregate

def frame_with_accuracy(n_ok, n_total, raw_file):
    gt_lane = straight_lane(400, present=range(n_total))
    pred_lane = straight_lane(400, present=range(n_total))
    for i in range(n_ok, n_total):
        pred_lane[i] = 400.0 + 50.0
    return (make_ann([pred_lane], raw_file), make_ann([gt_lane], raw_file))


def test_aggregate_single_frame_identity():
    pred, gt = frame_with_accuracy(3, 4, "a.jpg")
    res = E.evaluate_frame(pred, gt)
    assert E.aggregate([res]) == res


def test_aggregate_pools_counts_not_ratios():
    r1 = E.evaluate_frame(*frame_with_accuracy(1, 2, "a.jpg"))
    r2 = E.evaluate_frame(*frame_with_accuracy(2, 2, "b.jpg"))
    assert E.aggregate([r1, r2]).accuracy == 0.75
    r3 = E.evaluate_frame(*frame_with_accuracy(1, 4, "c.jpg"))
    assert E.aggregate([r3, r2]).accuracy == 0.5  # (1+2)/(4+2), not mean of ratios


def test_aggregate_equals_concatenated_frames():
    rng = np.random.default_rng(2)
    frames = []
    for i in range(6):
        n_total = int(rng.integers(2, 6))
        n_ok = int(rng.integers(0, n_total + 1))
        frames.append(frame_with_accuracy(n_ok, n_total, f"{i}.jpg"))
    results = [E.evaluate_frame(p, g) for p, g in frames]
    pooled = E.aggregate(results)
    total = np.array([r.counts._tuple() for r in results]).sum(axis=0)
    assert pooled.counts._tuple() == tuple(total)


def test_aggregate_rejects_empty():
    with pytest.raises(EvalError):
        E.aggregate([])


# ---------------------------------------------------------------------- f1

def test_f1_published_reference_points():
    assert E.f1_from_rates(0.9588, 0.0268, 0.0389) == pytest.approx(0.9668, abs=5e-4)
    assert E.f1_from_rates(0.9684, 0.0228, 0.0192) == pytest.approx(0.9789, abs=5e-4)


def test_f1_degenerate_perfection():
    for acc in (0.1, 0.5, 1.0):
        assert E.f1_from_rates(acc, 0.0, 0.0) == 1.0


def test_f1_undefined_cases():
    with pytest.raises(EvalError):
        E.f1_from_rates(0.0, 0.0, 0.1)
    with pytest.raises(EvalError):
        E.f1_from_rates(1.2, 0.0, 0.0)
