"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdict
lines.  Criterion 2 intentionally includes three published F1 figures that
cannot be reproduced from their own (accuracy, FP, FN) triples by the stated
formula (see README, "Known failing checks"); those parametrized cases fail
and are expected to.
"""
import json
import math
import os
import time

import numpy as np
import pytest

from lanekit import arch, cli, synth
from lanekit import dataset as D
from lanekit import losses as L
from lanekit import tensor as T
from lanekit.affinity import AffinityPair, DecodeConfig, decode, encode_affinities
from lanekit.evaluate import aggregate, evaluate_frame, f1_from_rates

from oracles import (af_ref, conv2d_ref, iou_ref, maxpool2x2_ref,
                     optimal_match_counts, transposed_conv2d_ref, wbce_ref)

H_SAMPLES = list(range(160, 720, 10))

REPORT_LINES: list[str] = []


def report(criterion: str, detail: str, ok: bool = True):
    line = f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT_LINES.append(line)
    print(f"[acceptance] {line}")


# -------------------------------------------------------------- criterion 1

def test_criterion_1_roundtrip_identity_500_scenes():
    """decode(encode(mask)) recovers every lane exactly, fast."""
    t0 = time.perf_counter()
    cfg = DecodeConfig()
    matched_px = 0
    total_px = 0
    lane_count_errors = []
    merge_count = 0
    for i in range(500):
        spec = synth.random_scene_spec(i)
        merge_count += int(spec.merge_split)
        agreement, n_gt, n_dec, n_fg = synth.roundtrip_scene(spec, cfg)
        matched_px += int(round(agreement * n_fg))
        total_px += n_fg
        if n_dec != n_gt:
            lane_count_errors.append((i, n_gt, n_dec))
    elapsed = time.perf_counter() - t0
    pooled = matched_px / total_px
    assert lane_count_errors == [], f"lane-count mismatches: {lane_count_errors[:5]}"
    assert pooled >= 0.99, f"aggregate agreement {pooled:.4f}"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    assert merge_count >= 50  # merge/split scenario actually exercised
    report("criterion 1 (round-trip identity)",
           f"500 scenes, agreement={pooled:.4f}, {elapsed:.1f}s, "
           f"{merge_count} merge/split scenes")


# -------------------------------------------------------------- criterion 2

TABLE3_ROWS = [
    ("ENet-SAD", 0.9664, 0.0602, 0.0205, 0.9592),
    ("ENet-Label", 0.9629, 0.0602, 0.0205, 0.9523),
    ("ERF-E2E", 0.9602, 0.0722, 0.0218, 0.9625),
    ("DLA34-AF", 0.9561, 0.0280, 0.0418, 0.9648),
    ("R34-ATT", 0.9563, 0.0353, 0.0292, 0.9677),
    ("ERF-FOLO", 0.9692, 0.0447, 0.0228, 0.9663),
    ("R34-E2E", 0.9622, 0.0308, 0.0376, 0.9658),
    ("CLRNet", 0.9684, 0.0228, 0.0192, 0.9789),
    ("PINet", 0.9675, 0.0310, 0.0250, 0.9720),
    ("ENet-ours", 0.9588, 0.0268, 0.0389, 0.9668),
]


@pytest.mark.parametrize("method,acc,fp,fn,f1", TABLE3_ROWS,
                         ids=[r[0] for r in TABLE3_ROWS])
def test_criterion_2_f1_formula_fidelity(method, acc, fp, fn, f1):
    """Each published F1 should be reproducible from its own ratio triple."""
    computed = f1_from_rates(acc, fp, fn)
    ok = abs(computed - f1) <= 5e-4
    report(f"criterion 2 ({method})", f"F1 {computed:.4f} vs published {f1:.4f}", ok)
    assert ok, f"{method}: formula gives {computed:.6f}, published {f1:.4f}"


# -------------------------------------------------------------- criterion 3

def test_criterion_3_architecture_accounting():
    spec = arch.build_enet21()
    rep = arch.count_flops(spec, (3, 352, 640))
    assert abs(rep.total_params - 0.25e6) <= 0.15 * 0.25e6, rep.total_params
    assert abs(rep.total_flops - 3.14e9) <= 0.15 * 3.14e9, rep.total_flops

    # layer table at 640x352, written W x H x C.  The published stage-2/3
    # width digit (88) contradicts the table's own halving chain; row 16
    # (160x88 = 2 x 80x44) pins the consistent value, 80.
    expected = (
        ["320x176x16"]
        + ["160x88x64"] * 3
        + ["80x44x128"] * 11
        + ["160x88x64"] * 3
    )
    rows = rep.per_layer
    got_trunk = [f"{w}x{h}x{c}" for (c, h, w) in
                 (r.output_dims for r in rows if r.head is None)]
    assert got_trunk == expected
    head_cells = {}
    for r in rows:
        if r.head is not None:
            c, h, w = r.output_dims
            head_cells.setdefault(r.id, set()).add((r.head, f"{w}x{h}x{c}"))
    assert head_cells[19] == {(h, "160x88x64") for h in ("seg", "haf", "vaf")}
    assert head_cells[20] == {(h, "160x88x64") for h in ("seg", "haf", "vaf")}
    assert head_cells[21] == {("seg", "160x88x1"), ("haf", "160x88x1"),
                              ("vaf", "160x88x2")}
    report("criterion 3 (architecture accounting)",
           f"params={rep.total_params/1e6:.3f}M, flops={rep.total_flops/1e9:.3f}G, "
           f"21-row trace exact")


# -------------------------------------------------------------- criterion 4

def test_criterion_4_kernel_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        oc = int(rng.integers(1, 4))
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        dilation = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        padding = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        x = (rng.random((n, c, h, w), dtype=np.float32) - 0.5) * 4
        k = (rng.random((oc, c, kh, kw), dtype=np.float32) - 0.5) * 2
        oh = (h + 2 * padding[0] - dilation[0] * (kh - 1) - 1) // stride[0] + 1
        ow = (w + 2 * padding[1] - dilation[1] * (kw - 1) - 1) // stride[1] + 1
        if oh >= 1 and ow >= 1:
            got = T.conv2d(x, T.ConvParams(k, stride=stride, dilation=dilation,
                                           padding=padding))
            ref = conv2d_ref(x, k, stride, dilation, padding)
            worst = max(worst, float(np.abs(got - ref).max()))
        toh = (h - 1) * stride[0] - 2 * padding[0] + dilation[0] * (kh - 1) + 1
        tow = (w - 1) * stride[1] - 2 * padding[1] + dilation[1] * (kw - 1) + 1
        if toh >= 1 and tow >= 1:
            got = T.transposed_conv2d(
                x, T.ConvParams(k, stride=stride, dilation=dilation, padding=padding))
            ref = transposed_conv2d_ref(x, k, stride, dilation, padding)
            worst = max(worst, float(np.abs(got - ref).max()))
        pooled, idx = T.maxpool2x2_with_indices(x)
        ref_pool, ref_idx = maxpool2x2_ref(x)
        assert (pooled == ref_pool).all() and (idx == ref_idx).all()
        restored = T.max_unpool2x2(pooled, idx, (h, w))
        assert (np.sort(restored[restored != 0]) == np.sort(pooled.ravel())).all()
    assert worst <= 1e-5, f"max abs kernel error {worst}"
    report("criterion 4 (kernel oracles)",
           f"100 random cases x {{conv, tconv, pool, unpool}}, max err {worst:.2e}")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_loss_oracles_and_gradients():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        logits = rng.normal(0, 2, (8, 8))
        target = (rng.random((8, 8)) > 0.6).astype(np.float64)
        probs = rng.random((8, 8))
        w = float(rng.uniform(0.5, 8.0))
        worst = max(worst, abs(L.wbce_loss(logits, target, w) - wbce_ref(logits, target, w)))
        worst = max(worst, abs(L.iou_loss(probs, target) - iou_ref(probs, target)))
        gt = AffinityPair(rng.uniform(-1, 1, (8, 8)).astype(np.float32),
                          rng.uniform(-1, 1, (2, 8, 8)).astype(np.float32))
        ph = rng.uniform(-1, 1, (8, 8))
        pv = rng.uniform(-1, 1, (2, 8, 8))
        fg = rng.random((8, 8)) > 0.5
        worst = max(worst, abs(L.af_loss(ph, pv, gt, fg) - af_ref(ph, pv, gt.haf, gt.vaf, fg)))
    assert worst <= 1e-6, f"loss oracle deviation {worst}"

    # finite-difference gradient probes vs analytic per-pixel gradients
    logits = rng.normal(0, 1, (6, 6))
    target = (rng.random((6, 6)) > 0.5).astype(np.float64)
    w = 3.0
    n = logits.size
    grad_worst = 0.0
    eps = 1e-6
    for (i, j) in [(0, 0), (2, 3), (5, 5)]:
        base = logits[i, j]
        def wf(v):
            z = logits.copy()
            z[i, j] = v
            return L.wbce_loss(z, target, w)
        fd = (wf(base + eps) - wf(base - eps)) / (2 * eps)
        sig = 1.0 / (1.0 + math.exp(-base))
        analytic = (w * target[i, j] * (sig - 1.0) + (1.0 - target[i, j]) * sig) / n
        grad_worst = max(grad_worst, abs(fd - analytic))
    probs = rng.uniform(0.2, 0.8, (6, 6))
    inter = (probs * target).sum()
    union = (probs + target - probs * target).sum()
    for (i, j) in [(1, 1), (4, 2)]:
        base = probs[i, j]
        def pf(v):
            p = probs.copy()
            p[i, j] = v
            return L.iou_loss(p, target)
        fd = (pf(base + eps) - pf(base - eps)) / (2 * eps)
        t = target[i, j]
        analytic = -(t * union - inter * (1.0 - t)) / union**2
        grad_worst = max(grad_worst, abs(fd - analytic))
    assert grad_worst <= 1e-4, f"gradient probe deviation {grad_worst}"

    gt = AffinityPair(rng.uniform(-1, 1, (6, 6)).astype(np.float32),
                      rng.uniform(-1, 1, (2, 6, 6)).astype(np.float32))
    bd = L.total_loss(logits, gt.haf, gt.vaf, target, gt, w=2.0)
    assert bd.total == bd.wbce + bd.iou + bd.af  # exact sum
    report("criterion 5 (loss correctness)",
           f"oracle err {worst:.1e}, gradient err {grad_worst:.1e}, total==sum")


# -------------------------------------------------------------- criterion 6

def _lane(x, gaps=()):
    xs = [float(x)] * len(H_SAMPLES)
    for g in gaps:
        xs[g] = -2.0
    return xs


def _ann(lanes, raw="f.jpg"):
    return D.LaneAnnotation(raw, tuple(H_SAMPLES), tuple(tuple(l) for l in lanes))


def test_criterion_6_matching_oracle():
    rng = np.random.default_rng(99)
    frames = [
        ([_lane(300), _lane(600)], [_lane(300), _lane(600)]),
        ([_lane(300)], [_lane(300), _lane(600)]),                      # one missed
        ([_lane(300), _lane(600), _lane(1100)], [_lane(300), _lane(600)]),  # hallucinated
        ([_lane(330)], [_lane(300)]),                                  # off by 30 px
        ([], [_lane(500)]),
        ([_lane(500)], []),
    ]
    for _ in range(20):
        xs = rng.permutation(np.arange(100, 1200, 130)).astype(float)
        n_gt, n_pred = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gt = [_lane(xs[i], gaps=rng.integers(0, 56, size=4)) for i in range(n_gt)]
        pred = [_lane(xs[i] + rng.uniform(-25, 25)) for i in range(n_pred)]
        frames.append((pred, gt))
    checked = 0
    for pred_lanes, gt_lanes in frames:
        res = evaluate_frame(_ann(pred_lanes), _ann(gt_lanes))
        ref = optimal_match_counts(pred_lanes, gt_lanes, 20.0, 0.85)
        assert res.counts._tuple() == ref, (pred_lanes, gt_lanes)
        checked += 1

    results = [evaluate_frame(_ann([_lane(300 + 10 * i)]), _ann([_lane(300)]),)
               for i in range(4)]
    pooled = aggregate(results)
    summed = np.array([r.counts._tuple() for r in results]).sum(axis=0)
    assert pooled.counts._tuple() == tuple(summed)
    report("criterion 6 (matching oracle)",
           f"{checked} frames, greedy == exhaustive; pooling == concatenation")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_full_pipeline_geometric_fidelity():
    deltas = []
    for seed in range(40):
        spec = synth.random_scene_spec(seed + 1000)
        mask, src = synth.generate(spec)
        decoded = decode((mask > 0).astype(np.float32), encode_affinities(mask))
        back = D.lanes_to_annotation(decoded, src.h_samples)
        src_lanes = [np.asarray(l) for l in src.lanes]
        for lane in back.lanes:
            xs = np.asarray(lane)
            candidates = []
            for ref in src_lanes:
                both = (xs >= 0) & (ref >= 0)
                if both.sum() >= 5:
                    candidates.append(float(np.abs(xs[both] - ref[both]).mean()))
            assert candidates, "decoded lane matches no source lane"
            deltas.append(min(candidates))
    mean_dx = float(np.mean(deltas))
    assert mean_dx <= 4.0, f"mean |dx| {mean_dx:.2f} px at 1280x720 scale"
    report("criterion 7 (geometric fidelity)",
           f"mean |dx| = {mean_dx:.2f} px over {len(deltas)} lanes")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_external_scoring_path(tmp_path, capsys):
    """Trained-model accuracy is out of scope; externally produced maps are
    scored through decode + eval.  Exercise that documented path end to end."""
    scene = str(tmp_path / "scene")
    assert cli.main(["synth", "--out", scene, "--seed", "4", "--lanes", "4"]) == 0
    mask = T.load_tensor(os.path.join(scene, "mask.aft"))
    seg = (mask > 0).astype(np.float32)
    T.save_tensor(os.path.join(scene, "seg.aft"), seg)
    lanes_json = str(tmp_path / "lanes.json")
    assert cli.main(["decode", "--seg", os.path.join(scene, "seg.aft"),
                     "--haf", os.path.join(scene, "haf.aft"),
                     "--vaf", os.path.join(scene, "vaf.aft"),
                     "--out", lanes_json]) == 0
    # lift decoded lanes back to annotation space and score against the label
    from lanekit.affinity import DecodedLane, DecodedLanes
    payload = json.loads(open(lanes_json).read())
    decoded = DecodedLanes(
        tuple(DecodedLane(l["id"], tuple((x, int(y)) for x, y in l["points"]))
              for l in payload["lanes"]),
        np.zeros((88, 160), dtype=np.int32))
    gt = D.parse_tusimple(os.path.join(scene, "label.json"), [])[0]
    pred = D.lanes_to_annotation(decoded, gt.h_samples, raw_file=gt.raw_file)
    pred_path = str(tmp_path / "pred.json")
    with open(pred_path, "w") as f:
        # a benchmark prediction line carries run_time, which eval reads past
        f.write(json.dumps({**json.loads(D.serialize_annotation(pred)), "run_time": 0}) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--pred", pred_path,
                     "--gt", os.path.join(scene, "label.json")]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["accuracy"] >= 0.95
    assert scores["fp"] == 0.0 and scores["fn"] == 0.0
    report("criterion 8 (external scoring path)",
           f"synthetic maps scored: accuracy={scores['accuracy']:.4f}")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_cli_determinism(tmp_path, capsys):
    def dir_bytes(root):
        state = {}
        for dirpath, _dirs, files in os.walk(root):
            for fn in files:
                p = os.path.join(dirpath, fn)
                state[os.path.relpath(p, root)] = open(p, "rb").read()
        return state

    lines = [json.dumps({"lanes": [[500.0] * len(H_SAMPLES)],
                         "h_samples": H_SAMPLES, "raw_file": "a.jpg"})]
    labels = tmp_path / "labels.json"
    labels.write_text("\n".join(lines) + "\n")
    pairs = []
    for tag in ("x", "y"):
        enc = str(tmp_path / f"enc_{tag}")
        scene = str(tmp_path / f"scene_{tag}")
        assert cli.main(["encode", "--labels", str(labels), "--out", enc]) == 0
        assert cli.main(["synth", "--out", scene, "--seed", "12", "--lanes", "3",
                         "--merge-split"]) == 0
        lanes_json = str(tmp_path / f"lanes_{tag}.json")
        seg_path = os.path.join(scene, "seg.aft")
        T.save_tensor(seg_path,
                      (T.load_tensor(os.path.join(scene, "mask.aft")) > 0
                       ).astype(np.float32))
        assert cli.main(["decode", "--seg", seg_path,
                         "--haf", os.path.join(scene, "haf.aft"),
                         "--vaf", os.path.join(scene, "vaf.aft"),
                         "--out", lanes_json]) == 0
        pairs.append((dir_bytes(enc), dir_bytes(scene),
                      open(lanes_json, "rb").read()))
    assert pairs[0] == pairs[1]
    capsys.readouterr()
    assert cli.main(["roundtrip", "--scenes", "3", "--seed", "5"]) == 0
    run1 = capsys.readouterr().out
    assert cli.main(["roundtrip", "--scenes", "3", "--seed", "5"]) == 0
    run2 = capsys.readouterr().out
    assert run1 == run2
    report("criterion 9 (CLI determinism)",
           "encode/synth/decode byte-identical; roundtrip output stable")
