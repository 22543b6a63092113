"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written as plain nested loops over scalars,
sharing no code with the library, so agreement between the two is evidence
of correctness rather than tautology.  There are four exceptions.
:func:`forward_ref` reads each row's conv slots from ``arch.plan_block`` (the
layer table) but chains the rows and runs every kernel itself.
:func:`prelu_bits_ref`, :func:`sigmoid_ref` and :func:`maxpool2x2_bits_ref`
are the library's earlier numpy kernels, kept as byte-exact references for
the float32 kernels that replaced them: they define the bits of ±0, ±inf and
NaN results.  And
:func:`decode_ref` is the library's earlier decoder, one column and one
(track, cluster) pair at a time, kept as the byte-exact reference for the
row-array decoder; it shares the greedy matcher and the result types.
Last, :func:`rasterize_ref` and :func:`generate_ref` are the library's
earlier label path, one row and one (lane, sample) at a time, kept as the
byte-exact reference for the array rasterizer and scene generator; they
share the annotation type and the random scene geometry.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from lanekit.affinity import DecodedLane, DecodedLanes
from lanekit.arch import plan_block
from lanekit.dataset import MAP_H, MAP_W, ORIG_H, ORIG_W, LaneAnnotation
from lanekit.errors import SceneError
from lanekit.matching import greedy_pairs
from lanekit.synth import _sample_geometry


def conv2d_ref(x, kernel, stride=(1, 1), dilation=(1, 1), padding=(0, 0)):
    n, c, h, w = x.shape
    oc, ic, kh, kw = kernel.shape
    assert ic == c
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    oh = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    ow = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                y = i * sh + u * dh - ph
                                xx = j * sw + v * dw - pw
                                if 0 <= y < h and 0 <= xx < w:
                                    acc += float(x[b, ci, y, xx]) * float(kernel[o, ci, u, v])
                    out[b, o, i, j] = acc
    return out


def transposed_conv2d_ref(x, kernel, stride=(1, 1), dilation=(1, 1), padding=(0, 0)):
    n, c, h, w = x.shape
    oc, ic, kh, kw = kernel.shape
    assert ic == c
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    oh = (h - 1) * sh - 2 * ph + dh * (kh - 1) + 1
    ow = (w - 1) * sw - 2 * pw + dw * (kw - 1) + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for ci in range(c):
                for i in range(h):
                    for j in range(w):
                        for u in range(kh):
                            for v in range(kw):
                                y = i * sh + u * dh - ph
                                xx = j * sw + v * dw - pw
                                if 0 <= y < oh and 0 <= xx < ow:
                                    out[b, o, y, xx] += float(x[b, ci, i, j]) * float(
                                        kernel[o, ci, u, v])
    return out


def maxpool2x2_ref(x):
    n, c, h, w = x.shape
    oh, ow = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    arg = np.zeros((n, c, oh, ow), dtype=np.int64)
    for b in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    best = -math.inf
                    best_pos = None
                    for u in range(2):
                        for v in range(2):
                            y, xx = 2 * i + u, 2 * j + v
                            if y < h and xx < w and float(x[b, ci, y, xx]) > best:
                                best = float(x[b, ci, y, xx])
                                best_pos = y * w + xx
                    out[b, ci, i, j] = best
                    arg[b, ci, i, j] = best_pos
    return out, arg


def prelu_bits_ref(x, slope):
    """float32 PReLU as one select: x where x > 0, else x * slope."""
    return np.where(x > 0, x, x * np.asarray(slope, dtype=np.float32)[None, :, None, None])


def sigmoid_ref(x):
    """float32 logistic over two boolean-mask passes, split at x >= 0."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def maxpool2x2_bits_ref(x):
    """float32 2x2 max pool over -inf padding: one argmax per window of four."""
    n, c, h, w = x.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    xp = np.full((n, c, 2 * h2, 2 * w2), -np.inf, dtype=np.float32)
    xp[:, :, :h, :w] = x
    win = xp.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    loc = win.argmax(axis=-1)
    out = np.take_along_axis(win, loc[..., None], axis=-1)[..., 0]
    rows = 2 * np.arange(h2, dtype=np.int64)[:, None] + loc // 2
    cols = 2 * np.arange(w2, dtype=np.int64)[None, :] + loc % 2
    return out, rows * w + cols


def wbce_ref(logits, target, w):
    total = 0.0
    flat_z = np.asarray(logits, dtype=np.float64).ravel()
    flat_t = np.asarray(target, dtype=np.float64).ravel()
    for z, t in zip(flat_z, flat_t):
        o = 1.0 / (1.0 + math.exp(-z))
        total += -(w * t * math.log(o) + (1.0 - t) * math.log(1.0 - o))
    return total / flat_z.size


def iou_ref(probs, target):
    inter = 0.0
    union = 0.0
    for p, t in zip(np.asarray(probs, dtype=np.float64).ravel(),
                    np.asarray(target, dtype=np.float64).ravel()):
        inter += p * t
        union += p + t - p * t
    if union == 0.0:
        return 0.0
    return 1.0 - inter / union


def af_ref(pred_haf, pred_vaf, gt_haf, gt_vaf, fg):
    total = 0.0
    n_fg = 0
    h, w = np.asarray(fg).shape
    for y in range(h):
        for x in range(w):
            if fg[y, x]:
                n_fg += 1
                total += abs(float(gt_haf[y, x]) - float(pred_haf[y, x]))
                total += abs(float(gt_vaf[0, y, x]) - float(pred_vaf[0, y, x]))
                total += abs(float(gt_vaf[1, y, x]) - float(pred_vaf[1, y, x]))
    return total / n_fg if n_fg else 0.0


def association_error_ref(pixel_xs, row, centroid_x, row_above, vaf):
    """Scalar evaluation of the cluster-to-lane residual."""
    total = 0.0
    for x in pixel_xs:
        tx = centroid_x - float(x)
        ty = float(row_above - row)
        dist = math.sqrt(tx * tx + ty * ty)
        rx = tx - float(vaf[0, row, x]) * dist
        ry = ty - float(vaf[1, row, x]) * dist
        total += math.sqrt(rx * rx + ry * ry)
    return total / len(pixel_xs)


def _cluster_row_ref(haf_row, fg_row, min_cluster_size):
    clusters = []
    prev = None
    for c in np.flatnonzero(fg_row):
        cur = haf_row[c]
        if not clusters or (prev <= 0.0 and cur > 0.0):
            clusters.append([int(c)])
        else:
            clusters[-1].append(int(c))
        prev = cur
    return [np.asarray(cl, dtype=np.int64) for cl in clusters
            if len(cl) >= min_cluster_size]


def association_error_pair_ref(pixel_xs, row, centroid_x, row_above, vaf):
    """The earlier numpy residual of one (track, cluster) pair: it defines the
    bits of each entry of the row array."""
    xs = pixel_xs.astype(np.float64)
    tx = centroid_x - xs
    ty = float(row_above - row)
    dist = np.sqrt(tx * tx + ty * ty)
    vx = vaf[0, row, pixel_xs].astype(np.float64)
    vy = vaf[1, row, pixel_xs].astype(np.float64)
    rx = tx - vx * dist
    ry = ty - vy * dist
    return float(np.sqrt(rx * rx + ry * ry).mean())


def decode_ref(seg_prob, af, cfg):
    """Lane decoding with one call per (track, cluster) pair; a track is a
    list [lane id, pixel xs, row, points]."""
    seg_prob = np.asarray(seg_prob, dtype=np.float32)
    h, w = seg_prob.shape
    fg = seg_prob >= cfg.fg_threshold
    cluster_map = np.zeros((h, w), dtype=np.int32)
    active, finished = [], []
    next_id = 1
    for row in range(h - 1, -1, -1):
        clusters = _cluster_row_ref(af.haf[row], fg[row], cfg.min_cluster_size)
        assignment = {}
        if clusters:
            centroids = [float(cl.mean()) for cl in clusters]
            err = np.array([[association_error_pair_ref(t[1], t[2], cx, row, af.vaf)
                             for cx in centroids] for t in active])
            err = err.reshape(len(active), len(clusters))
            assignment = greedy_pairs(err, err <= cfg.assoc_threshold)
        survivors = []
        for ti, track in enumerate(active):
            if ti in assignment:
                cl = clusters[assignment[ti]]
                track[1], track[2] = cl, row
                track[3].append((float(cl.mean()), row))
                cluster_map[row, cl] = track[0]
                survivors.append(track)
            elif track[2] - row > cfg.max_gap_rows:
                finished.append(track)
            else:
                survivors.append(track)
        matched = set(assignment.values())
        for ci, cl in enumerate(clusters):
            if ci not in matched:
                survivors.append([next_id, cl, row, [(float(cl.mean()), row)]])
                cluster_map[row, cl] = next_id
                next_id += 1
        active = survivors
    finished.extend(active)
    kept = sorted((t for t in finished if len(t[3]) >= cfg.min_lane_rows),
                  key=lambda t: t[0])
    relabel = np.zeros(next_id, dtype=np.int32)
    relabel[[t[0] for t in kept]] = np.arange(1, len(kept) + 1)
    lanes = tuple(DecodedLane(i, tuple(t[3])) for i, t in enumerate(kept, 1))
    return DecodedLanes(lanes, relabel[cluster_map])


def encode_ref(mask):
    """Field generation, re-derived from scratch with scalar loops."""
    mask = np.asarray(mask)
    h, w = mask.shape
    haf = np.zeros((h, w), dtype=np.float64)
    vaf = np.zeros((2, h, w), dtype=np.float64)
    for lane in range(1, int(mask.max()) + 1):
        centers = {}
        for y in range(h):
            xs = [x for x in range(w) if mask[y, x] == lane]
            if xs:
                centers[y] = round(2.0 * (sum(xs) / len(xs))) / 2.0
        for y in sorted(centers, reverse=True):
            xs = [x for x in range(w) if mask[y, x] == lane]
            for x in xs:
                d = centers[y] - x
                haf[y, x] = 0.0 if d == 0 else math.copysign(1.0, d)
                if y - 1 in centers:
                    dx = centers[y - 1] - x
                    norm = math.sqrt(dx * dx + 1.0)
                    vaf[0, y, x] = dx / norm
                    vaf[1, y, x] = -1.0 / norm
                else:
                    vaf[0, y, x] = 0.0
                    vaf[1, y, x] = -1.0
    return haf, vaf


def lane_pair_scores(pred_lane, gt_lane, px_threshold):
    """(correct count, gt count) for one pred/gt lane pair, scalar version."""
    n_ok = 0
    n_gt = 0
    for p, g in zip(pred_lane, gt_lane):
        if g < 0:
            continue
        n_gt += 1
        if p >= 0 and abs(p - g) <= px_threshold:
            n_ok += 1
    return n_ok, n_gt


def optimal_match_counts(pred_lanes, gt_lanes, px_threshold, lane_match_threshold):
    """Exhaustive one-to-one matching maximizing total per-lane accuracy.

    Returns the same count tuple the library produces:
    (correct vertices, gt vertices, false lanes, pred lanes, missed lanes,
    gt lanes).
    """
    gt_lanes = [g for g in gt_lanes if any(x >= 0 for x in g)]
    np_, ng = len(pred_lanes), len(gt_lanes)
    gt_vertices = sum(1 for g in gt_lanes for x in g if x >= 0)
    scores = [[lane_pair_scores(p, g, px_threshold) for g in gt_lanes] for p in pred_lanes]
    best = None
    k = min(np_, ng)
    for pred_subset in itertools.permutations(range(np_), k):
        for gt_subset in itertools.combinations(range(ng), k):
            total_acc = 0.0
            correct = 0
            false_lanes = np_ - k
            for pi, gi in zip(pred_subset, gt_subset):
                n_ok, n_gt = scores[pi][gi]
                acc = n_ok / n_gt if n_gt else 0.0
                total_acc += acc
                correct += n_ok
                if acc < lane_match_threshold:
                    false_lanes += 1
            cand = (total_acc, correct, false_lanes)
            if best is None or cand[0] > best[0]:
                best = cand
    if best is None:  # no gt or no pred
        return (0, gt_vertices, np_, np_, ng, ng)
    _, correct, false_lanes = best
    return (correct, gt_vertices, false_lanes, np_, ng - k, ng)


def best_label_agreement_ref(gt_mask, cluster_map):
    """Agreement under the best injective label map, by scalar counting and an
    exhaustive search over every injection of the smaller id set."""
    h, w = gt_mask.shape
    gt_ids = sorted({int(gt_mask[y, x]) for y in range(h) for x in range(w)
                     if gt_mask[y, x] > 0})
    total = sum(1 for y in range(h) for x in range(w) if gt_mask[y, x] > 0)
    if total == 0:
        return 1.0
    pred_ids = sorted({int(cluster_map[y, x]) for y in range(h) for x in range(w)
                       if gt_mask[y, x] > 0 and cluster_map[y, x] > 0})
    counts = {}
    for y in range(h):
        for x in range(w):
            g, p = int(gt_mask[y, x]), int(cluster_map[y, x])
            if g > 0 and p > 0:
                counts[g, p] = counts.get((g, p), 0) + 1
    best = 0
    if len(gt_ids) <= len(pred_ids):
        for perm in itertools.permutations(pred_ids, len(gt_ids)):
            best = max(best, sum(counts.get((g, p), 0) for g, p in zip(gt_ids, perm)))
    else:
        for perm in itertools.permutations(gt_ids, len(pred_ids)):
            best = max(best, sum(counts.get((g, p), 0) for g, p in zip(perm, pred_ids)))
    return best / total


BATCHNORM_EPS = 1e-5


def _bn_ref(x, store, prefix):
    g, b, m, v = (np.asarray(store[f"{prefix}.bn.{part}"], dtype=np.float64)[None, :, None, None]
                  for part in ("gamma", "beta", "mean", "var"))
    return g * (x - m) / np.sqrt(v + BATCHNORM_EPS) + b


def _prelu_ref(x, slope):
    s = np.asarray(slope, dtype=np.float64)[None, :, None, None]
    return np.where(x > 0, x, s * x)


def _unpool_ref(x, arg, out_hw):
    n, c, _, _ = x.shape
    oh, ow = out_hw
    out = np.zeros((n, c, oh * ow), dtype=np.float64)
    for b, ci, i, j in np.ndindex(*x.shape):
        out[b, ci, arg[b, ci, i, j]] = x[b, ci, i, j]
    return out.reshape(n, c, oh, ow)


def _slot_ref(x, slot, store):
    conv = conv2d_ref if slot.op == "conv" else transposed_conv2d_ref
    x = conv(x, store[f"{slot.name}.kernel"], slot.stride, slot.dilation, slot.padding)
    if slot.bn:
        x = _bn_ref(x, store, slot.name)
    if slot.act:
        x = _prelu_ref(x, store[f"{slot.name}.slope"])
    return x


def _block_ref(x, plan, store, pools):
    nm = plan.layer.name
    if plan.pool == "initial":
        pooled, _ = maxpool2x2_ref(x)
        x = np.concatenate([_slot_ref(x, plan.ext[0], store), pooled], axis=1)
        return _prelu_ref(_bn_ref(x, store, nm), store[f"{nm}.out.slope"])
    if plan.layer.kind == "conv1x1":
        return _slot_ref(x, plan.ext[0], store)
    ext = x
    for slot in plan.ext:
        ext = _slot_ref(ext, slot, store)
    if plan.pool == "down":
        main, arg = maxpool2x2_ref(x)
        pools.append((arg, x.shape[2:]))
        n, c, h, w = main.shape
        main = np.concatenate([main, np.zeros((n, plan.zero_pad_to - c, h, w))], axis=1)
    elif plan.pool == "up":
        arg, out_hw = pools.pop()
        main = _unpool_ref(_slot_ref(x, plan.main_conv, store), arg, out_hw)
    else:
        main = x
    return _prelu_ref(main + ext, store[f"{nm}.out.slope"])


def forward_ref(spec, store, image):
    """Inference-mode network output {head: map} in float64.

    The trunk rows chain from the image; every head runs its own three rows
    from the trunk output.  With shared heads rows 19-20 of every head read
    the same weight slots, so running them once per head gives the same
    maps as running them once for all heads.
    """
    x = np.asarray(image, dtype=np.float64)
    pools = []
    ch = 3
    for layer in spec.layers:
        x = _block_ref(x, plan_block(layer, ch, spec.projection_ratio), store, pools)
        ch = layer.out_channels
    outputs = {}
    for head in spec.heads:
        y, head_ch = x, ch
        for layer in head.layers:
            y = _block_ref(y, plan_block(layer, head_ch, spec.projection_ratio), store, pools)
            head_ch = layer.out_channels
        outputs[head.name] = y
    return outputs


def rasterize_ref(ann, out_res, thickness):
    """The library's earlier rasterizer: one np.interp call and one slice per
    row, then a scan of the mask per painted lane to compact the ids."""
    out_h, out_w = out_res
    sx, sy = out_w / ORIG_W, out_h / ORIG_H
    mask = np.zeros((out_h, out_w), dtype=np.int32)
    ys_orig = np.asarray(ann.h_samples, dtype=np.float64)
    painted_any = []
    for lane_idx, lane in enumerate(ann.lanes):
        xs_orig = np.asarray(lane, dtype=np.float64)
        present = xs_orig >= 0
        if present.sum() < 2:
            continue
        xs = xs_orig[present] * sx
        ys = ys_orig[present] * sy
        lane_id = lane_idx + 1
        r_lo = max(0, int(np.ceil(ys.min() - 0.5)))
        r_hi = min(out_h - 1, int(np.floor(ys.max() - 0.5)))
        wrote = False
        for r in range(r_lo, r_hi + 1):
            x = float(np.interp(r + 0.5, ys, xs))
            left = int(np.floor(x - thickness / 2.0 + 0.5))
            lo, hi = max(0, left), min(out_w, left + thickness)
            if lo < hi:
                mask[r, lo:hi] = lane_id
                wrote = True
        if wrote:
            painted_any.append(lane_id)
    survivors = [i for i in painted_any if (mask == i).any()]
    relabel = np.zeros(len(ann.lanes) + 1, dtype=np.int32)
    for new, old in enumerate(survivors, start=1):
        relabel[old] = new
    return relabel[mask]


def _ordered_and_separated_ref(ann, spec):
    min_gap = (spec.width + 1) * (ORIG_W / MAP_W)
    lanes = np.asarray(ann.lanes, dtype=np.float64)
    for col in range(lanes.shape[1]):
        xs = lanes[:, col]
        xs = xs[xs >= 0]
        if len(xs) >= 2 and np.diff(np.sort(xs)).min() < min_gap:
            return False
    return True


def generate_ref(spec):
    """The library's earlier scene generator: one scalar polynomial per
    (lane, sample) and one separation check per sample column.  The random
    geometry comes from the library's ``_sample_geometry``, so both draw the
    same numbers; the mask comes from :func:`rasterize_ref`."""
    rng = np.random.default_rng(spec.seed)
    margin = 8.0 * (spec.width + 1)
    for _attempt in range(100):
        y_top, t_max, a, b, offsets = _sample_geometry(spec, rng)
        ts = np.linspace(0.0, t_max, 64)
        raw = offsets[:, None] + b[:, None] * ts[None, :] + a[:, None] * ts[None, :] ** 2
        lo, hi = raw.min(), raw.max()
        if hi - lo > ORIG_W - 2 * margin:
            continue
        center = (ORIG_W - (hi + lo)) / 2.0
        t_end = np.full(spec.lane_count, t_max)
        if spec.merge_split and spec.lane_count >= 2:
            victim = int(rng.integers(0, spec.lane_count))
            t_end[victim] = t_max * float(rng.uniform(0.45, 0.6))
        h_samples = list(range(160, ORIG_H - 9, 10))
        lanes = []
        for lane in range(spec.lane_count):
            row = []
            for y in h_samples:
                t = ORIG_H - y
                if t <= t_end[lane] and y >= y_top:
                    x = center + offsets[lane] + b[lane] * t + a[lane] * t * t
                    row.append(float(np.clip(round(x), 0, ORIG_W - 1)))
                else:
                    row.append(-2.0)
            lanes.append(tuple(row))
        ann = LaneAnnotation("synthetic", tuple(h_samples), tuple(lanes))
        if _ordered_and_separated_ref(ann, spec):
            return rasterize_ref(ann, (MAP_H, MAP_W), spec.width), ann
    raise SceneError(f"could not realize a non-crossing scene for {spec}")
