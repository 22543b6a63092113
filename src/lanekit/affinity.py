"""Horizontal/vertical affinity-field encoding and lane-instance decoding.

Encoding reads a label mask as one pixel run per (lane, row).  Every
lane pixel gets a horizontal value in {-1, 0, +1} pointing toward the lane's
center in its own row, and a 2-D unit vector pointing toward the lane's
center in the row above (the top row of a lane points straight up).

Decoding inverts this without any learned component: threshold the
segmentation map, split each row into clusters wherever the horizontal field
flips from non-positive to positive, then stitch clusters onto lane tracks
using the vertical field.  A cluster is charged, per active lane, the mean
residual between the cluster centroid and the lane pixels projected along
their predicted vertical vectors; lanes and clusters are matched greedily in
ascending error, one-to-one (`matching.greedy_pairs`).  Unmatched clusters
seed new lanes, so the lane count is never assumed.  A frame's clusters and
their pairwise errors are computed as whole-frame arrays; only the matching
runs row by row, because each row depends on the assignment below it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CodecError, FormatError, ShapeError
from .matching import greedy_pairs, max_assignment

RESIDUAL_BLOCK = 1 << 15   # residual-kernel elements per block: ~3 MB of float64 temporaries


@dataclass(frozen=True)
class AffinityPair:
    """haf: (H, W) x-component field; vaf: (2, H, W) unit-vector field."""

    haf: np.ndarray
    vaf: np.ndarray

    def __post_init__(self):
        haf = np.asarray(self.haf, dtype=np.float32)
        vaf = np.asarray(self.vaf, dtype=np.float32)
        if haf.ndim != 2 or vaf.shape != (2,) + haf.shape:
            raise ShapeError(
                f"field shapes disagree: haf {tuple(haf.shape)}, vaf {tuple(vaf.shape)}"
            )
        object.__setattr__(self, "haf", haf)
        object.__setattr__(self, "vaf", vaf)

    @property
    def resolution(self) -> tuple[int, int]:
        return self.haf.shape


@dataclass(frozen=True)
class DecodeConfig:
    fg_threshold: float = 0.5
    assoc_threshold: float = 12.0
    min_cluster_size: int = 2
    min_lane_rows: int = 5
    max_gap_rows: int = 2

    def __post_init__(self):
        if not 0.0 < self.fg_threshold < 1.0:
            raise ValueError(f"fg_threshold must be in (0,1), got {self.fg_threshold}")
        if not self.assoc_threshold > 0:
            raise ValueError(f"assoc_threshold must be positive, got {self.assoc_threshold}")
        for name, low in (("min_cluster_size", 1), ("min_lane_rows", 1), ("max_gap_rows", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class DecodedLane:
    lane_id: int
    points: tuple[tuple[float, int], ...]   # (x, y), y strictly decreasing


@dataclass(frozen=True)
class DecodedLanes:
    lanes: tuple[DecodedLane, ...]
    cluster_map: np.ndarray                 # (H, W) int, 0 = unassigned

    def to_json(self) -> str:
        """The lanes and the map size as JSON; a non-finite x raises FormatError naming its
        lane, where JSON would get NaN or Infinity."""
        h, w = self.cluster_map.shape
        payload = {
            "lanes": [
                {"id": ln.lane_id, "points": [[float(x), int(y)] for x, y in ln.points]}
                for ln in self.lanes
            ],
            "resolution": [h, w],
        }
        try:
            return json.dumps(payload, allow_nan=False)
        except ValueError:
            for ln in self.lanes:
                if not all(math.isfinite(x) for x, _ in ln.points):
                    raise FormatError(f"lane {ln.lane_id} holds a non-finite x: "
                                      f"{list(ln.points)}") from None
            raise


class MaskRuns(NamedTuple):
    """One entry per (lane, row) run of a label mask, in ascending key order."""

    key: np.ndarray        # lane * H + row
    count: np.ndarray      # pixels in the run
    col_min: np.ndarray
    col_max: np.ndarray


def validate_mask(mask: np.ndarray) -> MaskRuns:
    """Check the label-mask contract; returns the mask's run table.

    Lane ids must be contiguous 1..L and each lane's pixels in any row must
    form one contiguous run.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise CodecError(f"mask must be 2-D, got shape {tuple(mask.shape)}")
    ids = np.unique(mask[mask > 0])
    if len(ids) and not np.array_equal(ids, np.arange(1, len(ids) + 1)):
        raise CodecError(f"lane ids must be contiguous 1..L, got {ids.tolist()}")
    h = mask.shape[0]
    rows, cols = np.nonzero(mask > 0)
    keys = mask[rows, cols].astype(np.int64) * h + rows
    # a stable sort keeps each run's columns ascending, so its ends are min/max
    order = np.argsort(keys, kind="stable")
    keys, cols = keys[order], cols[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    ends = np.flatnonzero(np.diff(keys, append=-1)) + 1
    runs = MaskRuns(keys[starts], ends - starts, cols[starts], cols[ends - 1])
    bad = np.flatnonzero(runs.col_max - runs.col_min + 1 != runs.count)
    if len(bad):
        lane, row = divmod(runs.key[bad[0]], h)
        raise CodecError(f"lane {lane} row {row} is not a contiguous run")
    return runs


def encode_affinities(mask: np.ndarray) -> AffinityPair:
    """Ground-truth fields from a label mask (0 = background, k = lane k)."""
    mask = np.asarray(mask)
    runs = validate_mask(mask)
    h, w = mask.shape
    rows, cols = np.nonzero(mask > 0)
    run = np.searchsorted(runs.key, mask[rows, cols].astype(np.int64) * h + rows)
    # every run is contiguous, so its mean column is the midpoint of its ends
    center = (runs.col_min + runs.col_max) / 2.0
    # the run above is the previous run when that is the same lane, one row up
    has_up = np.r_[False, np.diff(runs.key) == 1] & (runs.key % h != 0)
    up = np.r_[0.0, center[:-1]]
    xs = cols.astype(np.float64)
    # a lane's top row points straight up: dx = 0 gives (0, -1)
    dx = np.where(has_up[run], up[run] - xs, 0.0)
    norm = np.sqrt(dx * dx + 1.0)
    haf = np.zeros((h, w), dtype=np.float32)
    vaf = np.zeros((2, h, w), dtype=np.float32)
    haf[rows, cols] = np.sign(center[run] - xs)
    vaf[0, rows, cols] = dx / norm
    vaf[1, rows, cols] = -1.0 / norm
    return AffinityPair(haf, vaf)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [start, start + count) of each pair, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _clusters(rows: np.ndarray, hv: np.ndarray, min_cluster_size: int):
    """(start, count) of each cluster of row-major foreground pixels with
    horizontal field values hv: one starts where the row changes or hv goes
    from <= 0 to > 0 (NaN compares false both ways: it neither ends nor starts one)."""
    start = np.flatnonzero(np.concatenate((
        [len(hv) > 0], (rows[1:] != rows[:-1]) | ((hv[:-1] <= 0) & (hv[1:] > 0)))))
    count = np.diff(start, append=len(hv))
    return start[count >= min_cluster_size], count[count >= min_cluster_size]


def cluster_row_haf(haf_row: np.ndarray, fg_row: np.ndarray,
                    min_cluster_size: int = 1) -> list[np.ndarray]:
    """Split one row's foreground into clusters at non-positive -> positive
    transitions of the horizontal field, scanning left to right."""
    haf_row = np.asarray(haf_row, dtype=np.float32).reshape(-1)
    fg_row = np.asarray(fg_row).reshape(-1).astype(bool)
    if haf_row.shape != fg_row.shape:
        raise ShapeError(f"row lengths differ: haf {haf_row.shape}, fg {fg_row.shape}")
    cols = fg_row.nonzero()[0]
    start, count = _clusters(np.zeros_like(cols), haf_row[cols], min_cluster_size)
    return [cols[a:a + n] for a, n in zip(start.tolist(), count.tolist())]


def _mean_residuals(cx, dy, start, count, xs, vx, vy) -> np.ndarray:
    """Mean residual of each pair of a centroid cx, dy rows from its pixels
    (one dy, or one per pair), and the pixels start .. start + count - 1 of
    (xs, vx, vy): each pixel aims along its vertical vector, scaled to its
    distance from the centroid, and misses by the residual.  Each run is
    summed behind a zero, as np.add.reduceat adds a run's first element
    outside numpy's pairwise sum: so a pair sums as its pixels would alone."""
    n = count + 1
    seg = np.cumsum(n) - n
    pix = _ranges(start - 1, n)
    tx = np.repeat(cx, n) - xs[pix]
    ty = np.repeat(dy, n) if np.ndim(dy) else dy
    dist = np.sqrt(tx * tx + ty * ty)
    rx = tx - vx[pix] * dist
    ry = ty - vy[pix] * dist
    res = np.sqrt(rx * rx + ry * ry)
    res[seg] = 0.0
    return np.add.reduceat(res, seg) / count


@dataclass
class LaneTrack:
    """A lane's most recent row of pixels, as `association_error` scores it."""

    lane_id: int
    pixel_xs: np.ndarray      # xs of the most recent assigned row
    row: int                  # row index of those pixels
    points: list = field(default_factory=list)   # one (x, y) per assigned row


def association_error(tracks: list[LaneTrack], centroid_xs: list[float], row_above: int,
                      vaf: np.ndarray) -> np.ndarray:
    """(tracks, clusters) mean residuals of projecting a track's pixels onto a
    cluster centroid, each summed as it would be alone."""
    counts = np.array([len(t.pixel_xs) for t in tracks])
    xs = np.concatenate([t.pixel_xs for t in tracks])
    rows = np.repeat([t.row for t in tracks], counts)
    pair = np.repeat(np.arange(len(tracks)), len(centroid_xs))   # (track, cluster) pairs
    dy = np.array([float(row_above - t.row) for t in tracks])[pair]
    err = _mean_residuals(np.tile(np.asarray(centroid_xs, dtype=np.float64), len(tracks)), dy,
                          (np.cumsum(counts) - counts)[pair], counts[pair], xs.astype(np.float64),
                          *vaf[:, rows, xs].astype(np.float64))
    return err.reshape(len(tracks), len(centroid_xs))


def associate_clusters_vaf(tracks: list[LaneTrack], centroid_xs: list[float],
                           vaf: np.ndarray, row_above: int,
                           assoc_threshold: float = 12.0) -> dict[int, int]:
    """One-to-one greedy matching of active tracks to row cluster centroids.

    Returns {track index -> cluster index}; pairs are taken in ascending
    association error and rejected above assoc_threshold.
    """
    if not tracks:
        return {}
    err = association_error(tracks, centroid_xs, row_above, vaf)
    return greedy_pairs(err, err <= assoc_threshold)


def decode(seg_prob: np.ndarray, af: AffinityPair,
           cfg: DecodeConfig = DecodeConfig()) -> DecodedLanes:
    """Cluster a thresholded segmentation map into lane instances.

    Rows are processed bottom to top.  The lowest populated row seeds the
    initial lanes; later rows are matched through the vertical field, and
    clusters nobody claims start new lanes, so merge/split scenes and any
    lane count are handled.  Lanes covering fewer than cfg.min_lane_rows
    rows are discarded at the end.  A track is its lane's latest cluster: if
    it lies `g` rows below a row, its errors come from a table of every
    (cluster, cluster `g` rows below) pair, filled a block of rows at a time.
    """
    seg_prob = np.asarray(seg_prob, dtype=np.float32)
    if seg_prob.shape != af.resolution:
        raise ShapeError(
            f"segmentation {tuple(seg_prob.shape)} does not match fields {af.resolution}"
        )
    h, w = seg_prob.shape
    rows, cols = (seg_prob >= cfg.fg_threshold).nonzero()
    start, count = _clusters(rows, af.haf[rows, cols], cfg.min_cluster_size)
    crow = rows[start]
    csum = np.concatenate(([0], np.cumsum(cols)))   # exact, as float64 sums of columns are
    cent = (csum[start + count] - csum[start]) / count
    first = np.searchsorted(crow, np.arange(h + 1))      # row r: clusters first[r]..
    pixels = (cols.astype(np.float64), *af.vaf[:, rows, cols].astype(np.float64))
    crow_r, first_r = crow.tolist(), first.tolist()
    layouts: dict[int, tuple] = {}     # gap -> (offsets, targets per source, elements per row)
    blocks: dict[int, tuple] = {}      # gap -> (the current block's errors, its first source)

    def errors(c: int, r: int) -> np.ndarray:
        """Errors of cluster c against each cluster of row r above it."""
        g = crow_r[c] - r
        if g not in layouts:
            nt = np.where(crow >= g, np.diff(first)[crow - g], 0)
            off, elems = (np.concatenate(([0], np.cumsum(v))) for v in (nt, nt * (count + 1)))
            layouts[g] = off.tolist(), nt, elems[first]
        off, nt, elems = layouts[g]
        res, lo = blocks.get(g, (None, len(crow)))
        if c < lo:   # next block: whole rows from c's down, RESIDUAL_BLOCK elements or one row
            row = crow_r[c]
            lo = first_r[min(row, int(np.searchsorted(elems, elems[row + 1] - RESIDUAL_BLOCK)))]
            top = first_r[row + 1]
            src = np.repeat(np.arange(lo, top), nt[lo:top])
            res = _mean_residuals(cent[_ranges(first[crow[lo:top] - g], nt[lo:top])], float(-g),
                                  start[src], count[src], *pixels)
            blocks[g] = res, lo
        return res[off[c] - off[lo]:off[c + 1] - off[lo]]

    lanes: list[list[int]] = []        # each lane's clusters bottom up, in order of start
    active: list[int] = []             # the lane of each active track, in track order
    for r in range(h - 1, -1, -1):
        a, b = first_r[r], first_r[r + 1]
        if b > a:
            err = np.array([errors(lanes[k][-1], r) for k in active]).reshape(len(active), b - a)
            pairs = greedy_pairs(err, err <= cfg.assoc_threshold)
            for ti, ci in pairs.items():
                lanes[active[ti]].append(a + ci)
            claimed = set(pairs.values())
            new = [[a + ci] for ci in range(b - a) if ci not in claimed]
            active += range(len(lanes), len(lanes) + len(new))
            lanes += new
        active = [k for k in active if crow_r[lanes[k][-1]] - r <= cfg.max_gap_rows]

    kept = [cl for cl in lanes if len(cl) >= cfg.min_lane_rows]
    lane = np.zeros(len(crow), dtype=np.int32)
    for i, cl in enumerate(kept, 1):
        lane[cl] = i
    cluster_map = np.zeros((h, w), dtype=np.int32)
    pix = _ranges(start, count)
    cluster_map[rows[pix], cols[pix]] = np.repeat(lane, count)
    cent_r = cent.tolist()
    return DecodedLanes(tuple(DecodedLane(i, tuple((cent_r[c], crow_r[c]) for c in cl))
                              for i, cl in enumerate(kept, 1)), cluster_map)


def best_label_agreement(gt_mask: np.ndarray, cluster_map: np.ndarray) -> float:
    """Fraction of ground-truth foreground pixels whose decoded label matches
    the lane id under the best injective label permutation, solved exactly."""
    gt_mask = np.asarray(gt_mask)
    cluster_map = np.asarray(cluster_map)
    if gt_mask.shape != cluster_map.shape:
        raise ShapeError(
            f"mask {tuple(gt_mask.shape)} vs cluster map {tuple(cluster_map.shape)}"
        )
    fg = gt_mask > 0
    total = int(fg.sum())
    if total == 0:
        return 1.0
    gt_ids = np.unique(gt_mask[fg])
    pred_ids = np.unique(cluster_map[fg])
    pred_ids = pred_ids[pred_ids > 0]
    labels = cluster_map[fg]
    claimed = labels > 0
    contingency = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    np.add.at(contingency, (np.searchsorted(gt_ids, gt_mask[fg][claimed]),
                            np.searchsorted(pred_ids, labels[claimed])), 1)
    return sum(int(contingency[g, p]) for g, p in max_assignment(contingency)) / total
