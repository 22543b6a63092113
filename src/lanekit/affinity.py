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
seed new lanes, so the lane count is never assumed.  Rows are inherently
sequential (each depends on the assignment below it); frames, not rows, are
the unit of parallelism.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CodecError, ShapeError
from .matching import greedy_pairs, max_assignment


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
        h, w = self.cluster_map.shape
        payload = {
            "lanes": [
                {"id": ln.lane_id, "points": [[float(x), int(y)] for x, y in ln.points]}
                for ln in self.lanes
            ],
            "resolution": [h, w],
        }
        return json.dumps(payload)


class MaskRuns(NamedTuple):
    """One entry per (lane, row) run of a label mask, in ascending key order."""

    lane_count: int
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
    runs = MaskRuns(len(ids), keys[starts], ends - starts, cols[starts], cols[ends - 1])
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


def cluster_row_haf(haf_row: np.ndarray, fg_row: np.ndarray,
                    min_cluster_size: int = 1) -> list[np.ndarray]:
    """Split one row's foreground into clusters at non-positive -> positive
    transitions of the horizontal field, scanning left to right."""
    haf_row = np.asarray(haf_row, dtype=np.float32).reshape(-1)
    fg_row = np.asarray(fg_row).reshape(-1).astype(bool)
    if haf_row.shape != fg_row.shape:
        raise ShapeError(f"row lengths differ: haf {haf_row.shape}, fg {fg_row.shape}")
    # .nonzero()[0]: np.flatnonzero's wrapper costs as much as a sparse row's scan
    cols = fg_row.nonzero()[0]
    if not len(cols):
        return []
    h = haf_row[cols]
    # NaN compares false both ways, so it neither ends nor starts a cluster
    ends = [0, *(((h[:-1] <= 0) & (h[1:] > 0)).nonzero()[0] + 1).tolist(), len(cols)]
    return [cols[a:b] for a, b in zip(ends, ends[1:]) if b - a >= min_cluster_size]


@dataclass
class LaneTrack:
    """Decoder working state for one lane instance."""

    lane_id: int
    pixel_xs: np.ndarray      # xs of the most recent assigned row
    row: int                  # row index of those pixels
    points: list = field(default_factory=list)   # one (x, y) per assigned row


def association_error(tracks: list[LaneTrack], centroid_xs: list[float], row_above: int,
                      vaf: np.ndarray) -> np.ndarray:
    """(tracks, clusters) mean residuals of projecting a track's pixels onto a
    cluster centroid.

    Each pixel aims along its predicted vertical vector, scaled to its
    distance from the centroid; the residual is what remains.  One
    (clusters, all track pixels) array scores the row; each track's mean
    reduces its own contiguous columns, so it sums as it would alone.
    """
    counts = [len(t.pixel_xs) for t in tracks]
    xs = np.concatenate([t.pixel_xs for t in tracks])
    rows = np.repeat([t.row for t in tracks], counts)
    tx = np.asarray(centroid_xs, dtype=np.float64)[:, None] - xs.astype(np.float64)
    ty = (row_above - rows).astype(np.float64)
    dist = np.sqrt(tx * tx + ty * ty)
    vx = vaf[0, rows, xs].astype(np.float64)
    vy = vaf[1, rows, xs].astype(np.float64)
    rx = tx - vx * dist
    ry = ty - vy * dist
    res = np.sqrt(rx * rx + ry * ry)
    ends = np.cumsum(counts).tolist()
    return np.array([np.add.reduce(res[:, a:b], axis=1) / (b - a)
                     for a, b in zip([0] + ends, ends)])


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
    rows are discarded at the end.
    """
    seg_prob = np.asarray(seg_prob, dtype=np.float32)
    if seg_prob.shape != af.resolution:
        raise ShapeError(
            f"segmentation {tuple(seg_prob.shape)} does not match fields {af.resolution}"
        )
    h, w = seg_prob.shape
    fg = seg_prob >= cfg.fg_threshold
    cluster_map = np.zeros((h, w), dtype=np.int32)
    active: list[LaneTrack] = []
    finished: list[LaneTrack] = []
    next_id = 1
    for row in range(h - 1, -1, -1):
        clusters = cluster_row_haf(af.haf[row], fg[row], cfg.min_cluster_size)
        centroids = [float(np.add.reduce(cl, dtype=np.float64) / len(cl)) for cl in clusters]
        assignment = associate_clusters_vaf(
            active, centroids, af.vaf, row, cfg.assoc_threshold) if clusters else {}
        survivors: list[LaneTrack] = []
        for ti, track in enumerate(active):
            if ti in assignment:
                ci = assignment[ti]
                track.pixel_xs, track.row = clusters[ci], row
                track.points.append((centroids[ci], row))
                cluster_map[row, clusters[ci]] = track.lane_id
            if track.row - row > cfg.max_gap_rows:
                finished.append(track)
            else:
                survivors.append(track)
        matched = set(assignment.values())
        for ci, cl in enumerate(clusters):
            if ci not in matched:
                survivors.append(LaneTrack(next_id, cl, row, points=[(centroids[ci], row)]))
                cluster_map[row, cl] = next_id
                next_id += 1
        active = survivors
    finished.extend(active)

    kept = sorted((t for t in finished if len(t.points) >= cfg.min_lane_rows),
                  key=lambda t: t.lane_id)
    relabel = np.zeros(next_id, dtype=np.int32)
    relabel[[t.lane_id for t in kept]] = np.arange(1, len(kept) + 1)
    lanes = tuple(DecodedLane(i, tuple(t.points)) for i, t in enumerate(kept, 1))
    return DecodedLanes(lanes, relabel[cluster_map])


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
