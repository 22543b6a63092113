"""Benchmark-style scoring of lane predictions against annotations.

A predicted vertex is correct when its x lies within px_threshold of the
ground truth at the same sampled y.  Predicted lanes are matched one-to-one
to ground-truth lanes greedily by descending per-lane vertex accuracy; a
matched lane whose accuracy falls below lane_match_threshold still counts
as a false positive.  Dataset-level ratios are recomputed from pooled
counts, never averaged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LaneAnnotation
from .errors import EvalError
from .matching import greedy_pairs


@dataclass(frozen=True)
class EvalConfig:
    px_threshold: float = 20.0
    lane_match_threshold: float = 0.85

    def __post_init__(self):
        if not (self.px_threshold > 0 and self.lane_match_threshold > 0):
            raise ValueError("eval thresholds must be positive")


@dataclass(frozen=True)
class EvalCounts:
    correct_vertices: int
    gt_vertices: int
    false_lanes: int
    pred_lanes: int
    missed_lanes: int
    gt_lanes: int

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(*(a + b for a, b in zip(self._tuple(), other._tuple())))

    def _tuple(self):
        return (self.correct_vertices, self.gt_vertices, self.false_lanes,
                self.pred_lanes, self.missed_lanes, self.gt_lanes)


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    fp_rate: float
    fn_rate: float
    f1: float
    counts: EvalCounts

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "fp": self.fp_rate,
            "fn": self.fn_rate,
            "f1": self.f1,
            "counts": self.counts.__dict__,
        }


def f1_from_rates(accuracy: float, fp_rate: float, fn_rate: float) -> float:
    """F1 built directly from the benchmark ratios, treating accuracy as TP:
    precision = acc/(acc+fp), recall = acc/(acc+fn)."""
    for name, v in (("accuracy", accuracy), ("fp_rate", fp_rate), ("fn_rate", fn_rate)):
        if not 0.0 <= v <= 1.0:
            raise EvalError(f"{name} must be in [0, 1], got {v}")
    if accuracy + fp_rate == 0 or accuracy + fn_rate == 0:
        raise EvalError("F1 undefined: zero precision/recall denominator")
    precision = accuracy / (accuracy + fp_rate)
    recall = accuracy / (accuracy + fn_rate)
    if precision + recall == 0:
        raise EvalError("F1 undefined: precision + recall is zero")
    return 2.0 * precision * recall / (precision + recall)


def evaluate_frame(pred: LaneAnnotation, gt: LaneAnnotation,
                   cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Score one frame's predicted lanes against its annotation."""
    if list(pred.h_samples) != list(gt.h_samples):
        raise EvalError(
            f"h_samples differ between prediction and ground truth "
            f"({len(pred.h_samples)} vs {len(gt.h_samples)} entries)"
        )
    n = len(gt.h_samples)
    pred_xs = np.asarray(pred.lanes, dtype=np.float64).reshape(len(pred.lanes), n)
    gt_xs = np.asarray(gt.lanes, dtype=np.float64).reshape(len(gt.lanes), n)
    # ground-truth lanes with no present vertex carry no signal; drop them
    gt_xs = gt_xs[(gt_xs >= 0).any(axis=1)]
    gt_present = gt_xs >= 0
    n_gt = gt_present.sum(axis=1)

    # (pred, gt, sample): a vertex is correct where both are present and close
    ok = (gt_present & (pred_xs[:, None] >= 0)
          & (np.abs(pred_xs[:, None] - gt_xs) <= cfg.px_threshold))
    hits = ok.sum(axis=2)
    acc = hits / n_gt
    pairs = greedy_pairs(-acc, np.ones(acc.shape, dtype=bool))
    correct = sum(int(hits[p, g]) for p, g in pairs.items())
    # unmatched predictions and matches below the lane threshold are false
    false_lanes = len(pred_xs) - sum(int(acc[p, g] >= cfg.lane_match_threshold)
                                     for p, g in pairs.items())
    missed = len(gt_xs) - len(pairs)
    counts = EvalCounts(correct, int(n_gt.sum()), false_lanes, len(pred_xs),
                        missed, len(gt_xs))
    return _result_from_counts(counts)


def _result_from_counts(c: EvalCounts) -> EvalResult:
    accuracy = c.correct_vertices / c.gt_vertices if c.gt_vertices else 0.0
    fp = c.false_lanes / c.pred_lanes if c.pred_lanes else 0.0
    fn = c.missed_lanes / c.gt_lanes if c.gt_lanes else 0.0
    try:
        f1 = f1_from_rates(accuracy, fp, fn)
    except EvalError:
        f1 = 0.0
    return EvalResult(accuracy, fp, fn, f1, c)


def aggregate(results: list[EvalResult]) -> EvalResult:
    """Pool frame counts and recompute the ratios from the sums."""
    if not results:
        raise EvalError("cannot aggregate an empty result list")
    total = results[0].counts
    for r in results[1:]:
        total = total + r.counts
    return _result_from_counts(total)
