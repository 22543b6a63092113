"""Dataset ingestion, mask rasterization and geometric rescaling.

Annotations follow the highway-benchmark JSON-lines convention: each line
holds `raw_file`, `h_samples` (strictly increasing y positions sampled in the
original 720-px frame) and `lanes` (per-lane x positions aligned to h_samples,
-2 where the lane is absent).  Images are resized to 640x352 for the network;
label masks and fields live at 160x88, one eighth of the original capture.
"""
from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

log = logging.getLogger(__name__)

ORIG_W, ORIG_H = 1280, 720
NET_W, NET_H = 640, 352
MAP_W, MAP_H = 160, 88
LABEL_THICKNESS = 2  # lane stroke width in map px

_REQUIRED_KEYS = ("raw_file", "h_samples", "lanes")


def _require_list(what: str, value):
    # a JSON string would otherwise be iterated character by character
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _require_numbers(what: str, values, whole: bool = False) -> tuple:
    """A list of real numbers, as ints if *whole*; a bool or a string is an
    error, where int() and float() would turn true into 1 and "170" into 170."""
    values = _require_list(what, values)
    if not set(map(type, values)) <= ({int} if whole else {int, float}):
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise FormatError(f"{what} entry {i} must be a number, got {type(v).__name__}")
            if whole and not isinstance(v, numbers.Integral) and not float(v).is_integer():
                raise FormatError(f"{what} entry {i} must be a whole number, got {v!r}")
    return tuple(map(int if whole else float, values))


@dataclass(frozen=True)
class LaneAnnotation:
    raw_file: str
    h_samples: tuple[int, ...]
    lanes: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "h_samples",
                           _require_numbers("h_samples", self.h_samples, whole=True))
        object.__setattr__(self, "lanes", tuple(
            _require_numbers(f"lane {i}", lane)
            for i, lane in enumerate(_require_list("lanes", self.lanes))))
        for y in self.h_samples:
            if not 0 <= y <= ORIG_H - 1:
                raise FormatError(f"h_samples y={y} outside [0, {ORIG_H - 1}]")
        for above, y in zip(self.h_samples, self.h_samples[1:]):
            if y <= above:
                raise FormatError(f"h_samples must be strictly increasing: y={y} after y={above}")
        for i, lane in enumerate(self.lanes):
            if len(lane) != len(self.h_samples):
                raise FormatError(
                    f"lane {i} has {len(lane)} entries, expected {len(self.h_samples)}"
                )
            for x in lane:
                if x != -2 and not 0 <= x <= ORIG_W - 1:
                    raise FormatError(f"lane {i} x={x} outside [-2] U [0, {ORIG_W - 1}]")


def parse_tusimple(path: str, error_sink: list[str]) -> list[LaneAnnotation]:
    """Parse a JSON-lines label file.

    Malformed lines are reported (with 1-based line numbers) into error_sink,
    and parsing continues.
    """
    annotations: list[LaneAnnotation] = []

    def report(lineno: int, msg: str):
        error_sink.append(f"line {lineno}: {msg}")

    # undecodable bytes become lone surrogates, so only their lines fail to re-encode
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeEncodeError:
                report(lineno, "not valid UTF-8")
                continue
            except (ValueError, RecursionError) as e:
                report(lineno, f"invalid JSON ({getattr(e, 'msg', e)})")
                continue
            if not isinstance(obj, dict):
                report(lineno, f"expected a JSON object, got {type(obj).__name__}")
                continue
            missing = [k for k in _REQUIRED_KEYS if k not in obj]
            if missing:
                report(lineno, f"missing keys {missing}")
                continue
            try:
                annotations.append(
                    LaneAnnotation(str(obj["raw_file"]), obj["h_samples"], obj["lanes"])
                )
            except (FormatError, TypeError, ValueError, OverflowError) as e:
                report(lineno, str(e))
    return annotations


def serialize_annotation(ann: LaneAnnotation) -> str:
    """One JSON line in the benchmark schema; a non-finite x raises FormatError naming its
    lane, where JSON would get NaN or Infinity."""
    def fmt(x: float):
        return int(x) if float(x).is_integer() else x

    try:
        return json.dumps({
            "lanes": [[fmt(x) for x in lane] for lane in ann.lanes],
            "h_samples": list(ann.h_samples),
            "raw_file": ann.raw_file,
        }, allow_nan=False)
    except ValueError:
        for i, lane in enumerate(ann.lanes):
            if not all(math.isfinite(x) for x in lane):
                raise FormatError(f"lane {i} holds a non-finite x: {list(lane)}") from None
        raise


def rasterize(ann: LaneAnnotation, out_res: tuple[int, int] = (MAP_H, MAP_W),
              thickness: int = LABEL_THICKNESS) -> np.ndarray:
    """Stroke each lane polyline into an integer label mask.

    Coordinates scale from the original frame to out_res.  Each lane is
    painted one horizontal run per covered row (runs are therefore always
    contiguous); later lanes overwrite earlier ones.  Lanes with fewer than
    two present vertices are skipped.  Ids are compacted to 1..L afterwards.
    """
    if thickness < 1:
        raise ValueError(f"thickness must be >= 1, got {thickness}")
    out_h, out_w = out_res
    sx, sy = out_w / ORIG_W, out_h / ORIG_H
    mask = np.zeros((out_h, out_w), dtype=np.int32)
    cols = np.arange(out_w)
    ys_orig = np.asarray(ann.h_samples, dtype=np.float64)
    for lane_idx, lane in enumerate(ann.lanes):
        xs_orig = np.asarray(lane, dtype=np.float64)
        present = xs_orig >= 0
        if present.sum() < 2:
            if present.any():
                log.warning("lane %d has a single present vertex; skipped", lane_idx)
            continue
        # h_samples increase, so ys does and one interp call serves every row
        xs = xs_orig[present] * sx
        ys = ys_orig[present] * sy
        # cell-center convention: row r sees the polyline at scaled y = r + 0.5
        r_lo = max(0, int(np.ceil(ys[0] - 0.5)))
        r_hi = min(out_h - 1, int(np.floor(ys[-1] - 0.5)))
        rows = np.arange(r_lo, r_hi + 1)
        left = np.floor(np.interp(rows + 0.5, ys, xs) - thickness / 2.0 + 0.5)[:, None]
        mask[r_lo:r_lo + rows.size][(cols >= left) & (cols < left + thickness)] = lane_idx + 1
    # compact the ids that survived painting (overwrites can erase a lane);
    # np.bincount, not np.unique, whose first call costs ~1 MB of peak RSS
    survivors = np.flatnonzero(np.bincount(mask[mask > 0]))
    relabel = np.zeros(len(ann.lanes) + 1, dtype=np.int32)
    relabel[survivors] = np.arange(1, survivors.size + 1)
    return relabel[mask]


def lanes_to_annotation(decoded, h_samples, raw_file: str = "") -> LaneAnnotation:
    """Lift decoded map-resolution lanes back to annotation space.

    Each lane's per-row centroids are upscaled to the original frame and
    linearly interpolated at every h_sample inside the lane's vertical
    extent; samples outside the extent get -2.
    """
    sx, sy = ORIG_W / MAP_W, ORIG_H / MAP_H
    hs = np.asarray(h_samples, dtype=np.float64)
    lanes = []
    for lane in decoded.lanes:
        out = np.full(len(hs), -2.0)
        if lane.points:
            pts = np.asarray(lane.points, dtype=np.float64)
            # map cell index c spans original [c*s, (c+1)*s); its center is c + 0.5
            xs = (pts[:, 0] + 0.5) * sx
            ys = (pts[:, 1] + 0.5) * sy
            order = np.argsort(ys)
            xs, ys = xs[order], ys[order]
            inside = (hs >= ys[0]) & (hs <= ys[-1])
            out[inside] = np.clip(np.interp(hs[inside], ys, xs), 0.0, ORIG_W - 1)
        lanes.append(out.tolist())
    return LaneAnnotation(raw_file, tuple(int(y) for y in h_samples), lanes)
