"""Parametric synthetic lane scenes for codec round-trip and property tests.

Lanes are quadratics x(t) = c + b*t + a*t^2 in original-frame coordinates,
with t the height above the bottom edge.  All lanes share a road-level
curvature and slope; per-lane deviations are bounded by the requested
spacing so generated lanes can never cross.  Scenes are deterministic per
seed and rasterize through the standard dataset path, so a scene exercises
exactly the mask contract the codec sees in production.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import AffinityPair, DecodeConfig, best_label_agreement, decode, encode_affinities
from .dataset import MAP_H, MAP_W, ORIG_H, ORIG_W, LaneAnnotation, rasterize
from .errors import SceneError

H_SAMPLES = np.arange(160, ORIG_H - 9, 10)  # the y rows every scene samples


@dataclass(frozen=True)
class SceneSpec:
    lane_count: int = 4
    curvature: tuple[float, float] = (-2.2e-4, 2.2e-4)
    spacing: float = 18.0          # map-scale px between adjacent lanes at the bottom
    width: int = 2                 # stroke thickness at map scale
    merge_split: bool = False      # one lane terminates mid-image
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.lane_count <= 6:
            raise ValueError(f"lane_count must be in 1..6, got {self.lane_count}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        # NaN fails every comparison, so it breaks both rules
        if not 3 * self.width <= self.spacing <= MAP_W:
            raise ValueError(f"spacing must be in [3*width, {MAP_W}] = "
                             f"[{3 * self.width}, {MAP_W}], got {self.spacing}")
        if not -1 <= self.curvature[0] <= self.curvature[1] <= 1:
            raise ValueError(f"curvature must be (low, high) in [-1, 1], got {self.curvature}")


def _sample_geometry(spec: SceneSpec, rng: np.random.Generator):
    L = spec.lane_count
    sp = spec.spacing * (ORIG_W / MAP_W)
    y_top = float(rng.uniform(200.0, 280.0))
    t_max = ORIG_H - y_top
    a_road = float(rng.uniform(*spec.curvature))
    b_road = float(rng.uniform(-0.3, 0.3))
    # per-lane deviations small enough that adjacent gaps keep >= 3/4 spacing
    da = rng.uniform(-sp / (16 * t_max**2), sp / (16 * t_max**2), L)
    db = rng.uniform(-sp / (16 * t_max), sp / (16 * t_max), L)
    offsets = (np.arange(L) - (L - 1) / 2.0) * sp
    return y_top, t_max, a_road + da, b_road + db, offsets


def generate(spec: SceneSpec) -> tuple[np.ndarray, LaneAnnotation]:
    """Deterministically build (label mask, annotation) for a scene spec."""
    rng = np.random.default_rng(spec.seed)
    margin = 8.0 * (spec.width + 1)  # original-frame px clear of the borders
    for _attempt in range(100):
        y_top, t_max, a, b, offsets = _sample_geometry(spec, rng)
        ts = np.linspace(0.0, t_max, 64)
        raw = offsets[:, None] + b[:, None] * ts[None, :] + a[:, None] * ts[None, :] ** 2
        lo, hi = raw.min(), raw.max()
        if hi - lo > ORIG_W - 2 * margin:
            continue  # envelope cannot fit; resample
        center = (ORIG_W - (hi + lo)) / 2.0

        t_end = np.full(spec.lane_count, t_max)
        if spec.merge_split and spec.lane_count >= 2:
            victim = int(rng.integers(0, spec.lane_count))
            t_end[victim] = t_max * float(rng.uniform(0.45, 0.6))

        t = ORIG_H - H_SAMPLES
        xs = center + offsets[:, None] + b[:, None] * t + (a[:, None] * t) * t
        xs = np.where((t <= t_end[:, None]) & (H_SAMPLES >= y_top),
                      np.clip(np.round(xs), 0, ORIG_W - 1), -2.0)
        if _ordered_and_separated(xs, spec):
            ann = LaneAnnotation("synthetic", H_SAMPLES.tolist(), xs.tolist())
            return rasterize(ann, (MAP_H, MAP_W), spec.width), ann
    raise SceneError(f"could not realize a non-crossing scene for {spec}")


def _ordered_and_separated(xs: np.ndarray, spec: SceneSpec) -> bool:
    """Per-row x ordering with at least width+1 map px between the present
    lanes of *xs* (lanes x samples, -2 where absent)."""
    min_gap = (spec.width + 1) * (ORIG_W / MAP_W)
    # an absent vertex becomes NaN, which sorts last and fails every comparison
    present = np.sort(np.where(xs >= 0, xs, np.nan), axis=0)
    return not (np.diff(present, axis=0) < min_gap).any()


def perturb_fields(af: AffinityPair, sigma: float, seed: int = 0) -> AffinityPair:
    """Rotate field vectors on foreground by seeded Gaussian angles.

    Vertical vectors are re-normalized to unit length; the horizontal
    component is scaled by the cosine of its own rotation.  sigma=0 is an
    exact identity; sigma must be finite and draw float32 angles that are.
    """
    if not 0 <= sigma < np.inf:  # NaN fails both
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return af
    rng = np.random.default_rng(seed)
    haf = af.haf.copy()
    vaf = af.vaf.copy()
    fg = (af.haf != 0) | (af.vaf[0] != 0) | (af.vaf[1] != 0)
    n = int(fg.sum())
    with np.errstate(over="ignore"):  # an angle past float32's range casts to inf
        theta = rng.normal(0.0, sigma, (2, n)).astype(np.float32)
    if not np.isfinite(theta).all():
        raise ValueError(f"sigma {sigma} draws angles beyond float32's range")
    theta_h, theta_v = theta
    haf[fg] = haf[fg] * np.cos(theta_h)
    c, s = np.cos(theta_v), np.sin(theta_v)
    vx, vy = vaf[0][fg], vaf[1][fg]
    rx, ry = c * vx - s * vy, s * vx + c * vy
    norm = np.sqrt(rx * rx + ry * ry)
    norm[norm == 0] = 1.0
    vaf[0][fg] = rx / norm
    vaf[1][fg] = ry / norm
    return AffinityPair(haf, vaf)


def random_scene_spec(seed: int) -> SceneSpec:
    """A varied scene spec (lane count, curvature, spacing) from one seed."""
    rng = np.random.default_rng(seed)
    lane_count = int(rng.integers(1, 7))
    span = float(rng.uniform(0.4, 1.0)) * 2.2e-4
    sp_hi = min(22.0, 116.0 / max(lane_count - 1, 1))
    spacing = float(rng.uniform(10.0, max(10.5, sp_hi)))
    merge = lane_count >= 2 and rng.random() < 0.2
    return SceneSpec(lane_count=lane_count, curvature=(-span, span),
                     spacing=spacing, merge_split=merge, seed=seed)


def roundtrip_scene(spec: SceneSpec, cfg: DecodeConfig = DecodeConfig(),
                    sigma: float = 0.0, noise_seed: int = 0):
    """generate -> encode -> (perturb) -> decode.

    Returns (agreement, gt lane count, decoded lane count, foreground pixels)
    so callers can pool agreement over many scenes by pixel weight.
    """
    mask, _ann = generate(spec)
    af = perturb_fields(encode_affinities(mask), sigma, noise_seed)
    decoded = decode((mask > 0).astype(np.float32), af, cfg)
    agreement = best_label_agreement(mask, decoded.cluster_map)
    return agreement, int(mask.max()), len(decoded.lanes), int((mask > 0).sum())


__all__ = [
    "SceneSpec", "generate", "perturb_fields", "random_scene_spec",
    "roundtrip_scene",
]
