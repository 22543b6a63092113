"""lanecli: command-line front end for the lane toolkit.

Exit codes: 0 success, 2 input/format error, 3 evaluation mismatch,
4 internal invariant violation.  Every command that produces files writes a
`manifest.json` beside them echoing the resolved configuration, so a run can
be reproduced bit-for-bit.  Numeric flag defaults come straight from the
library's config dataclasses and constants; CLI and library cannot drift.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, arch, dataset, synth
from . import tensor as T
from .affinity import AffinityPair, DecodeConfig, decode, encode_affinities
from .errors import (CodecError, EvalError, FormatError, IntegrityError,
                     LanekitError, SceneError, ShapeError)
from .evaluate import EvalConfig, aggregate, evaluate_frame
from .losses import total_loss

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EVAL = 3
EXIT_INVARIANT = 4

_DECODE_DEFAULTS = DecodeConfig()
_EVAL_DEFAULTS = EvalConfig()
_SCENE_DEFAULTS = synth.SceneSpec()
# NaN and infinities are not JSON: a non-finite value raises, so the command exits 2
_dumps = functools.partial(json.dumps, sort_keys=True, allow_nan=False)


def _write_manifest(directory: str, command: str, config: dict,
                    inputs: list[str], outputs: list[str]) -> None:
    def rel(path: str) -> str:
        # keep manifests byte-identical across output locations
        try:
            return os.path.relpath(path, directory)
        except ValueError:
            return path

    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": sorted(inputs),
        "outputs": sorted(rel(p) for p in outputs),
    }
    blob = _dumps(manifest, indent=2).encode() + b"\n"
    T.atomic_write_bytes(os.path.join(directory, "manifest.json"), blob)


def _parse_res(text: str, limit: tuple[int, int] | None = None) -> tuple[int, int]:
    """'WxH' -> (H, W), both positive and, given a (W, H) limit, at most it."""
    try:
        w, h = (int(v) for v in text.lower().split("x"))
    except ValueError:
        w = h = 0
    lw, lh = limit or (w, h)  # without a limit, only positivity is checked
    if not (0 < w <= lw and 0 < h <= lh):
        bound = f" and at most {lw}x{lh}" if limit else ""
        raise FormatError(f"bad resolution {text!r}, expected WxH, both positive{bound}")
    return h, w


def _finite_float(text: str) -> float:
    """argparse type: a finite float, so nan and inf exit 2."""
    if np.isfinite(value := float(text)):
        return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _emit(obj: dict) -> None:
    print(_dumps(obj, indent=2))


def _load_map(path: str, channels: int) -> np.ndarray:
    """Load an .aft map of finite values and squeeze it to (H, W) or (C, H, W)."""
    arr = _finite(T.load_tensor(path), path)
    ndim = 2 if channels == 1 else 3
    while arr.ndim > ndim and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != ndim or (channels > 1 and arr.shape[0] != channels):
        raise FormatError(f"{path}: expected a {channels}-channel map, got {arr.shape}")
    return arr


def _finite(arr: np.ndarray, path: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: holds NaN or inf; expected finite values")
    return arr


# ----------------------------------------------------------------- commands

def cmd_encode(args) -> int:
    errors: list[str] = []
    annotations = dataset.parse_tusimple(args.labels, error_sink=errors)
    res = _parse_res(args.res, (dataset.ORIG_W, dataset.ORIG_H))
    for msg in errors:
        print(f"encode: {args.labels}: {msg}", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)

    outputs = []
    failed = bool(errors)
    for i, ann in enumerate(annotations):
        try:
            mask = dataset.rasterize(ann, res, args.thickness)
            af = encode_affinities(mask)
        except LanekitError as e:
            print(f"encode: frame {i}: {e}", file=sys.stderr)
            failed = True
            continue
        stem = os.path.join(args.out, f"{i:06d}")
        T.save_tensor(stem + ".mask.aft", mask.astype(np.float32))
        T.save_tensor(stem + ".haf.aft", af.haf)
        T.save_tensor(stem + ".vaf.aft", af.vaf)
        outputs += [stem + ".mask.aft", stem + ".haf.aft", stem + ".vaf.aft"]
    _write_manifest(args.out, "encode",
                    {"labels": args.labels, "thickness": args.thickness,
                     "res": args.res, "frames": len(annotations)},
                    [args.labels], outputs)
    return EXIT_INPUT if failed else EXIT_OK


def cmd_decode(args) -> int:
    seg = _load_map(args.seg, 1)
    haf = _load_map(args.haf, 1)
    vaf = _load_map(args.vaf, 2)
    if haf.shape != seg.shape or vaf.shape[1:] != seg.shape:
        raise FormatError(
            f"map resolutions differ: seg {seg.shape}, haf {haf.shape}, vaf {vaf.shape}"
        )
    cfg = _decode_config(args)
    result = decode(seg, AffinityPair(haf, vaf), cfg)
    payload = json.loads(result.to_json())
    payload["version"] = __version__
    payload["config"] = cfg.__dict__
    T.atomic_write_bytes(args.out, (_dumps(payload) + "\n").encode())
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _write_manifest(out_dir, "decode", cfg.__dict__,
                    [args.seg, args.haf, args.vaf], [args.out])
    print(f"decoded {len(result.lanes)} lanes -> {args.out}")
    return EXIT_OK


def _read_labels(path: str) -> dict[str, dataset.LaneAnnotation] | None:
    """Frames of one eval label file by raw_file; None, with each fault
    reported, when a line is malformed or a raw_file repeats."""
    errors: list[str] = []
    by_file: dict[str, dataset.LaneAnnotation] = {}
    for ann in dataset.parse_tusimple(path, error_sink=errors):
        if ann.raw_file in by_file:
            errors.append(f"raw_file {ann.raw_file!r} appears more than once")
        by_file[ann.raw_file] = ann
    for msg in errors:
        print(f"eval: {path}: {msg}", file=sys.stderr)
    return None if errors else by_file


def cmd_eval(args) -> int:
    gt, pred = _read_labels(args.gt), _read_labels(args.pred)
    if gt is None or pred is None:
        return EXIT_INPUT
    missing = [name for name in gt if name not in pred]
    if missing:
        for name in missing:
            print(f"eval: no prediction for frame {name}", file=sys.stderr)
        return EXIT_EVAL
    extra = set(pred) - set(gt)
    for name in sorted(extra):
        print(f"eval: ignoring prediction without ground truth: {name}", file=sys.stderr)
    cfg = EvalConfig(px_threshold=args.px_thresh, lane_match_threshold=args.lane_thresh)
    results = [evaluate_frame(pred[name], ann, cfg) for name, ann in gt.items()]
    pooled = aggregate(results)
    payload = {"version": __version__, "config": cfg.__dict__,
               "frames": len(results), **pooled.to_dict()}
    if args.table:
        print(f"{'Frames':>8} {'Accuracy (%)':>13} {'FP':>8} {'FN':>8} {'F1 (%)':>8}")
        print(f"{len(results):>8} {100 * pooled.accuracy:>13.2f} "
              f"{pooled.fp_rate:>8.4f} {pooled.fn_rate:>8.4f} {100 * pooled.f1:>8.2f}")
    else:
        _emit(payload)
    if args.out:
        T.atomic_write_bytes(args.out, (_dumps(payload) + "\n").encode())
        _write_manifest(os.path.dirname(os.path.abspath(args.out)), "eval",
                        cfg.__dict__, [args.pred, args.gt], [args.out])
    return EXIT_OK


def _format_dims(dims: tuple[int, int, int]) -> str:
    c, h, w = dims
    return f"{w}x{h}x{c}"


def cmd_arch(args) -> int:
    spec = arch.build_enet21(shared_heads=args.shared_heads)
    h, w = _parse_res(args.input)
    report = arch.count_flops(spec, (3, h, w))
    if args.format == "json":
        payload = {
            "version": __version__,
            "input": args.input,
            "shared_heads": args.shared_heads,
            "layers": [
                {"row": r.id, "layer": r.name, "head": r.head,
                 "output": _format_dims(r.output_dims), "params": r.params,
                 "flops": r.flops}
                for r in report.per_layer
            ],
            "total_params": report.total_params,
            "total_flops": report.total_flops,
        }
        _emit(payload)
        return EXIT_OK
    header = f"{'row':>3}  {'layer':<28}{'output':>14}{'params':>10}{'flops':>14}"
    print(header)
    print("-" * len(header))
    for r in report.per_layer:
        print(f"{r.id:>3}  {r.name:<28}{_format_dims(r.output_dims):>14}"
              f"{r.params:>10}{r.flops:>14}")
    print("-" * len(header))
    print(f"total params: {report.total_params:,} ({report.total_params / 1e6:.3f}M)")
    print(f"total flops:  {report.total_flops:,} ({report.total_flops / 1e9:.3f}G)")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    if args.scenes < 1:
        raise FormatError("--scenes must be >= 1")
    if not 0 <= args.noise < float("inf"):
        raise FormatError(f"--noise must be finite and >= 0, got {args.noise}")
    cfg = DecodeConfig()
    matched_px = 0
    total_px = 0
    count_ok = 0
    for i in range(args.scenes):
        spec = synth.random_scene_spec(args.seed + i)
        agreement, n_gt, n_dec, n_fg = synth.roundtrip_scene(
            spec, cfg, sigma=args.noise, noise_seed=args.seed + i)
        matched_px += int(round(agreement * n_fg))
        total_px += n_fg
        count_ok += int(n_gt == n_dec)
        print(f"scene {i:04d} seed={spec.seed} lanes={n_gt} decoded={n_dec} "
              f"agreement={agreement:.4f}")
    pooled = matched_px / total_px if total_px else 1.0
    print(f"aggregate: scenes={args.scenes} exact-lane-count={count_ok}/{args.scenes} "
          f"agreement={pooled:.4f} noise={args.noise}")
    if args.noise == 0 and pooled < 0.99:
        print("roundtrip: aggregate agreement below 0.99", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = synth.SceneSpec(
        lane_count=args.lanes,
        curvature=(-args.curvature, args.curvature),
        spacing=args.spacing, width=args.width,
        merge_split=args.merge_split, seed=args.seed,
    )
    mask, ann = synth.generate(spec)
    af = encode_affinities(mask)
    os.makedirs(args.out, exist_ok=True)
    T.save_tensor(os.path.join(args.out, "mask.aft"), mask.astype(np.float32))
    T.save_tensor(os.path.join(args.out, "haf.aft"), af.haf)
    T.save_tensor(os.path.join(args.out, "vaf.aft"), af.vaf)
    T.atomic_write_bytes(os.path.join(args.out, "label.json"),
                         (dataset.serialize_annotation(ann) + "\n").encode())
    _write_manifest(args.out, "synth",
                    {"lanes": args.lanes, "curvature": args.curvature,
                     "spacing": args.spacing, "width": args.width,
                     "merge_split": args.merge_split, "seed": args.seed},
                    [], [os.path.join(args.out, n)
                         for n in ("mask.aft", "haf.aft", "vaf.aft", "label.json")])
    print(f"wrote scene with {int(mask.max())} lanes -> {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    spec = arch.build_enet21(shared_heads=args.shared_heads)
    if args.weights:
        store = arch.load_weights(args.weights)
    elif args.random_init:
        store = arch.random_weights(spec, seed=args.seed)
    else:
        raise FormatError("either --weights or --random-init is required")
    if not os.path.exists(args.image):
        raise FormatError(f"image file not found: {args.image}")
    image = _finite(T.load_tensor(args.image), args.image)
    if image.ndim == 3:
        image = image[None]
    if image.ndim == 4 and image.shape[0] != 1:
        raise FormatError(
            f"{args.image}: expected one (3,H,W) image, got a batch of {image.shape[0]}")
    seg_logits, haf, vaf = arch.forward(spec, store, image)
    seg_prob = T.sigmoid(seg_logits)
    os.makedirs(args.out, exist_ok=True)
    files = {
        "seg.aft": seg_prob[0],
        "seg_logits.aft": seg_logits[0],
        "haf.aft": haf[0],
        "vaf.aft": vaf[0],
    }
    for name, arr in files.items():
        T.save_tensor(os.path.join(args.out, name), arr)
    outputs = [os.path.join(args.out, n) for n in files]
    config = {"weights": args.weights, "random_init": args.random_init,
              "seed": args.seed, "shared_heads": args.shared_heads, "decode": args.decode}
    if args.decode:
        cfg = _decode_config(args)
        result = decode(seg_prob[0, 0], AffinityPair(haf[0, 0], vaf[0]), cfg)
        lanes_path = os.path.join(args.out, "lanes.json")
        T.atomic_write_bytes(lanes_path, (result.to_json() + "\n").encode())
        outputs.append(lanes_path)
        config.update(cfg.__dict__)
        print(f"decoded {len(result.lanes)} lanes")
    _write_manifest(args.out, "infer", config,
                    [p for p in (args.weights, args.image) if p], outputs)
    return EXIT_OK


def cmd_loss(args) -> int:
    logits_path = os.path.join(args.pred, "seg_logits.aft")
    if not os.path.exists(logits_path):
        # fall back to probabilities and invert the sigmoid
        probs = np.clip(_load_map(os.path.join(args.pred, "seg.aft"), 1), 1e-6, 1 - 1e-6)
        seg_logits = np.log(probs / (1 - probs))
    else:
        seg_logits = _load_map(logits_path, 1)
    pred_haf = _load_map(os.path.join(args.pred, "haf.aft"), 1)
    pred_vaf = _load_map(os.path.join(args.pred, "vaf.aft"), 2)
    mask = _load_map(os.path.join(args.gt, "mask.aft"), 1)
    gt = AffinityPair(_load_map(os.path.join(args.gt, "haf.aft"), 1),
                      _load_map(os.path.join(args.gt, "vaf.aft"), 2))
    target = (mask > 0).astype(np.float64)
    breakdown = total_loss(seg_logits, pred_haf, pred_vaf, target, gt, w=args.weight)
    _emit({"version": __version__,
           "config": {"pred": args.pred, "gt": args.gt, "weight": args.weight},
           "wbce": breakdown.wbce, "iou": breakdown.iou,
           "af": breakdown.af, "total": breakdown.total})
    return EXIT_OK


# ------------------------------------------------------------------- parser

def _add_decode_flags(parser: argparse.ArgumentParser) -> None:
    """The decode settings, shared by ``decode`` and ``infer --decode``."""
    parser.add_argument("--fg-thresh", type=_finite_float,
                        default=_DECODE_DEFAULTS.fg_threshold)
    parser.add_argument("--assoc-thresh", type=_finite_float,
                        default=_DECODE_DEFAULTS.assoc_threshold)
    parser.add_argument("--min-cluster-size", type=int,
                        default=_DECODE_DEFAULTS.min_cluster_size)
    parser.add_argument("--min-lane-rows", type=int, default=_DECODE_DEFAULTS.min_lane_rows)


def _decode_config(args) -> DecodeConfig:
    return DecodeConfig(fg_threshold=args.fg_thresh, assoc_threshold=args.assoc_thresh,
                        min_cluster_size=args.min_cluster_size,
                        min_lane_rows=args.min_lane_rows)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lanecli",
                                description="lane affinity-field toolkit")
    p.add_argument("--version", action="version", version=f"lanecli {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="rasterize labels and emit GT field maps")
    enc.add_argument("--labels", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--thickness", type=int, default=dataset.LABEL_THICKNESS)
    enc.add_argument("--res", default=f"{dataset.MAP_W}x{dataset.MAP_H}")
    enc.add_argument("--jobs", type=int, default=None,
                     help="accepted for compatibility; frames are encoded serially")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="cluster seg+field maps into lane instances")
    dec.add_argument("--seg", required=True)
    dec.add_argument("--haf", required=True)
    dec.add_argument("--vaf", required=True)
    dec.add_argument("--out", required=True)
    _add_decode_flags(dec)
    dec.set_defaults(func=cmd_decode)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--px-thresh", type=_finite_float, default=_EVAL_DEFAULTS.px_threshold)
    ev.add_argument("--lane-thresh", type=_finite_float,
                    default=_EVAL_DEFAULTS.lane_match_threshold)
    ev.add_argument("--table", action="store_true",
                    help="aligned text row instead of JSON")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    ar = sub.add_parser("arch", help="network shape/param/FLOP report")
    ar.add_argument("--input", default=f"{dataset.NET_W}x{dataset.NET_H}")
    ar.add_argument("--shared-heads", action="store_true")
    ar.add_argument("--format", choices=("table", "json"), default="table")
    ar.set_defaults(func=cmd_arch)

    rt = sub.add_parser("roundtrip", help="encode/decode identity over synthetic scenes")
    rt.add_argument("--scenes", type=int, default=100)
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("--noise", type=float, default=0.0)
    rt.set_defaults(func=cmd_roundtrip)

    sy = sub.add_parser("synth", help="write one synthetic scene directory")
    sy.add_argument("--out", required=True)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--lanes", type=int, default=_SCENE_DEFAULTS.lane_count)
    sy.add_argument("--curvature", type=_finite_float, default=_SCENE_DEFAULTS.curvature[1])
    sy.add_argument("--spacing", type=float, default=_SCENE_DEFAULTS.spacing)
    sy.add_argument("--width", type=int, default=_SCENE_DEFAULTS.width)
    sy.add_argument("--merge-split", action="store_true")
    sy.set_defaults(func=cmd_synth)

    inf = sub.add_parser("infer", help="forward pass over an image tensor")
    inf.add_argument("--weights", default=None)
    inf.add_argument("--random-init", action="store_true")
    inf.add_argument("--seed", type=int, default=0)
    inf.add_argument("--shared-heads", action="store_true")
    inf.add_argument("--image", required=True)
    inf.add_argument("--out", required=True)
    inf.add_argument("--decode", action="store_true")
    _add_decode_flags(inf)
    inf.set_defaults(func=cmd_infer)

    lo = sub.add_parser("loss", help="loss breakdown between map directories")
    lo.add_argument("--pred", required=True)
    lo.add_argument("--gt", required=True)
    lo.add_argument("--weight", type=_finite_float, default=None)
    lo.set_defaults(func=cmd_loss)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, CodecError, ShapeError, OSError, ValueError) as e:
        print(f"lanecli {args.command}: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except EvalError as e:
        print(f"lanecli {args.command}: evaluation error: {e}", file=sys.stderr)
        return EXIT_EVAL
    except (IntegrityError, SceneError) as e:
        print(f"lanecli {args.command}: invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
