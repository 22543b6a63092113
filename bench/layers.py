"""Per-layer metrics of the traced run: where each span is wrapped, and how
the spans and counts become the metrics listed in ``BENCHMARK.json``.

Layers are the modules of ``src/lanekit``.  A metric of a layer that a
workload never calls (the network on ``dataset_cli``, the CLI on the infer
workloads) reads 0.  Queue waits are not measured: every workload is one
caller in a closed loop, so nothing queues.
"""
from __future__ import annotations

import numpy as np

from lanekit import affinity, arch, cli, dataset, evaluate, losses
from lanekit import tensor as T

# Kernels that ``arch.forward`` calls, plus the sigmoid the benchmark and
# ``losses.total_loss`` call on the network output.
KERNELS = ("conv2d", "prelu", "maxpool2x2_with_indices", "batchnorm_infer",
           "max_unpool2x2", "transposed_conv2d", "channel_zero_pad", "sigmoid")

PER_LAYER: list[tuple[str, str]] = (
    [(f"tensor.{k}.ms_per_frame", "ms/frame") for k in KERNELS]
    + [(f"tensor.{k}.calls", "calls/frame") for k in KERNELS]
    + [
        ("tensor.conv2d.gflop_s", "GFLOP/s"),
        ("tensor.conv2d.flop_per_byte", "flop/B"),
        ("tensor.save_tensor.ms", "ms/call"),
        ("tensor.load_tensor.ms", "ms/call"),
        ("tensor.bytes_written", "B/frame"),
        ("tensor.bytes_read", "B/frame"),
        ("arch.forward.ms_per_frame", "ms/frame"),
        ("arch.forward.self_ms_per_frame", "ms/frame"),
        ("arch.forward.gflop_s", "GFLOP/s"),
        ("arch.validate_weights.ms", "ms/call"),
        ("arch.load_weights.ms", "ms/call"),
        ("affinity.decode.ms_per_frame", "ms/frame"),
        ("affinity.decode.self_ms_per_frame", "ms/frame"),
        ("affinity.cluster_row_haf.ms_per_frame", "ms/frame"),
        ("affinity.associate_clusters_vaf.ms_per_frame", "ms/frame"),
        ("affinity.pairs_scored_per_frame", "pairs/frame"),
        ("affinity.pairs_assigned_ratio", "ratio"),
        ("affinity.clusters_per_row", "clusters/row"),
        ("affinity.encode_affinities.ms_per_frame", "ms/frame"),
        ("affinity.validate_mask.ms_per_frame", "ms/frame"),
        ("dataset.rasterize.ms_per_frame", "ms/frame"),
        ("dataset.parse_tusimple.ms", "ms/call"),
        ("dataset.lanes_to_annotation.ms_per_frame", "ms/frame"),
        ("evaluate.evaluate_frame.ms_per_frame", "ms/frame"),
        ("losses.total_loss.ms_per_frame", "ms/frame"),
        ("cli.encode.ms", "ms/call"),
        ("cli.encode.self_ms", "ms/call"),
        ("cli.decode.ms_per_frame", "ms/frame"),
        ("cli.eval.ms", "ms/call"),
        ("trace.overhead_share", "ratio"),
    ]
)


def _aft_bytes(arr: np.ndarray) -> int:
    """Size of an .aft record: magic, rank, dims, float32 payload."""
    return 8 + 4 * max(arr.ndim, 1) + 4 * arr.size


def _conv_cost(tr, args, kwargs, out) -> None:
    # computed from the call's shapes: 2 FLOPs per MAC; input, kernel and
    # output each moved once as float32
    x, p = args[0], args[1]
    oc, ic, kh, kw = p.kernel.shape
    n, _, oh, ow = out.shape
    tr.counts["conv2d.flop"] += 2 * n * oc * ic * kh * kw * oh * ow
    tr.counts["conv2d.bytes"] += 4 * (np.size(x) + p.kernel.size + out.size)


def _saved(tr, args, kwargs, out) -> None:
    tr.counts["bytes_written"] += _aft_bytes(np.asarray(args[1]))


def _loaded(tr, args, kwargs, out) -> None:
    tr.counts["bytes_read"] += _aft_bytes(out)


def _clustered(tr, args, kwargs, out) -> None:
    tr.counts["clusters"] += len(out)


def _associated(tr, args, kwargs, out) -> None:
    tr.counts["pairs_assigned"] += len(out)


def instrument(tr) -> None:
    """Wrap every traced function where its caller looks it up."""
    for k in KERNELS:
        tr.wrap(T, k, f"tensor.{k}", _conv_cost if k == "conv2d" else None)
    tr.wrap(T, "save_tensor", "tensor.save_tensor", _saved)
    tr.wrap(T, "load_tensor", "tensor.load_tensor", _loaded)
    tr.wrap(arch, "forward", "arch.forward")
    tr.wrap(arch, "validate_weights", "arch.validate_weights")
    tr.wrap(affinity, "decode", "affinity.decode")
    tr.wrap(cli, "decode", "affinity.decode")
    tr.wrap(affinity, "cluster_row_haf", "affinity.cluster_row_haf", _clustered)
    tr.wrap(affinity, "associate_clusters_vaf", "affinity.associate_clusters_vaf", _associated)
    # ~1,600 calls per dense frame: counted, not timed
    tr.count(affinity, "association_error", "affinity.association_error")
    tr.wrap(cli, "encode_affinities", "affinity.encode_affinities")
    tr.wrap(affinity, "validate_mask", "affinity.validate_mask")
    tr.wrap(dataset, "rasterize", "dataset.rasterize")
    tr.wrap(dataset, "parse_tusimple", "dataset.parse_tusimple")
    tr.wrap(dataset, "lanes_to_annotation", "dataset.lanes_to_annotation")
    tr.wrap(evaluate, "evaluate_frame", "evaluate.evaluate_frame")
    tr.wrap(cli, "evaluate_frame", "evaluate.evaluate_frame")
    tr.wrap(losses, "total_loss", "losses.total_loss")
    tr.wrap(cli, "cmd_encode", "cli.encode")
    tr.wrap(cli, "cmd_decode", "cli.decode")
    tr.wrap(cli, "cmd_eval", "cli.eval")


def per_layer_metrics(spans: dict, counts, frames: int, flops_per_frame: int,
                      load_weights_ms: float, overhead_share: float) -> dict[str, float]:
    """Fold a tracer's span summary and counts into the PER_LAYER metrics."""
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def total_s(name: str, key: str = "s") -> float:
        return spans[name][key] if name in spans else 0.0

    def per_frame_ms(name: str, key: str = "s") -> float:
        return ratio(1e3 * total_s(name, key), frames)

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def per_call_ms(name: str, key: str = "s") -> float:
        return ratio(1e3 * total_s(name, key), calls(name))

    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"tensor.{k}.ms_per_frame"] = per_frame_ms(f"tensor.{k}")
        m[f"tensor.{k}.calls"] = ratio(calls(f"tensor.{k}"), frames)
    m["tensor.conv2d.gflop_s"] = ratio(counts["conv2d.flop"], total_s("tensor.conv2d")) / 1e9
    m["tensor.conv2d.flop_per_byte"] = ratio(counts["conv2d.flop"], counts["conv2d.bytes"])
    m["tensor.save_tensor.ms"] = per_call_ms("tensor.save_tensor")
    m["tensor.load_tensor.ms"] = per_call_ms("tensor.load_tensor")
    m["tensor.bytes_written"] = ratio(counts["bytes_written"], frames)
    m["tensor.bytes_read"] = ratio(counts["bytes_read"], frames)
    m["arch.forward.ms_per_frame"] = per_frame_ms("arch.forward")
    m["arch.forward.self_ms_per_frame"] = per_frame_ms("arch.forward", "self_s")
    m["arch.forward.gflop_s"] = ratio(flops_per_frame * frames, total_s("arch.forward")) / 1e9
    m["arch.validate_weights.ms"] = per_call_ms("arch.validate_weights")
    m["arch.load_weights.ms"] = load_weights_ms
    m["affinity.decode.ms_per_frame"] = per_frame_ms("affinity.decode")
    m["affinity.decode.self_ms_per_frame"] = per_frame_ms("affinity.decode", "self_s")
    m["affinity.cluster_row_haf.ms_per_frame"] = per_frame_ms("affinity.cluster_row_haf")
    m["affinity.associate_clusters_vaf.ms_per_frame"] = per_frame_ms(
        "affinity.associate_clusters_vaf")
    scored = counts["affinity.association_error"]
    m["affinity.pairs_scored_per_frame"] = ratio(scored, frames)
    m["affinity.pairs_assigned_ratio"] = ratio(counts["pairs_assigned"], scored)
    m["affinity.clusters_per_row"] = ratio(counts["clusters"], calls("affinity.cluster_row_haf"))
    m["affinity.encode_affinities.ms_per_frame"] = per_frame_ms("affinity.encode_affinities")
    m["affinity.validate_mask.ms_per_frame"] = per_frame_ms("affinity.validate_mask")
    m["dataset.rasterize.ms_per_frame"] = per_frame_ms("dataset.rasterize")
    m["dataset.parse_tusimple.ms"] = per_call_ms("dataset.parse_tusimple")
    m["dataset.lanes_to_annotation.ms_per_frame"] = per_frame_ms("dataset.lanes_to_annotation")
    m["evaluate.evaluate_frame.ms_per_frame"] = per_frame_ms("evaluate.evaluate_frame")
    m["losses.total_loss.ms_per_frame"] = per_frame_ms("losses.total_loss")
    m["cli.encode.ms"] = per_call_ms("cli.encode")
    m["cli.encode.self_ms"] = per_call_ms("cli.encode", "self_s")
    m["cli.decode.ms_per_frame"] = per_frame_ms("cli.decode")
    m["cli.eval.ms"] = per_call_ms("cli.eval")
    m["trace.overhead_share"] = overhead_share
    return {name: m[name] for name, _unit in PER_LAYER}


def forward_accounting(spans: dict, frames: int) -> dict[str, float]:
    """Split ``arch.forward`` time per frame into the kernels it calls,
    ``validate_weights`` and its own self time, summed per name.

    The residual is forward time minus the three parts; it is zero up to
    rounding when every child of a forward span is one of those calls.
    """
    if "arch.forward" not in spans or not frames:
        return {}

    def ms(name: str, key: str = "s") -> float:
        return 1e3 * spans[name][key] / frames if name in spans else 0.0

    kernels = sum(ms(f"tensor.{k}") for k in KERNELS if k != "sigmoid")
    parts = {"kernels_ms_per_frame": kernels,
             "validate_weights_ms_per_frame": ms("arch.validate_weights"),
             "self_ms_per_frame": ms("arch.forward", "self_s")}
    forward = ms("arch.forward")
    return {"forward_ms_per_frame": forward, **parts,
            "residual_ms_per_frame": forward - sum(parts.values())}
