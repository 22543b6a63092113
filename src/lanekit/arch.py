"""Declarative 21-layer encoder/decoder network with shape/param/FLOP ledger.

The network is an ENet-style bottleneck stack: an initial block (stride-2
conv concatenated with a 2x2 max pool of the input), an encoder of three
bottleneck stages with dilations up to 16, a decoder stage that unpools with
the encoder's pooling indices, and three parallel output heads (binary
segmentation, horizontal field, vertical field).  No convolution carries a
bias term.

Everything downstream of :func:`build_enet21` (shape tracing, parameter and
FLOP accounting, the forward pass, weight initialization and the weight-file
layout) folds over one walk of the per-layer plan, :func:`walk`, so the
ledgers cannot drift from the executed graph.  The walk alone owns the
branch rule: the trunk rows chain from the image, and each head starts from
the trunk output, or, with shared heads, from the output of rows 19-20,
which then run once.  The parameter ledger counts the weight slots
themselves, less the batchnorm running statistics.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import FormatError, ShapeError

WEIGHTS_MAGIC = b"AFW1"

HEAD_CHANNELS = {"seg": 1, "haf": 1, "vaf": 2}


@dataclass(frozen=True)
class LayerSpec:
    id: int                      # table-row ordinal, 1..21
    name: str                    # e.g. "bottleneck2.3"
    kind: str                    # "initial" | "bottleneck" | "conv1x1"
    variant: str                 # "plain" | "downsampling" | "upsampling" | "dilated"
    out_channels: int
    dilation: int = 1


@dataclass(frozen=True)
class HeadSpec:
    name: str
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class ArchSpec:
    layers: tuple[LayerSpec, ...]      # trunk rows 1..18
    heads: tuple[HeadSpec, ...]        # rows 19..21, one branch per output
    projection_ratio: int = 4
    shared_heads: bool = False


@dataclass(frozen=True)
class ConvSlot:
    """One convolution unit inside a block, with its normalization flags."""

    name: str
    op: str                      # "conv" | "tconv"
    in_ch: int
    out_ch: int
    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    dilation: tuple[int, int] = (1, 1)
    bn: bool = True
    act: bool = True             # PReLU after the BN


@dataclass(frozen=True)
class BlockPlan:
    layer: LayerSpec
    in_ch: int
    ext: tuple[ConvSlot, ...]
    main_conv: ConvSlot | None = None   # skip-branch 1x1 conv (upsampling only)
    pool: str | None = None             # "down" | "up" | "initial"
    zero_pad_to: int | None = None
    post_act: bool = True               # PReLU after the residual add
    post_bn: bool = False               # initial block normalizes after concat


@dataclass
class LayerReport:
    id: int
    name: str
    head: str | None
    output_dims: tuple[int, int, int] | None   # (C, H, W)
    params: int
    flops: int


@dataclass
class ArchReport:
    per_layer: list[LayerReport] = field(default_factory=list)
    total_params: int = 0
    total_flops: int = 0
    input_dims: tuple[int, int, int] | None = None


def build_enet21(projection_ratio: int = 4, shared_heads: bool = False) -> ArchSpec:
    """The 21-row lane network: 18 trunk rows plus three 3-row heads."""
    rows: list[LayerSpec] = [LayerSpec(1, "initial", "initial", "plain", 16)]

    def bn(i, name, variant, ch, dil=1):
        rows.append(LayerSpec(i, name, "bottleneck", variant, ch, dil))

    bn(2, "bottleneck1.0", "downsampling", 64)
    bn(3, "bottleneck1.1", "dilated", 64, 2)
    bn(4, "bottleneck1.2", "dilated", 64, 4)
    bn(5, "bottleneck2.0", "downsampling", 128)
    bn(6, "bottleneck2.1", "plain", 128)
    bn(7, "bottleneck2.2", "dilated", 128, 2)
    bn(8, "bottleneck2.3", "dilated", 128, 4)
    bn(9, "bottleneck2.4", "dilated", 128, 8)
    bn(10, "bottleneck2.5", "dilated", 128, 16)
    # stage 3 repeats stage 2 without the leading downsampler
    bn(11, "bottleneck3.1", "plain", 128)
    bn(12, "bottleneck3.2", "dilated", 128, 2)
    bn(13, "bottleneck3.3", "dilated", 128, 4)
    bn(14, "bottleneck3.4", "dilated", 128, 8)
    bn(15, "bottleneck3.5", "dilated", 128, 16)
    bn(16, "bottleneck4.0", "upsampling", 64)
    bn(17, "bottleneck4.1", "plain", 64)
    bn(18, "bottleneck4.2", "plain", 64)

    heads = []
    for hname, c_out in HEAD_CHANNELS.items():
        prefix = "head" if shared_heads else f"head.{hname}"
        heads.append(
            HeadSpec(
                hname,
                (
                    LayerSpec(19, f"{prefix}.bottleneck5.0", "bottleneck", "plain", 64),
                    LayerSpec(20, f"{prefix}.bottleneck5.1", "bottleneck", "plain", 64),
                    LayerSpec(21, f"{prefix}.{hname}.conv", "conv1x1", "plain", c_out),
                ),
            )
        )
    return ArchSpec(tuple(rows), tuple(heads), projection_ratio, shared_heads)


def plan_block(layer: LayerSpec, in_ch: int, projection_ratio: int) -> BlockPlan:
    """Expand one table row into its conv slots and branch structure."""
    out = layer.out_channels
    nm = layer.name
    if layer.kind == "initial":
        slot = ConvSlot(f"{nm}.conv", "conv", in_ch, out - in_ch, (3, 3),
                        stride=(2, 2), padding=(1, 1), bn=False, act=False)
        return BlockPlan(layer, in_ch, (slot,), pool="initial",
                         post_act=True, post_bn=True)
    if layer.kind == "conv1x1":
        slot = ConvSlot(nm, "conv", in_ch, out, (1, 1), bn=False, act=False)
        return BlockPlan(layer, in_ch, (slot,), post_act=False)

    mid = max(1, out // projection_ratio)
    d = layer.dilation
    if layer.variant == "downsampling":
        ext = (
            ConvSlot(f"{nm}.proj", "conv", in_ch, mid, (2, 2), stride=(2, 2)),
            ConvSlot(f"{nm}.main", "conv", mid, mid, (3, 3), padding=(1, 1)),
            ConvSlot(f"{nm}.expand", "conv", mid, out, (1, 1), act=False),
        )
        return BlockPlan(layer, in_ch, ext, pool="down", zero_pad_to=out)
    if layer.variant == "upsampling":
        ext = (
            ConvSlot(f"{nm}.proj", "conv", in_ch, mid, (1, 1)),
            ConvSlot(f"{nm}.main", "tconv", mid, mid, (2, 2), stride=(2, 2)),
            ConvSlot(f"{nm}.expand", "conv", mid, out, (1, 1), act=False),
        )
        skip = ConvSlot(f"{nm}.skip", "conv", in_ch, out, (1, 1), act=False)
        return BlockPlan(layer, in_ch, ext, main_conv=skip, pool="up")
    ext = (
        ConvSlot(f"{nm}.proj", "conv", in_ch, mid, (1, 1)),
        ConvSlot(f"{nm}.main", "conv", mid, mid, (3, 3), padding=(d, d), dilation=(d, d)),
        ConvSlot(f"{nm}.expand", "conv", mid, out, (1, 1), act=False),
    )
    return BlockPlan(layer, in_ch, ext)


def walk(spec: ArchSpec, x, step) -> dict:
    """Fold ``x = step(plan, head, x)`` over the rows in execution order.

    This is the one place that decides which output feeds each row: the
    trunk rows chain from the input, and each head starts from the trunk
    output.  With shared heads, rows 19-20 run once after the trunk (with
    head None) and each head's row-21 conv starts from their output.
    Returns the final value of each head, keyed by head name.
    """
    def chain(head, layers, x, ch):
        for layer in layers:
            x = step(plan_block(layer, ch, spec.projection_ratio), head, x)
            ch = layer.out_channels
        return x, ch

    shared = spec.heads[0].layers[:2] if spec.shared_heads else ()
    x, ch = chain(None, spec.layers + shared, x, 3)
    return {head.name: chain(head.name, head.layers[len(shared):], x, ch)[0]
            for head in spec.heads}


def _bn_slots(name: str, channels: int) -> dict[str, tuple[int, ...]]:
    return {f"{name}.bn.{part}": (channels,) for part in ("gamma", "beta", "mean", "var")}


def _plan_slots(plan: BlockPlan) -> dict[str, tuple[int, ...]]:
    """The named parameter tensors of one block, in weight-store order."""
    slots: dict[str, tuple[int, ...]] = {}
    convs = plan.ext if plan.main_conv is None else plan.ext + (plan.main_conv,)
    for s in convs:
        slots[f"{s.name}.kernel"] = (s.out_ch, s.in_ch, *s.kernel)
        if s.bn:
            slots.update(_bn_slots(s.name, s.out_ch))
        if s.act:
            slots[f"{s.name}.slope"] = (s.out_ch,)
    nm, out = plan.layer.name, plan.layer.out_channels
    if plan.post_bn:
        slots.update(_bn_slots(nm, out))
    if plan.post_act:
        slots[f"{nm}.out.slope"] = (out,)
    return slots


def _plan_params(plan: BlockPlan) -> int:
    """Learned parameters: every slot except the batchnorm running statistics."""
    return sum(math.prod(dims) for name, dims in _plan_slots(plan).items()
               if not name.endswith((".bn.mean", ".bn.var")))


def count_params(spec: ArchSpec) -> ArchReport:
    """Parameter ledger: conv kernels plus batchnorm scale/shift and PReLU slopes."""
    report = ArchReport()

    def step(plan, head, _):
        p = _plan_params(plan)
        report.per_layer.append(LayerReport(plan.layer.id, plan.layer.name, head, None, p, 0))
        report.total_params += p

    walk(spec, None, step)
    return report


def _slot_flops(slot: ConvSlot, in_hw, out_hw) -> int:
    kh, kw = slot.kernel
    macs_per_site = slot.in_ch * slot.out_ch * kh * kw
    if slot.op == "conv":
        macs = macs_per_site * out_hw[0] * out_hw[1]
    else:  # transposed: one kernel application per input site
        macs = macs_per_site * in_hw[0] * in_hw[1]
    fl = 2 * macs
    elems = slot.out_ch * out_hw[0] * out_hw[1]
    if slot.bn:
        fl += 2 * elems
    if slot.act:
        fl += 2 * elems
    return fl


def _slot_out_hw(slot: ConvSlot, hw) -> tuple[int, int]:
    if slot.op == "conv":
        return T.conv_output_hw(hw, slot.kernel, slot.stride, slot.dilation, slot.padding)
    return T.transposed_output_hw(hw, slot.kernel, slot.stride, slot.dilation, slot.padding)


def _plan_flops(plan: BlockPlan, in_hw) -> tuple[int, tuple[int, int]]:
    """FLOPs of one block and its output size, chained through its ext slots."""
    fl = 0
    hw = in_hw
    for slot in plan.ext:
        out_hw = _slot_out_hw(slot, hw)
        fl += _slot_flops(slot, hw, out_hw)
        hw = out_hw
    out_ch = plan.layer.out_channels
    out_elems = out_ch * hw[0] * hw[1]
    if plan.pool in ("down", "initial"):
        # 3 comparisons per pooled output cell
        pooled_ch = plan.in_ch
        fl += 3 * pooled_ch * hw[0] * hw[1]
    if plan.main_conv is not None:
        skip_out = _slot_out_hw(plan.main_conv, in_hw)
        fl += _slot_flops(plan.main_conv, in_hw, skip_out)
    if plan.layer.kind == "bottleneck":
        fl += out_elems  # residual add
    if plan.post_bn:
        fl += 2 * out_elems
    if plan.post_act:
        fl += 2 * out_elems
    return fl, hw


def count_flops(spec: ArchSpec, input_dims: tuple[int, int, int]) -> ArchReport:
    """Per-row output dims, params and FLOPs for a (3, H, W) input, H and W /8.

    Convs count 2 FLOPs per MAC.
    """
    c, h, w = input_dims
    if c != 3:
        raise ShapeError(f"expected 3 input channels, got {c}")
    if h % 8 or w % 8:
        raise ShapeError(f"input {h}x{w} not divisible by 8")
    report = ArchReport(input_dims=input_dims)

    def step(plan, head, hw):
        fl, out_hw = _plan_flops(plan, hw)
        p = _plan_params(plan)
        report.per_layer.append(LayerReport(plan.layer.id, plan.layer.name, head,
                                            (plan.layer.out_channels, *out_hw), p, fl))
        report.total_params += p
        report.total_flops += fl
        return out_hw

    walk(spec, (h, w), step)
    return report


def shape_trace(spec: ArchSpec, input_dims: tuple[int, int, int]) -> list[LayerReport]:
    """Per-row output dims for a (3, H, W) input; H and W must be /8.

    The rows are those of :func:`count_flops`, so they carry params and FLOPs too.
    """
    return count_flops(spec, input_dims).per_layer


# --------------------------------------------------------------------------
# Weight store
# --------------------------------------------------------------------------

def weight_slots(spec: ArchSpec) -> dict[str, tuple[int, ...]]:
    """Every named parameter tensor and its expected dims."""
    slots: dict[str, tuple[int, ...]] = {}
    walk(spec, None, lambda plan, head, _: slots.update(_plan_slots(plan)))
    return slots


def random_weights(spec: ArchSpec, seed: int = 0, scale: float = 0.1) -> dict[str, np.ndarray]:
    """Seeded uniform-noise weights for testing the forward path."""
    rng = np.random.default_rng(seed)
    store: dict[str, np.ndarray] = {}
    for name, dims in weight_slots(spec).items():
        if name.endswith(".kernel"):
            store[name] = rng.uniform(-scale, scale, dims).astype(np.float32)
        elif name.endswith(".gamma") or name.endswith(".var"):
            store[name] = rng.uniform(0.5, 1.5, dims).astype(np.float32)
        elif name.endswith(".slope"):
            store[name] = np.full(dims, T.PRELU_DEFAULT_SLOPE, dtype=np.float32)
        else:  # beta, mean
            store[name] = rng.uniform(-scale, scale, dims).astype(np.float32)
    return store


def validate_weights(spec: ArchSpec, store: dict[str, np.ndarray]) -> None:
    slots = weight_slots(spec)
    for name, dims in slots.items():
        if name not in store:
            raise ShapeError(f"weight store is missing slot {name!r}")
        got = tuple(store[name].shape)
        if got != dims:
            raise ShapeError(f"slot {name!r} has dims {got}, expected {dims}")
    extra = set(store) - set(slots)
    if extra:
        raise ShapeError(f"weight store has unknown tensors: {sorted(extra)[:4]}")


def save_weights(store: dict[str, np.ndarray], path: str) -> None:
    """AFW1 container: magic, u32 count, then (u16 name len, name, AFT1 blob)."""
    chunks = [WEIGHTS_MAGIC, struct.pack("<I", len(store))]
    for name in sorted(store):
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(T.tensor_to_bytes(store[name]))
    T.atomic_write_bytes(path, b"".join(chunks))


def load_weights(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"bad weight-file magic {blob[:4]!r}, expected {WEIGHTS_MAGIC!r}")
    if len(blob) < 8:
        raise FormatError("truncated weight file header")
    (count,) = struct.unpack_from("<I", blob, 4)
    off = 8
    store: dict[str, np.ndarray] = {}
    for _ in range(count):
        if len(blob) < off + 2:
            raise FormatError("truncated entry header")
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        if len(blob) < off + nlen:
            raise FormatError("truncated entry name")
        try:
            name = blob[off : off + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"undecodable tensor name at offset {off}") from e
        if name in store:
            raise FormatError(f"tensor name {name!r} repeated at offset {off}")
        off += nlen
        arr, off = T.tensor_from_bytes(blob, off)
        if not np.isfinite(arr).all():
            raise FormatError(f"tensor {name!r} holds NaN or inf")
        store[name] = arr
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after last entry")
    return store


# --------------------------------------------------------------------------
# Forward pass
# --------------------------------------------------------------------------

def _run_bn(x, store, name):
    # in place: every caller passes an array its block has just made
    return T.batchnorm_infer(x, store[f"{name}.bn.gamma"], store[f"{name}.bn.beta"],
                             store[f"{name}.bn.mean"], store[f"{name}.bn.var"], out=x)


def _run_slot(x, slot: ConvSlot, store):
    k = store[f"{slot.name}.kernel"]
    p = T.ConvParams(k, stride=slot.stride, dilation=slot.dilation, padding=slot.padding)
    x = T.conv2d(x, p) if slot.op == "conv" else T.transposed_conv2d(x, p)
    if slot.bn:
        x = _run_bn(x, store, slot.name)
    if slot.act:
        x = T.prelu(x, store[f"{slot.name}.slope"], out=x)
    return x


def _run_block(x, plan: BlockPlan, store, pool_stack):
    """One row of the plan.  It writes only into arrays it made itself, never
    into *x*: with shared heads, every head reads the same trunk output."""
    nm = plan.layer.name
    if plan.pool == "initial":
        conv = _run_slot(x, plan.ext[0], store)
        pooled, _ = T.maxpool2x2_with_indices(x)
        x = _run_bn(np.concatenate([conv, pooled], axis=1), store, nm)
        return T.prelu(x, store[f"{nm}.out.slope"], out=x)
    if plan.layer.kind == "conv1x1":
        return _run_slot(x, plan.ext[0], store)

    if plan.pool == "down":
        main, idx = T.maxpool2x2_with_indices(x)
        main = T.channel_zero_pad(main, plan.zero_pad_to)
        pool_stack.append((idx, x.shape[2:]))
    elif plan.pool == "up":
        idx, out_hw = pool_stack.pop()
        main = _run_slot(x, plan.main_conv, store)
        main = T.max_unpool2x2(main, idx, out_hw)
    else:
        main = x

    ext = x
    for slot in plan.ext:
        ext = _run_slot(ext, slot, store)
    if ext.shape != main.shape:
        raise ShapeError(
            f"{nm}: ext branch {tuple(ext.shape)} does not match main {tuple(main.shape)}"
        )
    np.add(main, ext, out=ext)
    return T.prelu(ext, store[f"{nm}.out.slope"], out=ext)


def forward(spec: ArchSpec, store: dict[str, np.ndarray], image: np.ndarray):
    """Run the network; returns (seg_logits, haf_map, vaf_map).

    image is (N, 3, H, W) with H, W divisible by 8.  Downsampling blocks
    push pooling indices that the matching upsampling block consumes.

    A batch runs frame by frame, each frame with its own pool stack, so peak
    memory is one frame's activations whatever N is.  Every kernel keeps a
    frame's bits independent of its batch, so the maps equal those of each
    frame run alone.
    """
    validate_weights(spec, store)
    image = T.as_f32(image)
    if image.ndim == 3:
        image = image[None]
    if image.ndim != 4 or image.shape[1] != 3:
        raise ShapeError(f"image must be (N,3,H,W), got {tuple(image.shape)}")
    if image.shape[2] % 8 or image.shape[3] % 8:
        raise ShapeError(f"image spatial dims {image.shape[2:]} not divisible by 8")

    def run(frame):
        pool_stack: list = []
        return walk(spec, frame, lambda plan, head, x: _run_block(x, plan, store, pool_stack))

    # an empty batch still runs once, so conv2d names its zero-sized dim
    frames = [run(image[i:i + 1]) for i in range(max(len(image), 1))]
    return tuple(np.concatenate([f[name] for f in frames]) for name in ("seg", "haf", "vaf"))
