"""Declarative 21-layer encoder/decoder network with shape/param/FLOP ledger.

The network is an ENet-style bottleneck stack: an initial block (stride-2
conv concatenated with a 2x2 max pool of the input), an encoder of three
bottleneck stages with dilations up to 16, a decoder stage that unpools with
the encoder's pooling indices, and three parallel output heads (binary
segmentation, horizontal field, vertical field).  No convolution carries a
bias term.

Everything downstream of :func:`build_enet21` folds over one walk of the
per-layer plan, :func:`walk`, which alone owns the branch rule: the trunk
rows chain from the image, and each head starts from the trunk output, or,
with shared heads, from the output of rows 19-20, which then run once.  Each
block is read once, by :func:`_read_block`, for its weight slots, FLOPs and
output size.  The weight store, the shape trace and both ledgers fold over
that reading, and the forward pass runs the same plans.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

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


def _read_block(plan: BlockPlan, in_hw) -> tuple[dict[str, tuple[int, ...]], int, tuple[int, int]]:
    """One block at input size *in_hw*: its weight slots in weight-store order,
    its FLOPs (2 per MAC, 2 per element of batchnorm and of PReLU, 1 per element
    of the residual add, 3 comparisons per pooled cell) and its output size."""
    slots: dict[str, tuple[int, ...]] = {}
    flops = 0

    def norm(name, ch, hw, bn, act):
        nonlocal flops
        if bn:
            slots.update({f"{name}.bn.{part}": (ch,) for part in ("gamma", "beta", "mean", "var")})
        if act:
            slots[f"{name}.slope"] = (ch,)
        flops += 2 * (bn + act) * ch * hw[0] * hw[1]

    def conv(s: ConvSlot, hw):
        nonlocal flops
        shape = T.conv_output_hw if s.op == "conv" else T.transposed_output_hw
        out_hw = shape(hw, s.kernel, s.stride, s.dilation, s.padding)
        slots[f"{s.name}.kernel"] = kernel = (s.out_ch, s.in_ch, *s.kernel)
        # a conv applies its kernel once per output site, a transposed one per input site
        sites = out_hw if s.op == "conv" else hw
        flops += 2 * math.prod(kernel) * sites[0] * sites[1]
        norm(s.name, s.out_ch, out_hw, s.bn, s.act)
        return out_hw

    hw = in_hw
    for s in plan.ext:
        hw = conv(s, hw)
    if plan.main_conv is not None:
        conv(plan.main_conv, in_hw)
    if plan.pool in ("down", "initial"):
        flops += 3 * plan.in_ch * hw[0] * hw[1]
    nm, out = plan.layer.name, plan.layer.out_channels
    if plan.layer.kind == "bottleneck":
        flops += out * hw[0] * hw[1]  # residual add
    norm(nm, out, hw, plan.post_bn, False)
    norm(f"{nm}.out", out, hw, False, plan.post_act)
    return slots, flops, hw


def count_flops(spec: ArchSpec, input_dims: tuple[int, int, int]) -> ArchReport:
    """Per-row output dims, params and FLOPs for a (3, H, W) input, H and W /8.
    A row's params are its weight slots less the batchnorm running statistics."""
    c, h, w = input_dims
    if c != 3:
        raise ShapeError(f"expected 3 input channels, got {c}")
    if h % 8 or w % 8:
        raise ShapeError(f"input {h}x{w} not divisible by 8")
    report = ArchReport()

    def step(plan, head, hw):
        slots, fl, out_hw = _read_block(plan, hw)
        p = sum(math.prod(dims) for name, dims in slots.items()
                if not name.endswith((".bn.mean", ".bn.var")))
        report.per_layer.append(LayerReport(plan.layer.id, plan.layer.name, head,
                                            (plan.layer.out_channels, *out_hw), p, fl))
        report.total_params += p
        report.total_flops += fl
        return out_hw

    walk(spec, (h, w), step)
    return report


def count_params(spec: ArchSpec) -> ArchReport:
    """Parameter ledger: conv kernels plus batchnorm scale/shift and PReLU slopes.

    Params do not depend on the input size, so these are the rows of
    :func:`count_flops` at any /8 size, without their dims and FLOPs.
    """
    rows = count_flops(spec, (3, 8, 8)).per_layer
    return ArchReport([replace(r, output_dims=None, flops=0) for r in rows],
                      sum(r.params for r in rows))


def shape_trace(spec: ArchSpec, input_dims: tuple[int, int, int]) -> list[LayerReport]:
    """Per-row output dims for a (3, H, W) input; H and W must be /8.

    The rows are those of :func:`count_flops`, so they carry params and FLOPs too.
    """
    return count_flops(spec, input_dims).per_layer


# --------------------------------------------------------------------------
# Weight store
# --------------------------------------------------------------------------

def weight_slots(spec: ArchSpec) -> dict[str, tuple[int, ...]]:
    """Every named parameter tensor and its expected dims, in weight-store order."""
    slots: dict[str, tuple[int, ...]] = {}

    def step(plan, head, hw):
        block_slots, _, out_hw = _read_block(plan, hw)
        slots.update(block_slots)
        return out_hw

    walk(spec, (8, 8), step)  # slots do not depend on the input size
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
