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
output size.  The weight store and both ledgers fold over that reading, and
the forward pass runs the same plans.  A row's ``kind`` alone says what its
block does; every reader of a plan branches on it.
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

# a bottleneck's projection and main convs run at out_channels // 4, as in ENet
PROJECTION_RATIO = 4


@dataclass(frozen=True)
class LayerSpec:
    id: int                      # table-row ordinal, 1..21
    name: str                    # e.g. "bottleneck2.3"
    kind: str                    # "initial" | "down" | "up" | "bottleneck" | "conv1x1"
    out_channels: int
    dilation: int = 1            # of a "bottleneck" row's main conv


@dataclass(frozen=True)
class HeadSpec:
    name: str
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class ArchSpec:
    layers: tuple[LayerSpec, ...]      # trunk rows 1..18
    heads: tuple[HeadSpec, ...]        # rows 19..21, one branch per output
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
    ext: tuple[ConvSlot, ...]
    main_conv: ConvSlot | None = None   # skip-branch 1x1 conv ("up" only)


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


def build_enet21(shared_heads: bool = False) -> ArchSpec:
    """The 21-row lane network: 18 trunk rows plus three 3-row heads."""
    rows = (
        LayerSpec(1, "initial", "initial", 16),
        LayerSpec(2, "bottleneck1.0", "down", 64),
        LayerSpec(3, "bottleneck1.1", "bottleneck", 64, 2),
        LayerSpec(4, "bottleneck1.2", "bottleneck", 64, 4),
        LayerSpec(5, "bottleneck2.0", "down", 128),
        LayerSpec(6, "bottleneck2.1", "bottleneck", 128),
        LayerSpec(7, "bottleneck2.2", "bottleneck", 128, 2),
        LayerSpec(8, "bottleneck2.3", "bottleneck", 128, 4),
        LayerSpec(9, "bottleneck2.4", "bottleneck", 128, 8),
        LayerSpec(10, "bottleneck2.5", "bottleneck", 128, 16),
        # stage 3 repeats stage 2 without the leading downsampler
        LayerSpec(11, "bottleneck3.1", "bottleneck", 128),
        LayerSpec(12, "bottleneck3.2", "bottleneck", 128, 2),
        LayerSpec(13, "bottleneck3.3", "bottleneck", 128, 4),
        LayerSpec(14, "bottleneck3.4", "bottleneck", 128, 8),
        LayerSpec(15, "bottleneck3.5", "bottleneck", 128, 16),
        LayerSpec(16, "bottleneck4.0", "up", 64),
        LayerSpec(17, "bottleneck4.1", "bottleneck", 64),
        LayerSpec(18, "bottleneck4.2", "bottleneck", 64),
    )

    heads = []
    for hname, c_out in HEAD_CHANNELS.items():
        prefix = "head" if shared_heads else f"head.{hname}"
        heads.append(
            HeadSpec(
                hname,
                (
                    LayerSpec(19, f"{prefix}.bottleneck5.0", "bottleneck", 64),
                    LayerSpec(20, f"{prefix}.bottleneck5.1", "bottleneck", 64),
                    LayerSpec(21, f"{prefix}.{hname}.conv", "conv1x1", c_out),
                ),
            )
        )
    return ArchSpec(rows, tuple(heads), shared_heads)


def plan_block(layer: LayerSpec, in_ch: int) -> BlockPlan:
    """Expand one table row into its conv slots.  A "down", "up" or "bottleneck" row
    gets a projection, main and expand chain, and an "up" row also the 1x1 skip conv of
    its unpooled main branch; an "initial" or "conv1x1" row gets one conv."""
    out, nm, kind = layer.out_channels, layer.name, layer.kind
    if kind == "initial":
        slot = ConvSlot(f"{nm}.conv", "conv", in_ch, out - in_ch, (3, 3),
                        stride=(2, 2), padding=(1, 1), bn=False, act=False)
        return BlockPlan(layer, (slot,))
    if kind == "conv1x1":
        return BlockPlan(layer, (ConvSlot(nm, "conv", in_ch, out, (1, 1), bn=False, act=False),))

    mid = max(1, out // PROJECTION_RATIO)
    d = layer.dilation
    if kind == "down":
        proj = ConvSlot(f"{nm}.proj", "conv", in_ch, mid, (2, 2), stride=(2, 2))
        main = ConvSlot(f"{nm}.main", "conv", mid, mid, (3, 3), padding=(1, 1))
    elif kind == "up":
        proj = ConvSlot(f"{nm}.proj", "conv", in_ch, mid, (1, 1))
        main = ConvSlot(f"{nm}.main", "tconv", mid, mid, (2, 2), stride=(2, 2))
    elif kind == "bottleneck":
        proj = ConvSlot(f"{nm}.proj", "conv", in_ch, mid, (1, 1))
        main = ConvSlot(f"{nm}.main", "conv", mid, mid, (3, 3), padding=(d, d), dilation=(d, d))
    else:
        raise ValueError(f"row {layer.id} ({nm}): unknown block kind {kind!r}")
    expand = ConvSlot(f"{nm}.expand", "conv", mid, out, (1, 1), act=False)
    skip = ConvSlot(f"{nm}.skip", "conv", in_ch, out, (1, 1), act=False) if kind == "up" else None
    return BlockPlan(layer, (proj, main, expand), skip)


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
            x = step(plan_block(layer, ch), head, x)
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
            slots.update({f"{name}.bn.{part}": (ch,) for part in T.BN_PARTS})
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
    kind, nm, out = plan.layer.kind, plan.layer.name, plan.layer.out_channels
    if kind == "conv1x1":
        return slots, flops, hw
    if kind in ("initial", "down"):
        flops += 3 * plan.ext[0].in_ch * hw[0] * hw[1]  # the 2x2 max pool
    if kind == "initial":
        norm(nm, out, hw, True, False)  # of the concatenation
    else:
        flops += out * hw[0] * hw[1]  # residual add
    norm(f"{nm}.out", out, hw, False, True)
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

def _run_slot(x, slot: ConvSlot, store, out=None, main=None, slope=None):
    """One conv unit into *out* (a workspace role, an array, or None for a new array),
    then its batchnorm, the add of *main* and PReLU by its slope, else *slope*, in one pass."""
    conv, out_hw = ((T.conv2d, T.conv_output_hw) if slot.op == "conv"
                    else (T.transposed_conv2d, T.transposed_output_hw))
    if isinstance(out, str):
        out = T.scratch(out, (len(x), slot.out_ch, *out_hw(
            x.shape[2:], slot.kernel, slot.stride, slot.dilation, slot.padding)))
    y = conv(x, T.ConvParams(store[f"{slot.name}.kernel"], slot.stride, slot.dilation,
                             slot.padding), out=out)
    bn = [store[f"{slot.name}.bn.{part}"] for part in T.BN_PARTS] if slot.bn else None
    slope = store[f"{slot.name}.slope"] if slot.act else slope
    return T.batchnorm_add_prelu(y, bn, main, slope, out=y)


def _run_block(x, plan: BlockPlan, store, pools, role, kept):
    """One row into the workspace buffer *role* (a head's last row: a new array), never
    into *x*; a pooling row's main branch into block2, and its indices only if *kept*."""
    kind, nm, n = plan.layer.kind, plan.layer.name, len(x)
    if kind == "conv1x1":
        return _run_slot(x, plan.ext[0], store)
    slope = store[f"{nm}.out.slope"]
    pooled = (n, x.shape[1], (x.shape[2] + 1) // 2, (x.shape[3] + 1) // 2)
    if kind == "initial":
        y, c = T.scratch(role, (n, plan.layer.out_channels, *pooled[2:])), plan.ext[0].out_ch
        _run_slot(x, plan.ext[0], store, y[:, :c])
        T.maxpool2x2_with_indices(x, y[:, c:], indices=False)
        return T.batchnorm_add_prelu(y, [store[f"{nm}.bn.{p}"] for p in T.BN_PARTS], None, slope, y)
    main = x
    if kind == "down":
        main = T.scratch("block2", pooled)
        argmax = T.scratch(f"{nm}.argmax", pooled, np.int64) if nm in kept else None
        pools.append((T.maxpool2x2_with_indices(x, main, argmax, nm in kept)[1], x.shape[2:]))
    elif kind == "up":
        idx, out_hw = pools.pop()
        skip = _run_slot(x, plan.main_conv, store, "ext1")  # free until the ext chain
        main = T.max_unpool2x2(skip, idx, out_hw, T.scratch("block2", (n, skip.shape[1], *out_hw)))
    ext = x
    for i, slot in enumerate(plan.ext[:-1]):
        ext = _run_slot(ext, slot, store, f"ext{i}")
    return _run_slot(ext, plan.ext[-1], store, role, main, slope)


def forward(spec: ArchSpec, store: dict[str, np.ndarray], image: np.ndarray):
    """Run the network; returns (seg_logits, haf_map, vaf_map).

    image is (N, 3, H, W) with H, W divisible by 8.  Downsampling blocks
    push pooling indices that the matching upsampling block consumes.

    A batch runs frame by frame, each with its own pool stack, in buffers that the
    calling thread keeps between calls (about 18 MB at 640x352), so peak memory is one
    frame's activations whatever N is, and a warm frame allocates none of them.  Every
    kernel keeps a frame's bits independent of its batch, so the maps equal those of
    each frame run alone.  No returned map shares memory with those buffers.
    """
    validate_weights(spec, store)
    image = T.as_f32(image)
    if image.ndim == 3:
        image = image[None]
    if image.ndim != 4 or image.shape[1] != 3:
        raise ShapeError(f"image must be (N,3,H,W), got {tuple(image.shape)}")
    if image.shape[2] % 8 or image.shape[3] % 8:
        raise ShapeError(f"image spatial dims {image.shape[2:]} not divisible by 8")

    stack, kept = [], set()  # the down blocks whose pool indices an up block pops
    walk(spec, None, lambda plan, head, x: stack.append(plan.layer.name)
         if plan.layer.kind == "down" else kept.add(stack.pop()) if plan.layer.kind == "up"
         else None)

    def run(frame):
        pools: list = []
        # rows by parity into block buffers 1 and 0, the trunk ending on 0; head row 20 into 2
        return walk(spec, frame, lambda plan, head, x: _run_block(
            x, plan, store, pools, f"block{plan.layer.id % 2 or 2 * (head is not None)}", kept))

    # an empty batch still runs once, so conv2d names its zero-sized dim
    frames = [run(image[i:i + 1]) for i in range(max(len(image), 1))]
    return tuple(np.concatenate([f[name] for f in frames]) for name in ("seg", "haf", "vaf"))
