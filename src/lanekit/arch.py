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
output size.  The weight store and both ledgers fold over that reading.
:func:`prepare` walks the plans once to resolve each row's weights and
buffer, and the network it returns runs the same walk over those prepared
rows, frame by frame, with a batch's frames, or one frame's rows, on threads.
A row's ``kind`` alone says what its block does; every reader of a plan
branches on it.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

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
    output_dims: tuple[int, int, int]   # (C, H, W)
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


def walk(spec: ArchSpec, x, step, resolve=plan_block) -> dict:
    """Fold ``x = step(resolve(layer, in_channels), head, x)`` over the rows in execution
    order; *resolve* gives each row's plan, or its prepared step.

    This is the one place that decides which output feeds each row: the
    trunk rows chain from the input, and each head starts from the trunk
    output.  With shared heads, rows 19-20 run once after the trunk (with
    head None) and each head's row-21 conv starts from their output.
    Returns the final value of each head, keyed by head name.
    """
    def chain(head, layers, x, ch):
        for layer in layers:
            x = step(resolve(layer, ch), head, x)
            ch = layer.out_channels
        return x, ch

    shared = spec.heads[0].layers[:2] if spec.shared_heads else ()
    x, ch = chain(None, spec.layers + shared, x, 3)
    return {head.name: chain(head.name, head.layers[len(shared):], x, ch)[0]
            for head in spec.heads}


def _weight_name(unit: str, part: str) -> str:
    """The store name of a unit's *part* ("kernel", "slope" or one of ``T.BN_PARTS``),
    which it ends in."""
    return f"{unit}.bn.{part}" if part in T.BN_PARTS else f"{unit}.{part}"


def _read_block(plan: BlockPlan, in_hw) -> tuple[dict[str, tuple[int, ...]], int, tuple[int, int]]:
    """One block at input size *in_hw*: its weight slots in weight-store order,
    its FLOPs (2 per MAC, 2 per element of batchnorm and of PReLU, 1 per element
    of the residual add, 3 comparisons per pooled cell) and its output size."""
    slots: dict[str, tuple[int, ...]] = {}
    flops = 0

    def norm(name, ch, hw, bn, act):
        nonlocal flops
        if bn:
            slots.update({_weight_name(name, part): (ch,) for part in T.BN_PARTS})
        if act:
            slots[_weight_name(name, "slope")] = (ch,)
        flops += 2 * (bn + act) * ch * hw[0] * hw[1]

    def conv(s: ConvSlot, hw):
        nonlocal flops
        shape = T.conv_output_hw if s.op == "conv" else T.transposed_output_hw
        out_hw = shape(hw, s.kernel, s.stride, s.dilation, s.padding)
        slots[_weight_name(s.name, "kernel")] = kernel = (s.out_ch, s.in_ch, *s.kernel)
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
                if name.rpartition(".")[2] not in ("mean", "var"))
        report.per_layer.append(LayerReport(plan.layer.id, plan.layer.name, head,
                                            (plan.layer.out_channels, *out_hw), p, fl))
        report.total_params += p
        report.total_flops += fl
        return out_hw

    walk(spec, (h, w), step)
    return report


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


def random_weights(spec: ArchSpec, seed: int = 0) -> dict[str, np.ndarray]:
    """Seeded uniform-noise weights for testing the forward path."""
    rng = np.random.default_rng(seed)
    store: dict[str, np.ndarray] = {}
    for name, dims in weight_slots(spec).items():
        part = name.rpartition(".")[2]
        if part in ("gamma", "var"):
            store[name] = rng.uniform(0.5, 1.5, dims).astype(np.float32)
        elif part == "slope":
            store[name] = np.full(dims, T.PRELU_DEFAULT_SLOPE, dtype=np.float32)
        else:  # kernel, beta, mean
            store[name] = rng.uniform(-0.1, 0.1, dims).astype(np.float32)
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

_LOCK = threading.Lock()  # held by a call on threads, for the pool and the BLAS pin
_POOL: list = []  # [the frame threads, their count], made by the first call to use them


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)  # numpy's own copy: loaded already, so not loaded again
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _Part:
    """The rows of a frame that one thread runs: units [lo, hi) of its *units* bands of 8
    input rows, so the same share of every map.  A split frame's parts wait at *barrier*
    before each padded conv, whose halo reads the projection rows of the parts beside,
    and take those projections in turn from *shared*, two flat maps the caller made; every
    other buffer holds only the part's own rows, in its own thread's buffers.  The default
    part is a whole frame, which waits for nothing and keeps every buffer in its thread's."""

    def __init__(self, lo=0, hi=1, units=1, barrier=None, shared=()):
        self.lo, self.hi, self.units = lo, hi, units
        self.barrier, self.shared, self.halos = barrier, shared, 0

    def rows(self, h: int) -> slice:
        """This part's rows of a map of *h* rows."""
        return slice(self.lo * h // self.units, self.hi * h // self.units)

    def halo(self, shape) -> tuple[np.ndarray, slice]:
        """The whole map that a padded conv reads, of which this part's rows are *shape*,
        and the slice of those rows.  A split frame takes the two shared maps in turn, so
        no part writes one that a part beside may still read."""
        n, c, h, w = shape
        h = h * self.units // (self.hi - self.lo)
        shape, rows = (n, c, h, w), self.rows(h)
        if not self.shared:
            return T.scratch("ext0", shape), rows
        self.halos += 1
        return self.shared[self.halos % 2][:math.prod(shape)].reshape(shape), rows

    def wait(self) -> None:
        if self.barrier is not None:
            self.barrier.wait()


def _map_frames(run, n: int, units: int, parts: int, halo: int) -> None:
    """Call run(i, part) for every frame i < n, a whole frame's part or, for one frame,
    each of up to *parts* even parts of its *units* bands of 8 input rows.  A batch runs
    its frames on min(n, usable cores) threads and one frame its parts on min(parts,
    usable cores), the caller one of them, so a frame that does not split runs whole on
    the caller, which first makes a split frame's two maps of *halo* floats in its own
    buffers.  Each call takes the module lock and holds numpy's OpenBLAS at one thread
    until every thread has stopped, so a frame's bits do not depend on its batch, no idle
    BLAS thread spins on a core a frame thread needs, and concurrent calls take turns.  If
    a thread raises, the others stop at their next wait and the call raises that first
    error.  With no BLAS setter the frames run whole on the caller, the lock untouched.
    The other threads persist with their own buffers, so a warm call allocates none."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(n if n > 1 else parts, cores)
    if (blas := _openblas()) is None:
        for i in range(n):
            run(i, _Part())
        return

    def share(j):
        try:
            for i, part in jobs[j]:
                run(i, part)
        except BaseException:
            barrier.abort()  # so no part waits for one that has stopped
            raise

    get, put = blas
    with _LOCK:
        if workers > 1 and not _POOL:
            _POOL.extend((ThreadPoolExecutor(cores - 1, "lanekit-frame"), cores - 1))
        # a part waits for the others, so each needs a thread: no more than the pool has,
        # should more cores have become usable since it was made
        workers = min(workers, _POOL[1] + 1) if workers > 1 else 1
        barrier = threading.Barrier(workers)
        if n > 1 or workers == 1:  # whole frames j, j + workers, ...
            jobs = [[(i, _Part()) for i in range(j, n, workers)] for j in range(workers)]
        else:
            shared = T.scratch("halo0", (halo,)), T.scratch("halo1", (halo,))
            jobs = [[(0, _Part(units * j // workers, units * (j + 1) // workers, units,
                               barrier, shared))] for j in range(workers)]
        threads, futures, errors = get(), [], []
        put(1)
        try:
            futures = [_POOL[0].submit(share, j) for j in range(1, workers)]
            share(0)
        except threading.BrokenBarrierError as e:  # a part on another thread raised
            errors.append(e)
        finally:  # every thread stops before the count is restored
            wait(futures)
            put(threads)
    errors = [e for e in (f.exception() for f in futures) if e is not None] + errors
    if errors:  # the first that is not a part stopped by another's error
        raise min(errors, key=lambda e: isinstance(e, threading.BrokenBarrierError))


def _run_unit(x, unit, out, main=None, rows=None):
    """One conv unit into the array *out*, sized by the caller, a band of output channels
    at a time: its conv, then its batchnorm, the add of *main*'s channels if given, and its
    PReLU, in one pass.  *out* may hold *main*, so a band that adds main's waits in this
    thread's "ext0" buffer until they are read.  *rows*, a slice, are the output rows to
    run, of a conv that reads the rows of *x* around them, and *out* holds only those."""
    op, bands = unit
    for c, params, bn, slope in bands:
        y = out[:, c] if main is None else T.scratch(
            "ext0", (len(out), len(params.kernel), *out.shape[2:]))
        y = T.conv2d(x, params, y, rows) if op == "conv" else T.transposed_conv2d(x, params, out=y)
        if main is None:  # the view the conv returned: another of out[:, c] would be copied
            T.batchnorm_add_prelu(y, bn, None, slope, y)
        else:
            T.batchnorm_add_prelu(y, bn, main[:, c], slope, out[:, c])
    return out


def _run_block(x, plan: BlockPlan, role, units, pools, kept, part: _Part):
    """One row, of conv units *units* in plan order, into the block buffer *role*, which
    holds *x* where the row works in place; a pooling row's main branch goes into the
    leading channels of its output, and its indices are kept only if *kept*.  *x* and the
    output hold only *part*'s rows, except that the initial row reads the whole image."""
    kind, nm, c = plan.layer.kind, plan.layer.name, plan.layer.out_channels
    n, cin, h, w = x.shape
    if kind == "initial":  # its units start with the concatenation's batchnorm and slope
        ((bn, slope), conv), rows, k = units, part.rows(h // 2), plan.ext[0].out_ch
        y = T.scratch(role, (n, c, rows.stop - rows.start, w // 2))
        _run_unit(x, conv, y[:, :k], rows=rows)
        T.maxpool2x2_with_indices(x[:, :, part.rows(h)], y[:, k:], indices=False)
        return T.batchnorm_add_prelu(y, bn, None, slope, y)
    proj, inner, expand, mid = *units[:3], plan.ext[0].out_ch
    if kind == "up":  # "ext1" is free once the skip is unpooled; a tconv reads only its rows
        idx, hw = pools.pop()
        skip = _run_unit(x, units[3], T.scratch("ext1", (n, c, h, w)))
        y = T.max_unpool2x2(skip, idx, hw, T.scratch(role, (n, c, *hw)))
        ext = _run_unit(x, proj, T.scratch("ext0", (n, mid, h, w)))
        ext = _run_unit(ext, inner, T.scratch("ext1", (n, mid, *hw)))
        return _run_unit(ext, expand, y, y)
    if kind == "down":
        y = T.scratch(role, (n, c, h // 2, w // 2))
        main = y[:, :cin]
        index = np.int32 if h * w < 2**31 else np.int64
        argmax = T.scratch(f"{nm}.argmax", main.shape, index) if nm in kept else None
        pools.append((T.maxpool2x2_with_indices(x, main, argmax, nm in kept)[1], (h, w)))
    else:
        y, main = T.scratch(role, x.shape), x
    # the projection is of the main branch's size, and its padded conv, of the same size,
    # reads the projection's rows around its own
    whole, rows = part.halo((n, mid, *main.shape[2:]))
    own = _run_unit(x, proj, whole[:, :, rows])
    part.wait()
    ext = _run_unit(whole, inner, T.scratch("ext1", own.shape), rows=rows)
    return _run_unit(ext, expand, y, main)


def prepare(spec: ArchSpec, store: dict[str, np.ndarray]):
    """Validate *store* once and resolve what no image changes: each row's plan, buffer,
    size divisor (the image's size over its output's) and conv units in plan order, and
    the "down" rows whose pool indices an "up" row pops.  A unit is its op and its bands
    of output channels, each (slice, ConvParams, batchnorm (scale, shift), PReLU slope):
    one band, or an expand's of its input's width.  Returns the network, a function of an
    image that holds read-only float32 copies of the weights, so later changes to *store*
    do not reach it; threads may share it, each in buffers of its own."""
    validate_weights(spec, store)
    plans, downs, kept, trunk, depth = {}, [], set(), None, 1

    def own(a):
        a = np.array(a, dtype=np.float32)
        a.setflags(write=False)
        return a

    def norm(name, ch, bn, slope):  # a unit's (scale, shift) and slope
        parts = [store[_weight_name(name, p)] for p in T.BN_PARTS] if bn else None
        bn, slope = T.norm_vectors(ch, parts, slope)
        return bn and (own(bn[0]), own(bn[1])), None if slope is None else own(slope)

    def unit(s: ConvSlot, slope, width):  # a unit with no PReLU of its own takes *slope*
        kernel = own(store[_weight_name(s.name, "kernel")])
        bn, slope = norm(s.name, s.out_ch, s.bn,
                         store[_weight_name(s.name, "slope")] if s.act else slope)
        return s.op, [(c, T.ConvParams(kernel[c], s.stride, s.dilation, s.padding),
                       bn and (bn[0][c], bn[1][c]), None if slope is None else slope[c])
                      for c in (slice(i, i + width) for i in range(0, s.out_ch, width))]

    def row(plan: BlockPlan, head, x):  # *x*: the buffer (0 or 1) and divisor of its input
        nonlocal trunk, depth
        (block, div), layer, kind, nm = x, plan.layer, plan.layer.kind, plan.layer.name
        # a row works in place, so a thread keeps two block buffers; a row that changes
        # size, or whose input later heads read too, writes into the other one
        if kind in ("initial", "down", "up") or (head is not None and block == trunk):
            block = 1 - block
        div = div * 2 if kind in ("initial", "down") else div // 2 if kind == "up" else div
        trunk = block if head is None else trunk
        slope = None if kind == "conv1x1" else store[_weight_name(f"{nm}.out", "slope")]
        units = []
        if kind == "initial":  # the batchnorm and PReLU of the concatenation
            units, slope = [norm(nm, layer.out_channels, True, slope)], None
        for s in plan.ext:  # the block's PReLU follows its last conv
            expand = kind in ("down", "up", "bottleneck") and s is plan.ext[-1]  # adds main
            units.append(unit(s, slope, s.in_ch if expand else s.out_ch))
            depth = max(depth, s.in_ch * math.prod(s.kernel))  # of its GEMMs
        if plan.main_conv is not None:
            units.append(unit(plan.main_conv, None, plan.main_conv.out_ch))
        plans[nm] = plan, f"block{block}", div, units
        if kind == "down":
            downs.append(nm)
        elif kind == "up":
            kept.add(downs.pop())
        return block, div

    walk(spec, (1, 1), row)  # the initial row writes into block0

    def network(image: np.ndarray):
        """Run the network; returns (seg_logits, haf_map, vaf_map).

        image is (N, 3, H, W) with no zero-sized dim and H, W divisible by 8.  Each frame
        runs alone, with its own pool stack, in buffers that its thread keeps between calls
        (about 11 MB at 640x352), and writes its maps straight into the returned arrays.
        A batch of N >= 2 runs its frames on min(N, usable cores) threads, and N = 1 its
        frame's rows, in even parts of 8-row bands, one part per thread, each call taking
        turns with the others (:func:`_map_frames`).  A part keeps its own rows of every
        buffer; only the projections that padded convs read are the frame's, in two maps
        that the caller makes, as it does the returned maps, before any thread starts.  So
        peak memory is about one frame's activations per thread, whatever N is, and a warm
        frame allocates none of them.  Every frame runs at one BLAS thread, and a frame
        splits only where its parts run the GEMMs of the whole frame, so every kernel keeps
        a frame's bits independent of its batch, its parts and its thread: the maps equal
        those of each frame run alone.  No returned map shares memory with those buffers.
        """
        image = T.as_f32(image)
        if image.ndim == 3:
            image = image[None]
        if image.ndim != 4 or image.shape[1] != 3:
            raise ShapeError(f"image must be (N,3,H,W), got {tuple(image.shape)}")
        if not all(image.shape):
            raise ShapeError(f"image has a zero-sized dim: {tuple(image.shape)}")
        if image.shape[2] % 8 or image.shape[3] % 8:
            raise ShapeError(f"image spatial dims {image.shape[2:]} not divisible by 8")
        n, _, h, w = image.shape
        maps = {}  # each at the size of its head's last row
        for head in spec.heads:
            plan, _, d, _ = plans[head.layers[-1].name]
            maps[head.name] = np.empty((n, plan.layer.out_channels, h // d, w // d), np.float32)
        # the most floats of one frame's projection that a padded conv reads
        halo = max(plan.ext[0].out_ch * (h // d) * (w // d) for plan, _, d, _ in plans.values()
                   if plan.layer.kind in ("down", "bottleneck"))

        def run(i, part):
            pools: list = []

            def step(prepared, head, x):
                plan, role, _, units = prepared
                if plan.layer.kind != "conv1x1":
                    return _run_block(x, plan, role, units, pools, kept, part)
                out = maps[head][i:i + 1]
                return _run_unit(x, units[0], out[:, :, part.rows(out.shape[2])])

            walk(spec, image[i:i + 1], step, lambda layer, _: plans[layer.name])

        # a frame splits only where its parts' GEMMs give a whole frame's bits: every map's
        # rows are whole GEMM blocks wide, and each part's rows of the coarsest map (1/8 of
        # the image) hold at least one conv band of the deepest conv
        h8, w8 = h // 8, w // 8
        parts = h8 // max(1, T.CONV_BAND // (depth * w8)) if w8 % T.GEMM_BLOCK == 0 else 1
        _map_frames(run, n, h8, parts, halo)
        return tuple(maps[name] for name in ("seg", "haf", "vaf"))

    return network


def forward(spec: ArchSpec, store: dict[str, np.ndarray], image: np.ndarray):
    """Run the network on *image* once: ``prepare(spec, store)(image)``, at one BLAS thread,
    each frame byte-equal to the frame run whole alone at any width."""
    return prepare(spec, store)(image)
