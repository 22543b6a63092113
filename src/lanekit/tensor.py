"""Deterministic float32 tensor kernels with explicit (N, C, H, W) layout.

Everything in this module is a pure function over numpy arrays: same inputs give
bit-identical outputs, never a view of the :func:`scratch` buffers that keep temporaries
between calls.  There is no autograd, no GPU path and no implicit broadcasting; shape
mismatches raise :class:`~lanekit.errors.ShapeError` naming both shapes.

Tensors are stored row-major, channel-major within batch.  The `.aft` file format used
throughout the toolkit is defined by :func:`save_tensor` / :func:`load_tensor`.  No kernel
starts a thread or sets the BLAS thread count: that is :mod:`lanekit.arch`'s to do.
:func:`conv2d`, the max pool and the fused batchnorm/add/PReLU pass take a band of another
array's rows in place, and :func:`conv2d` runs any range of its output rows, reading the
input rows around it, so threads can each run their own rows of one frame.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, IntegrityError, ShapeError

AFT_MAGIC = b"AFT1"

BATCHNORM_EPS = 1e-5
PRELU_DEFAULT_SLOPE = 0.25
BN_PARTS = ("gamma", "beta", "mean", "var")
PRELU_BLOCK = 1 << 17  # float32 values: 512 KiB, a quarter of a 2 MiB L2 cache
CONV_BAND = 1 << 18  # im2col column elements per GEMM: 1 MiB of float32
# float32 columns in a block of a BLAS GEMM kernel (one 512-bit register): a GEMM whose
# columns end inside a block may run its last ones in another kernel, with other bits
GEMM_BLOCK = 16
_SCRATCH = threading.local()
_F32 = np.dtype(np.float32)


def scratch(role: str, shape, dtype=np.float32) -> np.ndarray:
    """*shape* over this thread's grow-only buffer for *role* ("temp": each kernel's own);
    no other thread's buffers are touched."""
    bufs, size = _SCRATCH.__dict__, math.prod(shape)
    if role not in bufs or bufs[role].size < size:
        bufs[role] = np.empty(size, dtype)
    return bufs[role][:size].reshape(shape)


def as_f32(x) -> np.ndarray:
    """Return *x* as a contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=np.float32)


def _require_nchw(x: np.ndarray, name: str = "input") -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be 4-D (N,C,H,W), got shape {tuple(x.shape)}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has a zero-sized dim: {tuple(x.shape)}")


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


@dataclass(frozen=True)
class ConvParams:
    """Convolution parameters.

    kernel is laid out (out_ch, in_ch, kH, kW) for both the forward and the
    transposed op.  There is no bias: the lane-detection network is bias-free.
    """

    kernel: np.ndarray
    stride: tuple[int, int] = (1, 1)
    dilation: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", as_f32(self.kernel))
        if self.kernel.ndim != 4:
            raise ShapeError(
                f"kernel must be 4-D (out,in,kH,kW), got {tuple(self.kernel.shape)}"
            )
        for field in ("stride", "dilation", "padding"):
            object.__setattr__(self, field, _pair(getattr(self, field)))
        if min(self.stride) < 1 or min(self.dilation) < 1 or min(self.padding) < 0:
            raise ShapeError(
                f"invalid stride/dilation/padding: {self.stride}/{self.dilation}/{self.padding}"
            )


def conv_output_hw(hw, kernel, stride, dilation, padding) -> tuple[int, int]:
    """Spatial output size of a cross-correlation, from the (h, w) input size and the
    (row, col) pairs of the other four."""
    (h, w), (kh, kw), (sh, sw), (dh, dw), (ph, pw) = hw, kernel, stride, dilation, padding
    oh = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    ow = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    return oh, ow


def transposed_output_hw(hw, kernel, stride, dilation, padding) -> tuple[int, int]:
    """Spatial output size of a transposed convolution (gradient of conv), from the (h, w)
    input size and the (row, col) pairs of the other four."""
    (h, w), (kh, kw), (sh, sw), (dh, dw), (ph, pw) = hw, kernel, stride, dilation, padding
    oh = (h - 1) * sh - 2 * ph + dh * (kh - 1) + 1
    ow = (w - 1) * sw - 2 * pw + dw * (kw - 1) + 1
    return oh, ow


def conv2d(x: np.ndarray, p: ConvParams, out=None, rows=None) -> np.ndarray:
    """Exact cross-correlation of a (N,C,H,W) tensor with p.kernel: its output rows *rows*
    (a slice, by default all of them), into ``out`` if given, whose rows and columns are
    C-contiguous (a C-contiguous array or a band of its rows).  *x* may have any strides
    (a band of another tensor's rows); the rows of *x* around *rows* are read as well."""
    x = np.asarray(x, dtype=np.float32)
    _require_nchw(x)
    n, c, h, w = x.shape
    oc, ic, kh, kw = p.kernel.shape
    if ic != c:
        raise ShapeError(
            f"input channels {tuple(x.shape)} do not match kernel {tuple(p.kernel.shape)}"
        )
    (sh, sw), (dh, dw), (ph, pw) = p.stride, p.dilation, p.padding
    oh, ow = conv_output_hw((h, w), (kh, kw), p.stride, p.dilation, p.padding)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"kernel {tuple(p.kernel.shape)} does not fit input {tuple(x.shape)} "
            f"(stride={p.stride}, dilation={p.dilation}, padding={p.padding})"
        )
    rows = range(oh)[slice(None) if rows is None else rows]
    if rows.step != 1 or not rows:
        raise ShapeError(f"output rows {rows} are not a range of the {oh} rows")
    out = np.empty((n, oc, len(rows), ow), dtype=np.float32) if out is None else out
    # per frame, GEMMs of (oc x K) . (K x rows*ow); an unpadded 1x1 stride-1 conv's columns
    # are its input rows, any other conv builds a band's zero-padded input rows and columns
    # in this thread's buffers.  Bands of equal rows, give or take one, are never thin
    # enough for BLAS to take another kernel (with other bits), so the bits depend on
    # neither batch nor band
    k, padded = c * kh * kw, bool(ph or pw)
    if kh * kw * sh * sw == 1 and not padded:  # the columns are x's rows: one GEMM
        cols = x[:, :, rows.start:rows.stop].reshape(n, k, len(rows) * ow)
        np.matmul(p.kernel.reshape(oc, k), cols, out=out.reshape(n, oc, -1))
        return out
    step = max(1, CONV_BAND // (n * k * ow))
    step = -(-len(rows) // -(-len(rows) // step))
    span = (step - 1) * sh + dh * (kh - 1) + 1  # the input rows a band reads
    if padded:  # then x is a band's zero-padded input rows, filled band by band
        src, x = x, scratch("conv.pad", (n, c, span, w + 2 * pw))
        x[:, :, :, :pw] = x[:, :, :, w + pw:] = 0
    sn, sc, srh, srw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, step if padded else oh, ow),
        strides=(sn, sc, dh * srh, dw * srw, sh * srh, sw * srw), writeable=False)
    for i in range(rows.start, rows.stop, step):
        r = min(step, rows.stop - i)
        if padded:  # padded rows top..top+span, those of src between lo and hi
            top = i * sh - ph
            lo, hi = min(span, max(0, -top)), max(0, min(span, h - top))
            x[:, :, :lo] = x[:, :, hi:] = 0
            x[:, :, lo:hi, pw:pw + w] = src[:, :, top + lo:top + hi]
        band = windows[:, :, :, :, :r] if padded else windows[:, :, :, :, i:i + r]
        cols = scratch("temp", (n, k, r * ow))
        np.copyto(cols.reshape(band.shape), band)
        at = (i - rows.start) * ow
        dst = out.reshape(n, oc, -1)[:, :, at:at + r * ow]  # a view: out's rows are C-contiguous
        np.matmul(p.kernel.reshape(oc, k), cols, out=dst)
    return out


def transposed_conv2d(x: np.ndarray, p: ConvParams, out=None) -> np.ndarray:
    """Transposed convolution (scatter-add of kernel taps), into ``out`` if given.  Each
    tap's GEMM and the sum of the taps go through this thread's buffers."""
    x = as_f32(x)
    _require_nchw(x)
    n, c, h, w = x.shape
    oc, ic, kh, kw = p.kernel.shape
    if ic != c:
        raise ShapeError(
            f"input channels {tuple(x.shape)} do not match kernel {tuple(p.kernel.shape)}"
        )
    (sh, sw), (dh, dw), (ph, pw) = p.stride, p.dilation, p.padding
    oh, ow = transposed_output_hw((h, w), (kh, kw), p.stride, p.dilation, p.padding)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"padding {p.padding} swallows the whole output for input {tuple(x.shape)}"
        )
    fh, fw = oh + 2 * ph, ow + 2 * pw  # the output before its padding is cut off
    full = scratch("temp", (n, oc, fh, fw))
    full.fill(0)
    tap = scratch("conv.pad", (n, oc, h * w))  # conv2d's padding buffer, free here
    for i in range(kh):
        for j in range(kw):
            np.matmul(p.kernel[:, :, i, j], x.reshape(n, c, h * w), out=tap)
            full[
                :, :, i * dh : i * dh + sh * (h - 1) + 1 : sh,
                j * dw : j * dw + sw * (w - 1) + 1 : sw,
            ] += tap.reshape(n, oc, h, w)
    out = np.empty((n, oc, oh, ow), dtype=np.float32) if out is None else out
    np.copyto(out, full[:, :, ph : fh - ph, pw : fw - pw])
    return out


def maxpool2x2_with_indices(x: np.ndarray, out=None, argmax=None, indices=True) -> tuple:
    """2x2/stride-2 max pooling into ``out`` if given; returns (values, argmax).  argmax
    holds, per pooled element, the flat position (h * W + w) of its winning cell in the
    pre-pool plane, as int64 or computed in ``argmax`` (of any integer dtype that holds
    H * W) if given, with no wider temporary; with ``indices=False`` it is None.

    Odd trailing rows/columns are treated as padded with -inf, so pooling is
    well defined for any spatial size.  Ties pick the first cell in row-major
    window order, which keeps unpooling deterministic.
    """
    x = np.asarray(x, dtype=np.float32)  # a band of rows stays a view
    _require_nchw(x)
    n, c, h, w = x.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    xp = x
    if h % 2 or w % 2:
        xp = np.full((n, c, 2 * h2, 2 * w2), -np.inf, dtype=np.float32)
        xp[:, :, :h, :w] = x
    cells = [xp[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    top = np.empty((n, c, h2, w2), dtype=np.float32) if out is None else out
    np.maximum(np.maximum(cells[0], cells[1], out=top), cells[2], out=top)
    np.maximum(top, cells[3], out=top)
    has_nan = np.isnan(top.max())  # a NaN cell makes its max NaN
    fix = np.nonzero((top == 0) | np.isnan(top) if has_nan else top == 0)
    # loc is the first cell equal to the max, or the first NaN if the max is
    # NaN: start at 3 and count down once for each of cells 0-2 from that hit on
    at = Ellipsis if indices else fix
    loc, seen = np.full(top[at].shape, 3, dtype=np.uint8), np.zeros(top[at].shape, dtype=bool)
    for cell in cells[:3]:
        seen |= ((cell[at] == top[at]) | np.isnan(cell[at])) if has_nan else (cell[at] == top[at])
        loc -= seen
    # a max that is not a zero or a NaN has the bits of the winning cell
    top[fix] = np.choose(loc[fix] if indices else loc, [cell[fix] for cell in cells])
    if not indices:
        return top, None
    # window cell loc is at row loc >> 1, column loc & 1 (a table lookup copies loc as intp)
    dt = np.int64 if argmax is None else argmax.dtype
    flat = np.multiply(loc >> 1, w, out=argmax, dtype=dt)
    flat += loc & 1
    flat += 2 * w * np.arange(h2, dtype=dt)[:, None] + 2 * np.arange(w2, dtype=dt)
    return top, flat


def max_unpool2x2(x: np.ndarray, argmax: np.ndarray, out_hw, out=None) -> np.ndarray:
    """Scatter pooled values to their argmax flat positions, zeros elsewhere, into a
    C-contiguous ``out`` if given."""
    x = as_f32(x)
    _require_nchw(x)
    if argmax.shape != x.shape:
        raise ShapeError(f"argmax {tuple(argmax.shape)} does not match input {tuple(x.shape)}")
    n, c = x.shape[:2]
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if argmax.min() < 0 or argmax.max() >= oh * ow:
        raise IntegrityError(
            f"pooling indices address cells outside the {oh}x{ow} output plane"
        )
    out = np.empty((n, c, oh, ow), dtype=np.float32) if out is None else out
    out.fill(0)
    np.put_along_axis(out.reshape(n, c, -1), argmax.reshape(n, c, -1), x.reshape(n, c, -1), -1)
    return out


def _per_channel(v, channels: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float32).reshape(-1)
    if arr.shape[0] == 1 and channels != 1:
        arr = np.full(channels, arr[0], dtype=np.float32)
    if arr.shape[0] != channels:
        raise ShapeError(f"{name} length {arr.shape[0]} != channel count {channels}")
    return arr


def norm_vectors(channels: int, bn=None, slope=None, eps: float = BATCHNORM_EPS) -> tuple:
    """(bn, slope) as the float32 vectors of length *channels* (a length-1 input repeats)
    that :func:`batchnorm_add_prelu` takes; bn = (gamma, beta, mean, var) becomes (scale,
    shift) = (gamma / sqrt(var + eps), beta - mean * scale).  None stays None."""
    if bn is not None:
        gamma, beta, mean, var = (_per_channel(a, channels, name) for a, name in zip(bn, BN_PARTS))
        if (var < 0).any():
            raise ShapeError("variance must be non-negative")
        scale = gamma / np.sqrt(var + np.float32(eps))
        bn = scale, beta - mean * scale
    return bn, None if slope is None else _per_channel(slope, channels, "slope")


def batchnorm_infer(x, gamma, beta, mean, var, eps: float = BATCHNORM_EPS,
                    out=None) -> np.ndarray:
    """Inference-mode batch normalization: gamma*(x-mean)/sqrt(var+eps)+beta,
    written into ``out`` if given (it may be *x*)."""
    x = as_f32(x)
    _require_nchw(x)
    return batchnorm_add_prelu(x, norm_vectors(x.shape[1], (gamma, beta, mean, var), eps=eps)[0],
                               out=out)


def prelu(x, slope, out=None) -> np.ndarray:
    """Per-channel PReLU: x if x > 0 else slope * x, written into ``out`` if
    given (it may be *x*)."""
    x = as_f32(x)
    _require_nchw(x)
    return batchnorm_add_prelu(x, slope=norm_vectors(x.shape[1], slope=slope)[1], out=out)


def batchnorm_add_prelu(x, bn=None, main=None, slope=None, out=None) -> np.ndarray:
    """x * scale + shift for bn = (scale, shift), then main + x (+0.0 past main's channels,
    as a zero-padded main adds), then PReLU, each step optional and rounded as alone, a
    block of channels at a time, into ``out`` if given (may be x, or hold main as its
    leading channels).  bn and slope are the per-channel float32 vectors of
    :func:`norm_vectors`.  PReLU is max(x * slope, x) if every slope is in (0, 1] (numpy
    returns the second operand on a tie, the first if NaN), else the exact max(x, -0.0) +
    min(0, x) * slope."""
    x = np.asarray(x, dtype=np.float32)  # a band of rows stays a view
    _require_nchw(x)
    y, c = np.empty_like(x) if out is None else out, x.shape[1]
    # where out holds main, each block of x waits in "temp" until main's block is read
    staged = main is not None and np.may_share_memory(main, y)
    if main is not None and (main.shape[1] > c or
                             main.shape[:1] + main.shape[2:] != x.shape[:1] + x.shape[2:]):
        raise ShapeError(f"main {tuple(main.shape)} does not fit {tuple(x.shape)}")
    if any(getattr(v, "dtype", None) != _F32 or np.shape(v) != (c,)
           for v in (*(bn or ()), slope) if v is not None):
        raise ShapeError(f"batchnorm and slope must be float32 vectors of length {c}")
    scale, shift = bn or (None, None)
    two_pass = slope is not None and 0 < slope.min() and slope.max() <= 1  # False if NaN
    step = max(1, PRELU_BLOCK * c // x.size)  # a block's temporaries stay in cache
    for b in (slice(i, i + step) for i in range(0, c, step)):
        xb, yb = x[:, b], y[:, b]
        if scale is not None:
            t = scratch("temp", xb.shape) if staged else yb
            xb = np.add(np.multiply(xb, scale[b, None, None], out=t), shift[b, None, None], out=t)
        if main is not None:
            mb = main[:, b]
            k = mb.shape[1]
            np.add(mb, xb[:, :k], out=yb[:, :k])
            if k < xb.shape[1]:
                np.add(0.0, xb[:, k:], out=yb[:, k:])
        elif scale is None and y is not x:
            np.copyto(yb, xb)
        if two_pass:
            np.maximum(np.multiply(yb, slope[b, None, None], out=scratch("temp", yb.shape)), yb,
                       out=yb)
        elif slope is not None:
            neg = np.minimum(0, yb) * slope[b, None, None]
            np.add(np.maximum(yb, -0.0, out=yb), neg, out=yb)
    return y


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic that never overflows: exp only ever sees -|x|.
    A finite or infinite input gives a value in [0, 1]; NaN gives NaN."""
    x = as_f32(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def channel_zero_pad(x, target_channels: int) -> np.ndarray:
    """Append zero-valued channels up to target_channels."""
    x = as_f32(x)
    _require_nchw(x)
    n, c, h, w = x.shape
    if target_channels < c:
        raise ShapeError(f"cannot pad {c} channels down to {target_channels}")
    if target_channels == c:
        return x
    out = np.zeros((n, target_channels, h, w), dtype=np.float32)
    out[:, :c] = x
    return out


# --------------------------------------------------------------------------
# AFT1 serialization: magic, u32 rank, rank*u32 dims, raw little-endian f32.
# --------------------------------------------------------------------------

def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if arr.ndim > 8 or min(arr.shape) < 1:
        raise FormatError(f"cannot write shape {arr.shape}: needs rank 1-8, positive dims")
    header = AFT_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def tensor_from_bytes(blob: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one AFT1 record; returns (array, next offset)."""
    if blob[offset : offset + 4] != AFT_MAGIC:
        raise FormatError(
            f"bad magic {blob[offset:offset + 4]!r} at offset {offset}, expected {AFT_MAGIC!r}"
        )
    offset += 4
    if len(blob) < offset + 4:
        raise FormatError("truncated tensor header")
    (rank,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if rank < 1 or rank > 8:
        raise FormatError(f"implausible tensor rank {rank}")
    if len(blob) < offset + 4 * rank:
        raise FormatError("truncated dims header")
    dims = struct.unpack_from(f"<{rank}I", blob, offset)
    offset += 4 * rank
    if min(dims) < 1:
        raise FormatError(f"non-positive dim in {dims}")
    count = math.prod(dims)  # Python ints: np.prod would wrap on huge dims
    nbytes = 4 * count
    if len(blob) < offset + nbytes:
        raise FormatError(
            f"truncated tensor payload: need {nbytes} bytes for dims {dims}, "
            f"have {len(blob) - offset}"
        )
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    return arr.reshape(dims).astype(np.float32, copy=True), offset + nbytes


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write via temp file + rename so readers never observe partial files."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    except OSError as e:
        # the error would name the random temp file, not the requested path
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_tensor(path: str, arr: np.ndarray) -> None:
    atomic_write_bytes(path, tensor_to_bytes(arr))


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    arr, end = tensor_from_bytes(blob)
    if end != len(blob):
        raise FormatError(f"{path}: {len(blob) - end} trailing bytes after tensor")
    return arr
