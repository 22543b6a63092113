"""Deterministic float32 tensor kernels with explicit (N, C, H, W) layout.

Everything in this module is a pure function over numpy arrays: same inputs
give bit-identical outputs.  There is no autograd, no GPU path and no
implicit broadcasting; shape mismatches raise
:class:`~lanekit.errors.ShapeError` naming both shapes.

Tensors are stored row-major, channel-major within batch.  The `.aft` file
format used throughout the toolkit is defined by :func:`save_tensor` /
:func:`load_tensor`.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, IntegrityError, ShapeError

AFT_MAGIC = b"AFT1"

BATCHNORM_EPS = 1e-5
PRELU_DEFAULT_SLOPE = 0.25
PRELU_BLOCK = 1 << 17  # float32 values: 512 KiB, a quarter of a 2 MiB L2 cache


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


@dataclass(frozen=True)
class PoolIndices:
    """Argmax bookkeeping for 2x2 max pooling.

    dims mirrors the pooled output; argmax stores, per pooled element, the
    flat index (h * W + w) of the winning cell in the pre-pool spatial plane.
    """

    dims: tuple[int, ...]
    argmax: np.ndarray


def conv_output_hw(hw, kernel, stride, dilation, padding) -> tuple[int, int]:
    """Spatial output size of a cross-correlation."""
    h, w = hw
    (kh, kw), (sh, sw) = _pair(kernel), _pair(stride)
    (dh, dw), (ph, pw) = _pair(dilation), _pair(padding)
    oh = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    ow = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    return oh, ow


def transposed_output_hw(hw, kernel, stride, dilation, padding) -> tuple[int, int]:
    """Spatial output size of a transposed convolution (gradient of conv)."""
    h, w = hw
    (kh, kw), (sh, sw) = _pair(kernel), _pair(stride)
    (dh, dw), (ph, pw) = _pair(dilation), _pair(padding)
    oh = (h - 1) * sh - 2 * ph + dh * (kh - 1) + 1
    ow = (w - 1) * sw - 2 * pw + dw * (kw - 1) + 1
    return oh, ow


def conv2d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Exact cross-correlation of a (N,C,H,W) tensor with p.kernel."""
    x = as_f32(x)
    _require_nchw(x)
    n, c, h, w = x.shape
    oc, ic, kh, kw = p.kernel.shape
    if ic != c:
        raise ShapeError(
            f"input channels {tuple(x.shape)} do not match kernel {tuple(p.kernel.shape)}"
        )
    (sh, sw), (dh, dw), (ph, pw) = p.stride, p.dilation, p.padding
    oh, ow = conv_output_hw((h, w), (kh, kw), (sh, sw), (dh, dw), (ph, pw))
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"kernel {tuple(p.kernel.shape)} does not fit input {tuple(x.shape)} "
            f"(stride={p.stride}, dilation={p.dilation}, padding={p.padding})"
        )
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    sn, sc, srh, srw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, dh * srh, dw * srw, sh * srh, sw * srw),
        writeable=False,
    )
    # one (oc x K) . (K x oh*ow) GEMM per frame: a frame's bits do not depend on its batch
    k = c * kh * kw
    out = np.matmul(p.kernel.reshape(oc, k), windows.reshape(n, k, oh * ow))
    return out.reshape(n, oc, oh, ow)


def transposed_conv2d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Transposed convolution (scatter-add of kernel taps)."""
    x = as_f32(x)
    _require_nchw(x)
    n, c, h, w = x.shape
    oc, ic, kh, kw = p.kernel.shape
    if ic != c:
        raise ShapeError(
            f"input channels {tuple(x.shape)} do not match kernel {tuple(p.kernel.shape)}"
        )
    (sh, sw), (dh, dw), (ph, pw) = p.stride, p.dilation, p.padding
    fh = (h - 1) * sh + dh * (kh - 1) + 1
    fw = (w - 1) * sw + dw * (kw - 1) + 1
    oh, ow = fh - 2 * ph, fw - 2 * pw
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"padding {p.padding} swallows the whole output for input {tuple(x.shape)}"
        )
    full = np.zeros((n, oc, fh, fw), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            tap = np.tensordot(p.kernel[:, :, i, j], x, axes=([1], [1]))
            tap = tap.transpose(1, 0, 2, 3)
            full[
                :, :, i * dh : i * dh + sh * (h - 1) + 1 : sh,
                j * dw : j * dw + sw * (w - 1) + 1 : sw,
            ] += tap
    return np.ascontiguousarray(full[:, :, ph : fh - ph, pw : fw - pw])


def maxpool2x2_with_indices(x: np.ndarray) -> tuple[np.ndarray, PoolIndices]:
    """2x2/stride-2 max pooling, recording per-window argmax positions.

    Odd trailing rows/columns are treated as padded with -inf, so pooling is
    well defined for any spatial size.  Ties pick the first cell in row-major
    window order, which keeps unpooling deterministic.
    """
    x = as_f32(x)
    _require_nchw(x)
    n, c, h, w = x.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    xp = x
    if h % 2 or w % 2:
        xp = np.full((n, c, 2 * h2, 2 * w2), -np.inf, dtype=np.float32)
        xp[:, :, :h, :w] = x
    cells = [xp[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    top = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    # loc is the first cell equal to the max, or the first NaN if the max is
    # NaN: start at 3 and count down once for each of cells 0-2 from that hit on
    has_nan = np.isnan(top.max())  # a NaN cell makes its max NaN
    loc = np.full(top.shape, 3, dtype=np.uint8)
    seen = np.zeros(top.shape, dtype=bool)
    for cell in cells[:3]:
        seen |= ((cell == top) | np.isnan(cell)) if has_nan else (cell == top)
        loc -= seen
    base = 2 * w * np.arange(h2, dtype=np.int64)[:, None] + 2 * np.arange(w2, dtype=np.int64)
    flat = base + np.take(np.array([0, 1, w, w + 1], dtype=np.int64), loc)
    # a max that is not a zero or a NaN has the bits of the winning cell
    out = top.copy()
    fix = np.flatnonzero((top == 0) | np.isnan(top) if has_nan else top == 0)
    out.reshape(-1)[fix] = x.reshape(n * c, h * w)[fix // (h2 * w2), flat.reshape(-1)[fix]]
    return out.reshape(n, c, h2, w2), PoolIndices(dims=(n, c, h2, w2), argmax=flat)


def max_unpool2x2(x: np.ndarray, idx: PoolIndices, out_hw: tuple[int, int]) -> np.ndarray:
    """Scatter pooled values back to their argmax positions; zeros elsewhere."""
    x = as_f32(x)
    _require_nchw(x)
    if tuple(idx.dims) != tuple(x.shape):
        raise ShapeError(f"indices dims {tuple(idx.dims)} do not match input {tuple(x.shape)}")
    n, c, h2, w2 = x.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    flat = idx.argmax
    if flat.shape != x.shape:
        raise IntegrityError(f"argmax shape {flat.shape} does not match dims {idx.dims}")
    if flat.min() < 0 or flat.max() >= oh * ow:
        raise IntegrityError(
            f"pooling indices address cells outside the {oh}x{ow} output plane"
        )
    out = np.zeros((n, c, oh * ow), dtype=np.float32)
    np.put_along_axis(out, flat.reshape(n, c, -1), x.reshape(n, c, -1), axis=-1)
    return out.reshape(n, c, oh, ow)


def _per_channel(v, channels: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float32).reshape(-1)
    if arr.shape[0] == 1 and channels != 1:
        arr = np.full(channels, arr[0], dtype=np.float32)
    if arr.shape[0] != channels:
        raise ShapeError(f"{name} length {arr.shape[0]} != channel count {channels}")
    return arr


def batchnorm_infer(x, gamma, beta, mean, var, eps: float = BATCHNORM_EPS,
                    out=None) -> np.ndarray:
    """Inference-mode batch normalization: gamma*(x-mean)/sqrt(var+eps)+beta,
    written into ``out`` if given (it may be *x*)."""
    x = as_f32(x)
    _require_nchw(x)
    c = x.shape[1]
    g, b = _per_channel(gamma, c, "gamma"), _per_channel(beta, c, "beta")
    m, v = _per_channel(mean, c, "mean"), _per_channel(var, c, "var")
    if (v < 0).any():
        raise ShapeError("variance must be non-negative")
    scale = g / np.sqrt(v + np.float32(eps))
    shift = b - m * scale
    y = np.multiply(x, scale[None, :, None, None], out=out)
    return np.add(y, shift[None, :, None, None], out=y)


def prelu(x, slope, out=None) -> np.ndarray:
    """Per-channel PReLU: x if x > 0 else slope * x, written into ``out`` if
    given (it may be *x*).

    With every slope in (0, 1] this is max(x * slope, x), as numpy returns
    the second operand on a tie and the first if it is NaN.  Other slopes
    take max(x, -0.0) + min(0, x) * slope, which adds exactly: min(0, x)
    keeps the sign of a zero x and max(x, -0.0) is -0.0 wherever x <= 0.
    """
    x = as_f32(x)
    _require_nchw(x)
    s = _per_channel(slope, x.shape[1], "slope")[None, :, None, None]
    y = np.empty_like(x) if out is None else out
    two_pass = np.all((s > 0) & (s <= 1))
    step = max(1, PRELU_BLOCK // x[:, :1].size)  # a block's temporaries stay in cache
    for b in (slice(i, i + step) for i in range(0, x.shape[1], step)):
        if two_pass:
            np.maximum(x[:, b] * s[:, b], x[:, b], out=y[:, b])
        else:
            neg = np.minimum(0, x[:, b]) * s[:, b]
            np.add(np.maximum(x[:, b], -0.0, out=y[:, b]), neg, out=y[:, b])
    return y


def sigmoid(x) -> np.ndarray:
    """Numerically tame elementwise logistic; never yields NaN/Inf."""
    x = as_f32(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def channel_zero_pad(x, target_channels: int) -> np.ndarray:
    """Append zero-valued channels up to target_channels."""
    x = as_f32(x)
    _require_nchw(x)
    n, c, h, w = x.shape
    if target_channels < c:
        raise ShapeError(f"cannot pad {c} channels down to {target_channels}")
    if target_channels == c:
        return x
    pad = np.zeros((n, target_channels - c, h, w), dtype=np.float32)
    return np.concatenate([x, pad], axis=1)


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
