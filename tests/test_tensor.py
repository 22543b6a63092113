import math
import struct
import tracemalloc

import numpy as np
import pytest

from lanekit import tensor as T
from lanekit.errors import FormatError, IntegrityError, ShapeError

from oracles import conv2d_ref, maxpool2x2_ref, sigmoid_ref, transposed_conv2d_ref


def rng(seed=0):
    return np.random.default_rng(seed)


def warm_call_peak(call):
    """The bytes that a warm *call* holds at its peak, over those traced before it."""
    call()  # grows this thread's buffers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------- conv2d

def test_conv2d_all_ones_sums_window():
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    p = T.ConvParams(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = T.conv2d(x, p)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 9.0


def test_conv2d_initial_layer_shape():
    x = rng().random((1, 3, 352, 640), dtype=np.float32)
    p = T.ConvParams(rng(1).random((13, 3, 3, 3), dtype=np.float32),
                     stride=(2, 2), padding=(1, 1))
    assert T.conv2d(x, p).shape == (1, 13, 176, 320)


def test_conv2d_dilated_matches_bruteforce():
    g = rng(2)
    x = g.random((1, 2, 8, 8), dtype=np.float32)
    k = g.random((3, 2, 3, 3), dtype=np.float32)
    p = T.ConvParams(k, dilation=(2, 2))
    got = T.conv2d(x, p)
    ref = conv2d_ref(x, k, dilation=(2, 2))
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-5


def test_conv2d_shape_mismatch_names_both_shapes():
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)
    p = T.ConvParams(np.zeros((1, 3, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError) as exc:
        T.conv2d(x, p)
    assert "(1, 2, 4, 4)" in str(exc.value) and "(1, 3, 3, 3)" in str(exc.value)


@pytest.mark.parametrize("op, hw, kernel, padding, rows, match", [
    ("conv2d", (2, 2), (3, 3), (0, 0), None, "does not fit input"),
    ("transposed_conv2d", (1, 1), (1, 1), (1, 1), None, "swallows the whole output"),
    ("conv2d", (4, 4), (1, 1), (0, 0), slice(0, 2, 2), "not a range"),
    ("conv2d", (4, 4), (1, 1), (0, 0), slice(1, 1), "not a range"),
], ids=["kernel-does-not-fit", "padding-swallows-output", "rows-step-2", "rows-empty"])
def test_conv_kernels_reject_sizes_with_no_output(op, hw, kernel, padding, rows, match):
    # an unpadded 3x3 on 2x2 has no output, nor a 1x1 transposed conv that pads (1, 1) away
    # from a 1x1 input; the output rows to run must be a non-empty unit-step range
    x = np.zeros((1, 1, *hw), np.float32)
    p = T.ConvParams(np.ones((1, 1, *kernel), np.float32), padding=padding)
    with pytest.raises(ShapeError, match=match):
        getattr(T, op)(x, p, **({} if rows is None else {"rows": rows}))


@pytest.mark.parametrize("geometry", [((3, 3), (1, 1), (1, 1), (1, 1)),
                                      ((3, 3), (2, 2), (2, 2), (2, 2)),
                                      ((3, 3), (2, 2), (1, 1), (1, 1)),
                                      ((2, 2), (1, 1), (2, 2), (0, 0)),
                                      ((1, 1), (1, 1), (1, 1), (0, 0))],
                         ids=["3x3", "dilated", "strided", "2x2", "1x1"])
def test_conv2d_row_range_equals_those_rows_of_the_whole(geometry, monkeypatch):
    # each range reads the rows of x around it, padding included, and writes only its own
    # rows, into a band of another array's rows; bands of 3 rows cut each range further.
    # Every GEMM's columns are whole GEMM blocks: 32 output columns a row
    kernel, dilation, stride, padding = geometry
    rng = np.random.default_rng(9)
    w = 31 * stride[1] + dilation[1] * (kernel[1] - 1) + 1 - 2 * padding[1]
    x = rng.standard_normal((1, 4, 20, w)).astype(np.float32)
    p = T.ConvParams(rng.standard_normal((5, 4, *kernel)).astype(np.float32),
                     stride, dilation, padding)
    monkeypatch.setattr(T, "CONV_BAND", 3 * 4 * math.prod(kernel) * 32)
    whole = T.conv2d(x, p)
    out = np.full_like(whole, np.nan)
    oh = whole.shape[2]
    for rows in (slice(0, 1), slice(1, oh // 2), slice(oh // 2, oh)):
        assert T.conv2d(x, p, out[:, :, rows], rows).base is out
        assert T.conv2d(x, p, rows=rows).tobytes() == whole[:, :, rows].tobytes()
    assert out.tobytes() == whole.tobytes()
    with pytest.raises(ShapeError, match="output rows"):
        T.conv2d(x, p, rows=slice(oh, oh + 1))


def test_conv2d_is_deterministic():
    g = rng(3)
    x = g.random((2, 4, 9, 7), dtype=np.float32)
    p = T.ConvParams(g.random((5, 4, 3, 3), dtype=np.float32), stride=(2, 1), padding=(1, 2))
    a, b = T.conv2d(x, p), T.conv2d(x, p)
    assert (a == b).all()


# ------------------------------------------------------- transposed conv

def test_transposed_conv2d_block_scatter():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
    p = T.ConvParams(np.ones((1, 1, 2, 2), dtype=np.float32), stride=(2, 2))
    out = T.transposed_conv2d(x, p)
    expected = np.array(
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32
    )
    assert out.shape == (1, 1, 4, 4)
    assert (out[0, 0] == expected).all()


def test_transposed_conv2d_upsampler_doubles_88x160():
    # the decoder's stride-2 upsampling configuration: 2x2 kernel, pad 0
    g = rng(4)
    x = g.random((1, 4, 88, 160), dtype=np.float32) - 0.5
    k = g.random((4, 4, 2, 2), dtype=np.float32) - 0.5
    out = T.transposed_conv2d(x, T.ConvParams(k, stride=(2, 2)))
    assert out.shape == (1, 4, 176, 320)
    assert T.transposed_output_hw((88, 160), (2, 2), (2, 2), (1, 1), (0, 0)) == (176, 320)


@pytest.mark.parametrize("stride,padding,kernel", [
    ((1, 1), (0, 0), (3, 3)),
    ((2, 2), (0, 0), (2, 2)),
    ((2, 2), (1, 1), (3, 3)),
    ((3, 2), (1, 0), (2, 3)),
])
def test_transposed_conv2d_matches_scatter_add(stride, padding, kernel):
    g = rng(hash((stride, padding, kernel)) % 2**32)
    x = g.random((1, 3, 5, 6), dtype=np.float32) - 0.5
    k = g.random((2, 3) + kernel, dtype=np.float32) - 0.5
    got = T.transposed_conv2d(x, T.ConvParams(k, stride=stride, padding=padding))
    ref = transposed_conv2d_ref(x, k, stride=stride, padding=padding)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-5


def test_transposed_conv2d_taps_go_through_thread_buffers():
    # the "up" row's upsampler at 640x352, out given: one tap is 220 KiB, and a fresh
    # array per tap peaked at 443 KiB
    g = rng(10)
    x = g.standard_normal((1, 16, 44, 80)).astype(np.float32)
    p = T.ConvParams(g.uniform(-0.1, 0.1, (16, 16, 2, 2)).astype(np.float32), stride=(2, 2))
    out = np.empty((1, 16, 88, 160), np.float32)
    peak = warm_call_peak(lambda: T.transposed_conv2d(x, p, out=out))
    assert peak < 128 * 2**10, peak / 2**10
    assert out.tobytes() == T.transposed_conv2d(x, p).tobytes()


# ----------------------------------------------------------------- pooling

def test_maxpool_trivial_window():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
    out, idx = T.maxpool2x2_with_indices(x)
    assert out[0, 0, 0, 0] == 4.0
    assert idx[0, 0, 0, 0] == 1 * 2 + 1


def test_maxpool_tie_breaks_to_top_left():
    x = np.full((1, 1, 2, 2), 7.0, dtype=np.float32)
    _, idx = T.maxpool2x2_with_indices(x)
    assert idx[0, 0, 0, 0] == 0


def test_maxpool_matches_window_scan():
    x = rng(5).random((1, 2, 6, 6), dtype=np.float32)
    out, idx = T.maxpool2x2_with_indices(x)
    ref_out, ref_idx = maxpool2x2_ref(x)
    assert (out == ref_out).all()
    assert (idx == ref_idx).all()


def test_maxpool_odd_dims_pad_with_neg_inf():
    x = rng(6).random((1, 1, 5, 3), dtype=np.float32)
    out, idx = T.maxpool2x2_with_indices(x)
    ref_out, ref_idx = maxpool2x2_ref(x)
    assert out.shape == (1, 1, 3, 2)
    assert (out == ref_out).all() and (idx == ref_idx).all()


def test_kept_pool_indices_peak_under_6_bytes_per_pooled_cell():
    # the kept "down" row at 640x352, into given values and int32 indices: a table lookup
    # by the uint8 window cells copied them as intp, 8 B per pooled cell, for 2,202 KiB
    x = rng(9).standard_normal((1, 64, 88, 160)).astype(np.float32)
    out = np.empty((1, 64, 44, 80), np.float32)
    argmax = np.empty(out.shape, np.int32)
    peak = warm_call_peak(lambda: T.maxpool2x2_with_indices(x, out, argmax))
    assert peak < 6 * out.size, peak / 2**10
    values, flat = T.maxpool2x2_with_indices(x)
    assert flat.dtype == np.int64 and (flat == argmax).all()
    assert values.tobytes() == out.tobytes()


def test_unpool_scatters_single_value():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
    pooled, idx = T.maxpool2x2_with_indices(x)
    restored = T.max_unpool2x2(pooled, idx, (2, 2))
    assert (restored == np.array([[0, 0], [0, 4.0]], dtype=np.float32)).all()


def test_unpool_round_trip_conservation():
    x = rng(7).random((2, 3, 8, 10), dtype=np.float32)
    pooled, idx = T.maxpool2x2_with_indices(x)
    restored = T.max_unpool2x2(pooled, idx, (8, 10))
    # exact conservation: the scattered values are the pooled values, bit for bit
    assert (np.sort(restored[restored != 0]) == np.sort(pooled.ravel())).all()
    assert np.isclose(restored.astype(np.float64).sum(), pooled.astype(np.float64).sum())
    # at most one nonzero per 2x2 window, at a per-window max position
    win = restored.reshape(2, 3, 4, 2, 5, 2)
    nonzero_per_window = (win != 0).sum(axis=(3, 5))
    assert nonzero_per_window.max() <= 1


def test_unpool_rejects_out_of_range_indices():
    x = np.ones((1, 1, 1, 1), dtype=np.float32)
    with pytest.raises(IntegrityError):
        T.max_unpool2x2(x, np.array([[[[99]]]], dtype=np.int64), (2, 2))


@pytest.mark.parametrize("shape", [(1, 1, 2, 1), (1, 2, 2, 2), (1, 1, 2, 2, 1)])
def test_unpool_rejects_indices_of_another_shape(shape):
    x = np.ones((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(ShapeError, match=r"argmax \(.*\) does not match input \(1, 1, 2, 2\)"):
        T.max_unpool2x2(x, np.zeros(shape, dtype=np.int64), (4, 4))


def test_unpool_indices_stay_inside_their_window():
    x = rng(8).random((1, 2, 8, 8), dtype=np.float32)
    _, idx = T.maxpool2x2_with_indices(x)
    for i in range(4):
        for j in range(4):
            for c in range(2):
                flat = int(idx[0, c, i, j])
                y, xx = flat // 8, flat % 8
                assert 2 * i <= y < 2 * i + 2 and 2 * j <= xx < 2 * j + 2


# ----------------------------------------------------- pointwise friends

def test_batchnorm_identity_params():
    x = rng(9).random((1, 3, 4, 4), dtype=np.float32)
    out = T.batchnorm_infer(x, gamma=[1, 1, 1], beta=[0, 0, 0],
                            mean=[0, 0, 0], var=[1, 1, 1], eps=0.0)
    assert np.allclose(out, x, atol=1e-7)


def test_batchnorm_centered_input_returns_beta():
    x = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
    out = T.batchnorm_infer(x, gamma=[3.0], beta=[0.5], mean=[2.0], var=[123.0])
    assert np.allclose(out, 0.5, atol=1e-7)


def test_batchnorm_matches_scalar_formula():
    g = rng(10)
    x = g.random((2, 4, 5, 5), dtype=np.float32)
    gamma, beta = g.random(4), g.random(4)
    mean, var = g.random(4), g.random(4) + 0.1
    out = T.batchnorm_infer(x, gamma, beta, mean, var, eps=1e-5)
    for c in range(4):
        ref = gamma[c] * (x[:, c].astype(np.float64) - mean[c]) / np.sqrt(var[c] + 1e-5) + beta[c]
        assert np.abs(out[:, c] - ref).max() <= 1e-6


def test_batchnorm_rejects_negative_variance():
    x = np.zeros((1, 1, 1, 1), dtype=np.float32)
    with pytest.raises(ShapeError):
        T.batchnorm_infer(x, [1.0], [0.0], [0.0], [-1.0])


def test_prelu_quarter_slope():
    x = np.full((1, 1, 1, 1), -4.0, dtype=np.float32)
    assert T.prelu(x, [0.25])[0, 0, 0, 0] == -1.0


def test_prelu_identity_on_nonnegative():
    x = np.abs(rng(11).random((1, 2, 3, 3), dtype=np.float32))
    assert (T.prelu(x, [9.0, -3.0]) == x).all()


def test_prelu_zero_slope_is_relu():
    x = rng(12).standard_normal((1, 3, 6, 6)).astype(np.float32)
    assert (T.prelu(x, [0, 0, 0]) == np.maximum(x, 0)).all()


def test_sigmoid_values():
    assert T.sigmoid(np.zeros((1, 1, 1, 1), dtype=np.float32))[0, 0, 0, 0] == 0.5
    big = T.sigmoid(np.full((1, 1, 1, 1), -200.0, dtype=np.float32))
    assert np.isfinite(big).all() and big[0, 0, 0, 0] < 1e-30


def test_sigmoid_matches_high_precision():
    x = rng(13).uniform(-30, 30, (1, 1, 16, 16)).astype(np.float32)
    ref = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    assert np.abs(T.sigmoid(x) - ref).max() <= 1e-6


def test_sigmoid_bytes_equal_reference_over_random_bit_patterns():
    # every float32 class: ±0, denormals, normals, ±inf and NaN payloads of both signs
    bits = rng(14).integers(0, 2**32, 2**18, dtype=np.uint64).astype(np.uint32)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 88.7, -104.0],
                        dtype=np.float32)
    x = np.concatenate([bits.view(np.float32), specials, -specials]).reshape(1, 1, 1, -1)
    with np.errstate(invalid="ignore"):
        out, ref = T.sigmoid(x), sigmoid_ref(x)
    assert out.dtype == np.float32 and out.shape == x.shape
    assert (out.view(np.uint32) == ref.view(np.uint32)).all()
    assert np.isnan(out[np.isnan(x)]).all()


def test_channel_zero_pad():
    x = rng(17).random((1, 16, 3, 3), dtype=np.float32)
    out = T.channel_zero_pad(x, 64)
    assert out.shape == (1, 64, 3, 3)
    assert (out[:, :16] == x).all()
    assert (out[:, 16:] == 0).all()
    assert out.sum() == x.sum()
    assert (T.channel_zero_pad(x, 16) == x).all()
    with pytest.raises(ShapeError):
        T.channel_zero_pad(x, 8)


def test_channel_zero_pad_bytes():
    # the input's bits (signed zeros, infinities, NaN payloads, denormals)
    # come through unchanged, the new channels are +0.0, and the output is
    # a new array
    bits = np.array([0x80000000, 0x00000000, 0x7F800000, 0xFF800000, 0x7FC00001,
                     0xFFC12345, 0x7F800001, 0x00000001, 0x3F800000, 0xBF000000],
                    dtype=np.uint32)
    x = bits[rng(19).integers(0, len(bits), (2, 3, 4, 5))].view(np.float32)
    out = T.channel_zero_pad(x, 7)
    assert out.shape == (2, 7, 4, 5) and out.dtype == np.float32
    assert out[:, :3].tobytes() == x.tobytes()
    assert not out[:, 3:].view(np.uint32).any()
    assert not np.shares_memory(out, x)


# ------------------------------------------------------------------- AFT1

def test_aft_round_trip_exact():
    g = rng(18)
    for shape in [(3,), (2, 5), (1, 2, 3, 4)]:
        arr = g.standard_normal(shape).astype(np.float32)
        blob = T.tensor_to_bytes(arr)
        back, end = T.tensor_from_bytes(blob)
        assert end == len(blob)
        assert back.shape == arr.shape and (back == arr).all()


def test_aft_file_round_trip(tmp_path):
    arr = rng(19).standard_normal((2, 3, 4)).astype(np.float32)
    path = str(tmp_path / "t.aft")
    T.save_tensor(path, arr)
    assert (T.load_tensor(path) == arr).all()


def test_aft_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.aft")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        T.load_tensor(path)


def test_aft_rejects_truncation(tmp_path):
    arr = rng(20).standard_normal((4, 4)).astype(np.float32)
    blob = T.tensor_to_bytes(arr)
    path = str(tmp_path / "short.aft")
    with open(path, "wb") as f:
        f.write(blob[:-5])
    with pytest.raises(FormatError):
        T.load_tensor(path)


@pytest.mark.parametrize("shape", [(0,), (2, 0, 3), (1,) * 9])
def test_aft_write_refuses_what_read_refuses(shape):
    arr = np.zeros(shape, dtype=np.float32)
    with pytest.raises(FormatError, match="cannot write shape"):
        T.tensor_to_bytes(arr)
    # the same header, written by hand, is refused on read
    header = T.AFT_MAGIC + struct.pack(f"<I{arr.ndim}I", arr.ndim, *shape)
    with pytest.raises(FormatError):
        T.tensor_from_bytes(header)


@pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**21, 2**21, 2**22)])
def test_aft_rejects_element_count_past_payload(dims):
    # both products overflow int64 (the second wraps to exactly 0)
    blob = T.AFT_MAGIC + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    with pytest.raises(FormatError, match="truncated tensor payload"):
        T.tensor_from_bytes(blob + b"\x00" * 16)
