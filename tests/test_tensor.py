import struct

import numpy as np
import pytest

from lanekit import tensor as T
from lanekit.errors import FormatError, IntegrityError, ShapeError

from oracles import conv2d_ref, maxpool2x2_ref, transposed_conv2d_ref


def rng(seed=0):
    return np.random.default_rng(seed)


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


# ----------------------------------------------------------------- pooling

def test_maxpool_trivial_window():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
    out, idx = T.maxpool2x2_with_indices(x)
    assert out[0, 0, 0, 0] == 4.0
    assert idx.argmax[0, 0, 0, 0] == 1 * 2 + 1


def test_maxpool_tie_breaks_to_top_left():
    x = np.full((1, 1, 2, 2), 7.0, dtype=np.float32)
    _, idx = T.maxpool2x2_with_indices(x)
    assert idx.argmax[0, 0, 0, 0] == 0


def test_maxpool_matches_window_scan():
    x = rng(5).random((1, 2, 6, 6), dtype=np.float32)
    out, idx = T.maxpool2x2_with_indices(x)
    ref_out, ref_idx = maxpool2x2_ref(x)
    assert (out == ref_out).all()
    assert (idx.argmax == ref_idx).all()


def test_maxpool_odd_dims_pad_with_neg_inf():
    x = rng(6).random((1, 1, 5, 3), dtype=np.float32)
    out, idx = T.maxpool2x2_with_indices(x)
    ref_out, ref_idx = maxpool2x2_ref(x)
    assert out.shape == (1, 1, 3, 2)
    assert (out == ref_out).all() and (idx.argmax == ref_idx).all()


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
    idx = T.PoolIndices(dims=(1, 1, 1, 1), argmax=np.array([[[[99]]]], dtype=np.int64))
    with pytest.raises(IntegrityError):
        T.max_unpool2x2(x, idx, (2, 2))


def test_unpool_indices_stay_inside_their_window():
    x = rng(8).random((1, 2, 8, 8), dtype=np.float32)
    _, idx = T.maxpool2x2_with_indices(x)
    for i in range(4):
        for j in range(4):
            for c in range(2):
                flat = int(idx.argmax[0, c, i, j])
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
