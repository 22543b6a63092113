"""Property tests.  The readers: any input bytes give a value or a
LanekitError (tensors, weight files), or annotations plus reported errors
(label files).  The forward kernels: their float32 outputs are byte-equal to
reference kernels, in place or not and batched or not, on inputs full of
signed zeros, infinities, NaN payloads, denormals and ties.  The decoder: its
lanes and cluster map are byte-equal to the pair-at-a-time reference on maps
full of signed zeros, NaN and ties.  The rasterizer: its masks are
byte-equal to the row-at-a-time reference on any valid annotation."""
import io
import json
import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanekit import affinity as af
from lanekit import arch
from lanekit import dataset as D
from lanekit import tensor as T
from lanekit.errors import LanekitError, ShapeError
from oracles import (association_error_pair_ref, decode_ref, maxpool2x2_bits_ref,
                     prelu_bits_ref, rasterize_ref)

# raw bytes, bytes behind the magic, and a plausible header over random dims
aft_blobs = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: T.AFT_MAGIC + b),
    st.tuples(st.integers(0, 9), st.lists(st.integers(0, 2**32 - 1), max_size=9),
              st.binary(max_size=64)).map(
        lambda t: T.AFT_MAGIC + struct.pack(f"<I{len(t[1])}I", t[0], *t[1]) + t[2]),
)

# weight files: raw bytes, bytes behind the magic, and a plausible header over
# entries that are mostly well formed, with names that often repeat
# tensor_to_bytes refuses a zero dim, so the empty tensor is written by hand
valid_tensors = st.one_of(
    st.lists(st.floats(width=32), min_size=1, max_size=4).map(
        lambda v: T.tensor_to_bytes(np.asarray(v, dtype=np.float32))),
    st.just(T.AFT_MAGIC + struct.pack("<II", 1, 0)))
afw_entries = st.tuples(
    st.sampled_from([b"x", b"a.kernel", b"x", b"", b"\xff"]),
    st.sampled_from([0, 0, 0, 0, 1]),                    # name length error
    st.one_of(valid_tensors, valid_tensors, aft_blobs),
).map(lambda t: struct.pack("<H", len(t[0]) + t[1]) + t[0] + t[2])
afw_files = st.tuples(st.lists(afw_entries, max_size=4), st.sampled_from([0, 0, 1, -1])).map(
    lambda t: arch.WEIGHTS_MAGIC + struct.pack("<I", max(0, len(t[0]) + t[1]))
    + b"".join(t[0]))
afw_blobs = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: arch.WEIGHTS_MAGIC + b),
    afw_files, afw_files,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["raw_file", "h_samples", "lanes", "x"]), inner, max_size=4),
    max_leaves=12,
)
label_lines = st.one_of(
    st.binary(max_size=48),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.sampled_from([b"5", b"[1,2]", b'{"raw_file": 1, "h_samples": [1e999], "lanes": []}',
                     b"[" * 100_000, b"1" * 5000, b"\xff\xfe", b"\r"]),
)


@settings(max_examples=300, deadline=None)
@given(aft_blobs)
def test_tensor_from_bytes_gives_array_or_lanekit_error(blob):
    try:
        arr, end = T.tensor_from_bytes(blob)
    except LanekitError:
        return
    assert isinstance(arr, np.ndarray) and arr.dtype == np.float32
    assert end == 4 + 4 * (1 + arr.ndim) + arr.nbytes <= len(blob)


def _with_file(blob, read):
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        return read(path)
    finally:
        os.unlink(path)


@settings(max_examples=300, deadline=None)
@given(afw_blobs)
def test_load_weights_gives_store_or_lanekit_error(blob):
    try:
        store = _with_file(blob, arch.load_weights)
    except LanekitError:
        return
    assert isinstance(store, dict)
    assert struct.unpack_from("<I", blob, 4)[0] == len(store)
    assert all(isinstance(k, str) and isinstance(v, np.ndarray) and v.dtype == np.float32
               and np.isfinite(v).all() for k, v in store.items())


@settings(max_examples=200, deadline=None)
@given(st.lists(label_lines, max_size=6).map(b"\n".join))
def test_parse_tusimple_reports_every_bad_line(blob):
    errors: list[str] = []
    anns = _with_file(blob, lambda path: D.parse_tusimple(path, errors))
    assert all(isinstance(a, D.LaneAnnotation) for a in anns)
    assert all(isinstance(e, str) and e.startswith("line ") for e in errors)
    text = io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", errors="surrogateescape")
    assert len(anns) + len(errors) == sum(1 for line in text if line.strip())


# --------------------------------------------------------- forward kernels

# float32 values that make rounding, sign and NaN propagation visible: signed
# zeros, infinities, quiet and signalling NaNs with payloads and either sign,
# denormals, small integers (ties) and a few ordinary values
EDGE_F32 = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-40, -3e-39,
              -2, -1, 1, 2, 3, 0.1, -0.3, 1e30], dtype=np.float32),
    np.array([0x7FC00001, 0xFFC00002, 0x7F800003, 0xFF812345],
             dtype=np.uint32).view(np.float32),
])
# slopes on both sides of each edge of (0, 1], where prelu switches route
SLOPES_F32 = np.array([0.0, -0.0, 0.25, -0.5, -3.0, 1e-45, 2.0, 0.5, 1.0, 0.99999994,
                       1.0000001], dtype=np.float32)


# (N, C, H, W) arrays over EDGE_F32 with N <= 3, odd H and W included; drawn
# as indices, so that every NaN keeps its payload
edge_arrays = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 7),
                        st.integers(1, 7)).flatmap(lambda shape: st.lists(
                            st.integers(0, len(EDGE_F32) - 1), min_size=math.prod(shape),
                            max_size=math.prod(shape)).map(lambda i: EDGE_F32[i].reshape(shape)))


def per_channel(x, values, data):
    return values[data.draw(st.lists(st.integers(0, len(values) - 1),
                                     min_size=x.shape[1], max_size=x.shape[1]))]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# prelu works on blocks of whole channels of about PRELU_BLOCK values; on these
# small arrays, blocks of 1, 7 and 20 values hold one channel or a few
prelu_blocks = st.sampled_from([1, 7, 20, T.PRELU_BLOCK])


def check_prelu(x, slope, block):
    with np.errstate(invalid="ignore"), mock.patch.object(T, "PRELU_BLOCK", block):
        ref = prelu_bits_ref(x, slope)
        assert same_bits(T.prelu(x, slope), ref)
        y = x.copy()
        assert T.prelu(y, slope, out=y) is y
    assert same_bits(y, ref)


@settings(max_examples=300, deadline=None)
@given(edge_arrays, prelu_blocks, st.data())
def test_prelu_bytes_equal_reference(x, block, data):
    check_prelu(x, per_channel(x, SLOPES_F32, data), block)


@settings(max_examples=300, deadline=None)
@given(edge_arrays, prelu_blocks, st.data())
def test_prelu_two_pass_route_bytes_equal_reference(x, block, data):
    # every slope in (0, 1], so every call takes the max(x * slope, x) route
    unit = st.one_of(st.sampled_from([1e-45, 1e-40, 0.5, 0.99999994, 1.0]),
                     st.floats(0, 1, exclude_min=True, width=32))
    slope = np.array(data.draw(st.lists(unit, min_size=x.shape[1], max_size=x.shape[1])),
                     dtype=np.float32)
    assert ((slope > 0) & (slope <= 1)).all()
    check_prelu(x, slope, block)


@settings(max_examples=300, deadline=None)
@given(edge_arrays)
# np.maximum returns +0.0 here, but the first cell, -0.0, wins the window
@example(np.array([[[[-0.0, 0.0], [-1.0, -1.0]]]], dtype=np.float32))
def test_maxpool_bytes_equal_reference(x):
    out, idx = T.maxpool2x2_with_indices(x)
    ref_out, ref_arg = maxpool2x2_bits_ref(x)
    assert same_bits(out, ref_out)
    assert same_bits(idx.argmax, ref_arg) and idx.argmax.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(edge_arrays, st.data())
def test_batchnorm_in_place_bytes_equal_out_of_place(x, data):
    nonneg = EDGE_F32[~np.signbit(EDGE_F32) & np.isfinite(EDGE_F32)]
    gamma, beta, mean = (per_channel(x, EDGE_F32, data) for _ in range(3))
    var = per_channel(x, nonneg, data)
    with np.errstate(all="ignore"):
        ref = T.batchnorm_infer(x, gamma, beta, mean, var)
        y = x.copy()
        assert T.batchnorm_infer(y, gamma, beta, mean, var, out=y) is y
    assert same_bits(y, ref)


def _bits_ref_batchnorm_add_prelu(x, bn=None, main=None, slope=None, out=None):
    """Batchnorm, the add of a zero-padded main and PReLU as the separate float32
    passes that the fused kernel replaced."""
    y = np.array(x, dtype=np.float32)
    if bn is not None:
        gamma, beta, mean, var = (np.asarray(a, dtype=np.float32) for a in bn)
        scale = gamma / np.sqrt(var + np.float32(T.BATCHNORM_EPS))
        y = y * scale[:, None, None] + (beta - mean * scale)[:, None, None]
    if main is not None:
        pad = np.zeros((len(y), y.shape[1] - main.shape[1], *y.shape[2:]), np.float32)
        y = np.concatenate([main, pad], axis=1) + y
    if slope is not None:
        y = prelu_bits_ref(y, slope)
    if out is None:
        return y
    out[...] = y
    return out


@settings(max_examples=300, deadline=None)
@given(edge_arrays, prelu_blocks, st.data())
def test_batchnorm_add_prelu_bytes_equal_separate_passes(x, block, data):
    nonneg = EDGE_F32[~np.signbit(EDGE_F32) & np.isfinite(EDGE_F32)]
    bn = [per_channel(x, EDGE_F32, data) for _ in range(3)] + [per_channel(x, nonneg, data)]
    n, c, h, w = x.shape
    k = data.draw(st.integers(1, c))
    main = EDGE_F32[data.draw(st.lists(st.integers(0, len(EDGE_F32) - 1), min_size=n * k * h * w,
                                       max_size=n * k * h * w))].reshape(n, k, h, w)
    slope = per_channel(x, SLOPES_F32, data)
    args = [a if data.draw(st.booleans()) else None for a in (bn, main, slope)]
    with np.errstate(all="ignore"), mock.patch.object(T, "PRELU_BLOCK", block):
        ref = _bits_ref_batchnorm_add_prelu(x, *args)
        y = x.copy()
        assert T.batchnorm_add_prelu(y, *args, out=y) is y
        outs = (T.batchnorm_add_prelu(x, *args), y)
    # where two NaNs meet in a multiply or an add, numpy's loops return either one,
    # by position in the loop, so a NaN's payload is left open here; the PReLU
    # properties above pin the payload that one NaN operand carries through
    nan = np.isnan(ref)
    for got in outs:
        assert got.shape == x.shape and (np.isnan(got) == nan).all()
        assert same_bits(got[~nan], ref[~nan])


def test_batchnorm_add_prelu_names_a_main_that_does_not_fit():
    x = np.zeros((1, 2, 3, 4), np.float32)
    for main in (np.zeros((1, 3, 3, 4), np.float32), np.zeros((1, 2, 3, 5), np.float32)):
        with pytest.raises(ShapeError, match=r"main \(1, \d, 3, \d\) does not fit \(1, 2, 3, 4\)"):
            T.batchnorm_add_prelu(x, main=main)


def _bits_ref_maxpool(x, out=None, argmax=None, indices=True):
    top, arg = maxpool2x2_bits_ref(x)
    if out is not None:
        out[...] = top
    return (top if out is None else out), (T.PoolIndices(dims=top.shape, argmax=arg)
                                           if indices else None)


@settings(max_examples=200, deadline=None)
@given(edge_arrays)
@example(np.random.default_rng(0).standard_normal((2, 3, 7, 9)).astype(np.float32))
def test_values_only_maxpool_bytes_equal_maxpool(x):
    want, idx = T.maxpool2x2_with_indices(x)
    top, none = T.maxpool2x2_with_indices(x, indices=False)
    assert none is None and same_bits(top, want)
    out, argmax = np.empty_like(want), np.empty(want.shape, np.int64)
    top, got = T.maxpool2x2_with_indices(x, out, argmax)
    assert top is out and got.argmax is argmax
    assert same_bits(out, want) and same_bits(argmax, idx.argmax)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [T.PRELU_BLOCK, 100])
@pytest.mark.parametrize("slopes", ["default", "mixed"])
@pytest.mark.parametrize("shared_heads", [False, True])
def test_forward_bytes_equal_forward_on_reference_kernels(shared_heads, slopes, block,
                                                          monkeypatch):
    spec = arch.build_enet21(shared_heads=shared_heads)
    store = arch.random_weights(spec, seed=3)
    if slopes == "mixed":
        # every other slope tensor draws from (0, 1] only, the rest from both routes
        rng = np.random.default_rng(3)
        in_unit = SLOPES_F32[(SLOPES_F32 > 0) & (SLOPES_F32 <= 1)]
        for i, name in enumerate(k for k in sorted(store) if k.endswith(".slope")):
            store[name] = rng.choice(in_unit if i % 2 else SLOPES_F32, store[name].shape)
    img = np.random.default_rng(3).standard_normal((2, 3, 32, 48)).astype(np.float32)
    monkeypatch.setattr(T, "PRELU_BLOCK", block)
    got = arch.forward(spec, store, img)
    monkeypatch.setattr(T, "batchnorm_add_prelu", _bits_ref_batchnorm_add_prelu)
    monkeypatch.setattr(T, "maxpool2x2_with_indices", _bits_ref_maxpool)
    for a, b in zip(got, arch.forward(spec, store, img)):
        assert same_bits(a, b)


def _plan_convs():
    """Every (kernel, stride, dilation, padding) of a conv slot in the plan."""
    convs = set()

    def step(plan, head, _):
        for s in plan.ext + ((plan.main_conv,) if plan.main_conv else ()):
            if s.op == "conv":
                convs.add((s.kernel, s.stride, s.dilation, s.padding))

    arch.walk(arch.build_enet21(), None, step)
    return sorted(convs)


PLAN_CONVS = _plan_convs()


def draw_f32(data, shape):
    size = math.prod(shape)
    values = data.draw(st.lists(st.floats(-4, 4, width=32), min_size=size, max_size=size))
    return np.asarray(values, dtype=np.float32).reshape(shape)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PLAN_CONVS), st.integers(1, 4), st.integers(1, 4),
       st.integers(2, 12), st.integers(2, 12), st.data())
def test_conv2d_batch_bytes_equal_single_frames(conv, c, oc, h, w, data):
    kernel, stride, dilation, padding = conv
    x = draw_f32(data, (3, c, h, w))
    p = T.ConvParams(draw_f32(data, (oc, c, *kernel)), stride=stride, dilation=dilation,
                     padding=padding)
    frames = np.concatenate([T.conv2d(x[i:i + 1], p) for i in range(3)])
    assert same_bits(T.conv2d(x, p), frames)


# ------------------------------------------------------------------ decode

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 200), min_size=1, max_size=5), st.integers(0, 8),
       st.integers(0, 2**32 - 1))
def test_association_error_entries_bytes_equal_pair_reference(lengths, clusters, seed):
    # past 8 pixels numpy sums a row pairwise, not in order; each entry must
    # keep the sum its track's pixels get alone
    rng = np.random.default_rng(seed)
    vaf = rng.uniform(-1, 1, (2, 6, 200)).astype(np.float32)
    tracks = [af.LaneTrack(1, rng.choice(200, n, replace=False), int(rng.integers(1, 6)))
              for n in lengths]
    centroids = rng.uniform(0, 200, clusters).tolist()
    err = af.association_error(tracks, centroids, 0, vaf)
    ref = [[association_error_pair_ref(t.pixel_xs, t.row, cx, 0, vaf) for cx in centroids]
           for t in tracks]
    assert same_bits(err, np.array(ref).reshape(len(tracks), clusters))


HAF_VALUES = np.array([-1.0, 0.0, -0.0, 0.5, 1.0, np.nan], dtype=np.float32)
VAF_VALUES = np.array([-1.0, -0.6, -0.0, 0.0, 0.6, 1.0, np.nan], dtype=np.float32)


# decode fills its residual tables in blocks of whole rows, about
# RESIDUAL_BLOCK kernel elements (one row at least); on these maps 1, 7 and 64
# make blocks of one or a few rows, and gaps of up to 30 rows build tables of
# long gaps
residual_blocks = st.sampled_from([1, 7, 64, af.RESIDUAL_BLOCK])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.integers(1, 3), st.integers(1, 4), st.integers(0, 30),
       st.sampled_from([0.5, 2.0, 12.0, 1e9]), residual_blocks)
def test_decode_bytes_equal_reference(h, w, seed, fg_share, min_cluster_size, min_lane_rows,
                                      max_gap_rows, assoc_threshold, block):
    # the maps come from a drawn seed: drawn value by value, hypothesis
    # keeps them to a few hundred pixels and takes ~10x as long
    rng = np.random.default_rng(seed)
    seg = (rng.random((h, w)) < fg_share).astype(np.float32)
    pair = af.AffinityPair(HAF_VALUES[rng.integers(0, len(HAF_VALUES), (h, w))],
                           VAF_VALUES[rng.integers(0, len(VAF_VALUES), (2, h, w))])
    cfg = af.DecodeConfig(assoc_threshold=assoc_threshold, min_cluster_size=min_cluster_size,
                          min_lane_rows=min_lane_rows, max_gap_rows=max_gap_rows)
    with mock.patch.object(af, "RESIDUAL_BLOCK", block):
        got = af.decode(seg, pair, cfg)
    ref = decode_ref(seg, pair, cfg)
    assert got.to_json() == ref.to_json()
    assert same_bits(got.cluster_map, ref.cluster_map)


# ------------------------------------------------------------- rasterize

# x values that land on both borders, the middle, cell edges and in between
LANE_XS = st.one_of(st.just(-2.0), st.sampled_from([0.0, 3.5, 640.0, 1275.0, 1279.0]),
                    st.floats(0.0, D.ORIG_W - 1))


@st.composite
def rasterize_cases(draw):
    """(annotation, out_res, thickness) with strictly increasing h_samples."""
    hs = draw(st.sets(st.integers(0, D.ORIG_H - 1), min_size=1, max_size=24))
    if draw(st.booleans()):
        hs |= {0, D.ORIG_H - 1}  # lanes that span every row
    hs = sorted(hs)
    lanes = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["any", "any", "vertical", "copy"]))
        if kind == "copy" and lanes:  # a later copy erases the earlier lane
            lanes.append(list(draw(st.sampled_from(lanes))))
        elif kind == "vertical":
            lanes.append([draw(LANE_XS.filter(lambda x: x >= 0))] * len(hs))
        else:
            lanes.append(draw(st.lists(LANE_XS, min_size=len(hs), max_size=len(hs))))
    out_res = draw(st.one_of(st.sampled_from([(9, 7), (7, 9), (D.MAP_H, D.MAP_W)]),
                             st.tuples(st.integers(7, 100), st.integers(7, 170))))
    thickness = draw(st.integers(1, 8))
    if draw(st.booleans()) and thickness >= 7:  # a stroke as wide as the frame
        out_res = (out_res[0], thickness)
        lanes.append([640.0] * len(hs))
    return D.LaneAnnotation("a", hs, lanes), out_res, thickness


@settings(max_examples=400, deadline=None)
@given(rasterize_cases())
# fully painted, the second lane erasing the first: the mask holds no 0
@example((D.LaneAnnotation("a", [0, D.ORIG_H - 1], [[3.0, 3.0], [640.0, 640.0]]), (9, 7), 7))
def test_rasterize_bytes_equal_reference(case):
    ann, out_res, thickness = case
    got, ref = D.rasterize(ann, out_res, thickness), rasterize_ref(ann, out_res, thickness)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
