import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lanekit import arch, cli
from lanekit import tensor as T
from lanekit.errors import FormatError, ShapeError
from oracles import conv2d_bits_ref, forward_ref

# Table of the 21-layer network at the 640x352 input, as (C, H, W) per row.
# The published stage-2/3 width cell (88) contradicts the table's own halving
# chain (160 -> 80 -> x2 -> 160); the arithmetically consistent value is 80.
FULL_SIZE_TRACE = (
    [(16, 176, 320)]
    + [(64, 88, 160)] * 3
    + [(128, 44, 80)] * 11
    + [(64, 88, 160)] * 3
)
HEAD_OUT = {"seg": 1, "haf": 1, "vaf": 2}

# a batch runs its frames on threads only where the BLAS thread count can be pinned
FRAME_THREADS = min(4, len(os.sched_getaffinity(0))) if arch._openblas() is not None else 1
needs_frame_threads = pytest.mark.skipif(
    FRAME_THREADS < 2, reason="needs two usable cores and numpy's bundled OpenBLAS")
needs_blas_setter = pytest.mark.skipif(
    arch._openblas() is None, reason="needs numpy's bundled OpenBLAS")


@pytest.fixture
def blas_get():
    """OpenBLAS's thread-count getter, the count set to 2 for the test and put back after
    it, so a count that an earlier batch left at 1 cannot hide a pin that never restores."""
    get, put = arch._openblas()
    was = get()
    put(2)
    yield get
    put(was)


def test_build_enet21_row_structure():
    spec = arch.build_enet21()
    assert len(spec.layers) == 18
    assert len(spec.heads) == 3
    assert all(len(h.layers) == 3 for h in spec.heads)
    assert spec.layers[0].kind == "initial" and spec.layers[0].id == 1
    assert [l.id for l in spec.layers] == list(range(1, 19))
    by_name = {l.name: l for l in spec.layers}
    assert by_name["bottleneck2.0"].out_channels == 128
    # stage 3 starts at 3.1: no downsampling bottleneck at its head
    assert spec.layers[10].name == "bottleneck3.1"
    assert [l.kind for l in spec.layers] == (
        ["initial", "down", "bottleneck", "bottleneck", "down"] + ["bottleneck"] * 10
        + ["up", "bottleneck", "bottleneck"])
    for head in spec.heads:
        assert [l.kind for l in head.layers] == ["bottleneck", "bottleneck", "conv1x1"]
    dilations = [l.dilation for l in spec.layers]
    assert dilations == [1, 1, 2, 4, 1, 1, 2, 4, 8, 16, 1, 2, 4, 8, 16, 1, 1, 1]
    assert set(dilations) <= {1, 2, 4, 8, 16}


def test_shape_trace_full_size_matches_layer_table():
    spec = arch.build_enet21()
    rows = arch.count_flops(spec, (3, 352, 640)).per_layer
    trunk = [r for r in rows if r.head is None]
    assert [r.output_dims for r in trunk] == FULL_SIZE_TRACE[:18]
    for head in ("seg", "haf", "vaf"):
        head_rows = [r for r in rows if r.head == head]
        assert [r.id for r in head_rows] == [19, 20, 21]
        assert head_rows[0].output_dims == (64, 88, 160)
        assert head_rows[1].output_dims == (64, 88, 160)
        assert head_rows[2].output_dims == (HEAD_OUT[head], 88, 160)


def test_shape_trace_rejects_indivisible_input():
    with pytest.raises(ShapeError):
        arch.count_flops(arch.build_enet21(), (3, 350, 640))


def test_shape_trace_toy_input_consistent_with_forward():
    spec = arch.build_enet21()
    rows = arch.count_flops(spec, (3, 8, 8)).per_layer
    trunk = [r.output_dims for r in rows if r.head is None]
    # halving chain 8 -> 4 -> 2 -> 1, then one doubling back to 2
    assert trunk[0] == (16, 4, 4)
    assert trunk[1] == (64, 2, 2)
    assert trunk[4] == (128, 1, 1)
    assert trunk[15] == (64, 2, 2)
    store = arch.random_weights(spec, seed=3)
    seg, haf, vaf = arch.forward(spec, store, np.zeros((1, 3, 8, 8), dtype=np.float32))
    assert seg.shape == (1, 1, 2, 2) and haf.shape == (1, 1, 2, 2)
    assert vaf.shape == (1, 2, 2, 2)


def test_count_params_initial_conv_kernel():
    spec = arch.build_enet21()
    dims = arch.weight_slots(spec)["initial.conv.kernel"]
    assert dims == (13, 3, 3, 3)
    assert int(np.prod(dims)) == 351


def test_count_params_near_quarter_million():
    report = arch.count_flops(arch.build_enet21(), (3, 8, 8))
    assert abs(report.total_params - 250_000) <= 0.15 * 250_000
    assert report.total_params == sum(r.params for r in report.per_layer)


def test_count_params_shared_heads_lower():
    full = arch.count_flops(arch.build_enet21(), (3, 8, 8)).total_params
    shared = arch.count_flops(arch.build_enet21(shared_heads=True), (3, 8, 8)).total_params
    assert shared < full
    assert abs(shared - 250_000) <= 0.15 * 250_000


def test_count_flops_head_conv_is_pure_mac_count():
    report = arch.count_flops(arch.build_enet21(), (3, 352, 640))
    seg_final = [r for r in report.per_layer if r.head == "seg" and r.id == 21]
    assert seg_final[0].flops == 2 * 64 * 1 * 88 * 160  # 1,802,240


def test_count_flops_near_published_total():
    report = arch.count_flops(arch.build_enet21(), (3, 352, 640))
    assert abs(report.total_flops - 3.14e9) <= 0.15 * 3.14e9
    assert report.total_flops == sum(r.flops for r in report.per_layer)


def test_count_flops_halves_with_width():
    spec = arch.build_enet21()
    full = arch.count_flops(spec, (3, 352, 640))
    half = arch.count_flops(spec, (3, 352, 320))
    for rf, rh in zip(full.per_layer, half.per_layer):
        assert rh.flops * 2 == rf.flops, rf.name
    assert half.total_flops * 2 == full.total_flops


def test_shape_formulas_hold_for_every_layer_configuration():
    # every (kernel, stride, dilation, padding) combination the network uses
    from lanekit import tensor as T
    assert T.conv_output_hw((352, 640), (3, 3), (2, 2), (1, 1), (1, 1)) == (176, 320)
    assert T.conv_output_hw((176, 320), (2, 2), (2, 2), (1, 1), (0, 0)) == (88, 160)
    assert T.conv_output_hw((88, 160), (2, 2), (2, 2), (1, 1), (0, 0)) == (44, 80)
    for d in (1, 2, 4, 8, 16):
        assert T.conv_output_hw((44, 80), (3, 3), (1, 1), (d, d), (d, d)) == (44, 80)
        assert T.conv_output_hw((88, 160), (3, 3), (1, 1), (d, d), (d, d)) == (88, 160)
    assert T.conv_output_hw((44, 80), (1, 1), (1, 1), (1, 1), (0, 0)) == (44, 80)
    assert T.transposed_output_hw((44, 80), (2, 2), (2, 2), (1, 1), (0, 0)) == (88, 160)


def test_downsampling_plan_pools_then_zero_pads():
    # the zero-padded add itself is pinned by forward_ref, which pads the pooled
    # input to the row's out_channels
    spec = arch.build_enet21()
    layer = spec.layers[1]  # bottleneck1.0
    assert layer.kind == "down" and layer.out_channels == 64
    plan = arch.plan_block(layer, 16)
    assert plan.ext[0].kernel == (2, 2) and plan.ext[0].stride == (2, 2)
    assert plan.ext[-1].out_ch == 64 and plan.main_conv is None


@pytest.mark.parametrize("kind", ["downsampling", "dilated", ""])
def test_plan_block_rejects_an_unknown_kind(kind):
    layer = arch.LayerSpec(2, "bottleneck1.0", kind, 64)
    with pytest.raises(ValueError, match=f"unknown block kind {kind!r}"):
        arch.plan_block(layer, 16)


def test_no_parameter_slot_mentions_bias():
    names = arch.weight_slots(arch.build_enet21())
    assert not any("bias" in n for n in names)


def test_forward_zero_weights_zero_outputs():
    spec = arch.build_enet21()
    store = {name: np.zeros_like(w) if name.endswith(".kernel") else w
             for name, w in arch.random_weights(spec).items()}
    img = np.random.default_rng(0).random((1, 3, 32, 64), dtype=np.float32)
    seg, haf, vaf = arch.forward(spec, store, img)
    assert (seg == 0).all() and (haf == 0).all() and (vaf == 0).all()


def test_forward_output_shapes_full_size():
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=1)
    img = np.random.default_rng(1).random((1, 3, 352, 640), dtype=np.float32)
    seg, haf, vaf = arch.forward(spec, store, img)
    assert seg.shape == (1, 1, 88, 160)
    assert haf.shape == (1, 1, 88, 160)
    assert vaf.shape == (1, 2, 88, 160)


def test_forward_bit_identical_runs():
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=2)
    img = np.random.default_rng(2).random((1, 3, 16, 24), dtype=np.float32)
    a = arch.forward(spec, store, img)
    b = arch.forward(spec, store, img)
    for x, y in zip(a, b):
        assert (x == y).all()


def test_forward_missing_weight_names_slot():
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=4)
    del store["bottleneck2.3.main.kernel"]
    with pytest.raises(ShapeError) as exc:
        arch.forward(spec, store, np.zeros((1, 3, 8, 8), dtype=np.float32))
    assert "bottleneck2.3.main.kernel" in str(exc.value)


def test_forward_misshaped_weight_names_slot():
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    store["initial.conv.kernel"] = np.zeros((13, 3, 5, 5), dtype=np.float32)
    with pytest.raises(ShapeError) as exc:
        arch.forward(spec, store, np.zeros((1, 3, 8, 8), dtype=np.float32))
    assert "initial.conv.kernel" in str(exc.value)


def test_shared_heads_forward_matches_shapes():
    spec = arch.build_enet21(shared_heads=True)
    store = arch.random_weights(spec, seed=6)
    seg, haf, vaf = arch.forward(spec, store, np.zeros((1, 3, 16, 16), dtype=np.float32))
    assert seg.shape == (1, 1, 4, 4) and vaf.shape == (1, 2, 4, 4)


@pytest.mark.parametrize("shared_heads, batch", [(False, 1), (True, 1), (False, 2), (True, 2)],
                         ids=["False", "True", "False-batch2", "True-batch2"])
def test_forward_matches_reference_oracle(shared_heads, batch):
    spec = arch.build_enet21(shared_heads=shared_heads)
    store = arch.random_weights(spec, seed=12)
    img = np.random.default_rng(12).random((batch, 3, 16, 16), dtype=np.float32)
    ref = forward_ref(spec, store, img)
    got = arch.forward(spec, store, img)
    for name, out in zip(("seg", "haf", "vaf"), got):
        assert out.shape == ref[name].shape
        np.testing.assert_allclose(out, ref[name], rtol=0, atol=1e-5, err_msg=name)


@pytest.mark.parametrize("shared_heads", [False, True])
def test_forward_batch_bytes_equal_single_frames(shared_heads):
    # every frame of a batch runs the same kernels, at the same one BLAS thread, as it
    # would alone, so a batched forward can share the single-frame reference outputs; at
    # 352x640 every conv and expand runs in several bands
    spec = arch.build_enet21(shared_heads=shared_heads)
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(7).random((3, 3, 352, 640), dtype=np.float32)
    batched = arch.forward(spec, store, img)
    for i in range(3):
        for got, alone in zip(batched, arch.forward(spec, store, img[i:i + 1])):
            assert got[i].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("hw", [(352, 640), (16, 24), (64, 96), (176, 696), (352, 600)])
@pytest.mark.parametrize("shared_heads", [False, True])
def test_one_frame_bytes_equal_a_batch_of_two(shared_heads, hw):
    # one 352x640 frame runs its rows in parts on threads, its padded convs reading rows
    # that other threads wrote; a 16x24 or 64x96 frame is too small to split, and a
    # 176x696 or 352x600 one (87 or 75 columns at 1/8 scale) ends its rows inside a GEMM
    # block, so each runs whole on the caller; each equals the frame run whole on a frame
    # thread, as both run at one BLAS thread (at two, 176x696 gave other seg and
    # horizontal maps alone than in its batch)
    spec = arch.build_enet21(shared_heads=shared_heads)
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    img = np.random.default_rng(17).standard_normal((2, 3, *hw)).astype(np.float32)
    batched = net(img)
    for i in range(2):
        for got, alone in zip(batched, net(img[i:i + 1])):
            assert got[i].tobytes() == alone[0].tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("shared_heads", [False, True])
def test_forward_frame_bytes_ignore_a_poisoned_neighbour(shared_heads):
    # a frame of NaN, +-inf and 1e30 next to a normal one leaves its bits alone
    spec = arch.build_enet21(shared_heads=shared_heads)
    store = arch.random_weights(spec, seed=5)
    frame = np.random.default_rng(8).random((3, 16, 24), dtype=np.float32)
    poison = np.resize(np.array([np.nan, np.inf, -np.inf, 1e30], np.float32), frame.shape)
    alone = arch.forward(spec, store, frame)
    for batch, i in ((np.stack([poison, frame]), 1), (np.stack([frame, poison]), 0)):
        for got, want in zip(arch.forward(spec, store, batch), alone):
            assert got[i].tobytes() == want[0].tobytes()
    for got, want in zip(alone, arch.forward(spec, store, frame[None])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_forward_peak_memory_is_one_frame(monkeypatch):
    # each thread runs its frames one at a time, so a batch peaks as one frame per thread
    # does: N=4 as N = min(4, frame threads) with threads, as N=1 with no BLAS setter
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(9).random((4, 3, 64, 96), dtype=np.float32)

    def peak(batch):
        tracemalloc.start()
        try:
            arch.forward(spec, store, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    arch.forward(spec, store, img)  # warm every frame thread's buffers outside the trace
    threaded = peak(img[:FRAME_THREADS]), peak(img)
    monkeypatch.setattr(arch, "_openblas", lambda: None)
    serial = peak(img[:1]), peak(img)
    assert threaded[1] <= 1.25 * threaded[0], threaded
    assert serial[1] <= 1.25 * serial[0], serial


# sha256 of the seg, haf and vaf bytes of a 2x3x64x96 forward (weight seed 5,
# every PReLU slope set to one value); slopes of -0.5 and 1.5 take PReLU's
# four-pass route.  A kernel rewrite that keeps the bits keeps these.
FORWARD_DIGESTS = {  # (shared heads, slope)
    (False, 0.25): "db4afd04a166ef69ebcdb9930ddd0a172ce025815ae4f863933034ef1730935e",
    (False, 1.5): "6bb75432744cd525a1a88f9ed2bd2dfa135bcee6958b2224c3a016590f755532",
    (False, -0.5): "7eb4670504c80125648c023e41251b685d617185c1c5f833e7a42930c80d6717",
    (True, 0.25): "ce3434968f60129f9f7723c92687d863b59012c71251e8b42b3d47c89fa099c4",
    (True, 1.5): "a1381cd19fe63ec3aa002f3ab46e90527a422deb2083e3b13638275e658863aa",
    (True, -0.5): "7cf134c842a911bb52133f503a688abd56d5ce45bb53e199ee985b75e4944f94",
}


def _forward_digest(shared_heads, slope):
    spec = arch.build_enet21(shared_heads=shared_heads)
    store = {name: np.full_like(w, slope) if name.endswith(".slope") else w
             for name, w in arch.random_weights(spec, seed=5).items()}
    img = np.random.default_rng(15).standard_normal((2, 3, 64, 96)).astype(np.float32)
    h = hashlib.sha256()
    for out in arch.forward(spec, store, img):
        assert np.isfinite(out).all()
        h.update(out.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("shared_heads, slope", FORWARD_DIGESTS)
def test_forward_bytes_pinned(shared_heads, slope):
    assert _forward_digest(shared_heads, slope) == FORWARD_DIGESTS[shared_heads, slope]


@pytest.mark.parametrize("band", [2**14, 2**15])
def test_forward_bytes_pinned_at_other_conv_bands(band, monkeypatch):
    # at 64x96 every conv fits one band of CONV_BAND; these cut the 3x3 convs into bands
    # of 4 (2**14) or 8 rows (2**15)
    monkeypatch.setattr(T, "CONV_BAND", band)
    for (shared_heads, slope), digest in FORWARD_DIGESTS.items():
        assert _forward_digest(shared_heads, slope) == digest


def _forward_convs(monkeypatch, img):
    """{geometry: (input, params)} of every conv2d call in one forward of *img*, run whole
    on the caller, so each conv reads and writes whole maps."""
    spec, calls, conv = arch.build_enet21(), {}, T.conv2d

    def spy(x, p, out=None, rows=None):
        calls.setdefault((x.shape, p.kernel.shape, p.stride, p.dilation, p.padding), (x.copy(), p))
        return conv(x, p, out, rows)

    with monkeypatch.context() as mp:
        mp.setattr(T, "conv2d", spy)
        mp.setattr(arch, "_openblas", lambda: None)
        arch.forward(spec, arch.random_weights(spec, seed=5), img)
    return calls


@pytest.mark.parametrize("band", [2**12, 2**16])
def test_banded_conv2d_bytes_equal_one_gemm_per_frame(band, monkeypatch):
    # every conv geometry of a 352x640 forward, cut into bands of one row (2**12) or a few
    # rows (2**16) instead of CONV_BAND, into out= and into a new array, each call finding
    # "temp" and "conv.pad" left by another kernel at the size of a band and full of NaN
    img = np.random.default_rng(4).standard_normal((1, 3, 352, 640)).astype(np.float32)
    calls = _forward_convs(monkeypatch, img)
    assert len(calls) >= 10
    monkeypatch.setattr(T, "CONV_BAND", band)
    for x, p in calls.values():
        want = conv2d_bits_ref(x, p.kernel, p.stride, p.dilation, p.padding)
        out = np.full_like(want, np.nan)
        for role in ("temp", "conv.pad"):
            monkeypatch.setattr(T._SCRATCH, role, np.full(band, np.nan, np.float32), raising=False)
        assert T.conv2d(x, p, out=out) is out
        for role in ("temp", "conv.pad"):
            monkeypatch.setattr(T._SCRATCH, role, np.full(band, np.nan, np.float32))
        assert out.tobytes() == T.conv2d(x, p).tobytes() == want.tobytes()


def test_forward_thread_buffers_total_13_mib_with_one_band_of_temp(monkeypatch):
    # conv2d builds a band of padding and columns at a time, a residual row works in
    # place and its expand goes a band of channels at a time through "ext0", and the kept
    # pool indices are int32: a fresh thread running the frame whole keeps two block
    # buffers and 11.0 MiB in all (24.1 MiB with one GEMM per frame, three block buffers
    # and int64 indices).  The caller of a split frame keeps its own rows' share of those
    # and the two frame-wide projections that padded convs read (8.0 MiB in two parts),
    # each as large as the largest projection (16 channels at 1/4 scale, H * W floats);
    # the frame threads that run the other parts keep none
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(4).standard_normal((1, 3, 352, 640)).astype(np.float32)

    def buffers():  # on a fresh thread, whose buffers start empty
        arch.forward(spec, store, img)
        return {role: buf.nbytes for role, buf in vars(T._SCRATCH).items()}

    for whole in (True, False):
        with monkeypatch.context() as mp, ThreadPoolExecutor(1) as pool:
            if whole:
                mp.setattr(arch, "_openblas", lambda: None)
            sizes = pool.submit(buffers).result(timeout=120)
        assert sizes["temp"] <= 4 * T.CONV_BAND
        assert sorted(role for role in sizes if role.startswith("block")) == ["block0", "block1"]
        assert sum(sizes.values()) <= 13 * 2**20, sum(sizes.values()) / 2**20
        if not whole and FRAME_THREADS > 1:  # the frame split
            assert sizes["halo0"] == sizes["halo1"] == 352 * 640 * 4
            roles = arch._POOL[0].submit(lambda: set(vars(T._SCRATCH))).result(timeout=60)
            assert not any(role.startswith("halo") for role in roles), roles


def test_warm_forward_traces_under_half_the_per_call_peak():
    # a forward that allocated its buffers per call traced a 19.1 MiB peak here
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(6).random((1, 3, 352, 640), dtype=np.float32)
    arch.forward(spec, store, img)
    tracemalloc.start()
    try:
        arch.forward(spec, store, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19.1 / 2 * 2**20, peak / 2**20


def test_warm_forward_makes_no_buffer_larger_than_a_returned_map(monkeypatch):
    # after a warm call, the blocks that arch.py and tensor.scratch have made since the
    # trace began, live at any conv on any thread, are the returned maps at most: a split
    # frame's two projection maps made per call (880 KiB at N=1) or an expand band (440
    # and 880 KiB) would show.  Kernel temporaries are left out, as another thread may hold
    # one at a conv.  Two frame threads, in a pool of one made here, so every thread's
    # buffers are warm
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    rng = np.random.default_rng(13)
    imgs = [rng.standard_normal((n, 3, 352, 640)).astype(np.float32) for n in (1, 2)]
    lines, first = inspect.getsourcelines(T.scratch)
    conv, largest = T.conv2d, []

    def ours(frame):
        return frame.filename == arch.__file__ or (
            frame.filename == T.__file__ and first <= frame.lineno < first + len(lines))

    def spy(x, p, out=None, rows=None):
        traces = tracemalloc.take_snapshot().traces
        largest.append(max((t.size for t in traces if ours(t.traceback[0])), default=0))
        return conv(x, p, out, rows)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(arch, "_POOL", [])
    try:
        for img in imgs:
            net(img)
        for img in imgs:
            largest.clear()
            monkeypatch.setattr(T, "conv2d", spy)
            tracemalloc.start(1)
            try:
                maps = net(img)
            finally:
                tracemalloc.stop()
                monkeypatch.setattr(T, "conv2d", conv)
            assert len(largest) >= 142 * len(img)
            assert max(largest) <= max(m.nbytes for m in maps), (len(img), max(largest) / 2**10)
    finally:
        if arch._POOL:
            arch._POOL[0].shutdown(wait=False)


def test_forward_threads_and_later_calls_leave_maps_alone():
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    imgs = np.random.default_rng(7).standard_normal((8, 1, 3, 64, 96)).astype(np.float32)
    serial = [arch.forward(spec, store, img) for img in imgs]
    kept = [[m.copy() for m in maps] for maps in serial]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-kernel
    try:
        # more threads than cores, each with buffers of its own
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda img: arch.forward(spec, store, img), imgs,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for maps, copies, other in zip(serial, kept, threaded):
        for got, want, again in zip(maps, copies, other):
            assert got.tobytes() == want.tobytes() == again.tobytes()


@needs_frame_threads
def test_batched_forward_holds_blas_at_one_thread_and_restores_it(blas_get, monkeypatch):
    # a batch runs its frames on FRAME_THREADS threads and one 352x640 frame its 44 rows of
    # 1/8 scale, in parts of at least 11 rows (one conv band of its 3x3 convs there), on as
    # many, each at one BLAS thread.  A frame too small to split (64x128 has 8 rows of 1/8
    # scale, under one conv band), or one whose rows at 1/8 scale end inside a GEMM block
    # (75 columns at 600), runs on the caller alone, also at one BLAS thread
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    rng = np.random.default_rng(2)
    batch, frame = rng.standard_normal((4, 3, 32, 48)), rng.standard_normal((1, 3, 352, 640))
    get, conv = blas_get, T.conv2d
    before, seen = get(), set()

    def spy(x, p, out=None, rows=None):
        seen.add((threading.get_ident(), get()))
        return conv(x, p, out, rows)

    monkeypatch.setattr(T, "conv2d", spy)
    for img in (batch, frame):
        seen.clear()
        net(img.astype(np.float32))
        assert get() == before
        assert {count for _, count in seen} == {1}
        assert len({thread for thread, _ in seen}) == FRAME_THREADS
    for hw in ((16, 24), (64, 128), (352, 600)):
        seen.clear()
        net(rng.standard_normal((1, 3, *hw)).astype(np.float32))
        assert seen == {(threading.get_ident(), 1)} and get() == before


@needs_frame_threads
@pytest.mark.parametrize("raiser, shape", [
    ("caller", (4, 3, 32, 48)), ("frame thread", (4, 3, 32, 48)),
    ("caller", (1, 3, 352, 640)), ("frame thread", (1, 3, 352, 640))],
    ids=["caller", "frame thread", "split-caller", "split-frame thread"])
def test_blas_thread_count_restored_after_a_frame_raises(raiser, shape, blas_get, monkeypatch):
    # a batch's frames, or one frame's parts, which wait for each other before every padded
    # conv: the error raised on one thread stops the others, and the call raises it
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(3).standard_normal(shape).astype(np.float32)
    get, conv, calls = blas_get, T.conv2d, itertools.count(1)
    before, want = get(), arch.forward(spec, store, img)
    caller, seen = threading.get_ident(), []

    def third_raises(x, p, out=None, rows=None):  # the third conv on the caller or the others
        seen.append(get())
        if (threading.get_ident() == caller) == (raiser == "caller") and next(calls) == 3:
            raise RuntimeError("third conv")
        return conv(x, p, out, rows)

    monkeypatch.setattr(T, "conv2d", third_raises)
    with pytest.raises(RuntimeError, match="third conv"):
        arch.forward(spec, store, img)
    ran = len(seen)
    assert get() == before and set(seen) == {1}
    time.sleep(0.2)
    assert len(seen) == ran  # every thread had stopped when the call raised
    monkeypatch.undo()
    for got, again in zip(want, arch.forward(spec, store, img)):  # the threads live on
        assert got.tobytes() == again.tobytes()


@needs_frame_threads
def test_a_split_frame_raises_the_error_of_the_part_that_raised(blas_get, monkeypatch):
    # three parts on a fresh pool of two frame threads: the last part raises in its first
    # conv, and the other two stop at their next wait, each with BrokenBarrierError
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    img = np.random.default_rng(3).standard_normal((1, 3, 352, 640)).astype(np.float32)
    get, conv, seen = blas_get, T.conv2d, []
    before, want = get(), net(img)

    def last_part_raises(x, p, out=None, rows=None):
        seen.append(rows)
        if rows is not None and 0 < rows.start and rows.stop == x.shape[2] // p.stride[0]:
            raise RuntimeError("last part")
        return conv(x, p, out, rows)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(arch, "_POOL", [])
    monkeypatch.setattr(T, "conv2d", last_part_raises)
    try:
        with pytest.raises(RuntimeError, match="last part"):
            net(img)
        ran = len(seen)
        time.sleep(0.2)
        assert len(seen) == ran and get() == before
        assert {(r.start, r.stop) for r in seen if r} == {(0, 56), (56, 116), (116, 176)}
        monkeypatch.setattr(T, "conv2d", conv)
        for got, again in zip(want, net(img)):
            assert got.tobytes() == again.tobytes()
    finally:
        arch._POOL[0].shutdown(wait=False)


@needs_frame_threads
def test_a_frame_splits_no_wider_than_the_pool_when_more_cores_become_usable(monkeypatch):
    # each part waits for the others, so parts beyond the pool's threads would wait forever;
    # a 352x1280 frame may take 8 parts
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    img = np.random.default_rng(3).standard_normal((1, 3, 352, 1280)).astype(np.float32)
    cores = os.sched_getaffinity(0)
    monkeypatch.setattr(arch, "_POOL", [])
    want = net(img)  # makes a pool for the cores usable now
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(len(cores) + 2)))
    caller = ThreadPoolExecutor(1)
    try:
        got = caller.submit(net, img).result(timeout=60)
    finally:  # without waiting, so a call that never returns fails the test
        caller.shutdown(wait=False)
        arch._POOL[0].shutdown(wait=False)
    for a, b in zip(want, got):
        assert a.tobytes() == b.tobytes()


@needs_frame_threads
def test_concurrent_batches_restore_the_blas_thread_count(blas_get):
    # batches and whole frames, each call pinning the count under the lock
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    rng = np.random.default_rng(4)
    imgs = [*rng.standard_normal((6, 4, 3, 32, 48)).astype(np.float32),
            *rng.standard_normal((4, 1, 3, 16, 24)).astype(np.float32)]
    get = blas_get
    before, serial = get(), [net(img) for img in imgs]
    assert get() == before
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-kernel
    try:
        # batches from more callers than cores, their pins overlapping
        with ThreadPoolExecutor(3) as pool:
            threaded = list(pool.map(net, imgs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert get() == before
    for maps, other in zip(serial, threaded):
        for got, again in zip(maps, other):
            assert got.tobytes() == again.tobytes()


@needs_frame_threads
def test_concurrent_batches_take_turns(monkeypatch):
    # a batch, a split frame or a whole frame holds the lock until its threads stop, so
    # callers never stack their frame threads onto more threads than there are cores
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    rng = np.random.default_rng(6)
    imgs = [rng.standard_normal((1, 3, 352, 640)).astype(np.float32),
            *rng.standard_normal((5, 4, 3, 32, 48)).astype(np.float32),
            *rng.standard_normal((4, 1, 3, 16, 24)).astype(np.float32)]
    conv, lock, inside, most = T.conv2d, threading.Lock(), [0], [0]

    def spy(x, p, out=None, rows=None):
        with lock:
            inside[0] += 1
            most[0] = max(most[0], inside[0])
        try:
            return conv(x, p, out, rows)
        finally:
            with lock:
                inside[0] -= 1

    monkeypatch.setattr(T, "conv2d", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-kernel
    try:
        with ThreadPoolExecutor(3) as pool:
            list(pool.map(net, imgs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert most[0] <= len(os.sched_getaffinity(0)), most[0]


@needs_blas_setter
def test_one_usable_core_runs_on_the_caller_at_one_blas_thread(blas_get, monkeypatch):
    # one usable core makes no pool, yet a batch and a frame that would split still run
    # at one BLAS thread, so their bits are those of the same frames on more cores
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    rng = np.random.default_rng(8)
    imgs = [rng.standard_normal(shape).astype(np.float32)
            for shape in ((2, 3, 32, 48), (1, 3, 352, 640))]
    get, conv, seen = blas_get, T.conv2d, set()
    before, want = get(), [net(img) for img in imgs]

    def spy(x, p, out=None, rows=None):
        seen.add((threading.get_ident(), get()))
        return conv(x, p, out, rows)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(arch, "_POOL", [])
    monkeypatch.setattr(T, "conv2d", spy)
    for img, maps in zip(imgs, want):
        seen.clear()
        for got, again in zip(maps, net(img)):
            assert got.tobytes() == again.tobytes()
        assert seen == {(threading.get_ident(), 1)} and get() == before
    assert arch._POOL == []


def test_batch_without_a_blas_setter_runs_on_the_caller_alone(monkeypatch):
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(5).standard_normal((3, 3, 32, 48)).astype(np.float32)
    want = arch.forward(spec, store, img)
    threads, conv = set(), T.conv2d
    monkeypatch.setattr(arch, "_openblas", lambda: None)
    monkeypatch.setattr(T, "conv2d", lambda x, p, out=None, rows=None: (
        threads.add(threading.get_ident()) or conv(x, p, out, rows)))
    for got, again in zip(want, arch.forward(spec, store, img)):
        assert got.tobytes() == again.tobytes()
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("shape", [(0, 3, 8, 8), (1, 3, 0, 8), (1, 3, 8, 0)],
                         ids=["frames", "height", "width"])
def test_forward_rejects_empty_batch(shape):
    spec = arch.build_enet21()
    with pytest.raises(ShapeError, match="zero-sized"):
        arch.forward(spec, arch.random_weights(spec), np.zeros(shape, np.float32))


@pytest.mark.parametrize("shared_heads", [False, True])
def test_forward_leaves_image_and_store_unchanged(shared_heads):
    spec = arch.build_enet21(shared_heads=shared_heads)
    store = arch.random_weights(spec, seed=3)
    img = np.random.default_rng(3).standard_normal((2, 3, 16, 24)).astype(np.float32)
    before = img.tobytes(), {name: w.tobytes() for name, w in store.items()}
    arch.forward(spec, store, img)
    assert img.tobytes() == before[0]
    assert {name: w.tobytes() for name, w in store.items()} == before[1]


def test_prepared_network_shared_across_threads_gives_serial_bytes():
    spec = arch.build_enet21()
    net = arch.prepare(spec, arch.random_weights(spec, seed=5))
    imgs = np.random.default_rng(11).standard_normal((8, 1, 3, 64, 96)).astype(np.float32)
    serial = [net(img) for img in imgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-kernel
    try:
        # more threads than cores on one network, each thread with buffers of its own
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(net, imgs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for maps, other in zip(serial, threaded):
        for got, again in zip(maps, other):
            assert got.tobytes() == again.tobytes()


@pytest.mark.parametrize("shared_heads", [False, True])
def test_prepared_network_is_a_snapshot_of_read_only_copies(shared_heads, monkeypatch):
    spec = arch.build_enet21(shared_heads=shared_heads)
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(5).standard_normal((1, 3, 32, 48)).astype(np.float32)
    net = arch.prepare(spec, store)
    held, conv, fused = [], T.conv2d, T.batchnorm_add_prelu

    def conv_spy(x, p, out=None, rows=None):
        held.append(p.kernel)
        return conv(x, p, out, rows)

    def fused_spy(x, bn=None, main=None, slope=None, out=None):
        held.extend(a for a in (*(bn or ()), slope) if a is not None)
        return fused(x, bn, main, slope, out)

    monkeypatch.setattr(T, "conv2d", conv_spy)
    monkeypatch.setattr(T, "batchnorm_add_prelu", fused_spy)
    want = [m.tobytes() for m in net(img)]
    assert len(held) > 100
    for a in held:
        assert a.dtype == np.float32 and not a.flags.writeable
        assert not any(np.shares_memory(a, w) for w in store.values())
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    for w in store.values():
        w[...] = np.nan
    assert [m.tobytes() for m in net(img)] == want
    store.clear()
    assert [m.tobytes() for m in net(img)] == want


def test_prepare_validates_once_and_kernels_are_looked_up_per_call(monkeypatch):
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    img = np.random.default_rng(6).standard_normal((2, 3, 16, 24)).astype(np.float32)
    checks, validate = [], arch.validate_weights
    monkeypatch.setattr(arch, "validate_weights", lambda *a: checks.append(1) or validate(*a))
    net = arch.prepare(spec, store)
    convs, conv = [], T.conv2d  # spied on after prepare, as a traced benchmark wraps it
    monkeypatch.setattr(T, "conv2d",
                        lambda x, p, out=None, rows=None: convs.append(1) or conv(x, p, out, rows))
    for _ in range(3):
        net(img)
    assert len(checks) == 1
    per_frame = []  # one call per conv unit, an expand's one per band of its input's width
    arch.walk(spec, None, lambda plan, head, _: per_frame.extend(
        -(-s.out_ch // s.in_ch) if s.name.endswith(".expand") else 1
        for s in plan.ext + (plan.main_conv,) if s is not None and s.op == "conv"))
    assert len(convs) == 3 * len(img) * sum(per_frame)


@pytest.mark.parametrize("slot, bad", [("bottleneck2.3.main.kernel", None),
                                       ("initial.conv.kernel", (13, 3, 5, 5))])
def test_prepare_names_a_missing_or_misshaped_slot(slot, bad):
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=4)
    if bad is None:
        del store[slot]
    else:
        store[slot] = np.zeros(bad, dtype=np.float32)
    with pytest.raises(ShapeError, match=slot.replace(".", r"\.")):
        arch.prepare(spec, store)


@pytest.mark.parametrize("shared_heads, params, flops, slots", [
    (False, 266_319, 2_995_491_840, 428),
    (True, 247_759, 2_480_051_200, 356),
])
def test_ledger_exact_at_full_size(shared_heads, params, flops, slots):
    spec = arch.build_enet21(shared_heads=shared_heads)
    report = arch.count_flops(spec, (3, 352, 640))
    assert report.total_params == params
    assert report.total_flops == flops
    assert arch.count_flops(spec, (3, 8, 8)).total_params == params  # whatever the input size
    assert len(arch.weight_slots(spec)) == slots



def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Digests recorded before the ledger and the weight slots were read from one
# block fold; each pins every row, slot name, dims and order, not just totals.
ARCH_JSON_DIGESTS = {
    False: "2f134d6d30138bb2a1005b4c9dd2b4208dbe35fe1d9f88217e75d0a1fa23a8fc",
    True: "eeba201494ee42dc02c9deaef0a10499cfe850b76f1424c58533f807b9dce798",
}
SLOT_DIGESTS = {  # (projection ratio, shared heads)
    (4, False): "bb30eadaaa0246d8159104e46062fc5f96d7497297edd49f28966214bb751b7d",
    (4, True): "b0f37910eda761ce2d5cc2891b667cda917a48770ddcea42f77f16648d46e0f4",
}
RANDOM_WEIGHTS_SEED5_DIGESTS = {
    False: "b7173d21bf6417f3fbba7cfed629ff5b47c53a5480ac39d61cd90eb4253669c0",
    True: "8f2ccaa1d42bf7a2b660e6b1d76f72567ecae58c6a0de282813c7482a026b122",
}


@pytest.mark.parametrize("shared_heads", [False, True])
def test_arch_json_rows_pinned(capsys, shared_heads):
    assert cli.main(["arch", "--format", "json"] + ["--shared-heads"] * shared_heads) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["version"]
    assert sha256(json.dumps(payload, sort_keys=True)) == ARCH_JSON_DIGESTS[shared_heads]


@pytest.mark.parametrize("ratio, shared_heads", SLOT_DIGESTS)
def test_weight_slot_order_pinned(ratio, shared_heads):
    assert arch.PROJECTION_RATIO == ratio
    spec = arch.build_enet21(shared_heads=shared_heads)
    digest = sha256(repr(list(arch.weight_slots(spec).items())))
    assert digest == SLOT_DIGESTS[ratio, shared_heads]


@pytest.mark.parametrize("shared_heads", [False, True])
def test_random_weights_bytes_pinned(shared_heads):
    # the slot order fixes which draw lands in which tensor
    h = hashlib.sha256()
    for name, w in arch.random_weights(arch.build_enet21(shared_heads=shared_heads),
                                       seed=5).items():
        h.update(name.encode() + w.tobytes())
    assert h.hexdigest() == RANDOM_WEIGHTS_SEED5_DIGESTS[shared_heads]

# ------------------------------------------------------------ weight files

def test_weights_round_trip(tmp_path):
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=7)
    path = str(tmp_path / "w.afw")
    arch.save_weights(store, path)
    back = arch.load_weights(path)
    assert set(back) == set(store)
    for name in store:
        assert (back[name] == store[name]).all()


def test_weights_empty_store_valid(tmp_path):
    path = str(tmp_path / "empty.afw")
    arch.save_weights({}, path)
    assert arch.load_weights(path) == {}


def test_weights_corrupt_magic(tmp_path):
    path = str(tmp_path / "bad.afw")
    with open(path, "wb") as f:
        f.write(b"XXXX\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        arch.load_weights(path)


def test_weights_truncation(tmp_path):
    spec = arch.build_enet21()
    store = {"initial.conv.kernel": arch.random_weights(spec, 8)["initial.conv.kernel"]}
    path = str(tmp_path / "trunc.afw")
    arch.save_weights(store, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:-7])
    with pytest.raises(FormatError):
        arch.load_weights(path)


def test_weights_repeated_name_rejected(tmp_path):
    path = str(tmp_path / "dup.afw")
    arch.save_weights({"x": np.ones((2,), dtype=np.float32)}, path)
    blob = open(path, "rb").read()
    entry = blob[8:]
    with open(path, "wb") as f:
        f.write(arch.WEIGHTS_MAGIC + (2).to_bytes(4, "little") + entry + entry)
    with pytest.raises(FormatError, match="repeated"):
        arch.load_weights(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weights_non_finite_rejected_naming_first_tensor(tmp_path, bad):
    store = {name: np.ones((3,), dtype=np.float32) for name in ("a", "b", "c")}
    store["b"][1] = bad
    store["c"][0] = np.nan
    path = str(tmp_path / "nan.afw")
    arch.save_weights(store, path)
    with pytest.raises(FormatError, match="'b' holds NaN or inf"):
        arch.load_weights(path)


def test_unknown_tensor_name_rejected_by_validation(tmp_path):
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=9)
    store["mystery.kernel"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
    path = str(tmp_path / "extra.afw")
    arch.save_weights(store, path)
    back = arch.load_weights(path)  # container loads fine
    with pytest.raises(ShapeError) as exc:
        arch.validate_weights(spec, back)
    assert "mystery.kernel" in str(exc.value)
