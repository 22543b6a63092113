"""Property tests for the readers: any input bytes give a value or a
LanekitError (tensors, weight files), or annotations plus reported errors
(label files)."""
import io
import json
import os
import struct
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit import arch
from lanekit import dataset as D
from lanekit import tensor as T
from lanekit.errors import LanekitError

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
valid_tensors = st.lists(st.floats(width=32), max_size=4).map(
    lambda v: T.tensor_to_bytes(np.asarray(v, dtype=np.float32)))
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
               for k, v in store.items())


@settings(max_examples=200, deadline=None)
@given(st.lists(label_lines, max_size=6).map(b"\n".join))
def test_parse_tusimple_reports_every_bad_line(blob):
    errors: list[str] = []
    anns = _with_file(blob, lambda path: D.parse_tusimple(path, errors))
    assert all(isinstance(a, D.LaneAnnotation) for a in anns)
    assert all(isinstance(e, str) and e.startswith("line ") for e in errors)
    text = io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", errors="surrogateescape")
    assert len(anns) + len(errors) == sum(1 for line in text if line.strip())
