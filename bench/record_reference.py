"""Record the reference outputs the benchmark checks every op against.

    python3 bench/record_reference.py

Runs every frame of both universes (``workloads.INFER_UNIVERSE`` network
frames, ``workloads.DATASET_UNIVERSE`` synthetic scenes) through the same
code the workloads time, and writes ``reference/reference.json`` and
``reference/infer_maps.npz``.  The committed files pin what lanekit computed
when the benchmark was defined; re-record only for a change that is meant to
alter outputs, and say so where the change is described.
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from lanekit import affinity, evaluate  # noqa: E402
from lanekit import tensor as T  # noqa: E402


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "lanekit", "*.py"))):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def decode_ms(seg_prob, fields) -> float:
    """Median of five timed decodes; the seeded draw ranks frames by it."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        affinity.decode(seg_prob, fields)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def record_infer(workdir: str) -> tuple[dict, np.ndarray]:
    w = W.InferWorkload(list(range(W.INFER_UNIVERSE)), 1, workdir)
    w.setup()
    frames, digests = {}, []
    for op in range(W.INFER_UNIVERSE):
        [(frame_id, maps, decoded, pred, ev, loss)] = w.op(op)
        digests.append(W.map_digest(*maps))
        frames[str(frame_id)] = {
            "map_sha": W.map_sha(*maps),
            "decoded": W.decoded_sha(decoded),
            "annotation": W.annotation_sha(pred),
            "counts": W.counts_list(ev),
            "loss": [loss.wbce, loss.iou, loss.af, loss.total],
            "decode_ms": decode_ms(T.sigmoid(maps[0])[0],
                                   affinity.AffinityPair(maps[1][0], maps[2])),
        }
    return {"weight_seed": W.WEIGHT_SEED, "frames": frames}, np.asarray(digests)


def record_dataset(workdir: str) -> dict:
    w = W.DatasetCliWorkload(list(range(W.DATASET_UNIVERSE)), workdir, jobs=1)
    w.setup()
    gt_dir, dec_dir = w.path("gt"), w.path("dec")
    os.makedirs(dec_dir)
    rc = W.cli_main(["encode", "--labels", w.path("labels.json"), "--out", gt_dir])
    if rc != 0:
        raise SystemExit(f"lanecli encode exited {rc}")
    scenes = {}
    for p, scene_id in enumerate(w.scene_ids):
        payload, pred = w.op(p, dec_dir)
        ev = evaluate.evaluate_frame(pred, w.annotations[p])
        scenes[str(scene_id)] = {
            "encode": w.encoded_sha(p, gt_dir),
            "lanes": W.lanes_sha(payload),
            "annotation": W.annotation_sha(pred),
            "counts": W.counts_list(ev),
            "decode_ms": decode_ms(*W.dataset_scene(scene_id)[1:]),
        }
    return {"field_sigma": W.FIELD_SIGMA, "scenes": scenes}


def main() -> int:
    out_dir = os.path.dirname(W.REFERENCE_JSON)
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        infer, digests = record_infer(workdir)
        data = record_dataset(workdir)
    ref = {"source_sha256": source_sha256(), "infer": infer, "dataset_cli": data}
    with open(W.REFERENCE_JSON, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    np.savez_compressed(W.REFERENCE_MAPS, digests=digests.astype(np.float32))
    print(f"wrote {W.REFERENCE_JSON} and {W.REFERENCE_MAPS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
