"""The benchmark workloads: set-up, the timed op, and the output checks.

Every workload is a closed loop with one caller in one process: a round
starts only after the previous one has finished.  The run's seed picks its
frames from a fixed universe of seeded frames (see ``stratified_draw``).  The
outputs for every frame of that universe were recorded once, by
``record_reference.py``, into ``reference/``, and each op is checked against
them.

* ``infer_n1`` -- one frame per op: forward pass at 640x352 with random-init
  weights loaded from an ``.afw`` file, then sigmoid, decode, lift to
  annotation space, evaluation and the training loss against a paired
  synthetic scene.  The tensor kernels and the network do most of the work;
  decode sees dense maps (weight seed 5 gives ~100% foreground).
* ``infer_n8`` -- the same per-frame work with the forward pass on batches of
  eight, one batch per op: 8x wider GEMMs and an activation working set far
  past the L2 cache.  For a given seed it runs the same eight frames as
  ``infer_n1`` against the same per-frame reference, so batched outputs
  must match single-frame ones.  It calls the library directly, because
  ``lanecli infer`` writes only frame 0.
* ``dataset_cli`` -- the README's path for scoring external maps, run
  in-process through ``lanekit.cli.main``.  Set-up writes the labels of 96
  synthetic scenes (1-6 lanes, some merge/split) and, as the external
  network's output, their label foreground with fields perturbed by
  sigma=0.3.  A round runs ``lanecli encode --jobs <nproc>`` over the
  labels, ``lanecli decode`` per frame followed by a lift to annotation
  space (one op per frame), and one ``lanecli eval``.  No network: encode,
  rasterize, ``.aft`` I/O and the CLI thread pool do the work, and decode
  sees sparse maps.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import time
import types
from dataclasses import dataclass, field

import numpy as np

from lanekit import affinity, arch, cli, dataset, evaluate, losses, synth
from lanekit import tensor as T

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_JSON = os.path.join(HERE, "reference", "reference.json")
REFERENCE_MAPS = os.path.join(HERE, "reference", "infer_maps.npz")

# Weight seed 5 drives the random-init network to ~100% foreground on
# uniform-noise images, so decode runs in its dense regime (~1,600 scored
# track/cluster pairs per frame).  Seed 0 gives no foreground at all.
WEIGHT_SEED = 5
INFER_UNIVERSE = 32       # frames with recorded reference outputs
INFER_POOL = 8            # frames one run cycles through: one batch of infer_n8
BATCH_N8 = 8

DATASET_UNIVERSE = 192    # synthetic scenes with recorded reference outputs
DATASET_FRAMES = 96       # scenes one run encodes, decodes and scores
FIELD_SIGMA = 0.3

# Forward-pass maps must match the reference within |got - ref| <=
# MAP_ATOL + MAP_RTOL * |ref| on every digest entry (8x8 block means and the
# per-channel min and max).  The maps lie within about +-0.3, so this admits
# float32 reordering (folded batchnorm, another GEMM layout) and rejects
# any change to what is computed.
MAP_ATOL = 1e-4
MAP_RTOL = 1e-3
LOSS_RTOL = 1e-3


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Round:
    """What one round of a workload did: op latencies, frames, failures.

    ``op_s`` maps an op's key (the frame or batch it ran on) to its seconds.
    """

    op_s: dict[int, float] = field(default_factory=dict)
    frames: int = 0
    busy_s: float = 0.0
    attempted: int = 1
    failed: int = 0
    errors: list[str] = field(default_factory=list)


@functools.lru_cache(maxsize=1)
def load_reference() -> tuple[dict, np.ndarray]:
    with open(REFERENCE_JSON, encoding="utf-8") as f:
        ref = json.load(f)
    with np.load(REFERENCE_MAPS) as z:
        digests = z["digests"]
    return ref, digests


# --------------------------------------------------------------- digests

def map_digest(seg_logits: np.ndarray, haf: np.ndarray, vaf: np.ndarray) -> np.ndarray:
    """8x8 block means plus per-channel min and max of the (4, H, W) maps."""
    maps = np.concatenate([seg_logits.reshape(1, *seg_logits.shape[-2:]),
                           haf.reshape(1, *haf.shape[-2:]),
                           vaf.reshape(2, *vaf.shape[-2:])]).astype(np.float64)
    c, h, w = maps.shape
    blocks = maps.reshape(c, h // 8, 8, w // 8, 8).mean(axis=(2, 4)).reshape(-1)
    return np.concatenate([blocks, maps.min(axis=(1, 2)), maps.max(axis=(1, 2))])


def map_sha(seg_logits, haf, vaf) -> str:
    return sha256(b"".join(np.ascontiguousarray(a, dtype=np.float32).tobytes()
                           for a in (seg_logits, haf, vaf)))


def decoded_sha(decoded) -> str:
    return sha256(decoded.to_json().encode()
                  + np.ascontiguousarray(decoded.cluster_map, dtype=np.int32).tobytes())


def annotation_sha(ann: dataset.LaneAnnotation) -> str:
    return sha256(dataset.serialize_annotation(ann).encode())


def counts_list(ev) -> list[int]:
    c = ev.counts
    return [c.correct_vertices, c.gt_vertices, c.false_lanes,
            c.pred_lanes, c.missed_lanes, c.gt_lanes]


# ----------------------------------------------------------------- infer

@dataclass
class Scene:
    target: np.ndarray          # (H, W) float64 foreground
    fields: affinity.AffinityPair
    annotation: dataset.LaneAnnotation


def infer_image(frame_id: int) -> np.ndarray:
    rng = np.random.default_rng([WEIGHT_SEED, frame_id])
    return rng.random((3, dataset.NET_H, dataset.NET_W), dtype=np.float32)


def paired_scene(frame_id: int) -> Scene:
    mask, ann = synth.generate(synth.random_scene_spec(frame_id))
    ann = dataset.LaneAnnotation(f"frames/{frame_id:04d}.jpg", ann.h_samples, ann.lanes)
    return Scene((mask > 0).astype(np.float64), affinity.encode_affinities(mask), ann)


class InferWorkload:
    """Forward pass plus the per-frame decode/score/loss chain."""

    def __init__(self, frame_ids: list[int], batch: int, workdir: str):
        if len(frame_ids) % batch:
            raise ValueError(f"{len(frame_ids)} frames do not fill batches of {batch}")
        self.frame_ids = list(frame_ids)
        self.batch = batch
        self.workdir = workdir
        self.next_op = 0
        self.info: dict = {}

    def setup(self) -> None:
        self.spec = arch.build_enet21()
        path = os.path.join(self.workdir, "weights.afw")
        arch.save_weights(arch.random_weights(self.spec, seed=WEIGHT_SEED), path)
        t0 = time.perf_counter()
        self.store = arch.load_weights(path)
        self.info["load_weights_ms"] = 1e3 * (time.perf_counter() - t0)
        images = [infer_image(i) for i in self.frame_ids]
        self.batches = [np.stack(images[k:k + self.batch])
                        for k in range(0, len(images), self.batch)]
        self.scenes = {i: paired_scene(i) for i in self.frame_ids}
        self.flops_per_frame = arch.count_flops(
            self.spec, (3, dataset.NET_H, dataset.NET_W)).total_flops

    def warm_up(self) -> list[str]:
        return self.run_round().errors

    def frames_of(self, op: int) -> list[int]:
        k = op % len(self.batches)
        return self.frame_ids[k * self.batch:(k + 1) * self.batch]

    def op(self, op: int) -> list[tuple]:
        """Run op number ``op``; returns per-frame outputs for the check."""
        images = self.batches[op % len(self.batches)]
        seg_logits, haf, vaf = arch.forward(self.spec, self.store, images)
        out = []
        for j, frame_id in enumerate(self.frames_of(op)):
            scene = self.scenes[frame_id]
            prob = T.sigmoid(seg_logits[j:j + 1])
            decoded = affinity.decode(prob[0, 0], affinity.AffinityPair(haf[j, 0], vaf[j]))
            pred = dataset.lanes_to_annotation(decoded, scene.annotation.h_samples,
                                               scene.annotation.raw_file)
            ev = evaluate.evaluate_frame(pred, scene.annotation)
            loss = losses.total_loss(seg_logits[j, 0], haf[j, 0], vaf[j],
                                     scene.target, scene.fields)
            out.append((frame_id, (seg_logits[j], haf[j], vaf[j]), decoded, pred, ev, loss))
        return out

    def run_round(self) -> Round:
        r = Round()
        op = self.next_op
        self.next_op += 1
        t0 = time.perf_counter()
        try:
            outputs = self.op(op)
        except Exception as e:  # a failing op is counted, the run goes on
            r.busy_s = time.perf_counter() - t0
            r.failed = 1
            r.errors.append(f"op {op}: {type(e).__name__}: {e}")
            return r
        r.busy_s = time.perf_counter() - t0
        r.frames = self.batch
        r.op_s[op % len(self.batches)] = r.busy_s
        for frame_id, maps, decoded, pred, ev, loss in outputs:
            err = self.check_frame(frame_id, maps, decoded, pred, ev, loss)
            if err:
                r.errors.append(f"op {op} frame {frame_id}: {err}")
        r.failed = int(bool(r.errors))
        return r

    def check_frame(self, frame_id, maps, decoded, pred, ev, loss) -> str | None:
        reference, digests = load_reference()
        ref = reference["infer"]["frames"][str(frame_id)]
        got = map_digest(*maps)
        want = digests[frame_id]
        bad = ~(np.abs(got - want) <= MAP_ATOL + MAP_RTOL * np.abs(want))
        if bad.any():
            worst = float(np.nanmax(np.abs(got - want)))
            return (f"maps differ from the reference in {int(bad.sum())} digest entries "
                    f"(max {worst:.3g})")
        got_loss = [loss.wbce, loss.iou, loss.af, loss.total]
        if map_sha(*maps) == ref["map_sha"]:
            # bit-identical maps must give bit-identical downstream outputs
            if decoded_sha(decoded) != ref["decoded"]:
                return "decoded lanes differ from the reference"
            if annotation_sha(pred) != ref["annotation"]:
                return "lifted annotation differs from the reference"
            if counts_list(ev) != ref["counts"]:
                return f"eval counts {counts_list(ev)} != reference {ref['counts']}"
            if got_loss != ref["loss"]:
                return f"loss {got_loss} != reference {ref['loss']}"
            return None
        # maps within tolerance but not bit-identical: a threshold can flip,
        # so downstream outputs are held to their invariants only
        if not np.allclose(got_loss, ref["loss"], rtol=LOSS_RTOL, atol=1e-6):
            return f"loss {got_loss} not within {LOSS_RTOL} of reference {ref['loss']}"
        return decode_invariant_error(decoded, pred, ev, self.scenes[frame_id].annotation)


def decode_invariant_error(decoded, pred, ev, gt) -> str | None:
    ids = [ln.lane_id for ln in decoded.lanes]
    if ids != list(range(1, len(ids) + 1)):
        return f"lane ids {ids} are not 1..L"
    for ln in decoded.lanes:
        ys = [y for _x, y in ln.points]
        if any(a <= b for a, b in zip(ys, ys[1:])):
            return f"lane {ln.lane_id} rows are not strictly decreasing"
    cm = decoded.cluster_map
    if cm.size and (cm.min() < 0 or cm.max() > len(ids)):
        return "cluster map holds labels outside 0..L"
    if len(pred.lanes) != len(ids):
        return "lifted annotation lost lanes"
    gt_lanes = sum(1 for lane in gt.lanes if any(x >= 0 for x in lane))
    c = ev.counts
    if (c.pred_lanes != len(ids) or c.gt_lanes != gt_lanes
            or not 0 <= c.correct_vertices <= c.gt_vertices):
        return f"eval counts {counts_list(ev)} are inconsistent"
    return None


# ----------------------------------------------------------- dataset_cli

def cli_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def dataset_scene(scene_id: int):
    mask, ann = synth.generate(synth.random_scene_spec(scene_id))
    ann = dataset.LaneAnnotation(f"clips/{scene_id:04d}.jpg", ann.h_samples, ann.lanes)
    fields = synth.perturb_fields(affinity.encode_affinities(mask), FIELD_SIGMA, seed=scene_id)
    return ann, (mask > 0).astype(np.float32), fields


def decoded_from_json(payload: dict):
    """The part of a ``lanes.json`` that ``lanes_to_annotation`` reads."""
    lanes = tuple(affinity.DecodedLane(ln["id"], tuple((x, y) for x, y in ln["points"]))
                  for ln in payload["lanes"])
    return types.SimpleNamespace(lanes=lanes)


def lanes_sha(payload: dict) -> str:
    return sha256(json.dumps({"lanes": payload["lanes"], "resolution": payload["resolution"]},
                             sort_keys=True).encode())


class DatasetCliWorkload:
    """labels -> ``lanecli encode``; external maps -> ``lanecli decode`` + lift
    per frame; predictions -> ``lanecli eval``."""

    def __init__(self, scene_ids: list[int], workdir: str, jobs: int):
        self.scene_ids = list(scene_ids)
        self.workdir = workdir
        self.jobs = jobs
        self.rounds = 0
        self.info: dict = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def setup(self) -> None:
        os.makedirs(self.path("maps"))
        self.annotations = []
        lines = []
        for p, scene_id in enumerate(self.scene_ids):
            ann, seg, fields = dataset_scene(scene_id)
            self.annotations.append(ann)
            lines.append(dataset.serialize_annotation(ann))
            T.save_tensor(self.path("maps", f"{p:06d}.seg.aft"), seg)
            T.save_tensor(self.path("maps", f"{p:06d}.haf.aft"), fields.haf)
            T.save_tensor(self.path("maps", f"{p:06d}.vaf.aft"), fields.vaf)
        with open(self.path("labels.json"), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def reference(self, p: int) -> dict:
        return load_reference()[0]["dataset_cli"]["scenes"][str(self.scene_ids[p])]

    def op(self, p: int, out_dir: str) -> tuple[dict, dataset.LaneAnnotation]:
        """Decode frame ``p`` through ``lanecli decode`` into ``out_dir`` and
        lift it to annotation space."""
        maps = self.path("maps", f"{p:06d}")
        out = os.path.join(out_dir, f"{p:06d}.lanes.json")
        rc = cli_main(["decode", "--seg", maps + ".seg.aft", "--haf", maps + ".haf.aft",
                       "--vaf", maps + ".vaf.aft", "--out", out])
        if rc != 0:
            raise RuntimeError(f"lanecli decode exited {rc}")
        with open(out, encoding="utf-8") as f:
            payload = json.load(f)
        ann = self.annotations[p]
        return payload, dataset.lanes_to_annotation(decoded_from_json(payload),
                                                    ann.h_samples, ann.raw_file)

    def check_op(self, p: int, payload: dict, pred) -> str | None:
        ref = self.reference(p)
        if lanes_sha(payload) != ref["lanes"]:
            return "lanes.json differs from the reference"
        if annotation_sha(pred) != ref["annotation"]:
            return "lifted annotation differs from the reference"
        return None

    def encoded_sha(self, p: int, gt_dir: str) -> str:
        stem = os.path.join(gt_dir, f"{p:06d}")
        blob = b""
        for suffix in (".mask.aft", ".haf.aft", ".vaf.aft"):
            with open(stem + suffix, "rb") as f:
                blob += f.read()
        return sha256(blob)

    def run_round(self) -> Round:
        """encode all frames, decode + lift each (one op per frame), eval once.

        Each round writes into a fresh directory, removed once checked, as
        when scoring a new set of frames.  Writing over the previous round's
        files instead would make ext4 force each replaced file's data to
        disk (its replace-via-rename rule), and disk waits would swamp the
        figures.
        """
        self.rounds += 1
        out = self.path(f"round{self.rounds}")
        os.makedirs(os.path.join(out, "dec"))
        try:
            return self._round(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _round(self, out: str) -> Round:
        k = len(self.scene_ids)
        r = Round(attempted=k)
        bad: dict[int, str] = {}
        gt_dir, dec_dir = os.path.join(out, "gt"), os.path.join(out, "dec")
        pred_path, eval_path = os.path.join(out, "pred.json"), os.path.join(out, "eval.json")
        t0 = time.perf_counter()
        rc = cli_main(["encode", "--labels", self.path("labels.json"),
                       "--out", gt_dir, "--jobs", str(self.jobs)])
        r.busy_s += time.perf_counter() - t0
        for p in range(k):
            if rc != 0:
                bad[p] = f"lanecli encode exited {rc}"
            elif self.encoded_sha(p, gt_dir) != self.reference(p)["encode"]:
                bad[p] = "encoded mask/haf/vaf differ from the reference"
        preds = []
        for p in range(k):
            t0 = time.perf_counter()
            try:
                payload, pred = self.op(p, dec_dir)
                preds.append(dataset.serialize_annotation(pred))
            except Exception as e:  # a failing op is counted, the run goes on
                r.busy_s += time.perf_counter() - t0
                bad[p] = f"{type(e).__name__}: {e}"
                continue
            dt = time.perf_counter() - t0
            r.busy_s += dt
            r.op_s[p] = dt
            r.frames += 1
            err = self.check_op(p, payload, pred)
            if err:
                bad.setdefault(p, err)
        t0 = time.perf_counter()
        with open(pred_path, "w", encoding="utf-8") as f:
            f.write("\n".join(preds) + "\n")
        rc = cli_main(["eval", "--pred", pred_path, "--gt", self.path("labels.json"),
                       "--out", eval_path])
        r.busy_s += time.perf_counter() - t0
        err = self.check_eval(rc, eval_path)
        if err:
            bad.update({p: bad.get(p, err) for p in range(k)})
        r.failed = len(bad)
        r.errors = [f"frame {p} (scene {self.scene_ids[p]}): {msg}"
                    for p, msg in sorted(bad.items())]
        return r

    def check_eval(self, rc: int, eval_path: str) -> str | None:
        if rc != 0:
            return f"lanecli eval exited {rc}"
        with open(eval_path, encoding="utf-8") as f:
            result = json.load(f)
        want = np.sum([self.reference(p)["counts"] for p in range(len(self.scene_ids))], axis=0)
        c = result["counts"]
        got = [c["correct_vertices"], c["gt_vertices"], c["false_lanes"],
               c["pred_lanes"], c["missed_lanes"], c["gt_lanes"]]
        if got != want.tolist() or result["frames"] != len(self.scene_ids):
            return f"eval counts {got} != reference {want.tolist()}"
        self.info["lane_accuracy"] = result["accuracy"]
        self.info["lane_f1"] = result["f1"]
        return None

    def warm_up(self) -> list[str]:
        os.makedirs(self.path("warm_up"))
        payload, pred = self.op(0, self.path("warm_up"))
        err = self.check_op(0, payload, pred)
        return [f"warm-up op: {err}"] if err else []


# ------------------------------------------------------------- selection
#
# A seed draws one frame from each stratum of the universe ranked by the
# decode time recorded with the reference.  Every run then carries the same
# spread of decode cost while its frames differ, so the figures of two seeds
# differ by the machine, not by the draw.  (Ranking by scored pairs instead
# left a 5% spread of the median op time between seeds.)

def stratified_draw(frames: dict, strata: int, seed: int) -> list[int]:
    order = sorted(range(len(frames)), key=lambda i: (frames[str(i)]["decode_ms"], i))
    size = len(order) // strata
    rng = np.random.default_rng(seed)
    ids = [order[k * size + int(rng.integers(size))] for k in range(strata)]
    return [ids[i] for i in rng.permutation(strata)]


def infer_frame_ids(seed: int) -> list[int]:
    return stratified_draw(load_reference()[0]["infer"]["frames"], INFER_POOL, seed)


def dataset_scene_ids(seed: int) -> list[int]:
    return stratified_draw(load_reference()[0]["dataset_cli"]["scenes"], DATASET_FRAMES, seed)


WORKLOADS = ("infer_n1", "infer_n8", "dataset_cli")


def make(name: str, seed: int, workdir: str):
    if name == "infer_n1":
        return InferWorkload(infer_frame_ids(seed), 1, workdir)
    if name == "infer_n8":
        return InferWorkload(infer_frame_ids(seed), BATCH_N8, workdir)
    if name == "dataset_cli":
        return DatasetCliWorkload(dataset_scene_ids(seed), workdir, nproc())
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
