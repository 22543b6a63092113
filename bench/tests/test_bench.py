"""Tests of the benchmark itself: BENCHMARK.json against the code, the output
checks, the span bookkeeping, and a one-round run of every workload.

    python3 -m pytest bench/tests -q
"""
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def test_benchmark_json_names_and_units(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(W.WORKLOADS)
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_per_layer_metrics_cover_every_traced_span():
    tr = spans.Tracer()
    layers.instrument(tr)
    try:
        wrapped = {m.__name__ for m, _attr, _orig in tr._patches}
    finally:
        tr.restore()
    assert {"lanekit.tensor", "lanekit.arch", "lanekit.affinity", "lanekit.cli",
            "lanekit.dataset", "lanekit.evaluate", "lanekit.losses"} <= wrapped
    tr = spans.Tracer()
    values = layers.per_layer_metrics(tr.summary(), tr.counts, 1, 0, 0.0, 0.0)
    assert list(values) == [name for name, _unit in layers.PER_LAYER]


def test_self_time_subtracts_the_union_of_children():
    tr = spans.Tracer()
    tr.names, tr.parents = ["outer", "a", "b"], [-1, 0, 0]
    tr.starts, tr.ends = [0.0, 1.0, 1.5], [10.0, 3.0, 4.0]  # a and b overlap
    s = tr.summary()
    assert s["outer"]["s"] == 10.0
    assert s["outer"]["self_s"] == pytest.approx(7.0)
    assert s["a"]["self_s"] == pytest.approx(2.0)


def test_tail_latency_needs_ten_ops_beyond():
    assert "note" in run.tail_latency([0.1] * 19)
    t = run.tail_latency([i / 1000 for i in range(1, 101)])
    assert t["percentile"] == 90.0 and t["ops_beyond"] == 10
    assert t["ms"] == pytest.approx(90.0)


def test_seed_picks_the_inputs():
    assert W.infer_frame_ids(3) == W.infer_frame_ids(3)
    assert W.infer_frame_ids(3) != W.infer_frame_ids(4)
    ids = W.dataset_scene_ids(3)
    assert ids == W.dataset_scene_ids(3) != W.dataset_scene_ids(4)
    assert len(ids) == len(set(ids)) == W.DATASET_FRAMES


def test_infer_check_rejects_changed_maps(tmp_path):
    w = W.InferWorkload([0], 1, str(tmp_path))
    w.setup()
    [(frame_id, maps, decoded, pred, ev, loss)] = w.op(0)
    assert w.check_frame(frame_id, maps, decoded, pred, ev, loss) is None
    seg, haf, vaf = maps
    shifted = (seg, haf + np.float32(0.01), vaf)
    assert "maps differ" in w.check_frame(frame_id, shifted, decoded, pred, ev, loss)
    # within tolerance but not bit-identical: held to invariants and loss
    nudged = (seg, haf + np.float32(1e-6), vaf)
    assert w.check_frame(frame_id, nudged, decoded, pred, ev, loss) is None


def test_dataset_check_rejects_changed_lanes(tmp_path):
    ids = W.dataset_scene_ids(0)[:2]
    w = W.DatasetCliWorkload(ids, str(tmp_path), jobs=1)
    w.setup()
    payload, pred = w.op(0, str(tmp_path))
    assert w.check_op(0, payload, pred) is None
    payload["lanes"][0]["points"][0][0] += 1.0
    assert "lanes.json differs" in w.check_op(0, payload, pred)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_one_round_of_each_workload_passes_its_checks(spec, workload):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(spec):
    proc = run_bench("--workload", "dataset_cli", "--seed", "7", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["affinity.decode.ms_per_frame"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "infer_n1", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
