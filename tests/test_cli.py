import inspect
import json
import os
import warnings

import numpy as np
import pytest

from lanekit import cli, synth
from lanekit import dataset as D
from lanekit import tensor as T
from lanekit.affinity import AffinityPair
from lanekit.arch import build_enet21, random_weights, save_weights
from lanekit.losses import total_loss

H_SAMPLES = list(range(160, 720, 10))


def run(args):
    return cli.main(args)


def write_labels(tmp_path, xs, name="labels.json"):
    lines = []
    for i, x in enumerate(xs):
        lines.append(json.dumps({
            "lanes": [[float(x)] * len(H_SAMPLES)],
            "h_samples": H_SAMPLES,
            "raw_file": f"clips/{i}.jpg",
        }))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def dir_bytes(root):
    state = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in filenames:
            p = os.path.join(dirpath, fn)
            state[os.path.relpath(p, root)] = open(p, "rb").read()
    return state


# ------------------------------------------------------------------ encode

def test_encode_writes_triples_and_manifest(tmp_path):
    labels = write_labels(tmp_path, [400, 640, 900])
    out = str(tmp_path / "enc")
    assert run(["encode", "--labels", labels, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert "manifest.json" in names
    for i in range(3):
        for suffix in ("mask", "haf", "vaf"):
            assert f"{i:06d}.{suffix}.aft" in names
    mask = T.load_tensor(os.path.join(out, "000001.mask.aft"))
    assert mask.shape == (88, 160) and mask.max() == 1
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["command"] == "encode"
    assert manifest["config"]["frames"] == 3


def test_encode_bad_out_location_exits_2(tmp_path):
    labels = write_labels(tmp_path, [400])
    bad_out = labels + "/sub"  # parent is a file
    assert run(["encode", "--labels", labels, "--out", bad_out]) == 2


# past the 1280x720 label frame too: 100000x100000 would allocate tens of GiB
@pytest.mark.parametrize("res", ["0x0", "160x0", "0x88", "-160x88",
                                 "1281x720", "1280x721", "100000x100000"])
def test_encode_non_positive_resolution_exits_2_writing_nothing(tmp_path, capsys, res):
    labels = write_labels(tmp_path, [400])
    out = str(tmp_path / "enc")
    assert run(["encode", "--labels", labels, "--out", out, f"--res={res}"]) == 2
    assert "expected WxH, both positive" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_encode_at_the_label_frame_size(tmp_path):
    labels = write_labels(tmp_path, [400])
    out = str(tmp_path / "enc")
    assert run(["encode", "--labels", labels, "--out", out, "--res=1280x720"]) == 0
    assert T.load_tensor(os.path.join(out, "000000.mask.aft")).shape == (720, 1280)


def test_encode_deterministic_across_runs(tmp_path):
    labels = write_labels(tmp_path, [300, 800])
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["encode", "--labels", labels, "--out", out_a]) == 0
    assert run(["encode", "--labels", labels, "--out", out_b]) == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)


def test_encode_parallel_jobs_match_serial(tmp_path):
    labels = write_labels(tmp_path, [250, 500, 750, 1000])
    out_a, out_b = str(tmp_path / "serial"), str(tmp_path / "par")
    assert run(["encode", "--labels", labels, "--out", out_a]) == 0
    assert run(["encode", "--labels", labels, "--out", out_b, "--jobs", "4"]) == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)


def test_encode_malformed_line_nonzero_exit(tmp_path):
    path = tmp_path / "labels.json"
    good = json.dumps({"lanes": [[640.0] * len(H_SAMPLES)],
                       "h_samples": H_SAMPLES, "raw_file": "a.jpg"})
    path.write_text(good + "\n{broken\n")
    out = str(tmp_path / "enc")
    assert run(["encode", "--labels", str(path), "--out", out]) == 2
    assert os.path.exists(os.path.join(out, "000000.mask.aft"))  # good frame kept


def test_encode_non_object_line_exits_2(tmp_path, capsys):
    path = tmp_path / "labels.json"
    good = json.dumps({"lanes": [[640.0] * len(H_SAMPLES)],
                       "h_samples": H_SAMPLES, "raw_file": "a.jpg"})
    path.write_text("5\n" + good + "\n")
    out = str(tmp_path / "enc")
    assert run(["encode", "--labels", str(path), "--out", out]) == 2
    assert "line 1: expected a JSON object" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "000000.mask.aft"))


def test_encode_reports_out_of_range_h_samples(tmp_path, capsys):
    # a whole number too large for a float once reached rasterize and raised
    # OverflowError out of main; -5000 encoded silently
    path = tmp_path / "labels.json"
    lines = [json.dumps({"lanes": [[640.0, 640.0]], "h_samples": [160, y], "raw_file": "a.jpg"})
             for y in (-5000, 10 ** 400)]
    good = json.dumps({"lanes": [[640.0] * len(H_SAMPLES)],
                       "h_samples": H_SAMPLES, "raw_file": "b.jpg"})
    path.write_text("\n".join(lines + [good]) + "\n")
    out = str(tmp_path / "enc")
    assert run(["encode", "--labels", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "line 1: h_samples y=-5000 outside [0, 719]" in err
    assert "line 2: h_samples y=1" in err
    assert os.path.exists(os.path.join(out, "000000.mask.aft"))
    assert not os.path.exists(os.path.join(out, "000001.mask.aft"))


def test_encode_reports_h_samples_that_do_not_increase(tmp_path, capsys):
    path = tmp_path / "labels.json"
    good = json.dumps({"lanes": [[640.0] * len(H_SAMPLES)],
                       "h_samples": H_SAMPLES, "raw_file": "b.jpg"})
    bad = json.dumps({"lanes": [[600.0, 680.0]], "h_samples": [710, 300], "raw_file": "a.jpg"})
    path.write_text("\n".join([good, bad]) + "\n")
    out = str(tmp_path / "enc")
    assert run(["encode", "--labels", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "line 2: h_samples must be strictly increasing: y=300 after y=710" in err
    assert sorted(os.listdir(out)) == ["000000.haf.aft", "000000.mask.aft",
                                       "000000.vaf.aft", "manifest.json"]


def test_parser_defaults_come_from_the_library():
    parser = cli.build_parser()
    enc = parser.parse_args(["encode", "--labels", "l", "--out", "o"])
    raster = inspect.signature(D.rasterize).parameters
    assert enc.thickness == raster["thickness"].default == D.LABEL_THICKNESS
    assert cli._parse_res(enc.res) == raster["out_res"].default == (D.MAP_H, D.MAP_W)
    spec = synth.SceneSpec()
    sy = parser.parse_args(["synth", "--out", "o"])
    assert (sy.lanes, (-sy.curvature, sy.curvature), sy.spacing, sy.width) == (
        spec.lane_count, spec.curvature, spec.spacing, spec.width)
    assert cli._parse_res(parser.parse_args(["arch"]).input) == (D.NET_H, D.NET_W)


# ------------------------------------------------------------------ decode

def synth_scene(tmp_path, seed=5, lanes=3):
    scene = str(tmp_path / f"scene{seed}")
    assert run(["synth", "--out", scene, "--seed", str(seed),
                "--lanes", str(lanes)]) == 0
    return scene


def test_synth_writes_scene_directory(tmp_path):
    scene = synth_scene(tmp_path)
    for name in ("mask.aft", "haf.aft", "vaf.aft", "label.json", "manifest.json"):
        assert os.path.exists(os.path.join(scene, name))
    anns = D.parse_tusimple(os.path.join(scene, "label.json"), [])
    assert len(anns) == 1 and len(anns[0].lanes) == 3


def test_decode_cli_roundtrip(tmp_path):
    scene = synth_scene(tmp_path, seed=6, lanes=4)
    mask = T.load_tensor(os.path.join(scene, "mask.aft"))
    seg = (mask > 0).astype(np.float32)
    seg_path = os.path.join(scene, "seg.aft")
    T.save_tensor(seg_path, seg)
    out = str(tmp_path / "lanes.json")
    assert run(["decode", "--seg", seg_path,
                "--haf", os.path.join(scene, "haf.aft"),
                "--vaf", os.path.join(scene, "vaf.aft"),
                "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert len(payload["lanes"]) == 4
    assert payload["resolution"] == [88, 160]
    assert payload["version"]
    assert payload["config"]["fg_threshold"] == 0.5


def test_decode_flags_do_not_leak_into_the_next_call(tmp_path):
    # one parser serves every call in a process; a flag from one call must
    # not become the default of the next
    scene = synth_scene(tmp_path, seed=6, lanes=2)
    maps = ["--seg", os.path.join(scene, "mask.aft"), "--haf", os.path.join(scene, "haf.aft"),
            "--vaf", os.path.join(scene, "vaf.aft")]
    rows = []
    for i, extra in enumerate((["--min-lane-rows", "7"], [])):
        out = tmp_path / f"run{i}" / "lanes.json"
        out.parent.mkdir()
        assert run(["decode", *maps, *extra, "--out", str(out)]) == 0
        manifest = json.loads((out.parent / "manifest.json").read_text())
        rows.append((json.loads(out.read_text())["config"]["min_lane_rows"],
                     manifest["config"]["min_lane_rows"]))
    default = cli.DecodeConfig().min_lane_rows
    assert default != 7 and rows == [(7, 7), (default, default)]


def test_decode_negative_min_lane_rows_exits_2(tmp_path):
    scene = synth_scene(tmp_path, seed=6, lanes=2)
    out = str(tmp_path / "lanes.json")
    assert run(["decode", "--seg", os.path.join(scene, "mask.aft"),
                "--haf", os.path.join(scene, "haf.aft"),
                "--vaf", os.path.join(scene, "vaf.aft"),
                "--min-lane-rows", "-1", "--out", out]) == 2
    assert not os.path.exists(out)


def test_decode_empty_seg_yields_no_lanes(tmp_path):
    scene = synth_scene(tmp_path, seed=7, lanes=2)
    seg_path = os.path.join(scene, "empty.aft")
    T.save_tensor(seg_path, np.zeros((88, 160), dtype=np.float32))
    out = str(tmp_path / "lanes.json")
    assert run(["decode", "--seg", seg_path,
                "--haf", os.path.join(scene, "haf.aft"),
                "--vaf", os.path.join(scene, "vaf.aft"),
                "--out", out]) == 0
    assert json.loads(open(out).read())["lanes"] == []


@pytest.mark.parametrize("name, bad", [("seg", np.nan), ("haf", np.inf), ("vaf", -np.inf),
                                       ("vaf", np.nan)])
def test_decode_non_finite_map_exits_2_writing_nothing(tmp_path, capsys, name, bad):
    scene = synth_scene(tmp_path, seed=7, lanes=2)
    paths = {m: os.path.join(scene, f"{m}.aft") for m in ("seg", "haf", "vaf")}
    T.save_tensor(paths["seg"], (T.load_tensor(os.path.join(scene, "mask.aft")) > 0)
                  .astype(np.float32))
    arr = T.load_tensor(paths[name])
    arr.reshape(-1)[arr.size // 2] = bad
    # an all-NaN seg map decoded to no lanes, with exit 0
    T.save_tensor(paths[name], np.full_like(arr, np.nan) if name == "seg" else arr)
    out = str(tmp_path / "lanes.json")
    assert run(["decode", "--seg", paths["seg"], "--haf", paths["haf"], "--vaf", paths["vaf"],
                "--out", out]) == 2
    assert f"{paths[name]}: holds NaN or inf" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_decode_corrupt_magic_exits_2_no_partial_output(tmp_path):
    scene = synth_scene(tmp_path, seed=8, lanes=2)
    bad = os.path.join(scene, "bad.aft")
    with open(bad, "wb") as f:
        f.write(b"JUNKJUNKJUNK")
    out = str(tmp_path / "lanes.json")
    assert run(["decode", "--seg", bad,
                "--haf", os.path.join(scene, "haf.aft"),
                "--vaf", os.path.join(scene, "vaf.aft"),
                "--out", out]) == 2
    assert not os.path.exists(out)


def test_decode_into_missing_directory_names_the_requested_path(tmp_path, capsys):
    scene = synth_scene(tmp_path, seed=6, lanes=2)
    out = str(tmp_path / "nodir" / "lanes.json")
    assert run(["decode", "--seg", os.path.join(scene, "mask.aft"),
                "--haf", os.path.join(scene, "haf.aft"),
                "--vaf", os.path.join(scene, "vaf.aft"),
                "--out", out]) == 2
    err = capsys.readouterr().err
    # the error once named a random temp file beside the requested one
    assert f"No such file or directory: {out!r}" in err and ".tmp" not in err
    assert not os.path.exists(os.path.dirname(out))
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


def test_decode_resolution_mismatch_exits_2(tmp_path, capsys):
    scene = synth_scene(tmp_path, seed=9, lanes=2)
    small = os.path.join(scene, "small.aft")
    T.save_tensor(small, np.zeros((44, 80), dtype=np.float32))
    out = tmp_path / "x.json"
    capsys.readouterr()
    assert run(["decode", "--seg", small,
                "--haf", os.path.join(scene, "haf.aft"),
                "--vaf", os.path.join(scene, "vaf.aft"),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "(44, 80)" in err and "(88, 160)" in err
    assert not out.exists()


def test_decode_field_mismatch_exits_2(tmp_path, capsys):
    scene = synth_scene(tmp_path, seed=9, lanes=2)
    small = os.path.join(scene, "small.aft")
    T.save_tensor(small, np.zeros((2, 44, 80), dtype=np.float32))
    out = tmp_path / "x.json"
    capsys.readouterr()
    assert run(["decode", "--seg", os.path.join(scene, "mask.aft"),
                "--haf", os.path.join(scene, "haf.aft"),
                "--vaf", small, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "haf (88, 160)" in err and "vaf (2, 44, 80)" in err
    assert not out.exists()


# -------------------------------------------------------------------- eval

def test_eval_exact_match(tmp_path, capsys):
    labels = write_labels(tmp_path, [400, 800])
    assert run(["eval", "--pred", labels, "--gt", labels]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accuracy"] == 1.0
    assert payload["fp"] == 0.0 and payload["fn"] == 0.0
    assert payload["f1"] == 1.0
    assert payload["config"]["px_threshold"] == 20.0


def test_eval_missing_frame_exits_3(tmp_path):
    gt = write_labels(tmp_path, [400, 800], name="gt.json")
    pred = write_labels(tmp_path, [400], name="pred.json")
    assert run(["eval", "--pred", pred, "--gt", gt]) == 3


def test_eval_order_invariance(tmp_path, capsys):
    lines = []
    for i, x in enumerate([300, 600, 900]):
        lines.append(json.dumps({"lanes": [[float(x)] * len(H_SAMPLES)],
                                 "h_samples": H_SAMPLES, "raw_file": f"f{i}.jpg"}))
    gt = tmp_path / "gt.json"
    gt.write_text("\n".join(lines) + "\n")
    pred_shuffled = tmp_path / "pred.json"
    pred_shuffled.write_text("\n".join(reversed(lines)) + "\n")
    assert run(["eval", "--pred", str(pred_shuffled), "--gt", str(gt)]) == 0
    shuffled = json.loads(capsys.readouterr().out)
    assert run(["eval", "--pred", str(gt), "--gt", str(gt)]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert shuffled == direct


@pytest.mark.parametrize("flag", ["--px-thresh", "--lane-thresh"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_thresholds_must_be_finite(tmp_path, capsys, flag, value):
    labels = write_labels(tmp_path, [400, 800])
    out = tmp_path / "score.json"
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--pred", labels, "--gt", labels, "--table", "--out", str(out),
             f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: expected a finite number" in captured.err
    assert not out.exists()


def label_line(raw_file, x=640.0):
    return json.dumps({"lanes": [[x] * len(H_SAMPLES)], "h_samples": H_SAMPLES,
                       "raw_file": raw_file})


@pytest.mark.parametrize("faulty", ["gt", "pred"])
def test_eval_malformed_line_exits_2_with_no_score(tmp_path, capsys, faulty):
    good = tmp_path / "good.json"
    good.write_text(label_line("a.jpg") + "\n" + label_line("b.jpg") + "\n")
    bad = tmp_path / "bad.json"
    bad.write_text(label_line("a.jpg") + "\n{broken\n" + label_line("b.jpg") + "\n")
    files = {"gt": good, "pred": good, faulty: bad}
    out = tmp_path / "score.json"
    assert run(["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"]),
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"eval: {bad}: line 2: invalid JSON" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("faulty", ["gt", "pred"])
def test_eval_repeated_raw_file_exits_2_naming_it(tmp_path, capsys, faulty):
    good = tmp_path / "good.json"
    good.write_text(label_line("a.jpg") + "\n" + label_line("b.jpg") + "\n")
    twice = tmp_path / "twice.json"
    twice.write_text(label_line("a.jpg") + "\n" + label_line("b.jpg") + "\n"
                     + label_line("a.jpg", x=300.0) + "\n")
    files = {"gt": good, "pred": good, faulty: twice}
    out = tmp_path / "score.json"
    assert run(["eval", "--pred", str(files["pred"]), "--gt", str(files["gt"]),
                "--table", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"eval: {twice}: raw_file 'a.jpg' appears more than once" in captured.err
    assert not out.exists()


# -------------------------------------------------------------------- arch

def arch_json(capsys, extra=()):
    assert run(["arch", "--format", "json", *extra]) == 0
    return json.loads(capsys.readouterr().out)


def test_arch_table_two_shapes(capsys):
    payload = arch_json(capsys)
    by_row = {}
    for layer in payload["layers"]:
        by_row.setdefault(layer["row"], []).append(layer)
    assert by_row[1][0]["output"] == "320x176x16"
    assert by_row[2][0]["output"] == "160x88x64"
    assert by_row[5][0]["output"] == "80x44x128"
    assert by_row[16][0]["output"] == "160x88x64"
    outs = sorted(l["output"] for l in by_row[21])
    assert outs == ["160x88x1", "160x88x1", "160x88x2"]


def test_arch_totals_near_published_figures(capsys):
    payload = arch_json(capsys)
    assert abs(payload["total_params"] - 0.25e6) <= 0.15 * 0.25e6
    assert abs(payload["total_flops"] - 3.14e9) <= 0.15 * 3.14e9


def test_arch_flops_halve_with_width(capsys):
    full = arch_json(capsys, ("--input", "640x352"))
    half = arch_json(capsys, ("--input", "320x352"))
    assert half["total_flops"] * 2 == full["total_flops"]


def test_arch_shared_heads_cheaper(capsys):
    full = arch_json(capsys)
    shared = arch_json(capsys, ("--shared-heads",))
    assert shared["total_params"] < full["total_params"]


@pytest.mark.parametrize("res", ["0x0", "640x0", "0x352"])
def test_arch_non_positive_input_exits_2(capsys, res):
    assert run(["arch", "--input", res]) == 2
    assert "expected WxH, both positive" in capsys.readouterr().err


def test_arch_table_format_prints_rows(capsys):
    assert run(["arch"]) == 0
    out = capsys.readouterr().out
    assert "bottleneck2.5" in out
    assert "total params" in out


# --------------------------------------------------------------- roundtrip

def test_roundtrip_small_batch(capsys):
    assert run(["roundtrip", "--scenes", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "aggregate:" in out
    agg = [l for l in out.splitlines() if l.startswith("aggregate:")][0]
    assert "exact-lane-count=5/5" in agg


def test_roundtrip_deterministic(capsys):
    assert run(["roundtrip", "--scenes", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run(["roundtrip", "--scenes", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("noise", ["-1", "-0.1", "nan", "inf", "1e308"])
def test_roundtrip_rejects_negative_or_non_finite_noise(capsys, noise):
    # 1e308 passes the range rule, but its float32 angles are infinite
    assert run(["roundtrip", "--scenes", "1", "--noise", noise]) == 2
    captured = capsys.readouterr()
    want = (f"sigma {float(noise)} draws angles beyond float32's range" if noise == "1e308"
            else f"sigma must be finite and >= 0, got {float(noise)}")
    assert f"lanecli roundtrip: error: {want}" in captured.err
    assert "aggregate" not in captured.out


def test_roundtrip_noise_reporting_mode(capsys):
    assert run(["roundtrip", "--scenes", "2", "--seed", "4", "--noise", "0.6"]) == 0
    assert "noise=0.6" in capsys.readouterr().out


# ------------------------------------------------------------------- infer

def test_infer_random_init_shapes_and_determinism(tmp_path):
    img_path = str(tmp_path / "img.aft")
    T.save_tensor(img_path, np.random.default_rng(0).random((3, 352, 640)).astype(np.float32))
    out_a, out_b = str(tmp_path / "ia"), str(tmp_path / "ib")
    for out in (out_a, out_b):
        assert run(["infer", "--random-init", "--seed", "5",
                    "--image", img_path, "--out", out, "--decode"]) == 0
    seg = T.load_tensor(os.path.join(out_a, "seg.aft"))
    haf = T.load_tensor(os.path.join(out_a, "haf.aft"))
    vaf = T.load_tensor(os.path.join(out_a, "vaf.aft"))
    assert seg.shape == (1, 88, 160) and haf.shape == (1, 88, 160)
    assert vaf.shape == (2, 88, 160)
    assert seg.min() >= 0.0 and seg.max() <= 1.0
    assert dir_bytes(out_a) == dir_bytes(out_b)
    assert os.path.exists(os.path.join(out_a, "lanes.json"))


def test_infer_manifest_records_decode_settings(tmp_path):
    img_path = str(tmp_path / "img.aft")
    T.save_tensor(img_path, np.random.default_rng(0).random((3, 64, 64)).astype(np.float32))
    configs = {}
    for name, extra in (("plain", []), ("d5", ["--decode"]),
                        ("d9", ["--decode", "--fg-thresh", "0.9", "--assoc-thresh", "7"])):
        out = str(tmp_path / name)
        assert run(["infer", "--random-init", "--seed", "5", "--image", img_path,
                    "--out", out, *extra]) == 0
        with open(os.path.join(out, "manifest.json")) as f:
            configs[name] = json.load(f)["config"]
    base = {"weights": None, "random_init": True, "seed": 5, "shared_heads": False}
    assert configs["plain"] == {**base, "decode": False}
    assert configs["d5"] == {**base, "decode": True, **cli.DecodeConfig().__dict__}
    assert configs["d9"] == {**base, "decode": True, **cli.DecodeConfig(
        fg_threshold=0.9, assoc_threshold=7.0).__dict__}


def test_infer_decode_takes_every_decode_flag(tmp_path):
    # the same flags give `infer --decode` and `decode` over its maps the same lanes
    img_path = str(tmp_path / "img.aft")
    T.save_tensor(img_path, np.random.default_rng(0).random((3, 64, 96)).astype(np.float32))
    flags = ["--fg-thresh", "0.4", "--assoc-thresh", "9",
             "--min-cluster-size", "3", "--min-lane-rows", "3"]
    out = str(tmp_path / "run")
    assert run(["infer", "--random-init", "--seed", "5", "--image", img_path,
                "--out", out, "--decode", *flags]) == 0
    cfg = cli.DecodeConfig(fg_threshold=0.4, assoc_threshold=9.0,
                           min_cluster_size=3, min_lane_rows=3)
    with open(os.path.join(out, "manifest.json")) as f:
        assert json.load(f)["config"] == {"weights": None, "random_init": True, "seed": 5,
                                          "shared_heads": False, "decode": True,
                                          **cfg.__dict__}
    lanes_path = str(tmp_path / "lanes.json")
    assert run(["decode", *(arg for m in ("seg", "haf", "vaf")
                            for arg in (f"--{m}", os.path.join(out, f"{m}.aft"))),
                "--out", lanes_path, *flags]) == 0
    with open(os.path.join(out, "lanes.json")) as f:
        inferred = json.load(f)
    with open(lanes_path) as f:
        decoded = json.load(f)
    assert decoded.pop("config") == cfg.__dict__
    del decoded["version"]
    assert inferred == decoded
    assert len(inferred["lanes"]) == 3   # the default settings keep 1


def test_infer_missing_image_exits_2(tmp_path, capsys):
    image, out = str(tmp_path / "no.aft"), tmp_path / "o"
    assert run(["infer", "--random-init", "--image", image, "--out", str(out)]) == 2
    assert repr(image) in capsys.readouterr().err
    assert not out.exists()


def test_infer_rejects_batched_image(tmp_path, capsys):
    img_path = str(tmp_path / "batch.aft")
    T.save_tensor(img_path, np.zeros((2, 3, 16, 16), dtype=np.float32))
    out = str(tmp_path / "o")
    assert run(["infer", "--random-init", "--image", img_path, "--out", out]) == 2
    assert "batch of 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_infer_misshaped_weights_exit_2(tmp_path):
    spec = build_enet21()
    store = random_weights(spec, seed=0)
    store["initial.conv.kernel"] = np.zeros((13, 3, 5, 5), dtype=np.float32)
    wpath = str(tmp_path / "w.afw")
    save_weights(store, wpath)
    img_path = str(tmp_path / "img.aft")
    T.save_tensor(img_path, np.zeros((3, 16, 16), dtype=np.float32))
    assert run(["infer", "--weights", wpath, "--image", img_path,
                "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_infer_non_finite_weights_exit_2(tmp_path, capsys, bad):
    store = random_weights(build_enet21(), seed=0)
    store["bottleneck2.3.main.bn.var"][5] = bad
    wpath = str(tmp_path / "w.afw")
    save_weights(store, wpath)
    img_path = str(tmp_path / "img.aft")
    T.save_tensor(img_path, np.zeros((3, 16, 16), dtype=np.float32))
    out = str(tmp_path / "o")
    assert run(["infer", "--weights", wpath, "--image", img_path, "--out", out]) == 2
    assert "bottleneck2.3.main.bn.var" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_infer_non_finite_image_exits_2_writing_nothing(tmp_path, capsys, bad):
    img_path = str(tmp_path / "img.aft")
    img = np.random.default_rng(3).random((3, 16, 16)).astype(np.float32)
    img[1, 2, 3] = bad
    T.save_tensor(img_path, np.full_like(img, np.nan) if np.isnan(bad) else img)
    out = str(tmp_path / "o")
    assert run(["infer", "--random-init", "--image", img_path, "--out", out, "--decode"]) == 2
    assert f"{img_path}: holds NaN or inf" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_infer_saved_weights_match_random_init(tmp_path):
    spec = build_enet21()
    store = random_weights(spec, seed=5)
    wpath = str(tmp_path / "w.afw")
    save_weights(store, wpath)
    img_path = str(tmp_path / "img.aft")
    T.save_tensor(img_path, np.random.default_rng(2).random((3, 16, 16)).astype(np.float32))
    out_a, out_b = str(tmp_path / "wa"), str(tmp_path / "wb")
    assert run(["infer", "--weights", wpath, "--image", img_path, "--out", out_a]) == 0
    assert run(["infer", "--random-init", "--seed", "5", "--image", img_path,
                "--out", out_b]) == 0
    a = T.load_tensor(os.path.join(out_a, "seg.aft"))
    b = T.load_tensor(os.path.join(out_b, "seg.aft"))
    assert (a == b).all()


# -------------------------------------------------------------------- loss

def test_loss_cli_perfect_prediction(tmp_path, capsys):
    scene = synth_scene(tmp_path, seed=10, lanes=3)
    capsys.readouterr()  # drop the synth command's status line
    pred = str(tmp_path / "pred")
    os.makedirs(pred)
    mask = T.load_tensor(os.path.join(scene, "mask.aft"))
    logits = np.where(mask > 0, 60.0, -60.0).astype(np.float32)
    T.save_tensor(os.path.join(pred, "seg_logits.aft"), logits)
    for name in ("haf.aft", "vaf.aft"):
        T.save_tensor(os.path.join(pred, name),
                      T.load_tensor(os.path.join(scene, name)))
    assert run(["loss", "--pred", pred, "--gt", scene]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["af"] == 0.0
    assert payload["iou"] <= 1e-6
    assert payload["wbce"] <= 1e-6
    assert payload["total"] == payload["wbce"] + payload["iou"] + payload["af"]


def test_loss_cli_inverts_probabilities_without_logits(tmp_path, capsys):
    # a prediction directory with seg.aft only: logits come from inverting
    # the sigmoid of the probabilities, clipped away from 0 and 1
    scene = synth_scene(tmp_path, seed=10, lanes=3)
    capsys.readouterr()
    pred = str(tmp_path / "pred")
    os.makedirs(pred)
    rng = np.random.default_rng(4)
    probs = rng.random((88, 160)).astype(np.float32)
    probs[:4] = 0.0
    probs[-4:] = 1.0
    T.save_tensor(os.path.join(pred, "seg.aft"), probs)
    haf = rng.uniform(-1, 1, (88, 160)).astype(np.float32)
    vaf = rng.uniform(-1, 1, (2, 88, 160)).astype(np.float32)
    T.save_tensor(os.path.join(pred, "haf.aft"), haf)
    T.save_tensor(os.path.join(pred, "vaf.aft"), vaf)
    assert run(["loss", "--pred", pred, "--gt", scene, "--weight", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)

    p = np.clip(probs, 1e-6, 1 - 1e-6)
    mask = T.load_tensor(os.path.join(scene, "mask.aft"))
    gt = AffinityPair(T.load_tensor(os.path.join(scene, "haf.aft")),
                      T.load_tensor(os.path.join(scene, "vaf.aft")))
    want = total_loss(np.log(p / (1 - p)), haf, vaf, (mask > 0).astype(np.float64), gt, w=3.0)
    assert np.isfinite(want.total)
    assert (payload["wbce"], payload["iou"], payload["af"], payload["total"]) == (
        want.wbce, want.iou, want.af, want.total)


def prediction_dir(tmp_path, scene, haf=None):
    """A prediction directory: logits of the scene's mask and its fields,
    or the given horizontal field."""
    pred = str(tmp_path / "pred")
    os.makedirs(pred)
    mask = T.load_tensor(os.path.join(scene, "mask.aft"))
    T.save_tensor(os.path.join(pred, "seg_logits.aft"),
                  np.where(mask > 0, 60.0, -60.0).astype(np.float32))
    T.save_tensor(os.path.join(pred, "haf.aft"),
                  T.load_tensor(os.path.join(scene, "haf.aft")) if haf is None else haf)
    T.save_tensor(os.path.join(pred, "vaf.aft"), T.load_tensor(os.path.join(scene, "vaf.aft")))
    return pred


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_loss_weight_must_be_finite(tmp_path, capsys, weight):
    scene = synth_scene(tmp_path, seed=10, lanes=3)
    pred = prediction_dir(tmp_path, scene)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["loss", "--pred", pred, "--gt", scene, f"--weight={weight}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--weight: expected a finite number" in captured.err


@pytest.mark.parametrize("curvature", ["nan", "inf"])
def test_synth_curvature_must_be_finite(tmp_path, capsys, curvature):
    out = tmp_path / "scene"
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--out", str(out), "--curvature", curvature])
    assert exc.value.code == 2
    assert "--curvature: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--spacing", "nan"), ("--spacing", "inf"), ("--spacing", "1e308"), ("--curvature", "1e308"),
])
def test_synth_out_of_range_float_exits_2_writing_nothing(tmp_path, capsys, flag, value):
    # numpy once raised OverflowError from the geometry sampler for each of these
    out = tmp_path / "scene"
    assert run(["synth", "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    rule = ("spacing must be in [3*width, 160]" if flag == "--spacing"
            else "curvature must be (low, high) in [-1, 1]")
    assert rule in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--spacing", "160", "--lanes", "4"], ["--spacing", "40", "--lanes", "6", "--curvature", "1"],
])
def test_synth_lanes_that_cannot_fit_exit_2_writing_nothing(tmp_path, capsys, flags):
    # each value is in range, but no scene of the spec keeps its lanes apart in the frame
    out = tmp_path / "scene"
    assert run(["synth", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "lanecli synth: error: could not realize a non-crossing scene" in err
    assert not out.exists()


def test_synth_spacing_at_the_map_width_is_accepted(tmp_path):
    assert run(["synth", "--out", str(tmp_path / "s"), "--spacing", "160", "--lanes", "1"]) == 0


def test_loss_overflow_exits_2_naming_the_term_and_weight(tmp_path, capsys):
    # every map is finite, but logits that miss every lane pixel under the largest
    # finite weight overflow the cross-entropy, and so the total, to inf
    scene = synth_scene(tmp_path, seed=10, lanes=3)
    pred = prediction_dir(tmp_path, scene)
    T.save_tensor(os.path.join(pred, "seg_logits.aft"), np.full((88, 160), -60, np.float32))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would fail the run
        assert run(["loss", "--pred", pred, "--gt", scene, "--weight", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite loss term(s) wbce, total with --weight 1e+308" in captured.err
    assert "RuntimeWarning" not in captured.err


@pytest.mark.parametrize("side, name", [
    ("pred", "seg_logits.aft"), ("pred", "seg.aft"), ("pred", "haf.aft"), ("pred", "vaf.aft"),
    ("gt", "haf.aft"), ("gt", "vaf.aft"), ("gt", "mask.aft"),
])
def test_loss_non_finite_map_exits_2_naming_it(tmp_path, capsys, side, name):
    # a NaN at a background pixel: the field loss reads only foreground pixels and
    # `mask > 0` is False for NaN, so only the load check sees every one of them
    scene = synth_scene(tmp_path, seed=10, lanes=3)
    pred = prediction_dir(tmp_path, scene)
    if name == "seg.aft":
        logits_path = os.path.join(pred, "seg_logits.aft")
        T.save_tensor(os.path.join(pred, name), T.sigmoid(T.load_tensor(logits_path)))
        os.remove(logits_path)
    path = os.path.join(pred if side == "pred" else scene, name)
    mask = T.load_tensor(os.path.join(scene, "mask.aft"))
    r, c = np.argwhere(mask.reshape(mask.shape[-2:]) == 0)[0]
    arr = T.load_tensor(path)
    arr[..., r, c] = np.nan
    T.save_tensor(path, arr)
    capsys.readouterr()
    assert run(["loss", "--pred", pred, "--gt", scene]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: holds NaN or inf" in captured.err


def test_decode_with_an_infinite_config_exits_2_writing_nothing(tmp_path, capsys):
    # the flag is refused as it is parsed, before any map is read
    scene = synth_scene(tmp_path, seed=6, lanes=4)
    out = tmp_path / "lanes.json"
    with pytest.raises(SystemExit) as exc:
        run(["decode", "--seg", os.path.join(scene, "mask.aft"),
             "--haf", os.path.join(scene, "haf.aft"), "--vaf", os.path.join(scene, "vaf.aft"),
             "--out", str(out), "--assoc-thresh", "inf"])
    assert exc.value.code == 2
    assert "--assoc-thresh: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--fg-thresh", "--assoc-thresh"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_infer_decode_infinite_threshold_exits_2_writing_nothing(tmp_path, capsys, flag, value):
    img_path = str(tmp_path / "img.aft")
    T.save_tensor(img_path, np.zeros((3, 16, 16), dtype=np.float32))
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run(["infer", "--random-init", "--image", img_path, "--out", str(out),
             "--decode", flag, value])
    assert exc.value.code == 2
    assert f"{flag}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()
