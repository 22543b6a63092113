"""lanekit benchmark: run one workload from one seed and print its metrics.

    python3 bench/run.py --workload infer_n1 --seed 1 --seconds 30 --trace 0

Run from the root of a lanekit checkout; the library is imported from
``src/``.  The workloads, and why each exists, are described in
``workloads.py`` and ``BENCHMARK.json``: ``infer_n1``, ``infer_n8``,
``dataset_cli``.  The seed picks the workload's frames; the library sees only
the generated inputs.

End-to-end metrics (``--trace 0``, nothing wrapped):

* ``setup_s`` -- median of SETUP_SAMPLES set-ups, each in a fresh process
  (this one, then SETUP_SAMPLES - 1 children, one after another), timed from
  the first line of this script: imports, input generation, the weight-file
  write and load, and one warm-up op, whose first forward pass is cold.
* ``frames_per_s`` -- median over the run's rounds of the frames a round
  completed over the time its timed calls took (the output checks between
  ops are not counted).  A round is one op on the infer workloads and one
  encode / decode-each-frame / eval pass on ``dataset_cli``.
* ``op_ms_p50`` -- median over the run's frames (its batch, on ``infer_n8``)
  of each one's median op time.
* ``peak_rss_mb`` -- peak resident memory of this process, set-up included.

``--trace 1`` splits ``--seconds`` into an untraced half and a half with the
calls into each layer wrapped (``layers.py``).  It reports the per-layer
metrics of the traced half; ``trace.overhead_share`` is the traced
``op_ms_p50`` over the untraced one, minus 1.

Every op's outputs are checked against the reference in ``reference/``; an
op that raises or fails its check counts in ``failed``.  The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it holds the machine header and what is not a
gated metric: the tail latency (the highest percentile with at least ten
ops beyond it), the failed share, the pooled lane accuracy and F1 of
``dataset_cli``, and the split of forward time into kernels and self time.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 170
END_TO_END = {"setup_s": "s", "frames_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="lanekit benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase; the round in flight finishes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once, print the set-up time, exit (used for setup_s)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- header

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_header() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "src_lines": src_lines,
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------------- phases

def probe_setup(args) -> tuple[float, list[str]]:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["errors"]


def timed_phase(w, seconds: float) -> list:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(w.run_round())
    return rounds


def summarize(rounds) -> dict:
    by_key: dict[int, list[float]] = {}
    for r in rounds:
        for key, s in r.op_s.items():
            by_key.setdefault(key, []).append(s)
    return {
        "ops": [s for times in by_key.values() for s in times],
        # median over the frames (or batches) of each one's median op time:
        # a round that runs slow moves no frame's median, and frames of
        # unequal cost keep their rank from round to round
        "op_s_p50": (statistics.median(statistics.median(t) for t in by_key.values())
                     if by_key else float("nan")),
        "frames": sum(r.frames for r in rounds),
        "frames_per_s": statistics.median(r.frames / r.busy_s for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": [e for r in rounds for e in r.errors],
    }


def tail_latency(ops: list[float]):
    """Highest of a few standard percentiles with at least ten ops beyond it."""
    xs = sorted(ops)
    n = len(xs)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)  # nearest-rank percentile
        if n - rank >= 10:
            return {"percentile": pct, "ms": 1e3 * xs[rank - 1], "ops_beyond": n - rank, "ops": n}
    return {"note": f"omitted: {n} ops leave fewer than ten beyond the median", "ops": n}


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "lanekit", "__init__.py")):
        print(f"bench: no lanekit sources under {SRC}; run from the root of a lanekit "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, W, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def run(args, W, workdir: str) -> int:
    w = W.make(args.workload, args.seed, workdir)
    w.setup()
    setup_errors = w.warm_up()
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "errors": setup_errors}))
        return 0
    setup_samples = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        s, errors = probe_setup(args)
        setup_samples.append(s)
        setup_errors += errors

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = summarize(timed_phase(w, seconds))
    phases = [untraced]
    info = {}
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer()
        layers.instrument(tracer)
        try:
            traced = summarize(timed_phase(w, seconds))
        finally:
            tracer.restore()
        phases.append(traced)
        overhead = traced["op_s_p50"] / untraced["op_s_p50"] - 1.0
        summary = tracer.summary()
        values = layers.per_layer_metrics(
            summary, tracer.counts, traced["frames"], getattr(w, "flops_per_frame", 0),
            w.info.get("load_weights_ms", 0.0), overhead)
        units = dict(layers.PER_LAYER)
        info["forward_accounting"] = layers.forward_accounting(summary, traced["frames"])
        info["computed"] = ("tensor.conv2d.gflop_s and flop_per_byte count FLOPs and bytes "
                            "from call shapes: 2 FLOPs per MAC, float32 input, kernel and "
                            "output each moved once; arch.forward.gflop_s uses count_flops")
        info["op_ms_p50_untraced"] = 1e3 * untraced["op_s_p50"]
        info["op_ms_p50_traced"] = 1e3 * traced["op_s_p50"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "frames_per_s": untraced["frames_per_s"],
            "op_ms_p50": 1e3 * untraced["op_s_p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    errors = setup_errors + [e for p in phases for e in p["errors"]]
    info.update({
        "setup_s_samples": setup_samples,
        "ops": len(untraced["ops"]),
        "frames": untraced["frames"],
        "op_ms_tail": tail_latency(untraced["ops"]),
        "failed_share": failed / attempted,
        "errors": errors[:10],
        "queue_wait": "not applicable: one caller in a closed loop, nothing queues",
    })
    for key in ("lane_accuracy", "lane_f1"):
        if key in w.info:
            info[key] = w.info[key]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "machine": machine_header(), "info": info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
