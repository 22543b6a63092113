"""Minor page faults, system time and wall time per warm forward frame.

    PYTHONPATH=src python tools/forward_faults.py [--frames 20]

Runs the 21-row network at 640x352, N=1, weight seed 5, in this process: two
warm-up frames, then ``--frames`` frames cycling four distinct images.  The
counts come from ``getrusage`` of this process alone.  Last, it reports the
tracemalloc peak of one more warm forward.  Prints one JSON line.
"""
import argparse
import json
import resource
import statistics
import time
import tracemalloc

import numpy as np

from lanekit import arch


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--frames", type=int, default=20)
    args = p.parse_args()
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    images = np.random.default_rng(0).random((4, 1, 3, 352, 640), dtype=np.float32)
    for i in range(2):
        arch.forward(spec, store, images[i])
    faults, sys_ms, wall_ms = [], [], []
    for i in range(args.frames):
        before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        arch.forward(spec, store, images[i % 4])
        t1, after = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        faults.append(after.ru_minflt - before.ru_minflt)
        sys_ms.append(1e3 * (after.ru_stime - before.ru_stime))
        wall_ms.append(1e3 * (t1 - t0))
    tracemalloc.start()
    arch.forward(spec, store, images[0])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({
        "frames": args.frames,
        "minor_faults_per_frame": {"median": statistics.median(faults), "max": max(faults),
                                   "mean": statistics.fmean(faults)},
        "system_ms_per_frame": {"median": statistics.median(sys_ms),
                                "mean": statistics.fmean(sys_ms)},
        "wall_ms_per_frame": {"median": statistics.median(wall_ms)},
        "tracemalloc_peak_mib": peak / 2**20,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
