"""Minor page faults, system time and wall time per warm forward frame.

    PYTHONPATH=src python tools/forward_faults.py [--frames 20] [--batch 1]

Runs the 21-row network at 640x352, weight seed 5, in this process, on batches of
``--batch`` frames (a batch of two or more runs its frames on worker threads, and one
frame its rows, in parts, on worker threads too): two warm-up batches, then ``--frames``
batches cycling four distinct ones.  The counts come
from ``getrusage`` of this process, so they sum over its threads, and are given per
frame.  Last, it reports the tracemalloc peak of one more warm batch and the buffer
MiB of each thread that ran a frame of it.  Prints one JSON line.
"""
import argparse
import json
import resource
import statistics
import threading
import time
import tracemalloc

import numpy as np

from lanekit import arch
from lanekit import tensor as T


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--batch", type=int, default=1)
    args = p.parse_args()
    spec = arch.build_enet21()
    store = arch.random_weights(spec, seed=5)
    images = np.random.default_rng(0).random((4, args.batch, 3, 352, 640), dtype=np.float32)
    for i in range(2):
        arch.forward(spec, store, images[i])
    faults, sys_ms, wall_ms = [], [], []
    for i in range(args.frames):
        before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        arch.forward(spec, store, images[i % 4])
        t1, after = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        faults.append((after.ru_minflt - before.ru_minflt) / args.batch)
        sys_ms.append(1e3 * (after.ru_stime - before.ru_stime) / args.batch)
        wall_ms.append(1e3 * (t1 - t0) / args.batch)
    buffers, scratch = {}, T.scratch

    def spy(role, shape, dtype=np.float32):  # notes which thread keeps which
        buffers[threading.current_thread().name] = vars(T._SCRATCH)
        return scratch(role, shape, dtype)

    T.scratch = spy
    tracemalloc.start()
    try:
        arch.forward(spec, store, images[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        T.scratch = scratch
    print(json.dumps({
        "frames": args.frames,
        "batch": args.batch,
        "minor_faults_per_frame": {"median": statistics.median(faults), "max": max(faults),
                                   "mean": statistics.fmean(faults)},
        "system_ms_per_frame": {"median": statistics.median(sys_ms),
                                "mean": statistics.fmean(sys_ms)},
        "wall_ms_per_frame": {"median": statistics.median(wall_ms)},
        "tracemalloc_peak_mib": peak / 2**20,
        "thread_buffer_mib": {name: sum(b.nbytes for b in bufs.values()) / 2**20
                              for name, bufs in sorted(buffers.items())},
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
