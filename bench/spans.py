"""In-memory spans and counters recorded around calls into lanekit.

A :class:`Tracer` replaces a module attribute with a wrapper, so a function is
traced where its caller looks it up: ``arch.forward`` calls
``T.conv2d``, so the conv kernel is wrapped as the ``conv2d`` attribute of
``lanekit.tensor``; ``lanecli encode`` calls ``encode_affinities`` through the
``lanekit.cli`` namespace, so that binding is the one wrapped.  Spans stay in
memory until :meth:`Tracer.summary` folds them into per-name totals.

A span's parent is the innermost open span on its own thread.  A span opened
on a worker thread with nothing open on that thread (the ``lanecli encode``
thread pool) gets the innermost span open on the main thread as its parent.
Self time is a span's duration minus the union of its children's intervals,
so work that overlaps on two threads is not subtracted twice.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack().pop()

    # ----------------------------------------------------------- patching

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Time every call to ``module.attr`` as a span called ``name``.

        ``on_return(tracer, args, kwargs, result)`` runs after the span has
        closed, so what it costs is not charged to the span.
        """
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def count(self, module, attr: str, name: str) -> None:
        """Count calls to ``module.attr`` without timing them."""
        orig = getattr(module, attr)
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        setattr(module, attr, counted)
        self._patches.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ summary

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append((self.starts[i], self.ends[i]))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out[name]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - _union_length(children.get(i, ()))
        return dict(out)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
