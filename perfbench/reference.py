"""A fixed reference computation, timed all through every pass.

The benchmark runs on shared hosts whose speed drifts by a third within
minutes, and the drift moves whole runs, so medians within a run cannot
remove it. A :class:`Clock` therefore also reads each pass in units of
this kernel: the pass is cut into segments of a few seconds, the kernel
is timed at every cut, and each segment is divided by the kernel's time
at its two ends. The kernel mixes the three kinds of work the program
does: interpreter-bound loops (tree growing, per-call dispatch), many
small numpy calls (split search on a few samples) and cache-sized
elementwise minimum and maximum (the line openings). It uses numpy only,
never siftcad, so no change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20201)
_SMALL = _rng.random((16, 85))
_LABELS = np.where(_rng.random(16) < 0.5, 1.0, -1.0)
_BIG = _rng.random((96, 96, 40))
_OUT = np.empty_like(_BIG)


def reference() -> float:
    """About 0.17 s of fixed work on one core; returns a checksum."""
    counts: dict[int, int] = {}
    for i in range(600_000):
        k = i % 61
        counts[k] = counts.get(k, 0) + 1
    acc = 0.0
    for j in range(8400):
        order = np.argsort(_SMALL[:, j % 85], kind="stable")
        acc += float(np.cumsum(_LABELS[order]).max())
    for r in range(80):
        s = 1 + r % 8
        np.minimum(_BIG[s:], _BIG[:-s], out=_OUT[s:])
        np.maximum(_OUT[:, s:], _BIG[:, :-s], out=_OUT[:, s:])
    return acc + len(counts) + float(_OUT[-1, -1, 0])


def timed() -> float:
    """Wall time of one reference run, in seconds."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Clock:
    """Wall time of one pass, and the same time in reference units.

    The timed operation runs inside ``with clock:``; every :meth:`tick`
    in between closes a segment. The kernel's own runs are left out of
    both sums, so ``wall_s`` is the operation's time without them.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.rel = 0.0

    def __enter__(self) -> "Clock":
        self._ref = timed()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tick()

    def tick(self) -> None:
        segment = time.perf_counter() - self._start
        ref = timed()
        self.wall_s += segment
        self.rel += segment / ((self._ref + ref) / 2)
        self._ref = ref
        self._start = time.perf_counter()
