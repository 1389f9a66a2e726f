"""Machine-speed calibration of the benchmark's timings.

The machines this benchmark runs on are shared.  On the 2-core VM it
was tuned on, the same fixed work ran at speeds up to 1.7x apart from
one 5-10 s stretch to the next, with no CPU steal visible to the guest
and CPU time moving with wall time.  A reference kernel timed right
next to the program's operations follows those swings: over 90 s, the
interquartile spread of per-stretch medians fell from 24-35% raw to
3-13% as a ratio to :func:`reference`.

So every reported timing is scaled to a nominal machine:
``t * NOMINAL_S / median(reference times measured around t)``.  The
kernel belongs to the benchmark — no change to the program can alter
it — and mixes the kinds of work the workloads do.  A change that loads
the machine outside its own operations (a busy background thread)
slows the kernel too and would be partly hidden; the raw wall-clock
figures are printed next to the calibrated ones for that reason.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: Median :func:`reference` time (s) on the 2-core VM the benchmark was
#: tuned on; calibrated timings are seconds on a machine this fast.
NOMINAL_S = 0.006

#: Reference samples on each side of an operation that set its scale.
WINDOW = 2

#: Seconds on each side of a request whose daemon-side samples set its
#: scale.
WINDOW_S = 1.0

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((64, 64))
_PANEL = np.asfortranarray(_RNG.standard_normal((128, 64)))
_VEC = _RNG.standard_normal(48)
_LEFT = np.arange(0, 64, 2)
_RIGHT = np.arange(1, 64, 2)


def reference(clock: Callable[[], float] = time.perf_counter) -> float:
    """Run the fixed reference kernel once; its time on ``clock`` (s).

    Five parts, one per kind of work the workloads do: interpreted
    integer loops with a dict, small BLAS products, whole-panel NumPy
    column updates, scalar dot products on short vectors, and churn of
    small Python containers.  No single part tracked every workload's
    slowdowns; their sum tracked each within about 3-13%.
    """
    start = clock()
    table = {}
    x = 0
    for i in range(3000):
        x += (i * i) % 7
        table[i & 63] = x
    v = _M
    for _ in range(15):
        v = np.tanh(v @ _M * 0.01) + _M[:, :1]
    b = _PANEL.copy()
    for _ in range(20):
        bi = b[:, _LEFT]
        bj = b[:, _RIGHT]
        alpha = np.einsum("ij,ij->j", bi, bi)
        beta = np.einsum("ij,ij->j", bj, bj)
        gamma = np.einsum("ij,ij->j", bi, bj)
        t = (beta - alpha) / (2.0 * gamma + 1e-300)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = c * t
        b[:, _LEFT] = c * bi - s * bj
        b[:, _RIGHT] = s * bi + c * bj
    acc = 0.0
    for _ in range(200):
        norm = float(_VEC @ _VEC)
        cross = float(_VEC[:24] @ _VEC[24:])
        acc += math.sqrt(norm) * cross / (1.0 + abs(cross))
    keys = []
    for _ in range(750):
        grid = {(r, c): [r, c, None] for r in range(2) for c in range(4)}
        keys.append(sorted(grid)[0])
    return clock() - start


def scale(samples: Sequence[float]) -> float:
    """Factor turning wall seconds into nominal-machine seconds."""
    return NOMINAL_S / statistics.median(samples)


def calibrate(times: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Scale each of ``times`` by the reference times around it.

    ``refs[k]`` was measured right after ``times[k]``; operation ``k`` is
    scaled by the median of ``refs[k - WINDOW : k + WINDOW + 1]``, which
    follows the machine's speed from second to second.
    """
    return [
        t * scale(refs[max(0, k - WINDOW):k + WINDOW + 1])
        for k, t in enumerate(times)
    ]


def calibrate_at(times: Sequence[float], at: Sequence[float],
                 samples: Sequence[Tuple[float, float]]) -> List[float]:
    """Scale ``times[k]``, taken around monotonic time ``at[k]``, by the
    :class:`Sampler` samples within ``WINDOW_S`` of it (all samples
    when none is that close)."""
    out = []
    for t, when in zip(times, at):
        near = [v for ts, v in samples if abs(ts - when) <= WINDOW_S]
        out.append(t * scale(near or [v for _, v in samples]))
    return out


def sample(count: int) -> List[float]:
    """``count`` back-to-back reference times."""
    return [reference() for _ in range(count)]


class Sampler:
    """Times :func:`reference` every ``every`` seconds in a background
    thread, on the thread's own CPU clock: inside a busy process, wall
    time would also count waits for the interpreter lock, and so grow
    with the load the program puts on that process.  ``samples`` holds
    ``(time.monotonic(), seconds)`` pairs."""

    def __init__(self, every: float):
        self.every = every
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.every):
            self.samples.append(
                (time.monotonic(), reference(time.thread_time)))

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> List[Tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        return self.samples
