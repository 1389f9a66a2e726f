"""Measure what one block-rotation call costs at serve and solve shapes.

``svd(method="block")`` rotates each tournament round of block pairs
with one call of ``repro.linalg.hestenes._rotate_panels``: the round's
panel Gram matrices, one batched ``eigh`` of them, one batched
``matmul``.  This times that call on the first block sweep of real
prepared inputs (Gaussian ``n x n`` matrices through ``svd``'s QR/LQ
preconditioner), where every panel rotates:

* serve shapes: n 16 and 24, block width 4, 3 same-shape tasks stacked
  side by side as a serve batch stacks them;
* solve shapes: n 48, 64, 96 and 128, block width 8, one task (the
  shapes of perfbench's solve ops).

Each call is timed on its own; a row gives the median and quartiles of
µs per call over every round of ``--repeats`` sweeps, each on a fresh
copy of the stacked ``W = [B; V]``.  docs/performance.md quotes the
output.

Run:  python tools/block_rotation_cost.py --repeats 20
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.linalg.block import panel_schedule  # noqa: E402
from repro.linalg.convergence import (  # noqa: E402
    DEFAULT_PRECISION,
    zero_column_threshold_sq,
)
from repro.linalg.hestenes import _rotate_panels, stack_panels  # noqa: E402
from repro.linalg.svd import _prepare  # noqa: E402
from repro.workloads.matrices import random_matrix  # noqa: E402

#: (workload, n, block width, stacked tasks)
SHAPES = (
    ("serve", 16, 4, 3),
    ("serve", 24, 4, 3),
    ("solve", 48, 8, 1),
    ("solve", 64, 8, 1),
    ("solve", 96, 8, 1),
    ("solve", 128, 8, 1),
)


def sweep_calls(n: int, width: int, tasks: int):
    """The stacked ``W``, its ``B`` rows and one block sweep's calls:
    ``(cols, floors)`` per tournament round, as the block driver
    builds them."""
    works = [_prepare(random_matrix(n, n, seed=seed), "block", width,
                      True, "auto", None).work for seed in range(tasks)]
    m, size = works[0].shape
    w = stack_panels(works, [np.eye(size)] * tasks)
    floors = np.array([zero_column_threshold_sq(float(np.linalg.norm(x)),
                                                x.dtype) for x in works])
    bases = np.arange(tasks)[:, None, None] * size
    calls = [((cols + bases).reshape(-1, cols.shape[1]),
              np.repeat(floors, cols.shape[0]))
             for cols in panel_schedule(size, width)]
    return w, m, calls


def measure(n: int, width: int, tasks: int,
            repeats: int) -> "tuple[int, list[float]]":
    """Panels per call, and the seconds of every call of ``repeats``
    first block sweeps."""
    w0, m, calls = sweep_calls(n, width, tasks)
    seconds = []
    for _ in range(repeats):
        w = w0.copy(order="F")
        for cols, floor in calls:
            started = time.perf_counter()
            _rotate_panels(w, m, cols, DEFAULT_PRECISION, floor)
            seconds.append(time.perf_counter() - started)
    return len(calls[0][0]), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="first block sweeps timed per shape")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"{'workload':<8} {'n':>4} {'b':>3} {'tasks':>5} {'panels':>6} "
          f"{'calls':>5} {'us/call (median)':>17} {'quartiles':>17}")
    for workload, n, width, tasks in SHAPES:
        measure(n, width, tasks, 1)  # warm-up: first-call set-up
        panels, seconds = measure(n, width, tasks, args.repeats)
        per_call = [s * 1e6 for s in seconds]
        q1, median, q3 = statistics.quantiles(per_call, n=4)
        print(f"{workload:<8} {n:>4} {width:>3} {tasks:>5} {panels:>6} "
              f"{len(per_call):>5} {median:>17.1f} {q1:>8.1f}-{q3:<8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
