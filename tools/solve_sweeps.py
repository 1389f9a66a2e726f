"""Count Jacobi sweeps per input class on perfbench's solve ops.

Takes the op list of ``perfbench/run.py --workload solve`` (seeded
``n x n`` inputs, n 48-128, both Jacobi methods, 3 ops in 10 at
condition 1e8) and runs the sweep driver on each op three ways, at the
default precision:

* ``plain``: on the input itself, with no preconditioner;
* ``qr``: on ``R^T`` of the norm-sorted QR, the first step alone;
* ``qr+lq``: through ``repro.svd``, which sweeps the ``L`` of the LQ of
  that ``R`` (both steps).

``block`` ops take block rotations in all three (one batched ``eigh``
of the panel Gram matrices per tournament round, with a pairwise
finish where those stall);
``hestenes`` ops sweep column pairs.

Prints the mean sweeps per (input class, method) and the totals;
docs/performance.md quotes the output.

Run:  python tools/solve_sweeps.py --seeds 1 2 3 --rounds 4
"""

import argparse
import os
import sys
from collections import defaultdict

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "perfbench"))

import repro  # noqa: E402
from repro.linalg.convergence import DEFAULT_PRECISION  # noqa: E402
from repro.linalg.hestenes import (  # noqa: E402
    DEFAULT_MAX_SWEEPS,
    _block_jacobi_svd,
)
from repro.linalg.orderings import ShiftingRingOrdering  # noqa: E402
from repro.workloads.matrices import (  # noqa: E402
    conditioned_matrix,
    random_matrix,
)
from workloads import SOLVE_CONDITION, solve_ops  # noqa: E402

VARIANTS = ("plain", "qr", "qr+lq")


def op_sweeps(a: np.ndarray, method: str) -> "dict[str, int]":
    """Sweeps of each variant on one square input (n a multiple of 8)."""
    n = a.shape[1]

    def driver(x: np.ndarray) -> int:
        return _block_jacobi_svd(
            x,
            block_width=n // 2 if method == "hestenes" else min(8, n // 2),
            precision=DEFAULT_PRECISION,
            max_sweeps=DEFAULT_MAX_SWEEPS,
            ordering_cls=ShiftingRingOrdering,
            fixed_sweeps=None,
            method=method,
        ).sweeps

    perm = np.argsort(-np.einsum("ij,ij->j", a, a), kind="stable")
    return {
        "plain": driver(a),
        "qr": driver(np.linalg.qr(a[:, perm])[1].T.copy()),
        "qr+lq": repro.svd(a, method=method).sweeps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=4,
                        help="rounds of the 10 (size, method) ops per seed")
    args = parser.parse_args(argv)
    totals = defaultdict(lambda: defaultdict(int))
    counts = defaultdict(int)
    for seed in args.seeds:
        for op in solve_ops(seed, args.rounds):
            n, method, conditioned = op.params
            a = (conditioned_matrix(n, n, SOLVE_CONDITION, seed=op.seed)
                 if conditioned else random_matrix(n, n, seed=op.seed))
            group = ("cond 1e8" if conditioned else "Gaussian", method)
            counts[group] += 1
            for variant, sweeps in op_sweeps(a, method).items():
                totals[group][variant] += sweeps
    print(f"perfbench solve ops, seeds {args.seeds}, {args.rounds} rounds "
          f"each; mean sweeps per op")
    print(f"{'class':>9} {'method':>9} {'ops':>4} "
          + " ".join(f"{v:>6}" for v in VARIANTS))
    for group in sorted(counts):
        means = [totals[group][v] / counts[group] for v in VARIANTS]
        print(f"{group[0]:>9} {group[1]:>9} {counts[group]:>4} "
              + " ".join(f"{x:6.2f}" for x in means))
    ops = sum(counts.values())
    print(f"{'all':>9} {'':>9} {ops:>4} " + " ".join(
        f"{sum(t[v] for t in totals.values()) / ops:6.2f}"
        for v in VARIANTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
