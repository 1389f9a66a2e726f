"""Measure the Jacobi solvers' singular-value error against LAPACK.

For each seed, factors an ``n x n`` Gaussian
(:func:`repro.workloads.random_matrix`) with ``repro.svd(method=...)``
at the default precision and takes the normwise error
``max|sigma - sigma_lapack| / sigma_lapack[0]`` through
:func:`repro.linalg.reference.singular_value_error`, the error measure
of the differential harness (:mod:`repro.validation`).  Prints the
median and the worst case over the seeds for each method;
docs/workloads.md quotes the output next to the harness's contracts.

Run:  python tools/sigma_contract.py --size 128 --seeds 150
"""

import argparse
import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.linalg import svd  # noqa: E402
from repro.linalg.reference import singular_value_error  # noqa: E402
from repro.workloads import random_matrix  # noqa: E402


def sigma_errors(method: str, size: int, seeds: int) -> np.ndarray:
    """Normwise singular-value error of ``method`` for seeds 0..seeds-1."""
    matrices = (random_matrix(size, size, seed=seed) for seed in range(seeds))
    return np.asarray([
        singular_value_error(a, svd(a, method=method).singular_values)
        for a in matrices
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--seeds", type=int, default=150)
    parser.add_argument("--methods", nargs="+", default=["hestenes", "block"])
    args = parser.parse_args(argv)
    print(f"{args.size}x{args.size} Gaussians, seeds 0-{args.seeds - 1}, "
          "default precision; max|sigma - lapack| / sigma_max")
    for method in args.methods:
        errors = sigma_errors(method, args.size, args.seeds)
        print(f"{method:>9}: median {np.median(errors):.2e}  "
              f"max {errors.max():.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
