"""Time the software solvers on tall-skinny inputs.

For each column count ``n``, factors the ``64 n x n`` graded panel
``tall_skinny_matrix(64 * n, n, seed=0)`` (column scales ``0.9 ** j``)
with ``repro.svd(method=...)`` at the default precision and prints the
best-of-``--repeats`` wall time in ms next to the normwise error
``max|sigma - sigma_lapack| / sigma_lapack[0]``.  docs/workloads.md
quotes the output in its tall-skinny crossover table.

Run:  OPENBLAS_NUM_THREADS=1 python tools/tall_crossover.py
"""

import argparse
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.linalg import svd  # noqa: E402
from repro.linalg.reference import singular_value_error  # noqa: E402
from repro.linalg.svd import METHODS  # noqa: E402
from repro.workloads import tall_skinny_matrix  # noqa: E402


def best_ms(a, method: str, repeats: int) -> "tuple[float, float]":
    """Best wall time in ms of ``svd(a, method)``, and its sigma error."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = svd(a, method=method)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times), singular_value_error(a, result.singular_values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cols", type=int, nargs="+", default=[8, 16, 32, 48])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--methods", nargs="+", default=list(METHODS))
    args = parser.parse_args(argv)
    print("| shape | " + " | ".join(f"`{m}`" for m in args.methods) + " |")
    print("|---|" + "---:|" * len(args.methods))
    for n in args.cols:
        a = tall_skinny_matrix(64 * n, n, seed=0)
        cells = (best_ms(a, method, args.repeats) for method in args.methods)
        print(f"| {64 * n}×{n} | "
              + " | ".join(f"{ms:.1f} ({err:.0e})" for ms, err in cells)
              + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
