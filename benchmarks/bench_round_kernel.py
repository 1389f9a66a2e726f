"""Per-round cost of the Jacobi round kernel and its references.

One call rotates one ordering round (``n / 2`` disjoint column pairs).
``fused`` is :func:`repro.linalg.hestenes._sweep_pairs_indexed` on a
stacked ``W = [B; V]``; ``scalar`` is
:func:`repro.linalg.hestenes._sweep_pairs_scalar` on the same ``W``,
the reference kernel the parity tests pin; ``three-call`` is the
kernel ``fused`` replaced, kept verbatim in
``tests/linalg/test_round_kernel.py``, on separate Fortran-order ``B``
and ``V``.  Together they regenerate the per-round
table in docs/performance.md: ``n`` in {16, 32, 64, 128}, with ``V``
rows (what ``hestenes_svd`` runs) and without.  Every pair rotates in
every call (precision 0), so each timing covers the whole gather, Gram,
angle, update and scatter path.

``test_bench_stacked`` times a whole precision-driven solve of ``T``
same-shape matrices (``T`` in {1, 2, 4, 8}; 16x16, 24x24 and 32x16;
``method="block"``, block width 4, so block rotations, with the
round kernel for any pairwise finish): ``stacked`` is
one stacked driver run (:func:`repro.linalg.svd._svd_many`, the path of
``solve_batch`` and the batch executor), ``one-by-one`` is ``T``
:func:`repro.linalg.svd` calls.  It regenerates the per-T table in
docs/performance.md.  No speed bound is asserted.

Run:  make microbench   (or: python -m pytest benchmarks/bench_round_kernel.py
--benchmark-only)
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.linalg.block import block_pair_round_indices
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    _sweep_pairs_scalar,
    round_workspace,
    stack_panels,
)
from repro.linalg.orderings import RingOrdering
from repro.linalg.svd import _svd_many, svd

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.linalg.test_round_kernel import (  # noqa: E402
    reference_sweep_pairs_indexed,
)


def _fused(a, with_v, idx):
    n = a.shape[0]
    w = stack_panels([a], [np.eye(n)] if with_v else None)
    work = round_workspace(w.shape, w.dtype)
    return lambda: _sweep_pairs_indexed(w, n, idx, 0.0, 0.0, work)


def _scalar(a, with_v, idx):
    n = a.shape[0]
    w = stack_panels([a], [np.eye(n)] if with_v else None)
    return lambda: _sweep_pairs_scalar(w, n, idx, 0.0, 0.0, None)


def _three_call(a, with_v, idx):
    b = np.asfortranarray(a)
    v = np.asfortranarray(np.eye(a.shape[1])) if with_v else None
    ii, jj = np.split(idx, 2)
    return lambda: reference_sweep_pairs_indexed(b, v, ii, jj, 0.0, 0.0)


@pytest.mark.benchmark(group="round-kernel")
@pytest.mark.parametrize("kernel", [_fused, _scalar, _three_call],
                         ids=["fused", "scalar", "three-call"])
@pytest.mark.parametrize("with_v", [True, False], ids=["with-v", "no-v"])
@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_bench_round(benchmark, n, with_v, kernel):
    a = np.random.default_rng(n).standard_normal((n, n))
    idx = block_pair_round_indices([range(n)], RingOrdering(n))[0]
    ratios, count = benchmark(kernel(a, with_v, idx))
    assert count == n // 2


STACKED = dict(method="block", block_width=4)


def _stacked(matrices):
    return lambda: _svd_many(matrices, **STACKED)


def _one_by_one(matrices):
    return lambda: [svd(a, **STACKED) for a in matrices]


@pytest.mark.benchmark(group="stacked-solve")
@pytest.mark.parametrize("mode", [_stacked, _one_by_one],
                         ids=["stacked", "one-by-one"])
@pytest.mark.parametrize("count", [1, 2, 4, 8], ids=lambda t: f"T{t}")
@pytest.mark.parametrize("shape", [(16, 16), (24, 24), (32, 16)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_bench_stacked(benchmark, shape, count, mode):
    rng = np.random.default_rng(count)
    matrices = [rng.standard_normal(shape) for _ in range(count)]
    results = benchmark(mode(matrices))
    assert all(result.converged for result in results)
