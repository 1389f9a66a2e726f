"""Validation of the sweep-count estimator behind the DSE.

The DSE's converged-mode predictions (Tables III and V) hinge on
``estimated_iterations(n, precision)``; this bench measures the actual
sweep counts of plain Hestenes-Jacobi (the accelerator's algorithm;
``svd()`` sweeps a QR-preconditioned matrix and needs fewer) across
sizes and precisions and
checks the estimator lands within one sweep of the empirical mean —
close enough that latency/throughput estimates stay inside the model's
error band.
"""

import pytest

from repro.core.perf_model import estimated_iterations
from repro.linalg.hestenes import hestenes_svd
from repro.reporting.tables import Table
from repro.workloads.matrices import random_matrix


def measured_sweeps(n, precision, trials=3):
    counts = []
    for seed in range(trials):
        a = random_matrix(n, n, seed=seed)
        counts.append(hestenes_svd(a, precision=precision).sweeps)
    return sum(counts) / len(counts)


@pytest.mark.benchmark(group="convergence")
def test_convergence_estimator(benchmark, show):
    benchmark(lambda: measured_sweeps(64, 1e-6, trials=1))

    table = Table(
        "Sweep-count estimator vs measured (plain Hestenes)",
        ["size", "precision", "measured (mean)", "estimated", "off by"],
    )
    for n in (32, 64, 128):
        for precision in (1e-6, 1e-8, 1e-10):
            measured = measured_sweeps(n, precision)
            estimated = estimated_iterations(n, precision)
            table.add_row(
                n, f"{precision:.0e}", f"{measured:.1f}", estimated,
                f"{estimated - measured:+.1f}",
            )
            assert abs(estimated - measured) <= 2.0, (
                n, precision, measured, estimated,
            )
    # The estimator grows with size and tighter precision (the DSE
    # relies on the trend being monotone).
    assert estimated_iterations(1024, 1e-6) > estimated_iterations(128, 1e-6)
    assert estimated_iterations(128, 1e-10) > estimated_iterations(128, 1e-6)
    show(table)
