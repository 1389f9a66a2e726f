"""Wall-clock benchmarks of the software solvers themselves.

Not a paper experiment — these are ordinary pytest-benchmark timings of
the reproduction's numerical kernels, useful for tracking regressions
in the library: the monolithic Hestenes driver, the block-Jacobi
variant (Algorithm 1's software mirror), the functional hardware
simulation, and LAPACK for context.
"""

import numpy as np
import pytest

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.dse import DesignSpaceExplorer
from repro.linalg.svd import svd


@pytest.fixture(scope="module")
def matrix64():
    return np.random.default_rng(0).standard_normal((64, 64))


@pytest.mark.benchmark(group="solver")
def test_bench_hestenes_64(benchmark, matrix64):
    result = benchmark(lambda: svd(matrix64, method="hestenes", precision=1e-8))
    assert result.converged


@pytest.mark.benchmark(group="solver")
def test_bench_block_jacobi_64(benchmark, matrix64):
    result = benchmark(
        lambda: svd(matrix64, method="block", block_width=8, precision=1e-8)
    )
    assert result.converged


@pytest.mark.benchmark(group="solver")
def test_bench_functional_accelerator_64(benchmark, matrix64):
    config = HeteroSVDConfig(m=64, n=64, p_eng=8, precision=1e-8)
    accel = HeteroSVDAccelerator(config)
    result = benchmark(lambda: accel.run(matrix64))
    assert result.converged


@pytest.mark.benchmark(group="solver")
def test_bench_lapack_64(benchmark, matrix64):
    benchmark(lambda: np.linalg.svd(matrix64, full_matrices=False))


@pytest.mark.benchmark(group="dse")
def test_bench_full_dse_exploration(benchmark):
    """The paper's headline DSE claim: exploring the whole space takes
    minutes (here: well under a second) versus seven hours per point
    for the Vitis flow."""
    dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
    points = benchmark(lambda: dse.explore("latency"))
    assert len(points) > 50
