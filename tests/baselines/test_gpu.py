"""Unit tests for the GPU baseline model [11]."""

import re
from pathlib import Path

import pytest

from repro.baselines.gpu_wcycle import (
    BATCH_EFFICIENCY_BASE,
    BATCH_EFFICIENCY_SLOPE,
    RTX3090,
    SINGLE_EFFICIENCY,
    GPUBaselineModel,
)
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Table III GPU columns (converged runs; throughput at batch 100).
TABLE3_GPU_LATENCY = {128: 0.0166, 256: 0.0429, 512: 0.1237, 1024: 0.6857}
TABLE3_GPU_THROUGHPUT = {128: 1351.35, 256: 217.39, 512: 27.55, 1024: 3.52}
TABLE3_GPU_EE = {128: 5.005, 256: 0.805, 512: 0.102, 1024: 0.013}


@pytest.fixture
def gpu():
    return GPUBaselineModel()


class TestCalibration:
    @pytest.mark.parametrize("n,expected", TABLE3_GPU_LATENCY.items())
    def test_latency_within_20_percent(self, gpu, n, expected):
        latency = gpu.latency_seconds(n, n)
        assert abs(latency - expected) / expected < 0.20, (n, latency)

    @pytest.mark.parametrize("n,expected", TABLE3_GPU_THROUGHPUT.items())
    def test_throughput_within_20_percent(self, gpu, n, expected):
        thr = gpu.throughput_tasks_per_s(n, n, 100)
        assert abs(thr - expected) / expected < 0.20, (n, thr)

    @pytest.mark.parametrize("n,expected", TABLE3_GPU_EE.items())
    def test_energy_efficiency_within_20_percent(self, gpu, n, expected):
        ee = gpu.energy_efficiency(n, n, 100)
        assert abs(ee - expected) / expected < 0.20, (n, ee)


class TestRegimes:
    def test_single_matrix_is_launch_bound(self, gpu):
        # Batch amortization: 100 small matrices cost far less than
        # 100x the single latency.
        single = gpu.latency_seconds(128, 128)
        batched = gpu.batch_seconds(128, 128, 100)
        assert batched < 20 * single

    def test_batch_efficiency_grows_with_size(self, gpu):
        effs = [gpu.batch_efficiency(n) for n in (128, 256, 512, 1024)]
        assert effs == sorted(effs)

    def test_efficiency_capped(self, gpu):
        assert gpu.batch_efficiency(10**6) <= 0.85

    def test_core_utilization_grows_with_size(self, gpu):
        utils = [gpu.core_utilization(n, n) for n in (128, 512, 1024)]
        assert utils == sorted(utils)
        assert all(0 < u < 1 for u in utils)

    def test_memory_utilization_alias(self, gpu):
        assert gpu.memory_utilization(256) == gpu.batch_efficiency(256)

    def test_iterations_grow_with_size(self, gpu):
        assert gpu.iterations(1024) > gpu.iterations(128)


class TestValidation:
    def test_spec_values(self):
        assert RTX3090.board_power_w == 270.0
        assert RTX3090.cuda_cores == 10496

    def test_invalid_size(self, gpu):
        with pytest.raises(ConfigurationError):
            gpu.latency_seconds(1, 128)

    def test_invalid_batch(self, gpu):
        with pytest.raises(ConfigurationError):
            gpu.batch_seconds(128, 128, 0)


class TestDocumentedConstants:
    """The calibration the docs quote is the one the model runs."""

    CODE = (
        RTX3090.kernel_launch_seconds * 1e6,
        SINGLE_EFFICIENCY,
        BATCH_EFFICIENCY_BASE,
        BATCH_EFFICIENCY_SLOPE,
    )

    def _numbers(self, pattern, path):
        text = " ".join((REPO_ROOT / path).read_text().split())
        match = re.search(pattern, text)
        assert match, f"GPU calibration not found in {path}"
        return tuple(float(x) for x in match.groups())

    def test_experiments_summary(self):
        documented = self._numbers(
            r"GPU baseline \[11\]: ([\d.]+) us kernel launch, single-run "
            r"bandwidth efficiency ([\d.]+), batch efficiency ([\d.]+) "
            r"\+ ([\d.]+) per size doubling",
            "EXPERIMENTS.md",
        )
        assert documented == pytest.approx(self.CODE, rel=1e-12)

    def test_calibration_table(self):
        documented = self._numbers(
            r"\| GPU \[11\] kernel launch \| ([\d.]+) us \|.*?"
            r"\| GPU single-run bandwidth eff\. \| ([\d.]+) \|.*?"
            r"\| GPU batch bandwidth eff\. \| ([\d.]+) \+ ([\d.]+)"
            r"/size-doubling \|",
            "docs/calibration.md",
        )
        assert documented == pytest.approx(self.CODE, rel=1e-12)
