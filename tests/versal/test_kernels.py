"""Unit tests for the AIE kernel cycle models."""

import pytest

from repro.core.config import HeteroSVDConfig
from repro.core.perf_model import PerformanceModel
from repro.errors import ConfigurationError
from repro.versal.device import VCK190
from repro.versal.kernels import norm_kernel_cycles, orth_kernel_cycles


class TestOrthKernel:
    def test_monotonic_in_column_length(self):
        previous = 0.0
        for m in (8, 64, 128, 512, 1024):
            cycles = orth_kernel_cycles(m)
            assert cycles > previous
            previous = cycles

    def test_asymptotically_linear(self):
        # 7 vector passes of m/8 elements dominate for large m.
        c1 = orth_kernel_cycles(1024)
        c2 = orth_kernel_cycles(2048)
        growth = (c2 - c1) / (7 * 128)
        assert growth == pytest.approx(1.0, rel=0.01)

    def test_fixed_overhead_visible_at_small_m(self):
        # For tiny columns the scalar rotation math dominates.
        assert orth_kernel_cycles(1) > 80

    def test_rejects_invalid_m(self):
        with pytest.raises(ConfigurationError):
            orth_kernel_cycles(0)


class TestNormKernel:
    def test_scales_with_columns(self):
        one = norm_kernel_cycles(128, 1)
        four = norm_kernel_cycles(128, 4)
        per_column = one - 40  # strip the fixed invocation overhead
        assert four == pytest.approx(40 + 4 * per_column)

    def test_cheaper_than_orth(self):
        # Normalization is a single pass; orthogonalization is seven.
        assert norm_kernel_cycles(512, 1) < orth_kernel_cycles(512)

    def test_rejects_invalid_args(self):
        with pytest.raises(ConfigurationError):
            norm_kernel_cycles(0, 1)
        with pytest.raises(ConfigurationError):
            norm_kernel_cycles(128, 0)


class TestKernelTimings:
    """The performance model turns the cycle counts into seconds."""

    @staticmethod
    def model(m):
        return PerformanceModel(HeteroSVDConfig(m=m, n=m, p_eng=4, p_task=1))

    def test_seconds_at_aie_clock(self):
        expected = orth_kernel_cycles(128) / VCK190.aie_frequency_hz
        assert self.model(128).t_orth() == pytest.approx(expected)

    def test_orth_kernel_is_sub_microsecond_for_128(self):
        # Sanity anchor for the Table IV calibration: one 128-element
        # pair rotation is ~0.16 us at 1.25 GHz.
        t = self.model(128).t_orth()
        assert 0.05e-6 < t < 0.5e-6

    def test_norm_tail_at_aie_clock(self):
        expected = norm_kernel_cycles(256, 1) / VCK190.aie_frequency_hz
        assert self.model(256).t_norm_kernel() == pytest.approx(expected)
