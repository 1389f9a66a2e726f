"""Tests for the calibration sensitivity analysis."""

import pytest

from repro.analysis.sensitivity import KNOBS, _scaled, sensitivity_analysis
from repro.core import perf_model as perf_model_module
from repro.core.config import HeteroSVDConfig
from repro.core.perf_model import PerformanceModel
from repro.core.timing import TimingSimulator
from repro.errors import ConfigurationError
from repro.units import mhz
from repro.versal import kernels


@pytest.fixture
def config():
    return HeteroSVDConfig(m=256, n=256, p_eng=8, p_task=1)


class TestSensitivityAnalysis:
    def test_covers_every_knob(self, config):
        results = sensitivity_analysis(config)
        assert {r.parameter for r in results} == set(KNOBS)

    def test_sorted_by_effect(self, config):
        results = sensitivity_analysis(config)
        effects = [r.relative_effect for r in results]
        assert effects == sorted(effects, reverse=True)

    def test_stream_bound_design_dominated_by_plio_gap(self, config):
        # The design is stream-bound: the PLIO per-column gap must move
        # latency far more than any AIE-side constant.
        results = {r.parameter: r for r in sensitivity_analysis(config)}
        gap = results["plio_column_gap"].relative_effect
        assert gap > 10 * results["kernel_overhead"].relative_effect
        assert gap > 10 * results["rotation_scalar"].relative_effect

    def test_constants_restored_after_analysis(self, config):
        before = (
            kernels.KERNEL_OVERHEAD_CYCLES,
            kernels.ROTATION_SCALAR_CYCLES,
        )
        baseline_time = PerformanceModel(config).task_time()
        sensitivity_analysis(config, scale=2.0)
        after = (
            kernels.KERNEL_OVERHEAD_CYCLES,
            kernels.ROTATION_SCALAR_CYCLES,
        )
        assert before == after
        assert PerformanceModel(config).task_time() == baseline_time

    def test_bigger_scale_bigger_effect(self, config):
        small = {
            r.parameter: r.relative_effect
            for r in sensitivity_analysis(config, scale=1.1)
        }
        large = {
            r.parameter: r.relative_effect
            for r in sensitivity_analysis(config, scale=1.5)
        }
        assert large["plio_column_gap"] > small["plio_column_gap"]

    def test_invalid_scale(self, config):
        with pytest.raises(ConfigurationError):
            sensitivity_analysis(config, scale=1.0)
        with pytest.raises(ConfigurationError):
            sensitivity_analysis(config, scale=0.0)

    def test_baseline_values_reported(self, config):
        results = {r.parameter: r for r in sensitivity_analysis(config)}
        assert results["kernel_overhead"].baseline_value == pytest.approx(
            kernels.KERNEL_OVERHEAD_CYCLES
        )


class TestEveryKnobMovesTheModel:
    """The ``heterosvd sensitivity --size 128`` design point.

    A model that memoised anything derived from a calibration constant
    across instances would keep serving the unperturbed value once a
    model of this configuration had been built, and a knob's effect
    would read zero.  Each effect is pinned, as ``float.hex``, to the
    value the uncached model produces.
    """

    EFFECTS = {
        "plio_column_gap": "0x1.099f8a8db6fc8p-4",
        "rotation_scalar": "0x1.3325010fdb6f6p-11",
        "kernel_overhead": "0x1.f844651636c59p-12",
        "dma_setup": "0x1.7d68cb0fde494p-13",
        "norm_scalar": "0x1.2be960384b913p-19",
    }

    @pytest.fixture
    def cli_config(self):
        return HeteroSVDConfig(
            m=128, n=128, p_eng=8, p_task=1, fixed_iterations=6
        )

    def test_effects_nonzero_and_unchanged(self, cli_config):
        # Build (and fully evaluate) a model of the configuration first.
        warm = PerformanceModel(cli_config)
        warm.breakdown()
        warm.task_time()
        effects = {
            r.parameter: r.relative_effect
            for r in sensitivity_analysis(cli_config, scale=1.2, jobs=1)
        }
        assert set(effects) == set(KNOBS) == set(self.EFFECTS)
        for name, golden in self.EFFECTS.items():
            assert effects[name] > 0.0, name
            assert effects[name].hex() == golden, name


class TestCalibrationReachesTheSimulator:
    """A rescaled calibration constant moves the timing simulator as it
    moves the model: both read their static durations from one place."""

    @pytest.fixture
    def table_iv_config(self):
        return HeteroSVDConfig(
            m=128, n=128, p_eng=4, p_task=1,
            pl_frequency_hz=mhz(208.3), fixed_iterations=1,
        )

    def test_column_gap_moves_measured_iteration_time(self, table_iv_config):
        base = TimingSimulator(table_iv_config).measure_iteration_time()
        with _scaled(perf_model_module, "COLUMN_GAP_PL_CYCLES", 2.0):
            scaled = TimingSimulator(table_iv_config).measure_iteration_time()
            modelled = PerformanceModel(table_iv_config).iteration_time()
        assert scaled > 1.2 * base
        # The simulation still stands in for the board (Table IV's band).
        assert abs(modelled - scaled) / scaled < 0.10

    @pytest.mark.parametrize("knob", sorted(KNOBS))
    def test_every_knob_moves_simulated_latency(self, table_iv_config, knob):
        module, attribute = KNOBS[knob]
        base = TimingSimulator(table_iv_config).simulate(1).latency
        with _scaled(module, attribute, 1.2):
            scaled = TimingSimulator(table_iv_config).simulate(1).latency
        assert scaled > base, knob
