"""Tests for the functional + timing co-simulation."""

import numpy as np
import pytest

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.cosim import CoSimulator
from repro.core.timing import TimingSimulator
from repro.errors import NumericalError, SimulationError


def config(m=32, n=16, p_eng=4, **kwargs):
    return HeteroSVDConfig(m=m, n=n, p_eng=p_eng, p_task=1, **kwargs)


class TestCoSimFunctional:
    @pytest.mark.parametrize("use_codesign", [True, False])
    @pytest.mark.parametrize("arithmetic", ["float32", "float64"])
    def test_matches_functional_accelerator(self, rng, arithmetic,
                                            use_codesign):
        # Same round kernel on the same schedule: bit for bit.
        cfg = config(arithmetic=arithmetic, use_codesign=use_codesign)
        a = rng.standard_normal((32, 16))
        cosim = CoSimulator(cfg).run(a)
        accel = HeteroSVDAccelerator(cfg).run(a)
        assert cosim.iterations == accel.iterations
        assert np.array_equal(cosim.sigma, accel.sigma)
        assert np.array_equal(cosim.u, accel.u)

    def test_matches_lapack(self, rng):
        cfg = config(m=24, n=24, p_eng=3)
        a = rng.standard_normal((24, 24))
        result = CoSimulator(cfg).run(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.sigma, s_ref, rtol=1e-7)
        assert result.converged

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scale_matches_accelerator(self, rng, scale):
        cfg = config()
        a = scale * rng.standard_normal((32, 16))
        cosim = CoSimulator(cfg).run(a)
        accel = HeteroSVDAccelerator(cfg).run(a)
        assert np.array_equal(cosim.sigma, accel.sigma)
        assert cosim.iterations == accel.iterations

    def test_complex_rejected(self, rng):
        a = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
        with pytest.raises(NumericalError, match="complex"):
            CoSimulator(config()).run(a)

    def test_kernel_event_count(self, rng):
        cfg = config(fixed_iterations=2)
        a = rng.standard_normal((32, 16))
        result = CoSimulator(cfg).run(a)
        pairs = cfg.num_block_pairs
        assert result.kernel_events == 2 * pairs * cfg.orth_layers

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(NumericalError):
            CoSimulator(config()).run(rng.standard_normal((16, 32)))


class TestCoSimTiming:
    def test_validates_collapsed_recurrence(self, rng):
        # The timing simulator's tandem-queue shortcut must agree with
        # the brute-force per-layer interleaving.  (The co-simulation
        # has no DDR ramp-up, so compare steady iteration periods via a
        # fixed 2-iteration run without first-iteration doubling: use
        # relative agreement of total makespans at several P_eng.)
        for p_eng in (2, 4, 8):
            n = 32 if 32 % p_eng == 0 else (32 // p_eng + 1) * p_eng
            cfg = HeteroSVDConfig(
                m=32, n=n, p_eng=p_eng, p_task=1, fixed_iterations=3
            )
            a = rng.standard_normal((32, n))
            cosim = CoSimulator(cfg).run(a)
            sim = TimingSimulator(cfg).simulate(1)
            # The full timing sim includes DDR ramp-up and write-back;
            # the cosim should land within that envelope.
            assert cosim.makespan <= sim.latency * 1.05
            assert cosim.makespan >= sim.latency * 0.5

    def test_makespan_positive_and_ordered(self, rng):
        cfg = config(fixed_iterations=1)
        a = rng.standard_normal((32, 16))
        result = CoSimulator(cfg).run(a)
        assert result.makespan > 0
        assert result.trace.stage_time("tx") > 0
        assert result.trace.stage_time("orth_layer") > 0
        assert result.trace.stage_count("rx") == cfg.num_block_pairs

    def test_layer_utilization_bounded(self, rng):
        cfg = config(fixed_iterations=2)
        result = CoSimulator(cfg).run(rng.standard_normal((32, 16)))
        assert 0 < result.layer_utilization <= 1

    def test_codesign_not_slower_than_naive(self, rng):
        a = rng.standard_normal((32, 16))
        co = CoSimulator(config(fixed_iterations=2, use_codesign=True)).run(a)
        tr = CoSimulator(config(fixed_iterations=2, use_codesign=False)).run(a)
        assert co.makespan <= tr.makespan
        assert np.allclose(co.sigma, tr.sigma, rtol=1e-9)


class TestCoSimStopRule:
    def test_cap_raises_like_the_accelerator(self, rng):
        # fp32 cannot reach 1e-12: both engines stop at the system
        # module's iteration bound with the same error.
        cfg = HeteroSVDConfig(
            m=16, n=16, p_eng=4, precision=1e-12, arithmetic="float32"
        )
        a = rng.standard_normal((16, 16))
        with pytest.raises(SimulationError) as accel_error:
            HeteroSVDAccelerator(cfg).run(a)
        with pytest.raises(SimulationError) as cosim_error:
            CoSimulator(cfg).run(a)
        assert "did not converge within 60 iterations" in str(cosim_error.value)
        assert str(cosim_error.value) == str(accel_error.value)
