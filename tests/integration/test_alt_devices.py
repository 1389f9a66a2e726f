"""Device-independence tests: the stack must work on non-VCK190 parts.

Builds a hypothetical smaller Versal-class device and checks that
placement, resource accounting, the performance model, the DSE, and
the functional accelerator all respect its budgets — i.e. nothing in
the library hard-codes the VCK190.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import P_ENG_RANGE, P_TASK_RANGE, HeteroSVDConfig
from repro.core.dse import DesignSpaceExplorer
from repro.core.perf_model import PerformanceModel
from repro.core.placement import (
    max_feasible_tasks,
    place,
    placement_footprint,
)
from repro.core.resources import (
    ResourceUsage,
    estimate_resources,
    is_feasible,
)
from repro.core.timing import TimingSimulator
from repro.errors import PlacementError
from repro.pl.memory import estimate_pl_memory
from repro.versal.array import AIEArray
from repro.versal.device import VCK190

#: A hypothetical edge-class device: a quarter of the VCK190's AIE
#: array and half its PL memory.
SMALL_DEVICE = replace(
    VCK190,
    name="hypothetical small Versal",
    aie_rows=8,
    aie_cols=12,
    max_aie=96,
    max_plio=36,
    max_uram=100,
    max_bram=400,
)


class TestSmallDevice:
    def test_array_geometry_follows_device(self):
        array = AIEArray(SMALL_DEVICE)
        assert array.n_tiles == 96

    def test_placement_respects_columns(self):
        config = HeteroSVDConfig(
            m=64, n=64, p_eng=4, p_task=1, device=SMALL_DEVICE
        )
        placement = place(config)
        for coord in placement.tasks[0].orth.values():
            assert coord[1] < 12

    @pytest.mark.parametrize("p_eng", P_ENG_RANGE)
    def test_footprint_memo_matches_place(self, p_eng):
        """The memo keys on the device: small-part counts are its own."""
        for p_task in P_TASK_RANGE:
            config = HeteroSVDConfig(
                m=64, n=2 * p_eng, p_eng=p_eng, p_task=p_task,
                device=SMALL_DEVICE,
            )
            try:
                placement = place(config)
            except PlacementError as exc:
                for _ in range(2):  # the second call is a memo hit
                    with pytest.raises(PlacementError) as memo:
                        placement_footprint(config)
                    assert str(memo.value) == str(exc)
                continue
            expected = (
                placement.num_orth, placement.num_norm, placement.num_mem
            )
            assert placement_footprint(config) == expected
            assert placement_footprint(config) == expected

    def test_evaluate_config_usage_matches_explicit_placement(self):
        config = HeteroSVDConfig(
            m=64, n=64, p_eng=2, p_task=2, device=SMALL_DEVICE
        )
        placement = place(config)
        usage = DesignSpaceExplorer(64, 64).evaluate_config(config).usage
        pl = estimate_pl_memory(64, 64, 2, 2, SMALL_DEVICE)
        assert usage == ResourceUsage(
            orth=placement.num_orth,
            norm=placement.num_norm,
            mem=placement.num_mem,
            plio=placement.num_plio,
            bram=pl.bram,
            uram=pl.uram,
            luts=pl.luts,
        )

    def test_max_tasks_smaller_than_vck190(self):
        small = HeteroSVDConfig(m=64, n=64, p_eng=4, device=SMALL_DEVICE)
        big = HeteroSVDConfig(m=64, n=64, p_eng=4, device=VCK190)
        assert max_feasible_tasks(small) < max_feasible_tasks(big)

    def test_budgets_enforced(self):
        # P_eng = 8 needs 3 lanes of 8 columns + norm: 12 columns can
        # hold one chunk only -> infeasible on the small part.
        config = HeteroSVDConfig(
            m=64, n=64, p_eng=8, p_task=1, device=SMALL_DEVICE
        )
        assert not is_feasible(config)

    def test_resources_counted_against_small_budgets(self):
        config = HeteroSVDConfig(
            m=64, n=64, p_eng=2, p_task=2, device=SMALL_DEVICE
        )
        usage = estimate_resources(config)
        util = usage.utilization(config)
        assert util["AIE"] == usage.aie / 96

    def test_functional_run_on_small_device(self, rng):
        config = HeteroSVDConfig(
            m=32, n=32, p_eng=4, p_task=1, device=SMALL_DEVICE
        )
        a = rng.standard_normal((32, 32))
        result = HeteroSVDAccelerator(config).run(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.sigma, s_ref, rtol=1e-6)

    def test_model_and_timing_work(self):
        config = HeteroSVDConfig(
            m=64, n=64, p_eng=4, p_task=1, device=SMALL_DEVICE
        )
        model_time = PerformanceModel(config).task_time()
        sim_time = TimingSimulator(config).simulate(1).latency
        assert model_time > 0
        assert abs(model_time - sim_time) / sim_time < 0.2

    def test_dse_explores_reduced_space(self):
        dse = DesignSpaceExplorer(64, 64, fixed_iterations=6)
        # Monkey-free: construct configs directly against the device by
        # checking stage-1 style feasibility.
        feasible = [
            p_eng
            for p_eng in range(1, 9)
            if 64 % p_eng == 0
            and is_feasible(
                HeteroSVDConfig(
                    m=64, n=64, p_eng=p_eng, p_task=1, device=SMALL_DEVICE
                )
            )
        ]
        assert feasible  # something fits
        assert 8 not in feasible  # the big engine does not
