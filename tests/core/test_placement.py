"""Unit tests for the AIE placement strategy (Fig. 5)."""

import pytest

from repro.core.config import P_ENG_RANGE, P_TASK_RANGE, HeteroSVDConfig
from repro.core.placement import (
    max_feasible_tasks,
    place,
    placement_footprint,
)
from repro.errors import PlacementError
from repro.versal.tile import TileKind


def config(p_eng=8, p_task=1, m=256):
    n = m if m % p_eng == 0 else (m // p_eng + 1) * p_eng
    return HeteroSVDConfig(m=m, n=n, p_eng=p_eng, p_task=p_task)


class TestPlacementCounts:
    @pytest.mark.parametrize("p_eng", [1, 2, 4, 6, 8])
    def test_orth_count_matches_table1(self, p_eng):
        placement = place(config(p_eng=p_eng))
        assert placement.num_orth == p_eng * (2 * p_eng - 1)

    @pytest.mark.parametrize("p_task", [1, 2, 4])
    def test_counts_scale_with_tasks(self, p_task):
        placement = place(config(p_eng=4, p_task=p_task))
        assert placement.num_orth == 28 * p_task
        assert placement.num_norm == 4 * p_task
        assert placement.num_plio == 6 * p_task

    def test_every_layer_has_k_slots(self):
        placement = place(config(p_eng=6))
        task = placement.tasks[0]
        layers = 2 * 6 - 1
        for layer in range(layers):
            slots = [s for (l, s) in task.orth if l == layer]
            assert sorted(slots) == list(range(6))

    def test_aie_total_is_sum_of_roles(self):
        placement = place(config(p_eng=8, p_task=2))
        assert placement.num_aie == (
            placement.num_orth + placement.num_norm + placement.num_mem
        )

    @pytest.mark.parametrize("p_eng", P_ENG_RANGE)
    def test_footprint_memo_matches_place(self, p_eng):
        """The memoised counts (and errors) are exactly ``place``'s."""
        for p_task in P_TASK_RANGE:
            cfg = config(p_eng=p_eng, p_task=p_task)
            try:
                placement = place(cfg)
            except PlacementError as exc:
                for _ in range(2):  # the second call is a memo hit
                    with pytest.raises(PlacementError) as memo:
                        placement_footprint(cfg)
                    assert str(memo.value) == str(exc)
                continue
            expected = (
                placement.num_orth, placement.num_norm, placement.num_mem
            )
            assert placement_footprint(cfg) == expected
            assert placement_footprint(cfg) == expected

    def test_array_tile_kinds_agree_with_counts(self):
        placement = place(config(p_eng=4, p_task=2))
        array = placement.array
        assert array.count_of_kind(TileKind.ORTH) == placement.num_orth
        assert array.count_of_kind(TileKind.NORM) == placement.num_norm
        assert array.count_of_kind(TileKind.MEM) == placement.num_mem


class TestPlacementGeometry:
    def test_no_orth_on_boundary_rows(self):
        placement = place(config(p_eng=8))
        for coord in placement.tasks[0].orth.values():
            assert 1 <= coord[0] <= 6

    def test_no_tile_double_booked(self):
        placement = place(config(p_eng=8, p_task=2))
        seen = set()
        for task in placement.tasks:
            coords = (
                list(task.orth.values()) + task.mem + task.norm
            )
            for coord in coords:
                assert coord not in seen
                seen.add(coord)

    def test_layers_within_a_chunk_are_contiguous_rows(self):
        placement = place(config(p_eng=2))
        task = placement.tasks[0]
        # k = 2: 3 layers fit one lane; rows must be consecutive.
        rows = sorted({task.orth[(l, 0)][0] for l in range(3)})
        assert rows == [rows[0], rows[0] + 1, rows[0] + 2]

    def test_vertical_stacking_of_small_tasks(self):
        # k = 2 tasks take 3 rows; two tasks share a 2-column lane.
        placement = place(config(p_eng=2, p_task=2))
        lanes0 = placement.tasks[0].lanes
        lanes1 = placement.tasks[1].lanes
        assert lanes0 == lanes1

    def test_multi_chunk_tasks_use_multiple_lanes(self):
        placement = place(config(p_eng=8))  # 15 layers -> 3 chunks
        assert len(placement.tasks[0].lanes) == 3

    def test_mem_aies_present_for_multi_chunk(self):
        placement = place(config(p_eng=8))
        # 2 crossings x 2k + (k-1) wrap buffers.
        assert placement.tasks[0].n_mem == 2 * 16 + 7

    def test_single_chunk_mem_is_wrap_buffers_only(self):
        placement = place(config(p_eng=2))
        assert placement.tasks[0].n_mem == 1  # k - 1

    def test_utilization_fraction(self):
        placement = place(config(p_eng=8, p_task=2))
        assert 0 < placement.aie_utilization() < 1


class TestFeasibilityLimits:
    def test_table6_max_tasks(self):
        # The paper's Table VI design points are the placement maxima
        # combined with the resource budgets; geometry alone gives these.
        expected = {2: 26, 4: 9, 6: 4, 8: 2}
        for p_eng, max_tasks in expected.items():
            cfg = config(p_eng=p_eng)
            found = max_feasible_tasks(cfg)
            assert found >= max_tasks, (p_eng, found)

    def test_p8_three_tasks_do_not_fit(self):
        with pytest.raises(PlacementError):
            place(config(p_eng=8, p_task=3))

    def test_p6_five_tasks_do_not_fit(self):
        with pytest.raises(PlacementError):
            place(config(p_eng=6, p_task=5))

    def test_small_array_rejected(self):
        from repro.versal.array import AIEArray

        tiny = AIEArray(rows=2, cols=10)
        with pytest.raises(PlacementError):
            place(config(p_eng=2), array=tiny)
