"""Tests for the roofline and Pareto analysis tools."""

import pytest

from repro.analysis.pareto import pareto_front
from repro.analysis.roofline import (
    RooflinePoint,
    pair_operations,
    roofline_analysis,
)
from repro.core.config import HeteroSVDConfig
from repro.core.dse import DesignSpaceExplorer
from repro.errors import DesignSpaceError
from repro.units import mhz


class TestRoofline:
    def test_paper_configs_are_stream_bound(self):
        # The Fig. 9 claim: HeteroSVD is limited by streaming/memory,
        # not AIE compute, at every evaluated configuration.
        for p_eng in (2, 4, 8):
            for m in (128, 512):
                config = HeteroSVDConfig(
                    m=m, n=m, p_eng=p_eng, pl_frequency_hz=mhz(208.3)
                )
                point = roofline_analysis(config)
                assert point.bound == "stream", (p_eng, m)

    def test_compute_utilization_is_low(self):
        # Stream-bound designs leave the AIEs mostly idle.
        config = HeteroSVDConfig(m=256, n=256, p_eng=8)
        point = roofline_analysis(config)
        assert point.compute_utilization < 0.25

    def test_stream_utilization_is_high(self):
        config = HeteroSVDConfig(m=256, n=256, p_eng=8)
        point = roofline_analysis(config)
        assert point.stream_utilization > 0.5

    def test_intensity_independent_of_m(self):
        # Ops and bytes both scale with m: intensity depends on k only.
        i128 = roofline_analysis(
            HeteroSVDConfig(m=128, n=128, p_eng=4)
        ).arithmetic_intensity
        i512 = roofline_analysis(
            HeteroSVDConfig(m=512, n=512, p_eng=4)
        ).arithmetic_intensity
        assert i128 == pytest.approx(i512)

    def test_intensity_grows_with_k(self):
        # More layers per streamed pair -> more reuse.
        i2 = roofline_analysis(
            HeteroSVDConfig(m=128, n=128, p_eng=2)
        ).arithmetic_intensity
        i8 = roofline_analysis(
            HeteroSVDConfig(m=128, n=128, p_eng=8)
        ).arithmetic_intensity
        assert i8 > 3 * i2

    def test_pair_operations_formula(self):
        # k = 2: 6 rotations of 14 m ops.
        assert pair_operations(100, 4) == 6 * 14 * 100

    def test_roofs_positive(self):
        point = roofline_analysis(HeteroSVDConfig(m=128, n=128, p_eng=4))
        assert isinstance(point, RooflinePoint)
        assert point.compute_roof_flops > 0
        assert point.stream_roof_bytes_per_s > 0
        assert point.achieved_flops > 0


class TestParetoFront:
    @pytest.fixture(scope="class")
    def points(self):
        # Every candidate at one fixed clock, latency-ranked.
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        freq = mhz(208.3)
        points = [
            dse.evaluate(p_eng, p_task, 50, frequency_hz=freq)
            for p_eng, p_task in dse.candidates(freq)
        ]
        return sorted(
            points, key=lambda p: p.objective_value("latency"), reverse=True
        )

    def test_front_is_subset(self, points):
        front = pareto_front(points)
        assert 0 < len(front) <= len(points)
        assert all(p in points for p in front)

    def test_no_member_dominated(self, points):
        front = pareto_front(points)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominated = (
                    b.latency <= a.latency
                    and b.throughput >= a.throughput
                    and b.power.total <= a.power.total
                    and (
                        b.latency < a.latency
                        or b.throughput > a.throughput
                        or b.power.total < a.power.total
                    )
                )
                assert not dominated

    def test_every_dropped_point_is_dominated(self, points):
        front = pareto_front(points)
        dropped = [p for p in points if p not in front]
        for victim in dropped:
            assert any(
                f.latency <= victim.latency
                and f.throughput >= victim.throughput
                and f.power.total <= victim.power.total
                for f in front
            )

    def test_sorted_by_latency(self, points):
        front = pareto_front(points)
        latencies = [p.latency for p in front]
        assert latencies == sorted(latencies)

    def test_front_spans_objectives(self, points):
        # The latency-optimal and throughput-optimal points both belong
        # to the front.
        front = pareto_front(points)
        best_latency = min(points, key=lambda p: p.latency)
        best_throughput = max(points, key=lambda p: p.throughput)
        assert best_latency in front
        assert best_throughput in front

    def test_empty_rejected(self):
        with pytest.raises(DesignSpaceError):
            pareto_front([])
