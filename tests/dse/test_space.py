"""Tests for the widened design space (orderings x frequency derates)."""

from dataclasses import replace

import pytest

from repro.dse import DesignSpace, SpaceUnit
from repro.errors import ConfigurationError, DesignSpaceError


@pytest.fixture(scope="module")
def space():
    return DesignSpace(32, 32)


class TestSpaceUnit:
    def test_unknown_ordering_raises(self):
        with pytest.raises(ConfigurationError, match="ordering"):
            SpaceUnit(4, 1, "spiral", 1.0)

    def test_derate_bounds(self):
        with pytest.raises(ConfigurationError, match="freq_derate"):
            SpaceUnit(4, 1, "codesign", 0.0)
        with pytest.raises(ConfigurationError, match="freq_derate"):
            SpaceUnit(4, 1, "codesign", 1.2)

    def test_build_config_applies_both_axes(self, space):
        explorer = space.explorer()
        base = explorer.make_config(4, 1)
        derated = SpaceUnit(4, 1, "traditional", 0.9).build_config(explorer)
        assert derated.use_codesign is False
        assert derated.pl_frequency_hz == pytest.approx(
            base.pl_frequency_hz * 0.9
        )
        full = SpaceUnit(4, 1, "codesign", 1.0).build_config(explorer)
        assert full.use_codesign is True
        assert full.pl_frequency_hz == base.pl_frequency_hz

    def test_derated_clock_outside_the_device_range_raises(self, space):
        # A unit's config re-checks only the clock its derate changes;
        # that check must still reject what the full validation does.
        explorer = space.explorer()
        base = explorer.make_config(4, 1)
        unit = SpaceUnit(4, 1, "codesign", 0.2)
        with pytest.raises(ConfigurationError) as full:
            replace(base, pl_frequency_hz=base.pl_frequency_hz * 0.2)
        with pytest.raises(ConfigurationError) as fast:
            unit.build_config(explorer)
        assert str(fast.value) == str(full.value)
        assert "outside achievable range" in str(fast.value)

    def test_sweep_with_a_derate_below_the_device_range_raises(self):
        # 0.4 x the 310 MHz floor of the frequency fit is below 150 MHz.
        with pytest.raises(ConfigurationError,
                           match="outside achievable range"):
            DesignSpace(128, 128, freq_derates=(0.4,)).explore_serial()

    def test_round_trip(self):
        unit = SpaceUnit(8, 2, "traditional", 0.9)
        assert SpaceUnit.from_dict(unit.to_dict()) == unit


class TestDesignSpace:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError, match="batch"):
            DesignSpace(32, 32, batch=0)
        with pytest.raises(ConfigurationError, match="ordering"):
            DesignSpace(32, 32, orderings=())
        with pytest.raises(ConfigurationError, match="ordering"):
            DesignSpace(32, 32, orderings=("spiral",))
        with pytest.raises(ConfigurationError, match="derate"):
            DesignSpace(32, 32, freq_derates=())

    def test_units_cross_every_axis_in_canonical_order(self, space):
        units = space.units()
        candidates = space.explorer().candidates()
        assert len(units) == len(candidates) * 2 * 2
        # New axes are innermost: the first candidate's four variants
        # come first, orderings outer, derates inner.
        p_eng, p_task = candidates[0]
        assert units[:4] == [
            SpaceUnit(p_eng, p_task, "codesign", 1.0),
            SpaceUnit(p_eng, p_task, "codesign", 0.9),
            SpaceUnit(p_eng, p_task, "traditional", 1.0),
            SpaceUnit(p_eng, p_task, "traditional", 0.9),
        ]

    def test_unit_keys_are_unique_and_aligned(self, space):
        keys = space.unit_keys()
        assert len(keys) == len(space.units())
        assert len(set(keys)) == len(keys)

    def test_keys_interoperate_with_classic_sweep(self, space):
        """A (codesign, 1.0) unit keys identically to the classic
        checkpointed sweep's key for the same configuration — ledgers
        from either path stay mutually resumable."""
        from repro.exec.cache import key_for_config

        explorer = space.explorer()
        unit = next(
            u for u in space.units()
            if u.ordering == "codesign" and u.freq_derate == 1.0
        )
        index = space.units().index(unit)
        classic = key_for_config(
            "dse-evaluate",
            explorer.make_config(unit.p_eng, unit.p_task),
            batch=1,
        )
        assert space.unit_keys()[index] == classic

    def test_round_trip_preserves_keys(self, space):
        clone = DesignSpace.from_dict(space.to_dict())
        assert clone.to_dict() == space.to_dict()
        assert clone.unit_keys() == space.unit_keys()

    def test_from_dict_rejects_unknown_format(self, space):
        data = space.to_dict()
        data["format"] = 99
        with pytest.raises(ConfigurationError, match="format"):
            DesignSpace.from_dict(data)

    def test_explore_serial_follows_canonical_order(self, space):
        points = space.explore_serial()
        units = space.units()
        assert len(points) == len(units)
        for unit, point in zip(units[:8], points[:8]):
            assert point.config.p_eng == unit.p_eng
            assert point.config.use_codesign == (unit.ordering == "codesign")

    def test_ordering_axis_changes_the_model(self, space):
        """The ring ordering is a real axis: same pair, same clock,
        different predicted performance."""
        points = space.explore_serial()
        units = space.units()
        by_unit = dict(zip(units, points))
        # A single-engine ring has no inter-engine DMA either way; the
        # orderings only diverge once the ring has >= 2 engines.
        pair = next(
            (u.p_eng, u.p_task) for u in units if u.p_eng > 1
        )
        codesign = by_unit[SpaceUnit(*pair, "codesign", 1.0)]
        traditional = by_unit[SpaceUnit(*pair, "traditional", 1.0)]
        assert codesign.latency != traditional.latency

    def test_power_cap_is_a_view(self):
        capped = DesignSpace(32, 32, freq_derates=(1.0,),
                             orderings=("codesign",), power_cap_w=1e-9)
        with pytest.raises(DesignSpaceError, match="feasible"):
            capped.explore_serial()

    def test_ranked_validates_objective(self, space):
        with pytest.raises(ConfigurationError, match="objective"):
            space.ranked([], objective="area")

    def test_ranked_orders_best_first(self, space):
        points = space.explore_serial()
        ranked = space.ranked(points, "latency")
        values = [p.objective_value("latency") for p in ranked]
        assert values == sorted(values, reverse=True)

    def test_describe_mentions_axes(self, space):
        text = space.describe()
        assert "2 orderings" in text and "2 derates" in text
