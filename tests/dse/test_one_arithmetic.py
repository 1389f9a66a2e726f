"""One arithmetic: a sweep's array pass gives each point's own bits.

A sweep scores all of its units in one array pass
(:meth:`DesignSpaceExplorer.score` over
:func:`~repro.core.perf_model.model_terms`).  Every lane must hold
exactly what the same design point gives evaluated alone: through
:meth:`DesignSpaceExplorer.evaluate_config` (a one-lane pass) and
through :class:`PerformanceModel` (the same function on Python
scalars).  Floats are compared as ``float.hex``, so a signed zero or a
last-bit difference fails.
"""

import itertools
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.core.perf_model import (
    PerformanceModel,
    _max,
    _where,
    fair_ddr_share,
    model_terms,
)
from repro.dse import DesignSpace

CASES = list(itertools.product((64, 128, 256, 512), (1, 100)))


def _hex(value) -> list:
    """Every leaf of a (nested) dataclass, floats as ``float.hex``."""
    if is_dataclass(value):
        return [(f.name, _hex(getattr(value, f.name))) for f in fields(value)]
    if isinstance(value, float):
        return value.hex()
    return repr(value)


@pytest.fixture(scope="module", params=CASES, ids=str)
def sweep(request):
    size, batch = request.param
    space = DesignSpace(size, size, batch=batch)
    return space, space.explore_serial()


def test_each_point_equals_its_evaluation_alone(sweep):
    space, points = sweep
    explorer = space.explorer()
    for point in points:
        alone = explorer.evaluate_config(point.config, space.batch)
        assert _hex(point) == _hex(alone)


def test_each_point_equals_its_performance_model(sweep):
    space, points = sweep
    for point in points:
        model = PerformanceModel(point.config)
        assert point.latency.hex() == model.task_time().hex()
        assert point.throughput.hex() == model.throughput(space.batch).hex()


def test_each_breakdown_equals_its_row_of_the_table(sweep):
    _, points = sweep
    configs = [point.config for point in points]
    models = [PerformanceModel(config) for config in configs]
    config = configs[0]
    p_eng = np.array([c.p_eng for c in configs])
    p_task = np.array([c.p_task for c in configs])
    n = np.array([c.n for c in configs])
    n_blocks = n // p_eng
    totals = np.array([model.stage_totals for model in models])
    table = model_terms(
        config.m, config.device, p_eng,
        np.array([c.pl_frequency_hz for c in configs]), n, n_blocks,
        n_blocks * (n_blocks - 1) // 2,
        fair_ddr_share(config.device, p_task), totals[:, 0], totals[:, 1],
    )
    for f in fields(table):
        column = np.broadcast_to(getattr(table, f.name), len(models))
        for model, value in zip(models, column.tolist()):
            assert getattr(model.breakdown(), f.name).hex() == value.hex()


class TestPrimitives:
    """The elementwise ``max`` and conditional keep the scalar bits."""

    @pytest.mark.parametrize("a, b", [
        (-0.0, 0.0), (0.0, -0.0), (1.5, 1.5), (1.0, 2.0), (2.0, 1.0),
    ])
    def test_max_keeps_the_first_operand_on_a_tie(self, a, b):
        lanes = _max(np.array([a] * 40), np.array([b] * 40))
        assert {x.hex() for x in lanes.tolist()} == {max(a, b).hex()}
        assert _max(a, b).hex() == max(a, b).hex()

    def test_where_matches_the_conditional_expression(self):
        num = np.array([0, 1, 2, 5])
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert _where(num < 2, 0.0, values).tolist() == [0.0, 0.0, 3.0, 4.0]
        assert _where(1 < 2, 0.0, 4.0) == 0.0
        assert _where(5 < 2, 0.0, 4.0) == 4.0
