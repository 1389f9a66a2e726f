"""Resource accounting and budget checks (paper Eq. 16).

Collects the AIE counts from the placement, the PLIO count from the
routing, and the PL memory estimate, and checks them against the
device budgets:

.. math::

    num_{orth} + num_{norm} + num_{mem} \\le C_{AIE}, \\quad
    num_{PLIO} \\le C_{PLIO}, \\quad
    num_{BRAM} \\le C_{BRAM}, \\quad
    num_{URAM} \\le C_{URAM}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import HeteroSVDConfig
from repro.core.placement import placement_footprint
from repro.errors import PlacementError, ResourceBudgetError
from repro.pl.memory import estimate_pl_memory


@dataclass(frozen=True)
class ResourceUsage:
    """Resource consumption of one design point.

    Attributes:
        orth / norm / mem: AIE tiles by role.
        aie: Total AIE tiles.
        plio: PLIO streams.
        bram / uram: PL memory blocks.
        luts: PL logic estimate.
    """

    orth: int
    norm: int
    mem: int
    plio: int
    bram: int
    uram: int
    luts: int

    @property
    def aie(self) -> int:
        """Total AIE tiles consumed."""
        return self.orth + self.norm + self.mem

    def utilization(self, config: HeteroSVDConfig) -> Dict[str, float]:
        """Fractional usage of each budgeted resource."""
        device = config.device
        return {
            "AIE": self.aie / device.max_aie,
            "PLIO": self.plio / device.max_plio,
            "BRAM": self.bram / device.max_bram,
            "URAM": self.uram / device.max_uram,
            "LUT": self.luts / 900_000,
        }


def estimate_resources(config: HeteroSVDConfig) -> ResourceUsage:
    """Resource usage of a design point.

    Raises:
        PlacementError: when the design does not fit geometrically.
    """
    orth, norm, mem = placement_footprint(config)
    pl_memory = estimate_pl_memory(
        config.m, config.n, config.p_eng, config.p_task, config.device
    )
    return ResourceUsage(
        orth=orth,
        norm=norm,
        mem=mem,
        plio=config.total_plios,
        bram=pl_memory.bram,
        uram=pl_memory.uram,
        luts=pl_memory.luts,
    )


def check_budgets(usage: ResourceUsage, config: HeteroSVDConfig) -> None:
    """Enforce Eq. 16.

    Raises:
        ResourceBudgetError: naming the first violated budget.
    """
    device = config.device
    checks = [
        ("AIE", usage.aie, device.max_aie),
        ("PLIO", usage.plio, device.max_plio),
        ("BRAM", usage.bram, device.max_bram),
        ("URAM", usage.uram, device.max_uram),
    ]
    for name, used, budget in checks:
        if used > budget:
            raise ResourceBudgetError(name, used, budget)


def is_feasible(config: HeteroSVDConfig) -> bool:
    """Whether a design point places and fits every budget."""
    try:
        usage = estimate_resources(config)
        check_budgets(usage, config)
    except (PlacementError, ResourceBudgetError):
        return False
    return True
