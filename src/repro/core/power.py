"""Activity-based power model (the BEAM-measurement stand-in).

The paper measures board power with AMD's BEAM tool; HeteroSVD designs
stay under 39 W and Table VI shows how power tracks the
micro-architecture: more URAM (higher task parallelism) costs notably
more than more AIEs.  We model total power as

.. math::

    P = P_{static} + P_{PL}(f) + c_{AIE} \\cdot N_{AIE}
        + c_{URAM} \\cdot N_{URAM} + c_{BRAM} \\cdot N_{BRAM},

with coefficients fitted once to Table VI's four design points
(reproduced within a few percent by the default values).  The AIE term
uses the *placed* tile count: idle tiles are clock-gated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import HeteroSVDConfig
from repro.core.resources import ResourceUsage
from repro.errors import ConfigurationError
from repro.units import mhz

#: Board static power: PS, NoC, DDR controller, rails (watts).
STATIC_POWER_W = 10.0

#: PL dynamic power at the reference clock (watts), scaling linearly
#: with frequency.
PL_DYNAMIC_REF_W = 5.5
PL_REFERENCE_FREQUENCY_HZ = mhz(208.3)

#: Marginal power per active AIE tile (watts).
AIE_POWER_W = 0.030

#: Marginal power per URAM block (watts) — URAM dominates Table VI.
URAM_POWER_W = 0.047

#: Marginal power per BRAM block (watts).
BRAM_POWER_W = 0.004


@dataclass(frozen=True)
class PowerEstimate:
    """Decomposed power figure for one design point (watts)."""

    static: float
    pl_dynamic: float
    aie: float
    uram: float
    bram: float

    @property
    def total(self) -> float:
        """Total board power."""
        return self.static + self.pl_dynamic + self.aie + self.uram + self.bram


class PowerModel:
    """Power estimator with overridable coefficients.

    Args:
        static_w / pl_dynamic_ref_w / aie_w / uram_w / bram_w: Model
            coefficients; defaults are the Table VI fit.
    """

    def __init__(
        self,
        static_w: float = STATIC_POWER_W,
        pl_dynamic_ref_w: float = PL_DYNAMIC_REF_W,
        aie_w: float = AIE_POWER_W,
        uram_w: float = URAM_POWER_W,
        bram_w: float = BRAM_POWER_W,
    ):
        for name, value in [
            ("static_w", static_w),
            ("pl_dynamic_ref_w", pl_dynamic_ref_w),
            ("aie_w", aie_w),
            ("uram_w", uram_w),
            ("bram_w", bram_w),
        ]:
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        self.static_w = static_w
        self.pl_dynamic_ref_w = pl_dynamic_ref_w
        self.aie_w = aie_w
        self.uram_w = uram_w
        self.bram_w = bram_w

    def estimate(
        self, config: HeteroSVDConfig, usage: ResourceUsage
    ) -> PowerEstimate:
        """Power of a design point given its resource usage."""
        return self.estimate_terms(
            config.pl_frequency_hz, usage.aie, usage.uram, usage.bram
        )

    def estimate_terms(self, pl_frequency_hz, aie, uram, bram) -> PowerEstimate:
        """:meth:`estimate` from the PL clock and the AIE, URAM and BRAM
        counts: Python scalars for one design point, or arrays with one
        lane per point (the fields but ``static`` are then arrays too,
        and so is :attr:`PowerEstimate.total`)."""
        return PowerEstimate(
            static=self.static_w,
            pl_dynamic=self.pl_dynamic_ref_w * (
                pl_frequency_hz / PL_REFERENCE_FREQUENCY_HZ
            ),
            aie=self.aie_w * aie,
            uram=self.uram_w * uram,
            bram=self.bram_w * bram,
        )

    def energy_efficiency(
        self,
        config: HeteroSVDConfig,
        usage: ResourceUsage,
        throughput_tasks_per_s: float,
    ) -> float:
        """Tasks per second per watt (Table III's metric)."""
        power = self.estimate(config, usage).total
        if power <= 0:
            raise ConfigurationError("estimated power must be positive")
        return throughput_tasks_per_s / power
