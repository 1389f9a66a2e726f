"""Time-resolved power tracing — the BEAM measurement, not just its mean.

The paper measures board power with AMD's BEAM tool while the design
runs.  The static :mod:`repro.core.power` model gives the steady-state
figure Table VI reports; this module produces the *trace*: per-phase
power over a simulated task (DDR ramp-up, orthogonalization sweeps,
normalization, write-back idle), from which it integrates energy per
task — the J/task metric behind Table III's tasks/s/W.

Phase activity model (fractions of the steady-state dynamic power):

* orthogonalization: full AIE + PL + URAM activity (1.0),
* first iteration: PLIO half idle while DDR streams (0.85),
* normalization: only the k norm-AIEs active (norm-AIE share),
* write-back/idle: static + memory retention only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import HeteroSVDConfig
from repro.core.power import PowerEstimate, PowerModel
from repro.core.resources import ResourceUsage, estimate_resources
from repro.core.timing import TimingResult, TimingSimulator
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PowerPhase:
    """One phase of the power trace.

    Attributes:
        name: Phase label.
        start / end: Phase window (seconds).
        power_w: Modelled power during the phase.
    """

    name: str
    start: float
    end: float
    power_w: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def energy_j(self) -> float:
        return self.duration * self.power_w


@dataclass
class PowerTrace:
    """Power-over-time profile of one simulated task.

    Attributes:
        phases: Consecutive phases covering the whole task.
        steady_power_w: The Table VI-style steady figure for reference.
    """

    phases: List[PowerPhase]
    steady_power_w: float

    @property
    def total_energy_j(self) -> float:
        """Integrated energy of the task."""
        return sum(p.energy_j for p in self.phases)

    @property
    def makespan(self) -> float:
        """End of the last phase, in seconds (0 for an empty trace)."""
        return self.phases[-1].end if self.phases else 0.0

    @property
    def average_power_w(self) -> float:
        """Energy-weighted mean power."""
        if self.makespan == 0:
            return 0.0
        return self.total_energy_j / self.makespan

    @property
    def peak_power_w(self) -> float:
        """Highest phase power, in watts (0 for an empty trace)."""
        return max((p.power_w for p in self.phases), default=0.0)

    def energy_per_task_j(self) -> float:
        """Alias used by the energy-efficiency reporting."""
        return self.total_energy_j


def trace_task_power(
    config: HeteroSVDConfig,
    power_model: Optional[PowerModel] = None,
    usage: Optional[ResourceUsage] = None,
    timing: Optional[TimingResult] = None,
) -> PowerTrace:
    """Build the power trace of one task on a design point.

    Args:
        config: The design point.
        power_model / usage / timing: Optional pre-computed pieces.

    Raises:
        ConfigurationError: propagated from invalid configurations.
    """
    power_model = power_model if power_model is not None else PowerModel()
    usage = usage if usage is not None else estimate_resources(config)
    timing = timing if timing is not None else TimingSimulator(config).simulate(1)

    estimate: PowerEstimate = power_model.estimate(config, usage)
    steady = estimate.total
    static = estimate.static + estimate.uram + estimate.bram
    dynamic = estimate.pl_dynamic + estimate.aie
    norm_share = config.norm_aies_per_task / max(
        1, config.orth_aies_per_task + config.norm_aies_per_task
    )

    iteration_times = timing.iteration_times
    phases: List[PowerPhase] = []
    cursor = 0.0
    for index, duration in enumerate(iteration_times):
        activity = 0.85 if index == 0 else 1.0
        phases.append(
            PowerPhase(
                name=f"orth_iter{index}",
                start=cursor,
                end=cursor + duration,
                power_w=static + activity * dynamic,
            )
        )
        cursor += duration

    remaining = max(0.0, timing.latency - cursor)
    norm_duration = remaining * 0.7
    idle_duration = remaining - norm_duration
    phases.append(
        PowerPhase(
            name="normalization",
            start=cursor,
            end=cursor + norm_duration,
            power_w=static + norm_share * dynamic,
        )
    )
    cursor += norm_duration
    phases.append(
        PowerPhase(
            name="writeback",
            start=cursor,
            end=cursor + idle_duration,
            power_w=static,
        )
    )
    return PowerTrace(phases=phases, steady_power_w=steady)


def energy_efficiency_tasks_per_joule(
    config: HeteroSVDConfig, power_model: Optional[PowerModel] = None
) -> float:
    """Tasks per joule from the integrated trace (1/J per task)."""
    trace = trace_task_power(config, power_model=power_model)
    energy = trace.total_energy_j
    if energy <= 0:
        raise ConfigurationError("trace produced non-positive energy")
    return 1.0 / energy
