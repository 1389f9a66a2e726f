"""Two-stage design-space exploration (paper Section IV-C, Fig. 8).

Stage 1 enumerates the engine parallelism ``P_eng`` and determines, for
each value, the largest task parallelism ``P_task`` the placement and
the resource budgets (Eq. 16) admit.  Stage 2 evaluates every surviving
``(P_eng, P_task)`` point with the performance model and ranks by the
requested objective:

.. math::

    \\min\\ runtime(P_{eng}, P_{task}, Freq)
    \\quad \\text{s.t.} \\quad Resource_i \\le C_i .

Because EDA backends degrade the achievable PL clock as designs grow,
the explorer also models the frequency a design point closes timing at
(fitted to the paper's Table V: 450 MHz for a small single-task design
down to 310 MHz for large or many-task designs).  A full exploration
of the paper's 286-point space (95 feasible points at 256x256) takes
0.2–0.3 s in a fresh process, mostly first-call set-up; in a warm
process a Table V sweep takes a median 7.0 ms (2-CPU Xeon VM;
regenerate with ``python3 perfbench/run.py --workload dse --seed 1
--seconds 20 --trace 0``, row ``dse/latency_p50_s``) — versus the
seven hours per point of the Vitis flow the paper motivates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import P_ENG_RANGE, P_TASK_RANGE, HeteroSVDConfig
from repro.core.perf_model import PerformanceModel
from repro.core.power import PowerEstimate, PowerModel
from repro.core.resources import (
    ResourceUsage,
    check_budgets,
    estimate_resources,
)
from repro.errors import (
    ConfigurationError,
    PlacementError,
    ResourceBudgetError,
)
from repro.units import mhz

#: Frequency model bounds observed in the paper's experiments (MHz).
MAX_PL_FREQUENCY_MHZ = 450.0
MIN_PL_FREQUENCY_MHZ = 310.0

#: Fitted slopes: per doubling of the matrix size and per extra task.
FREQUENCY_SIZE_SLOPE_MHZ = 45.0
FREQUENCY_TASK_SLOPE_MHZ = 12.0

VALID_OBJECTIVES = ("latency", "throughput", "energy_efficiency")


def check_objective(objective: str) -> None:
    """Raise :class:`ConfigurationError` for an unknown objective."""
    if objective not in VALID_OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {objective!r}; expected one of "
            f"{VALID_OBJECTIVES}"
        )


def achievable_frequency_hz(m: int, p_task: int) -> float:
    """PL clock a design of this size/parallelism closes timing at.

    Fitted to the paper's Table V frequency column; larger matrices and
    more task pipelines increase PL congestion and lower the clock.
    """
    if m < 1 or p_task < 1:
        raise ConfigurationError(
            f"invalid frequency query: m={m}, p_task={p_task}"
        )
    estimate = (
        MAX_PL_FREQUENCY_MHZ
        - FREQUENCY_SIZE_SLOPE_MHZ * max(0.0, math.log2(m / 128))
        - FREQUENCY_TASK_SLOPE_MHZ * (p_task - 1)
    )
    clamped = min(MAX_PL_FREQUENCY_MHZ, max(MIN_PL_FREQUENCY_MHZ, estimate))
    return mhz(clamped)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated point of the design space.

    Attributes:
        config: The (possibly column-padded) configuration evaluated.
        latency: Single-task end-to-end seconds (Eq. 14 task time).
        throughput: Tasks per second at the evaluation batch size.
        power: Decomposed power estimate.
        energy_efficiency: Tasks/s/W (Table III metric).
        usage: Resource consumption.
        batch: Batch size used for the throughput figure.
    """

    config: HeteroSVDConfig
    latency: float
    throughput: float
    power: PowerEstimate
    energy_efficiency: float
    usage: ResourceUsage
    batch: int

    def objective_value(self, objective: str) -> float:
        """Scalar score (higher is better) for a ranking objective."""
        if objective == "latency":
            return -self.latency
        if objective == "throughput":
            return self.throughput
        if objective == "energy_efficiency":
            return self.energy_efficiency
        raise ConfigurationError(
            f"unknown objective {objective!r}; expected one of "
            f"{VALID_OBJECTIVES}"
        )


class DesignSpaceExplorer:
    """DSE engine for one problem size.

    Args:
        m / n: Matrix dimensions of the target workload.
        precision: Convergence threshold for converged-mode runs.
        fixed_iterations: Fix the sweep count (benchmark mode) instead
            of estimating it from the precision.
    """

    def __init__(
        self,
        m: int,
        n: int,
        precision: float = 1e-6,
        fixed_iterations: Optional[int] = None,
    ):
        if m < 1 or n < 2:
            raise ConfigurationError(f"invalid problem size {m}x{n}")
        self.m = m
        self.n = n
        self.precision = precision
        self.fixed_iterations = fixed_iterations
        self.power_model = PowerModel()

    # -- configuration helpers ------------------------------------------------
    def _padded_n(self, p_eng: int) -> int:
        """Column count padded so blocks tile evenly (>= 2 blocks)."""
        blocks = max(2, math.ceil(self.n / p_eng))
        return blocks * p_eng

    def make_config(
        self,
        p_eng: int,
        p_task: int,
        frequency_hz: Optional[float] = None,
    ) -> HeteroSVDConfig:
        """Build the configuration of one candidate point."""
        freq = (
            frequency_hz
            if frequency_hz is not None
            else achievable_frequency_hz(self.m, p_task)
        )
        return HeteroSVDConfig(
            m=self.m,
            n=self._padded_n(p_eng),
            p_eng=p_eng,
            p_task=p_task,
            pl_frequency_hz=freq,
            precision=self.precision,
            fixed_iterations=self.fixed_iterations,
        )

    # -- stage 1: feasibility ----------------------------------------------------
    def _feasible_tasks(
        self, p_eng: int, frequency_hz: Optional[float] = None
    ) -> List[Tuple[HeteroSVDConfig, ResourceUsage]]:
        """Config and usage of ``P_task = 1, 2, ...`` up to the first
        point the placement or an Eq. 16 budget rejects."""
        feasible = []
        for p_task in P_TASK_RANGE:
            try:
                config = self.make_config(p_eng, p_task, frequency_hz)
                usage = self.usage(config)
            except (PlacementError, ResourceBudgetError, ConfigurationError):
                break
            feasible.append((config, usage))
        return feasible

    def max_p_task(self, p_eng: int, frequency_hz: Optional[float] = None) -> int:
        """Largest feasible ``P_task`` for an engine parallelism.

        Feasibility combines the placement geometry and every Eq. 16
        budget; returns 0 when even a single task does not fit.
        """
        return len(self._feasible_tasks(p_eng, frequency_hz))

    def feasible(
        self, frequency_hz: Optional[float] = None
    ) -> Dict[Tuple[int, int], Tuple[HeteroSVDConfig, ResourceUsage]]:
        """Stage 1 with what it computed on the way: every surviving
        ``(P_eng, P_task)``, in :meth:`candidates` order, mapped to its
        configuration and budget-checked resource usage (which stage 2
        scores without recomputing)."""
        return {
            (config.p_eng, config.p_task): (config, usage)
            for p_eng in P_ENG_RANGE
            for config, usage in self._feasible_tasks(p_eng, frequency_hz)
        }

    def stage1(
        self, frequency_hz: Optional[float] = None
    ) -> Dict[int, int]:
        """Stage 1 of Fig. 8: ``P_eng -> max feasible P_task``."""
        result: Dict[int, int] = {}
        for p_eng in P_ENG_RANGE:
            max_tasks = self.max_p_task(p_eng, frequency_hz)
            if max_tasks > 0:
                result[p_eng] = max_tasks
        return result

    def candidates(
        self, frequency_hz: Optional[float] = None
    ) -> List[Tuple[int, int]]:
        """Every surviving ``(P_eng, P_task)`` pair, in evaluation order.

        This is the canonical order of :meth:`explore` (and of every
        :class:`~repro.dse.space.DesignSpace` unit list), whatever the
        job count: it is what makes parallel exploration deterministic.
        """
        return list(self.feasible(frequency_hz))

    # -- stage 2: evaluation --------------------------------------------------------
    def evaluate(
        self,
        p_eng: int,
        p_task: int,
        batch: int = 1,
        frequency_hz: Optional[float] = None,
    ) -> DesignPoint:
        """Stage 2 of Fig. 8: score one design point with the model."""
        return self.evaluate_config(
            self.make_config(p_eng, p_task, frequency_hz), batch
        )

    def evaluate_config(
        self,
        config: HeteroSVDConfig,
        batch: int = 1,
    ) -> DesignPoint:
        """Score an explicit configuration.

        This is :meth:`evaluate` minus the config construction, so the
        widened design space (:mod:`repro.dse.space` — ring ordering,
        frequency derating) can score variants that
        ``make_config`` alone cannot express.
        """
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        usage = self.usage(config)
        return self.score(PerformanceModel(config), usage, batch)

    @staticmethod
    def usage(config: HeteroSVDConfig) -> ResourceUsage:
        """Resource usage of a design point, checked against Eq. 16.

        Raises:
            PlacementError / ResourceBudgetError: when it does not fit.
        """
        usage = estimate_resources(config)
        check_budgets(usage, config)
        return usage

    def score(
        self, model: PerformanceModel, usage: ResourceUsage, batch: int
    ) -> DesignPoint:
        """The design point of ``model.config``, whose budget-checked
        ``usage`` the caller already has (stage 1 computed it, or
        :meth:`usage`)."""
        config = model.config
        latency = model.task_time()
        throughput = model.throughput(batch)
        power = self.power_model.estimate(config, usage)
        efficiency = throughput / power.total
        return DesignPoint(
            config=config,
            latency=latency,
            throughput=throughput,
            power=power,
            energy_efficiency=efficiency,
            usage=usage,
            batch=batch,
        )

    def explore(
        self,
        objective: str = "latency",
        batch: int = 1,
        power_cap_w: Optional[float] = None,
        jobs: Optional[int] = None,
        cache=None,
        checkpoint=None,
        retry=None,
        deadline=None,
    ) -> List[DesignPoint]:
        """Evaluate the whole feasible space, best point first.

        The classic sweep is the one-ordering (``codesign``),
        one-derate (1.0) :class:`~repro.dse.space.DesignSpace`; its
        :meth:`~repro.dse.space.DesignSpace.explore` does the work, so
        ``jobs``, ``cache``, ``checkpoint``, ``retry`` and ``deadline``
        mean exactly what they mean there, and any job count returns
        the identical ranked list.

        Args:
            power_cap_w: When given, drop points whose estimated power
                exceeds the cap (the paper's HeteroSVD configurations
                stay under 39 W).

        Raises:
            DesignSpaceError: when nothing is feasible.
        """
        check_objective(objective)
        # Lazy import: repro.dse builds on this module.
        from repro.dse.space import DesignSpace

        space = DesignSpace(
            self.m, self.n, self.precision, self.fixed_iterations, batch,
            orderings=("codesign",), freq_derates=(1.0,),
            power_cap_w=power_cap_w,
        )
        points = space.explore(
            jobs=jobs, cache=cache, checkpoint=checkpoint, retry=retry,
            deadline=deadline,
        )
        return space.ranked(points, objective)

    def best(
        self,
        objective: str = "latency",
        batch: int = 1,
        power_cap_w: Optional[float] = None,
        jobs: Optional[int] = None,
        cache=None,
        checkpoint=None,
        retry=None,
        deadline=None,
    ) -> DesignPoint:
        """The optimal design point for an objective."""
        return self.explore(
            objective, batch, power_cap_w, jobs=jobs, cache=cache,
            checkpoint=checkpoint, retry=retry, deadline=deadline,
        )[0]
