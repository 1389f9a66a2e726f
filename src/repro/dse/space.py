"""The widened DSE space: classic parallelism axes × new design axes.

The paper's two-stage DSE (Section IV-C) sweeps ``(P_eng, P_task)``
with a fitted achievable frequency.  This module widens that space with
two further first-class axes, in the spirit of WideSA's mapping-scheme
exploration and EA4RCA's communication-avoiding design points:

* **ring ordering** — ``codesign`` (the paper's shifting-ring ordering
  with relocated dataflow, :func:`~repro.core.ordering_codesign.codesign_dma_transfers`
  = ``2(k-1)`` DMA transfers per round) versus ``traditional``
  (``2k(k-1)``): a pure dataflow choice that changes the performance
  model but not placement or resource feasibility;
* **frequency derate** — a multiplicative factor on the fitted
  achievable PL clock, modelling conservative timing closure margins
  (1.0 = the fitted clock; 0.9 = a 10 % guard band).

Crossing the paper's 286 feasible pairs with two orderings and a few
derates multiplies the space ~4–8x; the sharded sweep in
:mod:`repro.dse.sharded` exists so that growth stays tractable and
kill-and-resume safe.

Everything here is deterministic: :meth:`DesignSpace.units` has one
canonical enumeration order, every unit has one content key (the same
:func:`repro.exec.cache.key_for_config` key the cache and checkpoint
layers use), and :meth:`DesignSpace.explore` returns points in
canonical order for any job count — which is the order the shard
merger restores, making the merged Pareto frontier byte-identical to
the serial one.

:meth:`DesignSpace.explore` is the one stage-2 loop of the library:
the classic sweep (:meth:`repro.core.dse.DesignSpaceExplorer.explore`)
runs it on the one-ordering, one-derate space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import HeteroSVDConfig
from repro.core.dse import DesignPoint, DesignSpaceExplorer, check_objective
from repro.core.perf_model import PerformanceModel
from repro.core.resources import ResourceUsage
from repro.errors import ConfigurationError, DesignSpaceError
from repro.exec.cache import cache_key, key_for_config
from repro.exec.parallel import CHUNKS_PER_WORKER, ParallelRunner
from repro.guard.deadline import as_deadline
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.resilience.retry import call_with_retry

#: Valid ring-ordering axis values.
ORDERINGS = ("codesign", "traditional")

#: Default frequency derates swept (1.0 = fitted achievable clock).
DEFAULT_DERATES = (1.0, 0.9)

#: Space descriptions bump this when their layout changes.
SPACE_FORMAT = 1


def _check_axis_values(
    orderings: Iterable[str], freq_derates: Iterable[float]
) -> None:
    for ordering in orderings:
        if ordering not in ORDERINGS:
            raise ConfigurationError(
                f"unknown ordering {ordering!r}; expected one of "
                f"{ORDERINGS}"
            )
    for derate in freq_derates:
        if not 0.0 < derate <= 1.0:
            raise ConfigurationError(
                f"freq_derate must be in (0, 1], got {derate}"
            )


@dataclass(frozen=True)
class SpaceUnit:
    """One point of the widened space — the sweep's unit of work.

    Attributes:
        p_eng: Engine parallelism (classic axis).
        p_task: Task parallelism (classic axis).
        ordering: Ring ordering, one of :data:`ORDERINGS`.
        freq_derate: Multiplier on the fitted achievable PL clock.
    """

    p_eng: int
    p_task: int
    ordering: str
    freq_derate: float

    def __post_init__(self):
        _check_axis_values((self.ordering,), (self.freq_derate,))

    def build_config(self, explorer: DesignSpaceExplorer) -> HeteroSVDConfig:
        """The full configuration this unit denotes.

        The classic axes go through ``make_config`` (padding, fitted
        frequency); the new axes are applied on top by :meth:`apply`.
        """
        return self.apply(explorer.make_config(self.p_eng, self.p_task))

    def apply(self, base: HeteroSVDConfig) -> HeteroSVDConfig:
        """This unit's new axes on its classic ``base`` configuration:
        the derate scales the fitted clock, the ordering flips
        ``use_codesign``.  Only the derated clock is re-checked
        (:meth:`~repro.core.config.HeteroSVDConfig.with_clock_and_ordering`)."""
        return base.with_clock_and_ordering(
            base.pl_frequency_hz * self.freq_derate,
            self.ordering == "codesign",
        )

    def to_dict(self) -> Dict:
        return {
            "p_eng": self.p_eng,
            "p_task": self.p_task,
            "ordering": self.ordering,
            "freq_derate": self.freq_derate,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SpaceUnit":
        return cls(
            p_eng=int(data["p_eng"]),
            p_task=int(data["p_task"]),
            ordering=str(data["ordering"]),
            freq_derate=float(data["freq_derate"]),
        )


class DesignSpace:
    """The widened candidate space of one problem size.

    Args:
        m / n: Matrix dimensions of the target workload.
        precision: Convergence threshold for converged-mode runs.
        fixed_iterations: Fix the sweep count (benchmark mode).
        batch: Batch size for the throughput figures.
        orderings: Ring orderings swept (default: both).
        freq_derates: Frequency derates swept.
        power_cap_w: Drop points above this power at ranking/frontier
            time (evaluations are still recorded — the cap is a view,
            not a feasibility constraint).
    """

    def __init__(
        self,
        m: int,
        n: int,
        precision: float = 1e-6,
        fixed_iterations: Optional[int] = None,
        batch: int = 1,
        orderings: Tuple[str, ...] = ORDERINGS,
        freq_derates: Tuple[float, ...] = DEFAULT_DERATES,
        power_cap_w: Optional[float] = None,
    ):
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        if not orderings:
            raise ConfigurationError("need at least one ordering")
        if not freq_derates:
            raise ConfigurationError("need at least one freq derate")
        self.m = m
        self.n = n
        self.precision = precision
        self.fixed_iterations = fixed_iterations
        self.batch = batch
        self.orderings = tuple(orderings)
        self.freq_derates = tuple(float(d) for d in freq_derates)
        self.power_cap_w = power_cap_w
        # Validate the axis values eagerly (SpaceUnit re-checks too), so
        # a bad value fails before a sharded sweep writes or spawns.
        _check_axis_values(self.orderings, self.freq_derates)
        self._explorer: Optional[DesignSpaceExplorer] = None
        self._units: Optional[List[SpaceUnit]] = None
        self._keys: Optional[List[str]] = None

    # -- structure ------------------------------------------------------------
    def explorer(self) -> DesignSpaceExplorer:
        """The underlying two-stage explorer (cached)."""
        if self._explorer is None:
            self._explorer = DesignSpaceExplorer(
                self.m,
                self.n,
                precision=self.precision,
                fixed_iterations=self.fixed_iterations,
            )
        return self._explorer

    def units(self) -> List[SpaceUnit]:
        """Every unit of the widened space, in canonical order.

        Canonical order is the classic ``candidates()`` enumeration
        (itself the serial ``explore`` order) crossed with the new axes
        innermost: for each ``(P_eng, P_task)``, each ordering, each
        derate.  Everything downstream — serial evaluation, shard
        partitioning, the merger — speaks this order.
        """
        if self._units is None:
            self._units = self._cross(self.explorer().candidates())
        return list(self._units)

    def _cross(self, pairs: Iterable[Sequence[int]]) -> List[SpaceUnit]:
        return [
            SpaceUnit(p_eng, p_task, ordering, derate)
            for p_eng, p_task in pairs
            for ordering in self.orderings
            for derate in self.freq_derates
        ]

    def unit_keys(self) -> List[str]:
        """Content key of every unit, aligned with :meth:`units`.

        The key is derived from the unit's *full configuration* (which
        encodes ordering and derated frequency) plus the batch size —
        the identical key the classic checkpointed sweep derives for
        the same configuration, so ledgers stay interoperable.
        """
        return self._unit_keys(self.scorer())

    def _unit_keys(self, sweep: "_Sweep") -> List[str]:
        if self._keys is None:
            self._keys = [
                key_for_config(
                    "dse-evaluate", sweep.config(unit), batch=self.batch
                )
                for unit in self.units()
            ]
        return list(self._keys)

    # -- evaluation -----------------------------------------------------------
    def scorer(self, feasible=None) -> "_Sweep":
        """Stage 2 of one sweep: a callable that scores a list of units
        in one array pass, sharing what its calls have in common.

        Keep it for one sweep and no longer (see :class:`_Sweep`).

        Args:
            feasible: Stage 1's
                :meth:`~repro.core.dse.DesignSpaceExplorer.feasible`,
                when it ran in this sweep.
        """
        return _Sweep(self.explorer(), self.batch, feasible)

    def evaluate_unit(self, unit: SpaceUnit) -> DesignPoint:
        """Score one unit with the performance model."""
        return self.scorer()([unit])[0]

    def explore(
        self,
        jobs: Optional[int] = None,
        cache=None,
        checkpoint=None,
        retry=None,
        deadline=None,
    ) -> List[DesignPoint]:
        """Evaluate every unit; points in canonical order, cap applied.

        Stage 1 (feasibility) runs inline, memoised in ``cache`` when
        one is given.  Units already in the cache or the checkpoint are
        served from there; the rest fan out over ``jobs`` worker
        processes, and the result is identical for any job count.

        Args:
            jobs: Worker processes for stage 2 (None: the
                ``HETEROSVD_JOBS`` environment variable, then 1).
            cache: Optional :class:`~repro.exec.cache.EvalCache`;
                evaluated points are served from it and stored back.
            checkpoint: Optional
                :class:`~repro.resilience.SweepCheckpoint` (or path);
                completed evaluations persist after every chunk and are
                skipped on resume.
            retry: Optional :class:`~repro.resilience.RetryPolicy`
                re-attempting each chunk's fan-out on transient
                failures.
            deadline: Optional wall-clock budget (a
                :class:`~repro.guard.Deadline` or seconds), checked
                between chunks.  On expiry
                :class:`~repro.errors.DeadlineExceeded` carries a
                :class:`~repro.guard.PartialResult`; with a checkpoint
                the sweep resumes losing at most one chunk.

        Raises:
            DesignSpaceError: when nothing is feasible (or survives
                the power cap).
        """
        deadline = as_deadline(deadline)
        if checkpoint is not None:
            from repro.resilience import as_checkpoint

            checkpoint = as_checkpoint(checkpoint, kind="dse-sweep")
        with _tracer.span("dse.explore", category="dse",
                          m=self.m, n=self.n), \
                ParallelRunner(jobs=jobs) as runner:
            with _tracer.span("dse.stage1", category="dse", jobs=1,
                              cached=cache is not None), \
                    _metrics.timer("dse.stage1_seconds"):
                units, feasible = self._stage1(cache)
            with _tracer.span("dse.stage2", category="dse",
                              candidates=len(units), jobs=runner.jobs), \
                    _metrics.timer("dse.stage2_seconds"):
                points = self._stage2(units, self.scorer(feasible), runner,
                                      cache, checkpoint, retry, deadline)
        kept = self.apply_power_cap(points)
        if not kept:
            raise DesignSpaceError(
                f"no feasible design point for {self.m}x{self.n}"
                + (f" under {self.power_cap_w} W" if self.power_cap_w else "")
            )
        return kept

    def explore_serial(self) -> List[DesignPoint]:
        """:meth:`explore` in this process, whatever ``HETEROSVD_JOBS``
        says: the parity reference the sharded path is pinned against
        (the merger restores exactly this point order before taking the
        Pareto frontier)."""
        return self.explore(jobs=1)

    def _stage1(self, cache) -> Tuple[List[SpaceUnit], Dict]:
        """The units, and what stage 1 computed for them when it ran.

        Stage 1 runs once per space, memoised under the classic key in
        ``cache``: the placement/budget checks cost about as much as
        stage 2, so a warm re-run must not repeat them.  The second
        value is :meth:`~repro.core.dse.DesignSpaceExplorer.feasible`
        when stage 1 ran here, else empty (stage 2 then builds each
        candidate's config and usage on first use).
        """
        feasible: Dict = {}
        if self._units is None:
            key = pairs = None
            if cache is not None:
                key = cache_key("dse-stage1", {
                    "m": self.m,
                    "n": self.n,
                    "precision": self.precision,
                    "fixed_iterations": self.fixed_iterations,
                    "frequency_hz": None,
                })
                pairs = cache.get(key)
            if pairs is None:
                feasible = self.explorer().feasible()
                pairs = list(feasible)
                if cache is not None:
                    cache.put(key, [list(pair) for pair in pairs])
            self._units = self._cross(pairs)
        return self.units(), feasible

    def _stage2(
        self, units, sweep, runner, cache, checkpoint, retry, deadline
    ) -> List[DesignPoint]:
        points: List[Optional[DesignPoint]] = [None] * len(units)
        keys = (
            self._unit_keys(sweep)
            if cache is not None or checkpoint is not None else None
        )
        for index, key in enumerate(keys or ()):
            if cache is not None:
                points[index] = cache.get(key)
            if points[index] is None and checkpoint is not None:
                points[index] = checkpoint.get(key)
        missing = [index for index, point in enumerate(points) if point is None]
        _metrics.counter("dse.candidates").inc(len(units))
        _metrics.counter("dse.evaluations").inc(len(missing))

        # One fan-out, or -- with a checkpoint, retry or deadline --
        # chunks with a flush and a deadline check between them: a
        # killed or expired sweep loses at most one chunk, and each
        # chunk's fan-out is retried on its own.
        step = len(missing) or 1
        if checkpoint is not None or retry is not None \
                or deadline is not None:
            step = runner.jobs * CHUNKS_PER_WORKER
            if checkpoint is not None:
                step = max(step, checkpoint.flush_interval)
        for start in range(0, len(missing), step):
            if deadline is not None:
                deadline.check(
                    kind="dse-sweep",
                    completed=len(units) - len(missing) + start,
                    total=len(units),
                    checkpointed=checkpoint is not None,
                )
            chunk = missing[start:start + step]
            # Each worker scores a contiguous list of units in one call;
            # inline, the whole chunk is one list.
            todo = [units[index] for index in chunk]
            size = -(-len(todo) // (
                runner.jobs * CHUNKS_PER_WORKER if runner.jobs > 1 else 1
            ))
            evaluated = [
                point
                for points in call_with_retry(
                    retry, runner.map, sweep,
                    [todo[i:i + size] for i in range(0, len(todo), size)],
                )
                for point in points
            ]
            for index, point in zip(chunk, evaluated):
                points[index] = point
                if cache is not None:
                    cache.put(keys[index], point)
                if checkpoint is not None:
                    checkpoint.record(keys[index], point)
            if checkpoint is not None:
                checkpoint.flush()
        return points

    def apply_power_cap(self, points: List[DesignPoint]) -> List[DesignPoint]:
        """The points surviving the cap, input order preserved."""
        if self.power_cap_w is None:
            return list(points)
        return [p for p in points if p.power.total <= self.power_cap_w]

    def ranked(
        self, points: List[DesignPoint], objective: str = "latency"
    ) -> List[DesignPoint]:
        """Objective-ranked view (best first; stable on ties)."""
        check_objective(objective)
        return sorted(
            points, key=lambda p: p.objective_value(objective), reverse=True
        )

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON description embedded in a shard plan file."""
        return {
            "format": SPACE_FORMAT,
            "m": self.m,
            "n": self.n,
            "precision": self.precision,
            "fixed_iterations": self.fixed_iterations,
            "batch": self.batch,
            "orderings": list(self.orderings),
            "freq_derates": list(self.freq_derates),
            "power_cap_w": self.power_cap_w,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DesignSpace":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"design space description must be an object, got "
                f"{type(data).__name__}"
            )
        if data.get("format") != SPACE_FORMAT:
            raise ConfigurationError(
                f"unsupported design space format {data.get('format')!r} "
                f"(expected {SPACE_FORMAT})"
            )
        try:
            return cls(
                m=int(data["m"]),
                n=int(data["n"]),
                precision=float(data["precision"]),
                fixed_iterations=(
                    int(data["fixed_iterations"])
                    if data.get("fixed_iterations") is not None else None
                ),
                batch=int(data["batch"]),
                orderings=tuple(data["orderings"]),
                freq_derates=tuple(data["freq_derates"]),
                power_cap_w=(
                    float(data["power_cap_w"])
                    if data.get("power_cap_w") is not None else None
                ),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"design space description missing field {exc}"
            ) from exc

    def describe(self) -> str:
        """One-line summary for CLI confirmations."""
        return (
            f"{self.m}x{self.n} widened space: "
            f"{len(self.units())} units "
            f"({len(self.orderings)} orderings x "
            f"{len(self.freq_derates)} derates)"
        )


class _Sweep:
    """Stage 2 of one sweep: scores lists of units, computing what they
    share once.

    A sweep scores every feasible ``(P_eng, P_task)`` once per ordering
    and derate.  Those evaluations share the candidate's base
    configuration and its budget-checked
    :class:`~repro.core.resources.ResourceUsage` (which depend on
    neither new axis), and every candidate of one ``P_eng`` and
    ordering shares the orth-stage durations, of which the model reads
    the ``max`` and the ``sum``
    (:attr:`~repro.core.perf_model.PerformanceModel.stage_totals`).
    Each is computed once: taken from stage 1 (``feasible``) where it
    ran, otherwise on first use.  A call scores its list of units in
    one array pass (:meth:`~repro.core.dse.DesignSpaceExplorer.score`).

    One instance lives for one sweep, never longer: the stage durations
    read calibration constants that :mod:`repro.analysis.sensitivity`
    rescales in place between sweeps (docs/performance.md, "The caching
    rule").  A pickled instance carries the explorer's parameters and
    the batch only, so a pool worker rebuilds the tables for each list
    it scores.
    """

    def __init__(self, explorer: DesignSpaceExplorer, batch: int,
                 feasible: Optional[Dict] = None):
        self.explorer = explorer
        self.batch = batch
        self._base: Dict[Tuple[int, int], HeteroSVDConfig] = {}
        self._usage: Dict[Tuple[int, int], ResourceUsage] = {}
        for pair, (config, usage) in (feasible or {}).items():
            self._base[pair] = config
            self._usage[pair] = usage
        self._stage_totals: Dict[Tuple[int, str], Tuple[float, float]] = {}

    def __getstate__(self) -> Tuple:
        explorer = self.explorer
        return (explorer.m, explorer.n, explorer.precision,
                explorer.fixed_iterations, self.batch)

    def __setstate__(self, state: Tuple) -> None:
        m, n, precision, fixed_iterations, batch = state
        self.__init__(
            DesignSpaceExplorer(m, n, precision=precision,
                                fixed_iterations=fixed_iterations),
            batch,
        )

    def config(self, unit: SpaceUnit) -> HeteroSVDConfig:
        """:meth:`SpaceUnit.build_config`, from the memoised base."""
        pair = (unit.p_eng, unit.p_task)
        base = self._base.get(pair)
        if base is None:
            base = self._base[pair] = self.explorer.make_config(*pair)
        return unit.apply(base)

    def __call__(self, units: Sequence[SpaceUnit]) -> List[DesignPoint]:
        """Score ``units`` with the performance model, in order."""
        configs = [self.config(unit) for unit in units]
        usages = []
        totals = []
        for unit, config in zip(units, configs):
            pair = (unit.p_eng, unit.p_task)
            usage = self._usage.get(pair)
            if usage is None:
                usage = self._usage[pair] = self.explorer.usage(
                    self._base[pair]
                )
            usages.append(usage)
            key = (unit.p_eng, unit.ordering)
            stage_totals = self._stage_totals.get(key)
            if stage_totals is None:
                stage_totals = self._stage_totals[key] = PerformanceModel(
                    config
                ).stage_totals
            totals.append(stage_totals)
        return self.explorer.score(configs, usages, self.batch, totals)
