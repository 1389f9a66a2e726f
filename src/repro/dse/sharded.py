"""Crash-safe sharded sweep: partition, lease, steal, recover.

The sharded sweep splits the widened :class:`~repro.dse.space.DesignSpace`
across N workers that share nothing but a work directory:

* ``plan.json`` — the immutable sweep description (space + shard count
  + partition seed), written atomically once and verified by every
  participant;
* ``shard-<i>.json`` — shard *i*'s own
  :class:`~repro.resilience.SweepCheckpoint` ledger of completed
  evaluations (atomic temp+rename, quarantined when corrupt);
* ``shard-<i>.lease`` — shard *i*'s heartbeat lease
  (:mod:`repro.resilience.lease`): the liveness signal siblings watch.

**Partitioning** (:meth:`ShardPlan.partition`) assigns each unit to
``crc32(seed ":" unit_key) % shards`` — a pure function of the unit's
content key, so the split is stable, disjoint, and independent of
enumeration order or shard count changes elsewhere.

**Work stealing**: after finishing its own units, a worker polls the
sibling leases.  A lease that stops heartbeating past its TTL (the
owner was SIGKILLed, or is stalled inside a chunk) is claimed —
generation bumped, recorded as ``dse.lease_steals`` — and the victim's
missing units are swept into the *stealer's own* ledger.  Stealing is
idempotent by construction: units dedupe by content key at merge time,
and double evaluations are byte-identical because the model is
deterministic.

**Failure injection**: three registered sites harden the paths —
``dse.shard_crash`` (worker raises mid-sweep), ``dse.shard_stall``
(worker sleeps through its heartbeat, inviting a steal), and
``checkpoint.torn_write`` (a flush is cut short; the next reader
quarantines the ledger and the work is re-swept).

The merged global frontier lives in
:func:`repro.analysis.pareto.merge_shards`.
"""

from __future__ import annotations

import json
import os
import time
import warnings
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.dse.space import DesignSpace, SpaceUnit
from repro.errors import ConfigurationError, FaultInjectionError
from repro.guard.schemas import validate_json
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.resilience import faults as _faults
from repro.resilience.checkpoint import (
    DEFAULT_FLUSH_INTERVAL,
    SweepCheckpoint,
)
from repro.resilience.lease import (
    DEFAULT_TTL_S,
    Lease,
    LeaseMonitor,
    claim,
    read_lease,
)

#: Chaos sites owned by this module (see module docstring).
SHARD_CRASH_SITE = _faults.register_site("dse.shard_crash")
SHARD_STALL_SITE = _faults.register_site("dse.shard_stall")

#: Ledger kind tag of every shard checkpoint file.
SHARD_KIND = "dse-shard"

#: Bump when the plan file layout changes incompatibly.
PLAN_FORMAT = 1

#: Seconds a ``dse.shard_stall`` firing sleeps when the spec gives no
#: ``param``.
DEFAULT_STALL_S = 0.25

PLAN_FILENAME = "plan.json"
RECOVERED_FILENAME = "recovered.json"

#: Structural schema of ``plan.json``.
_PLAN_SCHEMA = {
    "fields": {
        "format": int,
        "shards": int,
        "seed": int,
        "space": dict,
    },
}


def shard_ledger_path(workdir: Union[str, Path], shard: int) -> Path:
    """Ledger file of one shard."""
    return Path(workdir) / f"shard-{shard}.json"


def shard_lease_path(workdir: Union[str, Path], shard: int) -> Path:
    """Lease file of one shard."""
    return Path(workdir) / f"shard-{shard}.lease"


def open_shard_ledger(
    path: Union[str, Path],
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
) -> SweepCheckpoint:
    """Open (resume) one shard ledger, counting quarantine events.

    A corrupt ledger is quarantined by :class:`SweepCheckpoint` itself
    (renamed ``*.corrupt-<n>``); this wrapper adds the sharded-sweep
    accounting — ``dse.shards_quarantined`` — that the chaos soak and
    the merger report on.
    """
    ledger = SweepCheckpoint(path, kind=SHARD_KIND, flush_interval=flush_interval)
    if ledger.quarantined:
        _metrics.counter("dse.shards_quarantined").inc(len(ledger.quarantined))
    return ledger


class ShardPlan:
    """The immutable description of one sharded sweep.

    Args:
        space: The widened design space swept.
        shards: Number of shards the units are split across.
        seed: Partition seed (changes the unit→shard mapping only).
    """

    def __init__(self, space: DesignSpace, shards: int, seed: int = 0):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.space = space
        self.shards = int(shards)
        self.seed = int(seed)
        self._assignments: Optional[List[List[Tuple[int, SpaceUnit, str]]]] = None

    @classmethod
    def partition(
        cls, space: DesignSpace, shards: int, seed: int = 0
    ) -> "ShardPlan":
        """Split a space into ``shards`` disjoint unit sets.

        The assignment of a unit depends only on ``(seed, unit_key)``
        — never on enumeration order — so any two participants that
        agree on the plan agree on every shard's exact work list.
        """
        return cls(space, shards, seed)

    def shard_of(self, key: str) -> int:
        """The shard owning one unit key."""
        return zlib.crc32(f"{self.seed}:{key}".encode()) % self.shards

    def assignments(self) -> List[List[Tuple[int, SpaceUnit, str]]]:
        """Per-shard work lists of ``(canonical index, unit, key)``.

        Within each shard the units keep canonical (global) order.
        """
        if self._assignments is None:
            units = self.space.units()
            keys = self.space.unit_keys()
            shards: List[List[Tuple[int, SpaceUnit, str]]] = [
                [] for _ in range(self.shards)
            ]
            for index, (unit, key) in enumerate(zip(units, keys)):
                shards[self.shard_of(key)].append((index, unit, key))
            self._assignments = shards
        return self._assignments

    def units_for(self, shard: int) -> List[Tuple[int, SpaceUnit, str]]:
        """Shard ``shard``'s own work list."""
        if not 0 <= shard < self.shards:
            raise ConfigurationError(
                f"shard id {shard} outside [0, {self.shards})"
            )
        return list(self.assignments()[shard])

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "format": PLAN_FORMAT,
            "shards": self.shards,
            "seed": self.seed,
            "space": self.space.to_dict(),
        }

    def save(self, workdir: Union[str, Path]) -> Path:
        """Write ``plan.json`` atomically (idempotent for equal plans).

        Raises:
            ConfigurationError: when the directory already holds a
                *different* plan — two sweeps must not share a workdir.
        """
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / PLAN_FILENAME
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path.exists():
            existing = ShardPlan.load(workdir)
            if existing.to_dict() != self.to_dict():
                raise ConfigurationError(
                    f"{path} already describes a different sweep; use a "
                    f"fresh --workdir (or matching --shards/--seed/space)"
                )
            return path
        tmp = workdir / f"{PLAN_FILENAME}.{os.getpid()}.tmp"
        tmp.write_text(payload)
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, workdir: Union[str, Path]) -> "ShardPlan":
        """Read and validate ``plan.json``.

        Raises:
            ConfigurationError: missing or malformed plan file.
        """
        path = Path(workdir) / PLAN_FILENAME
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read shard plan {path}: {exc}"
            ) from exc
        except ValueError as exc:
            raise ConfigurationError(
                f"shard plan {path} is not valid JSON: {exc}"
            ) from exc
        validate_json(data, _PLAN_SCHEMA)
        if data["format"] != PLAN_FORMAT:
            raise ConfigurationError(
                f"unsupported shard plan format {data['format']!r} "
                f"(expected {PLAN_FORMAT})"
            )
        return cls(
            DesignSpace.from_dict(data["space"]),
            shards=data["shards"],
            seed=data["seed"],
        )

    @classmethod
    def ensure(
        cls,
        workdir: Union[str, Path],
        space: Optional[DesignSpace] = None,
        shards: Optional[int] = None,
        seed: int = 0,
    ) -> "ShardPlan":
        """The workdir's plan: loaded when present, else written.

        A worker joining an existing sweep passes no space and inherits
        the plan; a worker that *does* pass one must match it exactly.
        """
        path = Path(workdir) / PLAN_FILENAME
        if path.exists():
            plan = cls.load(workdir)
            if space is not None:
                candidate = cls(space, shards if shards else plan.shards, seed)
                if candidate.to_dict() != plan.to_dict():
                    raise ConfigurationError(
                        f"{path} describes a different sweep than the "
                        f"requested space/shards/seed"
                    )
            return plan
        if space is None or shards is None:
            raise ConfigurationError(
                f"no plan at {path}; the first participant must supply "
                f"the space and shard count"
            )
        plan = cls.partition(space, shards, seed)
        plan.save(workdir)
        return plan


def _chunks(
    items: Sequence[Tuple[int, SpaceUnit, str]], size: int
) -> List[List[Tuple[int, SpaceUnit, str]]]:
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _sweep_units(
    space: DesignSpace,
    ledger: SweepCheckpoint,
    units: Sequence[Tuple[int, SpaceUnit, str]],
    heartbeats: Sequence[Lease],
    chunk: int,
    shard: int,
    stats: Dict[str, int],
) -> None:
    """Evaluate ``units`` into ``ledger``, chunk by chunk.

    Every chunk boundary flushes the ledger and beats every lease in
    ``heartbeats`` (the worker's own lease, plus any claimed victim
    lease while stealing) — so a kill loses at most one chunk and a
    live worker is never mistaken for dead.  The chaos sites fire at
    chunk boundaries: a crash raises, a stall sleeps through the
    heartbeat window.
    """
    sweep = space.scorer()
    for chunk_units in _chunks(units, chunk):
        spec = _faults.fired(SHARD_CRASH_SITE)
        if spec is not None:
            raise FaultInjectionError(
                f"injected fault: shard {shard} crash at site "
                f"{SHARD_CRASH_SITE!r}"
            )
        spec = _faults.fired(SHARD_STALL_SITE)
        if spec is not None:
            time.sleep(spec.param if spec.param else DEFAULT_STALL_S)
        todo = [(unit, key) for _, unit, key in chunk_units
                if not ledger.contains(key)]
        stats["skipped"] += len(chunk_units) - len(todo)
        points = sweep([unit for unit, _ in todo])
        for (_, key), point in zip(todo, points):
            ledger.record(key, point)
        stats["evaluated"] += len(todo)
        _metrics.counter("dse.unit_evaluations").inc(len(todo))
        ledger.flush()
        for lease in heartbeats:
            lease.heartbeat()


def _union_done_keys(
    workdir: Path, plan: ShardPlan, own: SweepCheckpoint, own_shard: int
) -> set:
    """Every unit key recorded anywhere.

    Any ledger may hold any key — stealing records a victim's units in
    the *stealer's* ledger — so every ledger is checked against every
    key: the own ledger in memory (unflushed records count), sibling
    ledgers and the coordinator's recovery ledger from disk.
    """
    all_keys = set(plan.space.unit_keys())
    done = {key for key in all_keys if own.contains(key)}
    paths = [
        shard_ledger_path(workdir, shard)
        for shard in range(plan.shards) if shard != own_shard
    ]
    paths.append(workdir / RECOVERED_FILENAME)
    for path in paths:
        if done == all_keys:
            break
        if path.exists():
            ledger = open_shard_ledger(path)
            done.update(key for key in all_keys if ledger.contains(key))
    return done


def _steal_phase(
    workdir: Path,
    plan: ShardPlan,
    shard: int,
    ledger: SweepCheckpoint,
    own_lease: Lease,
    lease_ttl: float,
    chunk: int,
    stats: Dict[str, int],
    timeout_s: float,
) -> None:
    """Poll sibling leases; claim the expired ones and sweep their
    remaining units into our own ledger.

    Exits when the union of all ledgers covers the whole space, or on
    timeout (stragglers are then the merger's ``--recover`` problem,
    never a hard failure).
    """
    monitor = LeaseMonitor()
    poll_s = max(0.05, lease_ttl / 5.0)
    deadline = time.monotonic() + timeout_s
    while True:
        done = _union_done_keys(workdir, plan, ledger, shard)
        pending = {
            victim: [(i, u, k) for i, u, k in plan.units_for(victim)
                     if k not in done]
            for victim in range(plan.shards) if victim != shard
        }
        pending = {v: todo for v, todo in pending.items() if todo}
        if not pending:
            return
        progress = False
        for victim, todo in sorted(pending.items()):
            lease_path = shard_lease_path(workdir, victim)
            own_lease.heartbeat()
            if not monitor.expired(lease_path):
                continue
            record = read_lease(lease_path)
            claimed = claim(
                lease_path, record, victim, lease_ttl, owner=own_lease.owner
            )
            _metrics.counter("dse.lease_steals").inc()
            stats["steals"] += 1
            with _tracer.span("dse.steal", category="dse",
                              shard=shard, victim=victim, units=len(todo)):
                before = stats["evaluated"]
                _sweep_units(
                    plan.space, ledger, todo, (own_lease, claimed),
                    chunk, shard, stats,
                )
                stats["stolen"] += stats["evaluated"] - before
            claimed.mark_done()
            progress = True
        if progress:
            continue
        if time.monotonic() >= deadline:
            warnings.warn(
                f"shard {shard}: steal phase timed out after {timeout_s:.1f}s "
                f"with {sum(len(t) for t in pending.values())} units still "
                f"pending on live siblings; merge with --recover if they "
                f"never land",
                stacklevel=3,
            )
            _metrics.counter("dse.steal_timeouts").inc()
            return
        time.sleep(poll_s)


def run_shard(
    workdir: Union[str, Path],
    shard: int,
    space: Optional[DesignSpace] = None,
    shards: Optional[int] = None,
    seed: int = 0,
    lease_ttl: float = DEFAULT_TTL_S,
    chunk: int = DEFAULT_FLUSH_INTERVAL,
    steal: bool = True,
    steal_timeout_s: Optional[float] = None,
) -> Dict[str, int]:
    """Run one shard's sweep in this process.

    Resumable: an existing ``shard-<i>.json`` ledger is resumed (a
    corrupt one quarantined and re-swept), and an existing lease left
    by a dead previous run is retaken with its generation preserved.

    Args:
        workdir: Shared sweep directory (plan + ledgers + leases).
        shard: This worker's shard id.
        space / shards / seed: Sweep description; optional when the
            workdir already holds ``plan.json``.
        lease_ttl: Heartbeat validity window in seconds.
        chunk: Units evaluated between ledger flushes / heartbeats.
        steal: Enter the work-stealing phase after finishing own units.
        steal_timeout_s: Cap on the stealing phase (default
            ``max(30, 6 * lease_ttl)``).

    Returns:
        Counters: ``evaluated``, ``skipped`` (resumed), ``stolen``
        (units swept for dead siblings), ``steals`` (leases claimed).

    Raises:
        CheckpointError: when this shard id's lease is live under a
            different owner (the sweep is already running elsewhere).
    """
    workdir = Path(workdir)
    plan = ShardPlan.ensure(workdir, space, shards, seed)
    if not 0 <= shard < plan.shards:
        raise ConfigurationError(
            f"shard id {shard} outside [0, {plan.shards})"
        )
    if steal_timeout_s is None:
        steal_timeout_s = max(30.0, 6.0 * lease_ttl)
    stats = {"evaluated": 0, "skipped": 0, "stolen": 0, "steals": 0}
    with _tracer.span("dse.shard", category="dse",
                      shard=shard, shards=plan.shards):
        ledger = open_shard_ledger(
            shard_ledger_path(workdir, shard), flush_interval=chunk
        )
        lease = Lease.acquire(
            shard_lease_path(workdir, shard), shard, ttl_s=lease_ttl
        )
        _sweep_units(
            plan.space, ledger, plan.units_for(shard), (lease,),
            chunk, shard, stats,
        )
        ledger.flush()
        lease.mark_done()
        if steal and plan.shards > 1:
            _steal_phase(
                workdir, plan, shard, ledger, lease, lease_ttl, chunk,
                stats, steal_timeout_s,
            )
            ledger.flush()
    return stats


def _shard_entry(
    workdir: str,
    shard: int,
    lease_ttl: float,
    chunk: int,
    steal: bool,
    fault_plan: Optional[Dict],
) -> None:
    """Spawned-process entry point of one supervised shard worker.

    A fault plan shipped by the coordinator is activated locally, so
    each worker replays its own deterministic firing stream (the same
    per-worker-counter semantics the batch executor uses for
    ``linalg.*`` sites).
    """
    if fault_plan is not None:
        plan = _faults.FaultPlan.from_dict(fault_plan)
        with plan.activate():
            run_shard(workdir, shard, lease_ttl=lease_ttl, chunk=chunk,
                      steal=steal)
    else:
        run_shard(workdir, shard, lease_ttl=lease_ttl, chunk=chunk,
                  steal=steal)


def run_sharded(
    workdir: Union[str, Path],
    space: DesignSpace,
    shards: int,
    seed: int = 0,
    lease_ttl: float = DEFAULT_TTL_S,
    chunk: int = DEFAULT_FLUSH_INTERVAL,
    steal: bool = True,
    fault_plan: Optional["_faults.FaultPlan"] = None,
    join_timeout_s: float = 300.0,
) -> Dict[str, int]:
    """Coordinator: run every shard as a supervised worker process.

    Spawns one process per shard against a shared workdir, waits for
    all of them, then closes the safety net: any unit still missing
    from the union of ledgers (every shard crashed before stealing
    could cover it) is evaluated inline into ``recovered.json`` and
    counted as ``dse.units_recovered_inline`` — the sweep as a whole
    never fails because workers did.

    Returns:
        Counters: ``shards``, ``failed`` (non-zero worker exits),
        ``recovered`` (units evaluated inline).
    """
    import multiprocessing

    workdir = Path(workdir)
    plan = ShardPlan.partition(space, shards, seed)
    plan.save(workdir)
    plan_dict = fault_plan.to_dict() if fault_plan is not None else None
    ctx = multiprocessing.get_context("spawn")
    with _tracer.span("dse.sharded", category="dse", shards=shards):
        workers = [
            ctx.Process(
                target=_shard_entry,
                args=(str(workdir), shard, lease_ttl, chunk, steal, plan_dict),
                name=f"dse-shard-{shard}",
            )
            for shard in range(shards)
        ]
        for worker in workers:
            worker.start()
        failed = 0
        for worker in workers:
            worker.join(join_timeout_s)
            if worker.is_alive():
                worker.terminate()
                worker.join(5.0)
            if worker.exitcode != 0:
                failed += 1
        if failed:
            _metrics.counter("dse.shards_failed").inc(failed)
        recovered = recover_missing_units(workdir, plan)
    return {"shards": shards, "failed": failed, "recovered": recovered}


def recover_missing_units(
    workdir: Union[str, Path], plan: Optional[ShardPlan] = None
) -> int:
    """Evaluate every unit missing from the union of ledgers, inline.

    Results land in ``recovered.json`` (a regular shard-kind ledger the
    merger folds in).  Returns the number of units evaluated.
    """
    workdir = Path(workdir)
    if plan is None:
        plan = ShardPlan.load(workdir)
    all_units = [
        (index, unit, key)
        for shard in range(plan.shards)
        for index, unit, key in plan.units_for(shard)
    ]
    done: set = set()
    for shard in range(plan.shards):
        path = shard_ledger_path(workdir, shard)
        if path.exists():
            ledger = open_shard_ledger(path)
            done.update(k for _, _, k in all_units if ledger.contains(k))
    recovered_path = workdir / RECOVERED_FILENAME
    if recovered_path.exists():
        ledger = open_shard_ledger(recovered_path)
        done.update(k for _, _, k in all_units if ledger.contains(k))
    missing = [(i, u, k) for i, u, k in all_units if k not in done]
    if not missing:
        return 0
    ledger = open_shard_ledger(recovered_path)
    todo = [(unit, key) for _, unit, key in missing
            if not ledger.contains(key)]
    points = plan.space.scorer()([unit for unit, _ in todo])
    for (_, key), point in zip(todo, points):
        ledger.record(key, point)
    _metrics.counter("dse.units_recovered_inline").inc(len(todo))
    ledger.flush()
    return len(missing)
