"""The four benchmark workloads: solve, accel, serve and dse.

Each workload turns ``--seed`` into one fixed operation list, sets up
(a fresh interpreter's start, inputs, LAPACK reference singular values,
warm-up; several times, the median is ``setup_s``), then measures:

* untraced (``trace=False``): whole rounds of the list until
  ``seconds`` have passed; every operation's output is checked;
* traced (``trace=True``): a fixed prefix of the list four times,
  alternately untraced and with the layer wrappers of :mod:`tracing`
  installed.  The traced passes against the untraced ones give the
  tracing overhead; the first traced pass gives per-layer self times;
  the exact counts of all four passes, and the call counts of the two
  traced ones, must be identical.

End-to-end timings are scaled to a nominal machine (see :mod:`calib`).
A workload returns a :class:`Result`; :mod:`run` prints it.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.core import (
    DesignSpaceExplorer,
    HeteroSVDAccelerator,
    HeteroSVDConfig,
    PerformanceModel,
    TimingSimulator,
)
from repro.dse import DesignSpace
from repro.units import mhz
from repro.workloads.matrices import conditioned_matrix, random_matrix

import calib
import common
import serve_load
import tracing

#: Largest accepted ``max|sigma - sigma_LAPACK| / sigma_LAPACK[0]`` per
#: operation.  docs/workloads.md states rtol 1e-10 for the Jacobi
#: methods, but at the default precision (1e-6) the normwise error of
#: a 128x128 Gaussian matrix reaches 1.7e-10 on some seeds: the Eq. 6
#: stopping rule bounds sigma errors only to first order in the
#: precision when singular values cluster.  The gate sits at 1e-8,
#: far below any broken rotation (errors of order 1) and still 100x
#: below the precision target.
SIGMA_TOL = 1e-8

#: Table IV acceptance band of the analytic model against the timing
#: simulator (benchmarks/bench_table4_perf_model_accuracy.py).
MODEL_TOL = 0.10

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_PASSES = 5

#: Operations (serve: requests per pass) of the traced run's prefix.
TRACE_OPS = {"solve": 20, "accel": 6, "dse": 6}

#: Open-loop offered rate (requests/s) of the traced serve run: about
#: 40% of what the daemon sustains on a 2-core machine, where p50 stays
#: steady.
SERVE_RATE = 20.0

#: Fewest requests in an open-loop pass: what p90 needs.
MIN_REQUESTS = 100

#: An open-loop pass is invalid when its generator sent its p90 request
#: this late.
MAX_LATE_P90_S = 0.05

SOLVE_SIZES = (48, 64, 80, 96, 128)
SOLVE_METHODS = ("hestenes", "block")
#: Condition number of the conditioned share (3 ops in 10).
SOLVE_CONDITION = 1e8
ACCEL_SIZES = (32, 48, 64)
ACCEL_P_ENG = (4, 8)
DSE_SIZES = (128, 256, 512)
DSE_BATCHES = (1, 100)
DSE_OBJECTIVES = ("latency", "throughput", "energy_efficiency")
#: Table IV configurations: (size, P_eng).
TABLE_IV = tuple((m, p) for p in (2, 4, 8) for m in (128, 256, 512))

#: Every per-layer metric, with its unit; a traced run reports all of
#: them (a layer the workload does not reach reads 0).
PER_LAYER = (
    ("trace.busy_s", "s"), ("trace.untraced_busy_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.residual_s", "s"),
    ("trace.residual_share", "ratio"), ("trace.spans", "count"),
    ("guard.validate.s", "s"), ("guard.validate.calls", "count"),
    ("linalg.driver.s", "s"), ("linalg.round.s", "s"),
    ("linalg.round.calls", "count"), ("linalg.angles.s", "s"),
    ("linalg.conv.s", "s"), ("linalg.normalize.s", "s"),
    ("linalg.sweeps", "count"),
    ("linalg.scalar_rotation.s", "s"),
    ("linalg.scalar_rotation.calls", "count"), ("linalg.pair_ratio.s", "s"),
    ("pl.sender.s", "s"), ("pl.receiver.s", "s"),
    ("pl.arrangement.s", "s"), ("pl.fifo.s", "s"),
    ("core.accelerator.run.s", "s"),
    ("core.accelerator.iterations", "count"),
    ("core.accelerator.dma_transfers", "count"),
    ("core.accelerator.neighbor_transfers", "count"),
    ("core.accelerator.packets", "count"),
    ("core.placement.s", "s"), ("versal.array.s", "s"),
    ("core.resources.s", "s"), ("core.perf_model.s", "s"),
    ("core.power.s", "s"), ("core.timing.s", "s"), ("sim.events", "count"),
    ("core.dse.explore.s", "s"), ("dse.space.s", "s"),
    ("dse.points", "count"),
    ("exec.batch.s", "s"), ("serve.protocol.s", "s"),
    ("serve.daemon_cpu_s", "s"),
    ("serve.latency_p90_s", "s"),
    ("serve.queue_s.p50", "s"), ("serve.queue_s.p90", "s"),
    ("serve.service_s.p50", "s"), ("serve.wire_s.p50", "s"),
    ("serve.hist.queue_s.mean", "s"), ("serve.hist.service_s.mean", "s"),
    ("serve.batch_width.mean", "count"), ("serve.peak_queue_depth", "count"),
    ("serve.shed_share", "ratio"), ("loadgen.late_p90_s", "s"),
    ("loadgen.late_max_s", "s"),
    ("sigma_rel_err_max", "ratio"), ("model_err_max", "ratio"),
)

#: Per-op counts and maxima that must repeat exactly for one seed (the
#: traced run's call counts must too; see :func:`run_closed`).
EXACT_COUNTS = (
    "linalg.sweeps", "core.accelerator.iterations",
    "core.accelerator.dma_transfers", "core.accelerator.neighbor_transfers",
    "core.accelerator.packets", "dse.points", "sigma_rel_err_max",
    "model_err_max",
)


@dataclass
class Result:
    """What one run measured; :mod:`run` prints it."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation of a seeded list."""

    index: int
    params: Tuple
    seed: int


def sigma_error(sigma: np.ndarray, reference: np.ndarray) -> float:
    """``max|sigma - reference| / reference[0]`` (descending inputs)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != reference.shape or not np.all(np.isfinite(sigma)):
        return float("inf")
    return float(np.max(np.abs(sigma - reference)) / reference[0])


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def round_robin(rng: np.random.Generator, combos: Sequence[Tuple],
                rounds: int) -> List[Tuple[int, Tuple]]:
    """Every combo once per round, in a fresh seeded order each round.

    Returns ``(round, combo)`` pairs; a run of whole rounds is balanced
    whatever the seed.
    """
    return [
        (r, combos[k])
        for r in range(rounds)
        for k in rng.permutation(len(combos))
    ]


def solve_ops(seed: int, rounds: int) -> List[Op]:
    """Seeded square matrices through ``repro.svd``.

    Each round is every (size, method) pair once; in round ``r`` the
    pairs at positions ``r .. r+2`` (mod 10) of a seeded ranking are
    conditioned, so every pair is conditioned in 3 of each 10 rounds.
    """
    rng = _rng("solve", seed)
    combos = [(n, m) for n in SOLVE_SIZES for m in SOLVE_METHODS]
    rank = {c: i for i, c in enumerate(
        combos[k] for k in rng.permutation(len(combos)))}
    ops = []
    for i, (r, combo) in enumerate(round_robin(rng, combos, rounds)):
        conditioned = (rank[combo] - r) % len(combos) < 3
        ops.append(Op(i, combo + (conditioned,),
                      int(rng.integers(0, 2**31 - 1))))
    return ops


def accel_ops(seed: int, rounds: int) -> List[Op]:
    """Seeded (size, P_eng) runs of the accelerator model."""
    rng = _rng("accel", seed)
    combos = [(n, p) for n in ACCEL_SIZES for p in ACCEL_P_ENG]
    return [
        Op(i, combo, int(rng.integers(0, 2**31 - 1)))
        for i, (_, combo) in enumerate(round_robin(rng, combos, rounds))
    ]


def dse_ops(seed: int, rounds: int) -> List[Op]:
    """Table V scenarios, each as a classic sweep then a widened one.

    ``params`` is ``(engine, m, batch, objective)``; the widened sweep
    directly follows its classic twin so their rankings can be
    compared.
    """
    rng = _rng("dse", seed)
    combos = [(m, b, o) for m in DSE_SIZES for b in DSE_BATCHES
              for o in DSE_OBJECTIVES]
    ops: List[Op] = []
    for _, combo in round_robin(rng, combos, rounds):
        for engine in ("classic", "widened"):
            ops.append(Op(len(ops), (engine,) + combo, 0))
    return ops


# -- per-op execution ---------------------------------------------------------


class ClosedLoop:
    """A closed-loop workload: inputs, one timed call, one check."""

    round_len = 1
    #: Rounds of ops set up in advance: what a run needs on the machine
    #: the benchmark was tuned on; a longer run repeats them.
    max_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: List[Op] = []
        self.inputs: List[object] = []
        self.references: List[object] = []

    def make_ops(self, rounds: int) -> List[Op]:
        raise NotImplementedError

    def prepare(self, op: Op) -> Tuple[object, object]:
        """``(input, reference)`` of one op (set-up, untimed)."""
        return None, None

    def call(self, op: Op, payload: object) -> object:
        raise NotImplementedError

    def check(self, op: Op, output: object, reference: object,
              counts: Dict[str, float], result: Result) -> bool:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed calls that load lazy imports and caches."""

    def cost_class(self, op: Op) -> Tuple:
        """Ops of one class cost about the same (see
        :func:`class_medians`)."""
        return op.params

    def setup(self) -> None:
        self.ops = self.make_ops(self.max_rounds)
        prepared = [self.prepare(op) for op in self.ops]
        self.inputs = [p[0] for p in prepared]
        self.references = [p[1] for p in prepared]
        self.warm_up()

    def finish(self, counts: Dict[str, float], result: Result) -> None:
        """Checks done once per pass after the timed loop."""


def _counts() -> Dict[str, float]:
    return {name: 0 for name in EXACT_COUNTS}


def run_pass(loop: ClosedLoop, indices: Sequence[int], result: Result,
             recorder: Optional[tracing.SpanRecorder] = None,
             refs: Optional[List[float]] = None,
             ) -> Tuple[List[float], Dict[str, float], float]:
    """Run ``indices`` of the op list once.

    Returns per-op latencies, the exact counts, and the busy time: the
    latencies plus the once-per-pass checks (which the traced run also
    covers with spans).  With ``refs``, a :func:`calib.reference` time
    is appended after every op.
    """
    latencies: List[float] = []
    counts = _counts()
    for i in indices:
        op = loop.ops[i % len(loop.ops)]
        if recorder is not None:
            recorder.op = op.index
        failure = None
        start = time.perf_counter()
        try:
            output = loop.call(op, loop.inputs[i % len(loop.ops)])
        except Exception as error:  # noqa: BLE001 - counted, reported
            failure = error
        latencies.append(time.perf_counter() - start)
        if refs is not None:
            refs.append(calib.reference())
        result.attempted += 1
        if failure is not None:
            result.failed += 1
            result.fail(f"op {op.index} {op.params}: {failure!r}")
        elif not loop.check(op, output, loop.references[i % len(loop.ops)],
                          counts, result):
            result.failed += 1
    if recorder is not None:
        recorder.op = None
    start = time.perf_counter()
    loop.finish(counts, result)
    return latencies, counts, sum(latencies) + time.perf_counter() - start


class Solve(ClosedLoop):
    round_len = len(SOLVE_SIZES) * len(SOLVE_METHODS)
    max_rounds = 11

    def make_ops(self, rounds):
        return solve_ops(self.seed, rounds)

    def prepare(self, op):
        n, _, conditioned = op.params
        a = (conditioned_matrix(n, n, SOLVE_CONDITION, seed=op.seed)
             if conditioned else random_matrix(n, n, seed=op.seed))
        return a, np.linalg.svd(a, compute_uv=False)

    def warm_up(self):
        for method in SOLVE_METHODS:
            repro.svd(random_matrix(48, 48, seed=0), method=method)

    def call(self, op, a):
        return repro.svd(a, method=op.params[1])

    def check(self, op, out, reference, counts, result):
        counts["linalg.sweeps"] += out.sweeps
        err = sigma_error(out.singular_values, reference)
        counts["sigma_rel_err_max"] = max(counts["sigma_rel_err_max"], err)
        if out.degraded or not out.converged or not err <= SIGMA_TOL:
            result.fail(f"solve op {op.index} {op.params}: converged="
                        f"{out.converged} degraded={out.degraded} err={err:.3e}")
            return False
        return True


class Accel(ClosedLoop):
    round_len = len(ACCEL_SIZES) * len(ACCEL_P_ENG)
    max_rounds = 18

    def make_ops(self, rounds):
        return accel_ops(self.seed, rounds)

    def prepare(self, op):
        n = op.params[0]
        a = random_matrix(n, n, seed=op.seed)
        return a, np.linalg.svd(a, compute_uv=False)

    def warm_up(self):
        self.call(Op(-1, (32, 4), 0), random_matrix(32, 32, seed=0))

    def call(self, op, a):
        n, p = op.params
        return HeteroSVDAccelerator(
            HeteroSVDConfig(m=n, n=n, p_eng=p)).run(a)

    def check(self, op, out, reference, counts, result):
        t = out.transfers
        counts["core.accelerator.iterations"] += out.iterations
        counts["core.accelerator.dma_transfers"] += t.dma_transfers
        counts["core.accelerator.neighbor_transfers"] += t.neighbor_transfers
        counts["core.accelerator.packets"] += (
            t.packets_sent + t.packets_received)
        err = sigma_error(out.sigma, reference)
        counts["sigma_rel_err_max"] = max(counts["sigma_rel_err_max"], err)
        if not out.converged or not err <= SIGMA_TOL:
            result.fail(f"accel op {op.index} {op.params}: converged="
                        f"{out.converged} err={err:.3e}")
            return False
        return True


def _ranking(points) -> List[Tuple]:
    return [(p.config, p.latency, p.throughput, p.power.total)
            for p in points]


def table_iv_error() -> float:
    """Max relative error of the analytic model against the timing
    simulator over the nine Table IV configurations."""
    worst = 0.0
    for m, p in TABLE_IV:
        config = HeteroSVDConfig(m=m, n=m, p_eng=p, p_task=1,
                                 pl_frequency_hz=mhz(208.3),
                                 fixed_iterations=1)
        measured = TimingSimulator(config).measure_iteration_time()
        modelled = PerformanceModel(config).iteration_time()
        worst = max(worst, abs(modelled - measured) / measured)
    return worst


class Dse(ClosedLoop):
    round_len = 2 * len(DSE_SIZES) * len(DSE_BATCHES) * len(DSE_OBJECTIVES)
    max_rounds = 4

    def __init__(self, seed):
        super().__init__(seed)
        self._classic: Optional[List[Tuple]] = None

    def make_ops(self, rounds):
        return dse_ops(self.seed, rounds)

    def cost_class(self, op):
        # Batch and objective change the ranking, not the sweep's cost:
        # six classes of six sweeps, (engine, m).
        return op.params[:2]

    def warm_up(self):
        DesignSpaceExplorer(128, 128).evaluate(4, 1)

    def call(self, op, _payload):
        engine, m, batch, objective = op.params
        if engine == "classic":
            return DesignSpaceExplorer(m, m).explore(objective, batch=batch)
        space = DesignSpace(m, m, batch=batch)
        return space, space.explore_serial()

    def check(self, op, out, _reference, counts, result):
        engine, m, batch, objective = op.params
        if engine == "classic":
            counts["dse.points"] += len(out)
            self._classic = _ranking(out)
            return bool(out)
        space, points = out
        counts["dse.points"] += len(points)
        codesign = [
            p for unit, p in zip(space.units(), points)
            if unit.ordering == "codesign" and unit.freq_derate == 1.0
        ]
        widened = _ranking(space.ranked(codesign, objective))
        if widened != self._classic:
            result.fail(f"dse op {op.index} {op.params}: widened "
                        f"(codesign, 1.0) ranking differs from classic")
            return False
        return True

    def finish(self, counts, result):
        err = table_iv_error()
        counts["model_err_max"] = err
        if not err < MODEL_TOL:
            result.fail(f"Table IV model error {err:.4f} >= {MODEL_TOL}")


CLOSED = {"solve": Solve, "accel": Accel, "dse": Dse}


#: What a fresh interpreter runs to time start-up: import every module a
#: workload uses, then time the calibration kernel on the spot.
_START_CODE = (
    "import json, time, workloads, calib\n"
    "t = time.perf_counter()\n"
    "refs = calib.sample(3)\n"
    "print(json.dumps([time.perf_counter() - t, refs]))\n"
)


def start_seconds() -> Tuple[float, List[float]]:
    """One fresh interpreter's start.

    Returns the wall seconds of process start, imports and exit (less
    the kernel's own time) and the kernel times the interpreter took
    right after its imports.
    """
    env = common.clean_env()
    env["PYTHONPATH"] = os.pathsep.join((common.SRC, common.HERE))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _START_CODE], env=env,
                          cwd=common.ROOT, check=True, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    kernel_s, refs = json.loads(proc.stdout)
    return wall - kernel_s, refs


def measure_setup(make: Callable[[], object],
                  discard: Callable[[object], None] = lambda obj: None,
                  ) -> Tuple[object, float, float]:
    """Set up :data:`SETUP_PASSES` times.

    One sample is a fresh interpreter's start plus one ``make()`` in
    this process, scaled by the kernel times taken right around it: two
    before, three inside the fresh interpreter, two after.  A stretch
    of a shared machine that slows start-up slows those kernel times
    too (IQR over 100 s of back-to-back starts: 16-21% raw, 7% scaled).
    ``discard`` releases each object but the last.  Returns the last
    object and the median scaled and raw sample, in seconds.
    """
    obj = None
    scaled, raws = [], []
    for k in range(SETUP_PASSES):
        if k:
            discard(obj)
        refs = calib.sample(2)
        start_s, start_refs = start_seconds()
        start = time.perf_counter()
        obj = make()
        raw = start_s + time.perf_counter() - start
        refs += start_refs + calib.sample(2)
        raws.append(raw)
        scaled.append(raw * calib.scale(refs))
    return obj, common.median(scaled), common.median(raws)


def _layer_metrics(recorder: tracing.SpanRecorder, busy: float,
                   untraced_busy: float) -> Dict[str, float]:
    spans = recorder.spans
    summary = tracing.summarize(spans)
    out: Dict[str, float] = {}
    for layer, row in summary.items():
        if layer != "_top":
            out[f"{layer}.s"] = row["self_s"]
            out[f"{layer}.calls"] = row["calls"]
    top = summary["_top"]["self_s"]
    out["trace.busy_s"] = busy
    out["trace.untraced_busy_s"] = untraced_busy
    out["trace.overhead_ratio"] = busy / untraced_busy - 1.0
    out["trace.residual_s"] = busy - top
    out["trace.residual_share"] = (busy - top) / busy
    out["trace.spans"] = len(spans)
    out.update(recorder.counts)
    return out


def class_medians(classes: Sequence[Tuple],
                  latencies: Sequence[float]) -> List[float]:
    """Each op's latency replaced by the median of its input class.

    A run's mix is fixed by its whole rounds, but its latencies form a
    mixture of classes with gaps between them; a median that falls in a
    gap jumps between neighbouring classes on per-op noise alone (a dse
    median sits between the classic and the widened sweeps; a serve
    median near the 24x24 requests, which take twice as long as the
    others).  Taken over class medians, ``latency_p50_s`` keeps the mix
    and drops that noise.  Throughput uses the ops' own times.
    """
    by_class: Dict[Tuple, List[float]] = {}
    for cls, latency in zip(classes, latencies):
        by_class.setdefault(cls, []).append(latency)
    medians = {cls: common.median(v) for cls, v in by_class.items()}
    return [medians[cls] for cls in classes]


def call_counts(recorder: tracing.SpanRecorder) -> Dict[str, int]:
    """Calls per traced layer and counter of one recorder."""
    calls = {f"{layer}.calls": row["calls"]
             for layer, row in tracing.summarize(recorder.spans).items()
             if layer != "_top"}
    calls.update(recorder.counts)
    return calls


def _differences(first: Dict, second: Dict) -> Dict[str, Tuple]:
    return {k: (first.get(k), second.get(k))
            for k in sorted(set(first) | set(second))
            if first.get(k) != second.get(k)}


def run_traced(name: str, loop: ClosedLoop, result: Result) -> None:
    """The traced run of a closed loop: its op prefix four times,
    untraced and traced in turn."""
    indices = range(TRACE_OPS[name])
    passes = []
    recorders = []
    for traced in (False, True, False, True):
        recorder = tracing.SpanRecorder() if traced else None
        installed = (tracing.install(recorder, tracing.WORKLOAD_LAYERS[name])
                     if traced else None)
        try:
            _, counts, busy = run_pass(loop, indices, result, recorder)
        finally:
            if installed is not None:
                installed.uninstall()
                recorders.append(recorder)
        passes.append((counts, busy))
    for counts, _ in passes[1:]:
        if counts != passes[0][0]:
            result.fail(f"exact counts differ between passes: "
                        f"{_differences(passes[0][0], counts)}")
    calls = [call_counts(r) for r in recorders]
    if calls[0] != calls[1]:
        result.fail(f"call counts differ between traced passes: "
                    f"{_differences(*calls)}")
    os.makedirs(common.OUT_DIR, exist_ok=True)
    tracing.dump(recorders[0].spans, os.path.join(
        common.OUT_DIR, f"spans-{name}-{loop.seed}.json"))
    # Traced and untraced passes alternate, so a drift of machine speed
    # over the run weighs on both sides alike.
    layer = _layer_metrics(recorders[0], passes[1][1],
                           (passes[0][1] + passes[2][1]) / 2)
    layer["trace.overhead_ratio"] = (
        (passes[1][1] + passes[3][1]) / (passes[0][1] + passes[2][1]) - 1.0)
    layer.update(passes[1][0])
    result.metrics = {n: layer.get(n, 0.0) for n, _ in PER_LAYER}


def run_closed(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, measure and check one closed-loop workload."""
    result = Result()

    def make():
        loop = CLOSED[name](seed)
        loop.setup()
        return loop

    if trace:
        run_traced(name, make(), result)
        return result
    loop, setup_s, raw_setup_s = measure_setup(make)

    raw: List[float] = []
    refs: List[float] = []
    classes: List[Tuple] = []
    started = time.perf_counter()
    index = 0
    counts = _counts()
    while time.perf_counter() - started < seconds:
        lat, pass_counts, _ = run_pass(
            loop, range(index, index + loop.round_len), result, refs=refs)
        raw += lat
        classes += [loop.cost_class(loop.ops[i % len(loop.ops)])
                    for i in range(index, index + loop.round_len)]
        index += loop.round_len
        for key, value in pass_counts.items():
            counts[key] = (max(counts[key], value) if key.endswith("_max")
                           else counts[key] + value)
    calibrated = calib.calibrate(raw, refs)
    result.metrics = {
        "setup_s": setup_s,
        "throughput_per_s": len(calibrated) / sum(calibrated),
        "latency_p50_s": common.median(class_medians(classes, calibrated)),
        "ok_share": (result.attempted - result.failed) / result.attempted,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    result.notes = {
        "ops": len(calibrated),
        "wall_s": round(time.perf_counter() - started, 3),
        "speed_vs_nominal": common.median(
            c / t for t, c in zip(raw, calibrated)),
        "raw_setup_s": raw_setup_s,
        "raw_throughput_per_s": len(raw) / sum(raw),
        "raw_latency_p50_s": common.median(class_medians(classes, raw)),
        **{k: v for k, v in counts.items() if v},
    }
    return result


# -- serve --------------------------------------------------------------------


def _cpus() -> Tuple[Optional[int], Optional[int]]:
    """CPUs for the load generator and the daemon: distinct when the
    machine has two, so neither steals the other's core; unpinned
    otherwise."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


@contextlib.contextmanager
def _daemon(seed: int, out_path: str, trace: bool = False,
            metrics_path: Optional[str] = None):
    """A started, pinged and warmed daemon, stopped on exit."""
    with serve_load.Daemon(out_path, trace, metrics_path,
                           cpu=_cpus()[1]) as daemon:
        warm = serve_load.build_schedule(seed + 1, 12, SERVE_RATE)
        for i, item in enumerate(warm):
            daemon.request(dict(item.doc, id=f"w{i}"))
        yield daemon


def _check_serve(outcomes, result: Result) -> float:
    """σ of every ok answer against LAPACK on the regenerated input."""
    worst = 0.0
    for outcome in outcomes:
        result.attempted += 1
        doc = outcome.scheduled.doc
        if not outcome.ok:
            result.failed += 1
            result.fail(f"serve {doc['id']}: not ok: {outcome.response}")
            continue
        a = random_matrix(*doc["shape"], seed=doc["seed"])
        err = sigma_error(outcome.response["sigma"],
                          np.linalg.svd(a, compute_uv=False))
        worst = max(worst, err)
        if not err <= SIGMA_TOL:
            result.failed += 1
            result.fail(f"serve {doc['id']} {doc['shape']}: err={err:.3e}")
    return worst


def _client_layers(outcomes, stats: Dict) -> Dict[str, float]:
    ok = [o for o in outcomes if o.response and o.response.get("ok")]
    queue = [o.response["queue_s"] for o in ok]
    service = [o.response["service_s"] for o in ok]
    wire = [o.latency - o.response["queue_s"] - o.response["service_s"]
            for o in ok]
    late = [o.late for o in outcomes]
    batches = stats.get("serve.batches", 0)
    return {
        "serve.latency_p90_s": common.percentile(
            [o.latency for o in outcomes], 90),
        "serve.queue_s.p50": common.percentile(queue, 50),
        "serve.queue_s.p90": common.percentile(queue, 90),
        "serve.service_s.p50": common.percentile(service, 50),
        "serve.wire_s.p50": common.percentile(wire, 50),
        "serve.batch_width.mean": (
            stats.get("serve.coalesced_tasks", 0) / batches if batches else 0),
        "serve.peak_queue_depth": stats.get("peak_queue_depth", 0),
        "serve.shed_share": stats.get("serve.shed", 0) / len(outcomes),
        "loadgen.late_p90_s": common.percentile(late, 90),
        "loadgen.late_max_s": max(late),
    }


def run_serve(seed: int, seconds: float, trace: bool) -> Result:
    """Set up, drive and check the serve workload.

    Untraced, the end-to-end metrics come from a saturating closed loop
    (:func:`serve_load.saturate`); traced, from open-loop passes of a
    seeded Poisson schedule against a plain and a traced daemon.
    """
    result = Result()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    if _cpus()[0] is not None:
        os.sched_setaffinity(0, {_cpus()[0]})

    def out(tag: str) -> str:
        return os.path.join(common.OUT_DIR, f"serve-{tag}-{seed}.json")

    if trace:
        count = max(MIN_REQUESTS, int(round(SERVE_RATE * seconds / 2)))
        schedule = serve_load.build_schedule(seed, count, SERVE_RATE)
        with _daemon(seed, out("plain")) as daemon:
            plain = serve_load.drive(daemon.host, daemon.port, schedule)
            stats = daemon.request({"op": "stats", "id": "stats"})["stats"]
        with _daemon(seed, out("traced"), True, out("metrics")) as daemon:
            traced = serve_load.drive(daemon.host, daemon.port, schedule)
        late_p90 = common.percentile([o.late for o in plain], 90)
        if late_p90 > MAX_LATE_P90_S:
            result.fail(f"load generator ran late: p90 {late_p90:.3f}s")
        err_plain = _check_serve(plain, result)
        err_traced = _check_serve(traced, result)
        if err_plain != err_traced:
            result.fail("sigma errors differ between passes")
        _, plain_doc = tracing.load(out("plain"))
        recorder = tracing.SpanRecorder()
        recorder.spans, traced_doc = tracing.load(out("traced"))
        with open(out("metrics")) as handle:
            hist = json.load(handle)["histograms"]
        layer = _layer_metrics(recorder, traced_doc["cpu_s"],
                               plain_doc["cpu_s"])
        layer.update(_client_layers(plain, stats))
        layer["serve.daemon_cpu_s"] = traced_doc["cpu_s"]
        layer["serve.hist.queue_s.mean"] = hist["serve.queue_seconds"]["mean"]
        layer["serve.hist.service_s.mean"] = (
            hist["serve.service_seconds"]["mean"])
        layer["sigma_rel_err_max"] = err_traced
        result.metrics = {n: layer.get(n, 0.0) for n, _ in PER_LAYER}
        return result

    with contextlib.ExitStack() as daemons:
        (daemon,), setup_s, raw_setup_s = measure_setup(
            lambda: (daemons.enter_context(_daemon(seed, out("plain"))),),
            lambda _: daemons.close())
        outcomes = serve_load.saturate(daemon.host, daemon.port, seed,
                                       seconds)
        stats = daemon.request({"op": "stats", "id": "stats"})["stats"]
    err = _check_serve(outcomes, result)
    daemon_doc = tracing.load(out("plain"))[1]
    # Calibrated on the daemon's CPU, where the requests are served.
    samples = daemon_doc["refs"]
    raw = [o.latency for o in outcomes]
    latencies = calib.calibrate_at(
        raw, [o.origin + o.scheduled.due for o in outcomes], samples)
    shapes = [tuple(o.scheduled.doc["shape"]) for o in outcomes]
    ok = [o for o in outcomes if o.ok]
    span = max(o.answered_at for o in outcomes)
    end = outcomes[0].origin + span
    during = [v for ts, v in samples if outcomes[0].origin <= ts <= end]
    result.metrics = {
        "setup_s": setup_s,
        "throughput_per_s": len(ok) / (span * calib.scale(during)),
        "latency_p50_s": common.median(class_medians(shapes, latencies)),
        "ok_share": len(ok) / len(outcomes),
        "peak_rss_mb": daemon_doc["peak_rss_mb"],
    }
    answered = [o.response for o in ok]
    result.notes = {
        "requests": len(outcomes), "window": serve_load.WINDOW,
        "connections": serve_load.CONNECTIONS,
        "queue_p50_s": common.median(r["queue_s"] for r in answered),
        "service_p50_s": common.median(r["service_s"] for r in answered),
        "sigma_rel_err_max": err,
        "speed_vs_nominal": calib.scale(during),
        "raw_setup_s": raw_setup_s,
        "raw_throughput_per_s": len(ok) / span,
        "raw_latency_p50_s": common.median(class_medians(shapes, raw)),
        "batches": stats.get("serve.batches"),
        "batch_width_mean": (stats.get("serve.coalesced_tasks", 0)
                             / max(1, stats.get("serve.batches", 0))),
        "peak_queue_depth": stats.get("peak_queue_depth"),
    }
    return result


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Dispatch one workload run."""
    if name == "serve":
        return run_serve(seed, seconds, trace)
    return run_closed(name, seed, seconds, trace)


WORKLOADS = common.WORKLOADS

#: End-to-end metrics every untraced run reports, with units.
END_TO_END = (
    ("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_p50_s", "s"),
    ("ok_share", "ratio"), ("peak_rss_mb", "MB"),
)
