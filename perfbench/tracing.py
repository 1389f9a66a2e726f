"""Span recording for the traced benchmark run.

The program under test has no spans of its own in the layers the
benchmark splits time by, so this module wraps public functions and
methods from the outside: :func:`install` rebinds each target at module
(or class) level — in every loaded ``repro`` module that imported the
function by name — with a wrapper that records a span.  Spans stay in
memory as ``[name, start, end, parent, op]`` lists and are written out
when the run ends; :func:`summarize` turns them into per-layer self
times (a span's duration minus its children's).

Each thread keeps its own span stack, so the serve daemon's event loop
and compute thread nest independently.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer name -> the functions/methods whose time it owns.  A target is
#: ``"module:function"``, ``"module:Class.method"`` or ``"module:Class.*"``
#: (every plain function defined on the class, ``__init__`` included).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "guard.validate": ("repro.guard.validate:validate_matrix",),
    "linalg.driver": (
        "repro.linalg.svd:svd",
        "repro.linalg.svd:_block_jacobi_svd",
        "repro.linalg.hestenes:hestenes_svd",
    ),
    "linalg.round": ("repro.linalg.hestenes:_sweep_pairs_indexed",),
    "linalg.angles": ("repro.linalg.rotations:compute_rotations_batch",),
    "linalg.conv": (
        "repro.linalg.convergence:pair_convergence_ratios",
        "repro.linalg.convergence:off_diagonal_ratio",
    ),
    "linalg.normalize": ("repro.linalg.hestenes:normalize_columns",),
    "linalg.scalar_rotation": (
        "repro.linalg.rotations:compute_rotation",
        "repro.linalg.rotations:apply_rotation",
    ),
    "linalg.pair_ratio": ("repro.linalg.convergence:pair_convergence_ratio",),
    "pl.sender": ("repro.pl.sender:Sender.packetize",),
    "pl.receiver": (
        "repro.pl.receiver:Receiver.*",
        "repro.pl.receiver:reduce_convergence",
    ),
    "pl.arrangement": ("repro.pl.data_arrangement:DataArrangement.*",),
    "pl.fifo": ("repro.pl.fifo:FIFO.push", "repro.pl.fifo:FIFO.pop"),
    "core.accelerator.run": ("repro.core.accelerator:HeteroSVDAccelerator.*",),
    "core.placement": ("repro.core.placement:place",),
    # Array construction only: the per-tile lookups (100k+ per sweep)
    # would cost more as spans than they take, so they stay in the
    # caller's self time.
    "versal.array": ("repro.versal.array:AIEArray.__init__",),
    "core.resources": (
        "repro.core.resources:estimate_resources",
        "repro.core.resources:check_budgets",
    ),
    # Entry points only; the model's many small terms are their self time.
    "core.perf_model": tuple(
        f"repro.core.perf_model:PerformanceModel.{name}"
        for name in ("__init__", "task_time", "throughput", "iteration_time")
    ),
    "core.power": ("repro.core.power:PowerModel.*",),
    "core.timing": ("repro.core.timing:TimingSimulator.*",),
    "core.dse.explore": ("repro.core.dse:DesignSpaceExplorer.*",),
    "dse.space": (
        "repro.dse.space:DesignSpace.*",
        "repro.dse.space:SpaceUnit.build_config",
    ),
    "exec.batch": ("repro.exec.batch:BatchExecutor.run",),
    "serve.protocol": (
        "repro.serve.protocol:decode_line",
        "repro.serve.protocol:encode",
    ),
}

#: Counters: calls are counted without a span (too many and too short
#: to time one by one).
COUNTERS: Dict[str, Tuple[str, ...]] = {
    "sim.events": ("repro.sim.engine:Resource.serve",),
}

#: Layers (and counters) each workload's traced run installs.
WORKLOAD_LAYERS: Dict[str, Tuple[str, ...]] = {
    "solve": (
        "guard.validate", "linalg.driver", "linalg.round", "linalg.angles",
        "linalg.conv", "linalg.normalize",
    ),
    "accel": (
        "linalg.scalar_rotation", "linalg.pair_ratio", "pl.sender",
        "pl.receiver", "pl.arrangement", "pl.fifo", "core.accelerator.run",
        "core.placement", "versal.array",
    ),
    "dse": (
        "core.placement", "versal.array", "core.resources",
        "core.perf_model", "core.power", "core.timing", "sim.events",
        "core.dse.explore", "dse.space",
    ),
    "serve": (
        "guard.validate", "linalg.driver", "linalg.round", "linalg.angles",
        "linalg.conv", "linalg.normalize", "exec.batch", "serve.protocol",
    ),
}


class SpanRecorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.op: Optional[int] = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0,
                stack[-1] if stack else None, self.op]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def counting(self, name: str, fn: Callable) -> Callable:
        """A stand-in for ``fn`` that only counts its calls."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counter

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A span-recording stand-in for ``fn``.

        Generator functions get one span per resumption, so the time
        spent producing each item is charged to ``name`` and the time
        the consumer spends between items is not.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper


def _targets(spec: str) -> List[Tuple[object, str, Callable]]:
    """Resolve one target spec to ``(owner, attribute, original)``."""
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path, getattr(module, path))]
    cls_name, _, attr = path.partition(".")
    cls = getattr(module, cls_name)
    if attr != "*":
        return [(cls, attr, cls.__dict__[attr])]
    return [
        (cls, name, value) for name, value in vars(cls).items()
        if inspect.isfunction(value)
    ]


class Installation:
    """The rebinding :func:`install` made, so it can be undone."""

    def __init__(self) -> None:
        self.patched: List[Tuple[object, str, object]] = []

    def uninstall(self) -> None:
        """Restore every rebound name (in reverse order)."""
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(recorder: SpanRecorder, layers: Sequence[str]) -> Installation:
    """Wrap every target of ``layers`` (span or counter names).

    A module-level function is rebound in its own module and in every
    loaded ``repro`` module holding the same object under the same
    name (``from x import f`` copies the binding), so callers that
    imported it by name see the wrapper too.
    """
    done = Installation()
    for layer in layers:
        counted = layer in COUNTERS
        for spec in (COUNTERS if counted else LAYERS)[layer]:
            for owner, attr, original in _targets(spec):
                wrapped = (recorder.counting if counted
                           else recorder.wrap)(layer, original)
                owners = [owner]
                if inspect.ismodule(owner):
                    owners += [
                        mod for name, mod in list(sys.modules.items())
                        if mod is not owner and mod is not None
                        and (name == "repro" or name.startswith("repro."))
                        and getattr(mod, attr, None) is original
                    ]
                for target in owners:
                    done.patched.append((target, attr, original))
                    setattr(target, attr, wrapped)
    return done


def summarize(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"self_s", "calls"}`` plus the ``"_top"`` total.

    A span's self time is its duration minus its direct children's
    durations; children of one span run sequentially on its thread, so
    their durations do not overlap.  ``_top`` sums the durations of
    spans without a parent — what the self times add up to.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            key = id(parent)
            child_time[key] = child_time.get(key, 0.0) + (span[2] - span[1])
    layers: Dict[str, Dict[str, float]] = {}
    top = 0.0
    for span in spans:
        duration = span[2] - span[1]
        row = layers.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        row["self_s"] += duration - child_time.get(id(span), 0.0)
        row["calls"] += 1
        if span[3] is None:
            top += duration
    layers["_top"] = {"self_s": top, "calls": 0}
    return layers


def dump(spans: Sequence[Sequence], path: str, **extra) -> None:
    """Write spans compactly, plus any ``extra`` keys.

    Rows are ``[name_index, start, end, parent_index, op]`` with times
    in seconds after ``t0``, rounded to 0.1 us.
    """
    names: Dict[str, int] = {}
    index = {id(span): i for i, span in enumerate(spans)}
    t0 = spans[0][1] if spans else 0.0
    rows = [
        [names.setdefault(s[0], len(names)), round(s[1] - t0, 7),
         round(s[2] - t0, 7),
         index[id(s[3])] if s[3] is not None else None, s[4]]
        for s in spans
    ]
    doc = dict(extra, t0=t0, names=list(names), spans=rows)
    with open(path, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"))


def load(path: str) -> Tuple[List[list], Dict]:
    """Read what :func:`dump` wrote: re-linked spans and the document."""
    with open(path) as handle:
        doc = json.load(handle)
    names, t0 = doc["names"], doc["t0"]
    spans = [[names[r[0]], t0 + r[1], t0 + r[2], None, r[4]]
             for r in doc["spans"]]
    for span, row in zip(spans, doc["spans"]):
        if row[3] is not None:
            span[3] = spans[row[3]]
    return spans, doc
