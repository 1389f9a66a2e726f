"""Content-keyed memoization of performance-model evaluations.

A DSE sweep, the sensitivity analysis, and the mixed-batch scheduler
all call the same pure functions (``evaluate(config, workload) ->
DesignPoint``, ``task_cost(spec) -> seconds``) over heavily overlapping
inputs.  :class:`EvalCache` memoizes them behind a content-derived key:
the SHA-256 of the canonical JSON of the configuration, the workload
parameters, and the performance-model version.

Two layers:

* an in-memory LRU (always on, bounded by ``max_entries``),
* an optional on-disk JSON store under ``.repro_cache/`` so warm
  re-runs of a sweep survive process restarts.  Files are plain JSON
  (one per entry, sharded by key prefix) — diffable and auditable,
  never pickled.

Invalidation is by model version: keys embed
:data:`repro.core.perf_model.MODEL_VERSION` and the disk store
namespaces entries under a ``v<version>/`` directory, so bumping the
version orphans every stale entry at once.  :meth:`EvalCache.purge_stale`
deletes orphaned version directories.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.resilience import faults as _faults

#: Distinguishes temp files of concurrent writers sharing a cache dir.
_TMP_COUNTER = itertools.count()

#: Default location of the on-disk store (relative to the CWD).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Sentinel distinguishing "no entry" from a cached ``None``.
_MISS = object()

#: Canonical JSON (sorted keys, no whitespace) of keys and checksums;
#: one shared encoder instead of one per ``json.dumps`` call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance.

    Attributes:
        hits: Lookups served from the in-memory LRU.
        disk_hits: Lookups that missed memory but hit the disk store.
        misses: Lookups not served by either layer.
        stores: Values written to the cache.
        evictions: LRU entries dropped for capacity.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Disk entries evicted because they failed the checksum, did not
    #: parse, or did not decode — each is deleted and recomputed.
    corrupt_entries: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served by any layer (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.disk_hits) / self.lookups

    def describe(self) -> str:
        """One-line human-readable summary."""
        base = (
            f"{self.hits} memory hits, {self.disk_hits} disk hits, "
            f"{self.misses} misses ({self.hit_rate * 100:.1f}% hit rate)"
        )
        if self.corrupt_entries:
            base += f", {self.corrupt_entries} corrupt entries evicted"
        return base


def _model_version() -> str:
    from repro.core.perf_model import MODEL_VERSION

    return MODEL_VERSION


def cache_key(kind: str, payload: Dict[str, Any]) -> str:
    """Content hash of one evaluation request.

    Args:
        kind: Evaluation family (``"dse-evaluate"``, ``"task-cost"``,
            ...); distinct kinds never collide even on equal payloads.
        payload: JSON-compatible description of *all* inputs.

    Returns:
        A hex digest stable across processes and sessions.
    """
    canonical = _CANONICAL_JSON.encode(
        {"kind": kind, "model": _model_version(), "payload": payload}
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def encode_value(value: Any) -> Dict[str, Any]:
    """JSON-compatible tagged encoding of a cacheable value.

    Shared with :mod:`repro.resilience.checkpoint`, which persists the
    same value kinds (design points, numbers, JSON data) and must stay
    format-compatible with the cache.
    """
    from repro.io import DesignPoint, design_point_to_dict

    if isinstance(value, DesignPoint):
        return {"type": "design_point", "data": design_point_to_dict(value)}
    if isinstance(value, (int, float)):
        return {"type": "number", "data": value}
    if isinstance(value, (list, dict)):
        return {"type": "json", "data": value}
    raise ConfigurationError(
        f"cannot cache values of type {type(value).__name__}; "
        f"expected DesignPoint, a number, or JSON-compatible data"
    )


def decode_value(entry: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_value`."""
    from repro.io import design_point_from_dict

    kind = entry.get("type")
    if kind == "design_point":
        return design_point_from_dict(entry["data"])
    if kind == "number":
        return entry["data"]
    if kind == "json":
        return entry["data"]
    raise ConfigurationError(f"unknown cache entry type {kind!r}")


# Former private names, kept for in-tree callers and tests.
_encode = encode_value
_decode = decode_value


def entry_checksum(entry: Dict[str, Any]) -> str:
    """Integrity checksum of a disk entry's payload.

    Covers the tagged value (``type`` + ``data``) in canonical JSON so
    any on-disk bit rot or truncation is detected at read time.
    """
    canonical = _CANONICAL_JSON.encode(
        {"type": entry.get("type"), "data": entry.get("data")}
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def key_for_config(kind: str, config, **params: Any) -> str:
    """Key for an evaluation of one configuration.

    Falls back to a ``describe()``-based payload for devices
    :mod:`repro.io` cannot serialize (ad-hoc experimental devices), so
    memory-layer memoization still works for them.  The fallback embeds
    the config's class qualname and the device name: two distinct
    ad-hoc devices can share a describe string, and their evaluations
    must not share cache entries.

    Module-level so checkpoints (:mod:`repro.resilience.checkpoint`)
    key completed evaluations identically to the cache without needing
    a cache instance.
    """
    from repro.io import config_to_dict

    try:
        config_payload: Any = config_to_dict(config)
    except (ConfigurationError, AttributeError):
        config_payload = {
            "describe": config.describe(),
            "class": f"{type(config).__module__}."
                     f"{type(config).__qualname__}",
        }
        device = getattr(config, "device", None)
        device_name = getattr(device, "name", None)
        if device_name is not None:
            config_payload["device"] = device_name
    return cache_key(kind, {"config": config_payload, **params})


class EvalCache:
    """Two-layer (LRU + optional disk) memoization cache.

    Args:
        disk_dir: Directory of the persistent store, or None for a
            memory-only cache.  Created lazily on first write.
        max_entries: In-memory LRU capacity.

    The cache is safe to share across :class:`DesignSpaceExplorer`,
    :class:`BatchScheduler`, and :class:`BatchExecutor` instances —
    keys embed every evaluation input, so unrelated sweeps never
    collide.
    """

    def __init__(
        self,
        disk_dir: Optional[Union[str, Path]] = None,
        max_entries: int = 4096,
    ):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()

    # -- key helpers ---------------------------------------------------------
    def key_for_config(self, kind: str, config, **params: Any) -> str:
        """Key for an evaluation of one configuration.

        Delegates to the module-level :func:`key_for_config`; kept as a
        method for callers holding a cache instance.
        """
        return key_for_config(kind, config, **params)

    # -- storage layers ------------------------------------------------------
    def _version_dir(self) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"v{_model_version()}"

    def _entry_file(self, key: str) -> str:
        # A plain string, not pathlib joins: lookups build one per hit.
        return f"{self.disk_dir}/v{_model_version()}/{key[:2]}/{key}.json"

    def _entry_path(self, key: str) -> Path:
        return Path(self._entry_file(key))

    def _evict_corrupt(self, path: str) -> Any:
        """Delete an unreadable disk entry so it gets recomputed."""
        self.stats.corrupt_entries += 1
        _metrics.counter("cache.corrupt_entries").inc()
        try:
            os.unlink(path)
        except OSError:
            pass
        return _MISS

    def _disk_get(self, key: str) -> Any:
        if self.disk_dir is None:
            return _MISS
        path = self._entry_file(key)
        with _tracer.span("cache.disk_get"):
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                return _MISS  # genuinely absent (or unreadable): a miss
            try:
                entry = json.loads(raw)
            except ValueError:  # bad JSON or bad UTF-8
                return self._evict_corrupt(path)
            stored_sum = entry.get("sha256") if isinstance(entry, dict) \
                else None
            # Entries written before checksums existed carry no
            # ``sha256`` field; accept them as-is.
            if stored_sum is not None and stored_sum != entry_checksum(entry):
                return self._evict_corrupt(path)
            try:
                return decode_value(entry)
            except (ConfigurationError, KeyError, TypeError):
                return self._evict_corrupt(path)

    def _disk_put(self, key: str, value: Any) -> None:
        if self.disk_dir is None:
            return
        try:
            entry = encode_value(value)
        except ConfigurationError:
            return  # unserializable (e.g. ad-hoc device): memory-only
        entry["sha256"] = entry_checksum(entry)
        path = self._entry_path(key)
        # Writers in other processes may share this directory, so the
        # temp name must be unique per process *and* per write, and a
        # failed write (full disk, a concurrent purge removing the
        # directory, permissions) must degrade to memory-only — a cache
        # write failure never kills a sweep.
        tmp = path.parent / f"{path.stem}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        with _tracer.span("cache.disk_put"):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(json.dumps(entry, sort_keys=True))
                tmp.replace(path)
            except OSError:
                _metrics.counter("cache.disk_errors").inc()
                try:
                    tmp.unlink()
                except OSError:
                    pass
                return
        if _faults.fired("cache.corrupt") is not None:
            # Model bit rot / a torn write: truncate the entry we just
            # committed so the next read sees a corrupt file.
            try:
                text = path.read_text()
                path.write_text(text[: max(1, len(text) // 2)])
            except OSError:
                pass

    # -- public API ----------------------------------------------------------
    def get(self, key: str) -> Any:
        """Look a key up; returns None on a miss (use
        :meth:`contains` or :meth:`get_or_compute` when cached None
        matters — this cache never stores None)."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            _metrics.counter("cache.hits").inc()
            return self._memory[key]
        value = self._disk_get(key)
        if value is not _MISS:
            self.stats.disk_hits += 1
            _metrics.counter("cache.disk_hits").inc()
            self._remember(key, value)
            return value
        self.stats.misses += 1
        _metrics.counter("cache.misses").inc()
        return None

    def contains(self, key: str) -> bool:
        """Whether a key is present (does not touch the counters)."""
        return key in self._memory or self._disk_get(key) is not _MISS

    def put(self, key: str, value: Any) -> None:
        """Store a value in both layers."""
        if value is None:
            raise ConfigurationError("cannot cache None")
        self._remember(key, value)
        self._disk_put(key, value)
        self.stats.stores += 1
        _metrics.counter("cache.stores").inc()

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing on a miss."""
        value = self.get(key)
        if value is not None:
            return value
        value = compute()
        self.put(key, value)
        return value

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop both layers (current model version only on disk)."""
        self._memory.clear()
        if self.disk_dir is not None and self._version_dir().exists():
            shutil.rmtree(self._version_dir())

    def purge_stale(self) -> int:
        """Delete disk entries of other model versions.

        Returns:
            Number of stale version directories removed.
        """
        if self.disk_dir is None or not self.disk_dir.exists():
            return 0
        current = self._version_dir().name
        removed = 0
        for child in self.disk_dir.iterdir():
            if child.is_dir() and child.name.startswith("v") \
                    and child.name != current:
                shutil.rmtree(child)
                removed += 1
        return removed

    def __len__(self) -> int:
        return len(self._memory)
