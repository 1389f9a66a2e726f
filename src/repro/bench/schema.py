"""The ``BENCH_<suite>.json`` report schema.

A benchmark report is the machine-readable record of one suite run.
Version ``1`` of the schema is a single JSON object:

.. code-block:: json

    {
      "schema_version": "1",
      "suite": "scheduler",
      "created_unix": 1754000000.0,
      "machine": {
        "hostname": "runner-1",
        "platform": "Linux-6.8-x86_64",
        "python": "3.12.3",
        "numpy": "1.26.4",
        "cpu_count": 8
      },
      "seed": 0,
      "model_version": "1",
      "results": [
        {
          "name": "schedule_lpt_400",
          "repeats": 3,
          "wall_time_s": 0.0121,
          "wall_times_s": [0.0125, 0.0121, 0.0123],
          "metrics": {"tasks": 400, "policy": "lpt"}
        }
      ]
    }

``wall_time_s`` is the **minimum** over the repeats — the standard
"best observed" estimator, least contaminated by scheduler noise — and
the quantity the regression comparison uses.  ``metrics`` merges the
case's own outputs with the ``repro.obs`` counters/gauges recorded
around the timed run.  The ``machine``/``seed``/``model_version``
stamps make reports self-describing: a comparison across different
machines or model versions is reported as advisory rather than a hard
regression verdict.

:func:`validate_report` is the single source of truth for schema
validity; the runner validates before writing and after loading, and
CI fails if a produced artifact does not validate.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import BenchmarkError
from repro.guard.schemas import validate_json

#: Current report schema version (bump on incompatible layout changes).
SCHEMA_VERSION = "1"

#: Structural schema (see :mod:`repro.guard.schemas`).  Cross-field
#: semantics — duplicate names, the repeats/wall_times_s length match,
#: non-negative times and the min-over-repeats headline — stay in
#: :func:`validate_report`, where they have the context to report both
#: sides of the violated relation.
_REPORT_SCHEMA = {
    "fields": {
        "schema_version": {"const": SCHEMA_VERSION},
        "suite": {"type": str, "non_empty": True},
        "created_unix": (int, float),
        "machine": {
            "fields": {
                "hostname": str,
                "platform": str,
                "python": str,
                "numpy": str,
                "cpu_count": int,
            },
            "extra": "allow",
        },
        "seed": int,
        "model_version": str,
        "results": {
            "items": {
                "fields": {
                    "name": {"type": str, "non_empty": True},
                    "repeats": int,
                    "wall_time_s": (int, float),
                    "wall_times_s": list,
                    # None = "not measurable this run" (e.g. latency
                    # percentiles of a burst with zero responses).
                    "metrics": {"values": (int, float, str, type(None))},
                },
                "extra": "allow",
            },
            "min_len": 1,
        },
    },
    "extra": "allow",
}


def _fail(message: str) -> None:
    raise BenchmarkError(f"invalid BENCH report: {message}")


def validate_report(doc: Any) -> Dict[str, Any]:
    """Validate a parsed ``BENCH_*.json`` document against the schema.

    Args:
        doc: The parsed JSON value.

    Returns:
        The document, unchanged, for call chaining.

    Raises:
        BenchmarkError: describing the first violation found.
        Structural violations raise
        :class:`~repro.errors.SchemaValidationError` (a
        :class:`BenchmarkError` subclass) naming the exact JSON path.
    """
    validate_json(doc, _REPORT_SCHEMA)
    seen = set()
    for index, result in enumerate(doc["results"]):
        name = result["name"]
        if name in seen:
            _fail(f"duplicate result name {name!r}")
        seen.add(name)
        times = result["wall_times_s"]
        if len(times) != result["repeats"]:
            _fail(
                f"results[{index}]: {len(times)} wall_times_s for "
                f"{result['repeats']} repeats"
            )
        if not all(
            isinstance(t, (int, float)) and not isinstance(t, bool)
            and t >= 0.0
            for t in times
        ):
            _fail(f"results[{index}].wall_times_s must be non-negative "
                  f"numbers")
        if times and abs(result["wall_time_s"] - min(times)) > 1e-12:
            _fail(
                f"results[{index}].wall_time_s is not the minimum of "
                f"wall_times_s"
            )
    return doc
