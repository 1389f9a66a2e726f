"""Benchmark and performance-regression harness (``repro bench``).

This package turns "is the code still fast?" into a checked artifact.
A run of ``heterosvd bench --suite <name>`` executes one declared suite
(:mod:`repro.bench.suites`), records per-case wall time plus the
``repro.obs`` counters that accumulated during the run, and writes a
schema-validated ``BENCH_<name>.json`` report
(:mod:`repro.bench.schema`) stamped with the machine, seed, and
performance-model version.  When a previous report exists it is loaded
as the baseline and the fresh run is compared case by case with a
configurable relative threshold (:mod:`repro.bench.runner`); a breach
exits non-zero so CI and ``make bench`` catch regressions.

See ``docs/performance.md`` for the full performance story and report
format walkthrough.
"""

from repro.bench.runner import (
    DEFAULT_THRESHOLD,
    BenchCase,
    BenchReport,
    CaseComparison,
    CaseResult,
    RegressionReport,
    compare_reports,
    load_report,
    machine_stamp,
    report_path,
    run_case,
    run_suite,
    write_report,
)
from repro.bench.schema import SCHEMA_VERSION, validate_report
from repro.bench.suites import (
    DEFAULT_SIZES,
    SUITES,
    build_suite,
    suite_names,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_SIZES",
    "SCHEMA_VERSION",
    "SUITES",
    "BenchCase",
    "BenchReport",
    "CaseComparison",
    "CaseResult",
    "RegressionReport",
    "build_suite",
    "compare_reports",
    "load_report",
    "machine_stamp",
    "report_path",
    "run_case",
    "run_suite",
    "suite_names",
    "validate_report",
    "write_report",
]
