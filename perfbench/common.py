"""Shared helpers of the repository benchmark.

Percentiles that refuse an unsupported tail, run hygiene (environment
scrubbing and BLAS pinning, identical for the benchmark process and the
serve daemon), the machine stamp, and the one-line JSON result.

This module imports nothing heavy: :func:`apply_hygiene` must run
before NumPy is first imported, because OpenBLAS reads its thread
count when the library loads.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch output (span dumps, daemon metrics) inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: BLAS threads pinned on both sides of the serve socket: a 2-core
#: machine running an OpenBLAS pool per process would make the daemon
#: and the load generator fight over cores.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The workloads, in the order ``--workload all`` runs them.
WORKLOADS = ("solve", "accel", "serve", "dse")

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: A percentile is reported only with at least this many samples
#: beyond it; otherwise the tail is one or two outliers.
MIN_BEYOND = 10


def clean_env(base: Dict[str, str] = None) -> Dict[str, str]:
    """``base`` (default ``os.environ``) without any ``HETEROSVD_*``
    setting (worker counts, a serve address, the native-tier switch),
    with every BLAS thread variable pinned, and with a fixed string
    hash seed, so that the interpreters it starts (the serve daemon,
    start-up timing) lay out their dicts and sets the same way in
    every run."""
    env = dict(os.environ if base is None else base)
    for key in [k for k in env if k.startswith("HETEROSVD_")]:
        del env[key]
    for key in BLAS_VARS:
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def apply_hygiene() -> None:
    """Scrub this process's environment (call before importing NumPy)."""
    env = clean_env()
    os.environ.clear()
    os.environ.update(env)


def source_present() -> bool:
    """Whether the program under test is in this checkout."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def add_source_path() -> None:
    """Make ``repro`` (and this package's modules) importable."""
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises:
        ValueError: when fewer than :data:`MIN_BEYOND` samples lie
            beyond the requested rank (p90 needs 100 samples, p99
            needs 1000).
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need "
            f">= {MIN_BEYOND} (>= {math.ceil(MIN_BEYOND * 100 / (100 - q))} "
            f"samples)"
        )
    return sorted(values)[rank - 1]


def median(values: Iterable[float]) -> float:
    """Plain median (for small repeat counts such as set-up passes)."""
    return float(statistics.median(list(values)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stamp() -> Dict[str, object]:
    """Machine facts every result is read against."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: List[Tuple[str, float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    out = {}
    for name, value, unit in metrics:
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in out:
            raise ValueError(f"metric {name!r} reported twice")
        out[name] = {"value": float(value), "unit": unit}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": out,
    }), flush=True)
