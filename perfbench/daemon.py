"""Launch ``heterosvd serve`` for the benchmark, optionally traced.

Usage::

    python perfbench/daemon.py --out FILE [--trace] [--cpu N] -- serve --port 0 [...]

Everything after ``--`` goes to :func:`repro.cli.main` unchanged.  With
``--trace`` the serve-workload layers of :mod:`tracing` are wrapped
before the daemon starts; with ``--cpu`` the process is pinned to that
CPU.  While it serves, a thread samples the calibration kernel (see
:mod:`calib`) on the daemon's CPU.  On exit the daemon's CPU time (from
just before serving), its peak RSS, those samples and its spans (none
untraced) are written to ``FILE`` as
``{"cpu_s", "peak_rss_mb", "refs", "spans", ...}``.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.apply_hygiene()
common.add_source_path()

#: Seconds between calibration samples (each holds the interpreter
#: lock for a few ms).
CALIBRATE_EVERY_S = 0.5


def main(argv):
    split = argv.index("--")
    own, argv = argv[:split], argv[split + 1:]
    out_path = own[own.index("--out") + 1]
    if "--cpu" in own:
        os.sched_setaffinity(0, {int(own[own.index("--cpu") + 1])})

    import repro.cli
    import repro.serve.server  # noqa: F401  (load every module to patch)

    import calib
    import tracing

    recorder = tracing.SpanRecorder()
    if "--trace" in own:
        tracing.install(recorder, tracing.WORKLOAD_LAYERS["serve"])
    sampler = calib.Sampler(CALIBRATE_EVERY_S).start()
    cpu_start = time.process_time()
    try:
        return repro.cli.main(argv)
    finally:
        cpu_s = time.process_time() - cpu_start
        tracing.dump(recorder.spans, out_path, cpu_s=cpu_s,
                     peak_rss_mb=common.peak_rss_mb(), refs=sampler.stop())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
