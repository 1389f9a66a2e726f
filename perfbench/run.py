"""Repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

``--workload`` is one of solve, accel, serve, dse (``all`` runs each in
turn, each in a fresh process, exactly as if it were run alone).  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` a separate, traced run reports the per-layer metrics.
The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every checked output was correct.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def command(name: str, args: argparse.Namespace) -> list:
    """The command line that runs workload ``name`` alone."""
    return [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.source_present():
        print(f"perfbench: no program source at {common.SRC}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload: peak RSS, CPU pinning and warm
        # caches of one workload must not carry into the next.
        return max(subprocess.run(command(name, args)).returncode
                   for name in common.WORKLOADS)
    common.apply_hygiene()
    common.add_source_path()

    import workloads

    name = args.workload
    units = dict(workloads.PER_LAYER if args.trace else workloads.END_TO_END)
    machine = common.stamp()  # before serve pins this process to one CPU
    result = workloads.run(name, args.seed, args.seconds, bool(args.trace))
    print(f"# {name} seed={args.seed} trace={args.trace} stamp={machine}")
    for key, value in result.notes.items():
        print(f"#   {key}: {value}")
    for metric, value in result.metrics.items():
        print(f"{name}/{metric} {value:.6g} {units[metric]}")
    for problem in result.problems:
        print(f"# FAILED: {problem}", file=sys.stderr)
    common.emit(result.correct, result.attempted, result.failed,
                [(k, v, units[k]) for k, v in result.metrics.items()])
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
