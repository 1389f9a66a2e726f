#!/usr/bin/env python
"""Chaos soak for the serve daemon (CI ``chaos-serve`` job).

Mirrors what ``make chaos-serve`` and ``.github/workflows/ci.yml`` run:

1. Start ``heterosvd serve`` as a real subprocess with the committed
   ``examples/fault_plans/serve_chaos.json`` plan active (injected
   engine faults, a dispatcher crash, dropped/slowed responses, one
   swallowed admission), ``--retries 1`` and a ``--metrics`` export.
2. Drive the seeded load mix at it with a per-request timeout and
   assert the robustness invariants: every admitted request is
   answered exactly once (``answered + timeout == sent``, zero
   duplicate responses), zero stranded connections, a bounded error
   budget, and the strategy circuit breaker demonstrably tripped
   while the supervised dispatcher restarted.
3. Drain the daemon over the wire (the graceful-shutdown path) and
   assert it exits 0.
4. Run ``bench --suite chaos`` (in-process daemon + in-code plan) to
   produce a schema-valid ``BENCH_chaos.json`` artifact.

Exits non-zero with a diagnostic on the first failed assertion.  Run
from the repo root; needs only ``PYTHONPATH=src``.
"""

import argparse
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

FAULT_PLAN = os.path.join("examples", "fault_plans", "serve_chaos.json")
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 15.0
#: At most half the requests may fail (injected faults are a handful
#: of firings; anything beyond this bound means cascading failure).
ERROR_BUDGET = 0.5


def fail(message):
    print(f"chaos-soak: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(condition, message):
    if not condition:
        fail(message)
    print(f"chaos-soak: ok: {message}")


def cli(*args, env=None):
    command = [sys.executable, "-m", "repro.cli", *args]
    print("chaos-soak: run:", " ".join(command), flush=True)
    return subprocess.run(command, env=env, cwd=REPO_ROOT)


def daemon_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def start_daemon(metrics_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0",
         "--fault-plan", FAULT_PLAN,
         "--retries", "1",
         "--high-water", "4096",
         "--drain-deadline", "10",
         "--metrics", metrics_path],
        stdout=subprocess.PIPE,
        env=daemon_env(),
        cwd=REPO_ROOT,
        text=True,
    )
    deadline = time.monotonic() + READY_TIMEOUT_S
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("serving on "):
            break
        if process.poll() is not None:
            fail(f"daemon exited early with {process.returncode}")
    else:
        process.kill()
        fail("daemon never printed its ready line")
    address = line.split("serving on ", 1)[1].strip()
    print(f"chaos-soak: daemon up at {address} (pid {process.pid}) "
          f"under {FAULT_PLAN}")
    return process, address


def soak_phase(size):
    """Faulted daemon subprocess + invariant assertions + drain."""
    from repro.serve.client import ServeClient, parse_address
    from repro.serve.loadgen import run_load

    metrics_path = os.path.join(REPO_ROOT, "chaos_serve_metrics.json")
    process, address = start_daemon(metrics_path)
    stats = {}
    try:
        report = run_load(
            address=address, count=size, connections=4, seed=0,
            request_timeout_s=REQUEST_TIMEOUT_S,
        )
        with ServeClient(*parse_address(address)) as probe:
            stats = probe.stats()
    except BaseException:
        process.kill()
        raise

    # Exactly-one-response accounting: every request either came back
    # (once) or is a counted per-request timeout — nothing vanished,
    # nothing was answered twice, no connection was stranded (a
    # stranded connection surfaces as ServeConnectionError above).
    answered = (report.ok + report.rejected + report.deadline_expired
                + report.errors)
    check(answered + report.timeout == report.total,
          f"exactly-once accounting: {answered} answered + "
          f"{report.timeout} timed out == {report.total} sent")
    check(report.duplicates == 0,
          f"zero duplicate responses (got {report.duplicates})")
    failed = report.errors + report.timeout
    check(failed <= report.total * ERROR_BUDGET,
          f"error budget: {failed} failed <= "
          f"{int(report.total * ERROR_BUDGET)} "
          f"({int(ERROR_BUDGET * 100)}% of {report.total})")
    check(report.ok >= report.total // 4,
          f"{report.ok} requests still succeeded under chaos")
    check(report.timeout >= 1,
          "dropped responses surfaced as counted timeouts")

    # Resilience machinery demonstrably engaged (daemon-side counters).
    check(stats.get("serve.breaker_trips", 0) >= 1,
          f"circuit breaker tripped "
          f"({stats.get('serve.breaker_trips', 0)} trips)")
    check(stats.get("serve.dispatcher_restarts", 0) >= 1,
          f"supervised dispatcher restarted after the injected crash "
          f"({stats.get('serve.dispatcher_restarts', 0)} restarts)")
    check(stats.get("serve.requeued_batches", 0) >= 1,
          "transient engine failure was requeued before brownout")
    check(stats.get("serve.responses_dropped", 0) >= 1,
          "injected response drops were counted")
    check(stats.get("serve.requests_dropped", 0) >= 1,
          "injected admission drop was counted")
    check(stats.get("serve.slow_writes", 0) >= 1,
          "injected slow write was counted")

    # Graceful drain: admission closes, queued work finishes, exit 0.
    try:
        with ServeClient(*parse_address(address)) as client:
            client.drain()
    except Exception as error:
        process.kill()
        fail(f"drain op failed: {error}")
    try:
        process.wait(timeout=READY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        fail("daemon did not exit after drain")
    check(process.returncode == 0,
          f"daemon exited 0 after drain (got {process.returncode})")

    with open(metrics_path) as handle:
        counters = json.load(handle)["counters"]
    os.unlink(metrics_path)
    check(counters.get("resilience.faults_injected", 0) >= 5,
          f"fault plan fired "
          f"({counters.get('resilience.faults_injected', 0)} injections)")
    check(counters.get("serve.drains", 0) >= 1,
          "daemon counted the drain request")


def bench_phase(out_dir, size):
    """Produce and schema-check the BENCH_chaos.json artifact."""
    bench = cli("bench", "--suite", "chaos", "--size", str(size),
                "--out", out_dir, "--no-compare", env=daemon_env())
    check(bench.returncode == 0,
          f"bench --suite chaos --size {size} exited 0")
    report_path = os.path.join(out_dir, "BENCH_chaos.json")
    checked = cli("bench", "--check", report_path, env=daemon_env())
    check(checked.returncode == 0, f"{report_path} is schema-valid")

    with open(report_path) as handle:
        report = json.load(handle)
    metrics = None
    for result in report["results"]:
        if result["name"] == f"serve_chaos_{size}":
            metrics = result["metrics"]
    check(metrics is not None, f"report has the serve_chaos_{size} case")
    check(metrics.get("exactly_once") == 1,
          "bench case pinned exactly-once accounting")
    check(metrics.get("breaker_trips", 0) >= 1,
          "bench case recorded a breaker trip")
    return report_path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="where BENCH_chaos.json lands (default: .)")
    parser.add_argument("--size", type=int, default=160,
                        help="requests for the soak phase")
    parser.add_argument("--bench-size", type=int, default=48,
                        help="requests for the BENCH_chaos.json phase")
    parser.add_argument("--skip-bench", action="store_true",
                        help="skip the BENCH_chaos.json phase")
    args = parser.parse_args(argv)

    # The bench subprocess runs from the repo root: anchor a relative
    # --out to the caller's working directory before handing it over.
    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    soak_phase(args.size)
    report_path = None
    if not args.skip_bench:
        report_path = bench_phase(args.out, args.bench_size)
    print(f"chaos-soak: PASS ({report_path or 'soak only'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
