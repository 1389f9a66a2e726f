#!/usr/bin/env python
"""Chaos soak for the sharded DSE sweep (CI ``dse-chaos`` job).

Mirrors what ``make dse-chaos`` and ``.github/workflows/ci.yml`` run —
three scenarios against real ``heterosvd dse --shards`` worker
subprocesses, each ending in a merged-frontier parity check against an
in-process serial sweep of the same widened space:

1. **Quarantine + steal** (committed plan): a 2-shard sweep where
   shard 0 runs under ``examples/fault_plans/dse_chaos.json`` — a torn
   checkpoint flush followed by an injected crash.  The survivor must
   quarantine the torn ledger (``*.corrupt-1`` on disk), wait out the
   lease, claim it, and re-sweep the dead shard's units; asserted via
   the survivor's ``--metrics`` counters (``checkpoint.corrupt_files``,
   ``dse.shards_quarantined``, ``dse.lease_steals``, ``lease.claims``,
   ``lease.expirations``).
2. **SIGKILL + steal**: a 3-shard sweep; shard 0 is slowed by an
   injected per-chunk stall and SIGKILLed the moment its first ledger
   flush lands (mid-chunk by construction).  Survivors must reclaim the
   expired lease and steal the remainder; ``dse-merge`` must exit 0
   with zero duplicate-key divergences.
3. **SIGKILL + resume** (stealing disabled): same kill, but survivors
   only finish their own shards.  ``dse-merge`` must exit 1 and count
   the missing units; rerunning the killed shard with ``--resume`` must
   pick up from its surviving ledger (>=1 unit resumed, bounded
   recompute), after which the merge exits 0.  Like an operator, the
   drill first waits for the killed worker's lease to go stale: a
   shard refuses to start while its lease is still live.

Worker and merge stderr is captured; a failed step prints its tail.

Exits non-zero with a diagnostic on the first failed assertion.  Run
from the repo root; needs only ``PYTHONPATH=src``.
"""

import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

COMMITTED_PLAN = os.path.join("examples", "fault_plans", "dse_chaos.json")
SIZE = 32
SHARD_SEED = 0
LEASE_TTL = 2.0
WAIT_TIMEOUT_S = 120.0
KILL_WINDOW_S = 60.0
STDERR_TAIL_LINES = 20
SUMMARY_RE = re.compile(
    r"shard (\d+)/(\d+): (\d+) evaluated "
    r"\((\d+) resumed, (\d+) stolen in (\d+) steals\)"
)


def fail(message, stderr=""):
    print(f"dse-chaos: FAIL: {message}", file=sys.stderr)
    tail = stderr.splitlines()[-STDERR_TAIL_LINES:]
    if tail:
        print("dse-chaos: last lines of the step's stderr:", file=sys.stderr)
        for line in tail:
            print(f"    {line}", file=sys.stderr)
    raise SystemExit(1)


def check(condition, message, stderr=""):
    if not condition:
        fail(message, stderr)
    print(f"dse-chaos: ok: {message}")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def shard_command(workdir, shard, shards, metrics, *extra):
    return [
        sys.executable, "-m", "repro.cli", "dse",
        "--size", str(SIZE),
        "--shards", str(shards),
        "--shard-id", str(shard),
        "--workdir", workdir,
        "--lease-ttl", str(LEASE_TTL),
        "--shard-seed", str(SHARD_SEED),
        "--metrics", metrics,
        *extra,
    ]


def spawn(command):
    print("dse-chaos: run:", " ".join(command), flush=True)
    return subprocess.Popen(
        command, env=cli_env(), cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def run_merge(workdir, metrics, *extra):
    command = [
        sys.executable, "-m", "repro.cli", "dse-merge",
        "--workdir", workdir, "--metrics", metrics, *extra,
    ]
    print("dse-chaos: run:", " ".join(command), flush=True)
    return subprocess.run(
        command, env=cli_env(), cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def wait_shard(process, what):
    """Wait for a worker; returns ``(returncode, stdout, stderr)``."""
    try:
        stdout, stderr = process.communicate(timeout=WAIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        _, stderr = process.communicate()
        fail(f"{what} did not finish within {WAIT_TIMEOUT_S:.0f}s", stderr)
    return process.returncode, stdout or "", stderr or ""


def wait_lease_stale(workdir, shard):
    """Block until a killed worker's lease is observed expired.

    A shard refuses to start (``CheckpointError``) while its lease is
    still live, so ``--resume`` right after a SIGKILL races the lease
    TTL.  Polls through :class:`~repro.resilience.lease.LeaseMonitor`,
    the same liveness test sibling shards use before stealing.
    """
    from repro.dse.sharded import shard_lease_path
    from repro.resilience.lease import LeaseMonitor

    lease_path = shard_lease_path(os.path.join(REPO_ROOT, workdir), shard)
    monitor = LeaseMonitor()
    started = time.monotonic()
    while not monitor.expired(lease_path):
        if time.monotonic() - started > WAIT_TIMEOUT_S:
            fail(f"lease {lease_path} still live after "
                 f"{WAIT_TIMEOUT_S:.0f}s")
        time.sleep(LEASE_TTL / 10)
    print(f"dse-chaos: lease {lease_path} stale after "
          f"{time.monotonic() - started:.2f}s")


def counters_of(path):
    with open(path) as handle:
        return json.load(handle)["counters"]


def write_stall_plan(path):
    """A plan that stalls every chunk after the first flush.

    Chunk 0 runs at full speed so the shard's ledger (and first
    heartbeat) land immediately; every later chunk sleeps, holding the
    worker mid-sweep long enough to SIGKILL it deterministically.
    """
    plan = {
        "seed": 0,
        "faults": [
            {"site": "dse.shard_stall",
             "at": list(range(1, 200)), "param": 0.4},
        ],
    }
    with open(path, "w") as handle:
        json.dump(plan, handle)
    return path


def kill_after_first_flush(process, ledger):
    """SIGKILL the worker as soon as its ledger file appears."""
    deadline = time.monotonic() + KILL_WINDOW_S
    while time.monotonic() < deadline:
        if os.path.exists(ledger):
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=WAIT_TIMEOUT_S)
            print(f"dse-chaos: SIGKILLed pid {process.pid} "
                  f"after {ledger} appeared")
            return
        if process.poll() is not None:
            _, stderr = process.communicate()
            fail(f"worker exited ({process.returncode}) before the "
                 f"kill window; nothing to reclaim", stderr)
        time.sleep(0.02)
    process.kill()
    fail("worker never flushed a ledger to kill over")


def serial_frontier_bytes():
    """The serial reference frontier over the same widened space."""
    from repro.analysis.pareto import pareto_front
    from repro.dse import DesignSpace
    from repro.io import design_point_to_dict

    space = DesignSpace(SIZE, SIZE)
    front = pareto_front(space.explore_serial())
    return json.dumps(
        [design_point_to_dict(p) for p in front], sort_keys=True
    )


def assert_parity(workdir, reference, what):
    from repro.analysis.pareto import merge_shards
    from repro.io import design_point_to_dict

    merge = merge_shards(workdir)
    merged = json.dumps(
        [design_point_to_dict(p) for p in merge.frontier], sort_keys=True
    )
    check(merged == reference,
          f"{what}: merged frontier byte-identical to the serial sweep "
          f"({len(merge.frontier)} points, "
          f"{merge.merged_units}/{merge.total_units} units)")
    return merge


def scenario_quarantine_steal(base, reference):
    """Committed fault plan: torn ledger + crash on shard 0 of 2."""
    print("dse-chaos: --- scenario 1: quarantine + steal "
          f"(fault plan {COMMITTED_PLAN}) ---")
    workdir = os.path.join(base, "quarantine")
    m0 = os.path.join(base, "quarantine-m0.json")
    m1 = os.path.join(base, "quarantine-m1.json")
    victim = spawn(shard_command(workdir, 0, 2, m0,
                                 "--fault-plan", COMMITTED_PLAN))
    survivor = spawn(shard_command(workdir, 1, 2, m1))
    victim_rc, _, victim_err = wait_shard(victim, "faulted shard 0")
    survivor_rc, survivor_out, survivor_err = wait_shard(
        survivor, "surviving shard 1")

    check(victim_rc != 0,
          f"faulted shard 0 died from the injected crash "
          f"(exit {victim_rc})", victim_err)
    check(survivor_rc == 0, "surviving shard 1 exited 0", survivor_err)
    check(counters_of(m0).get("resilience.faults_injected", 0) >= 2,
          "shard 0 took the torn write and the crash")
    corrupt = glob.glob(os.path.join(
        REPO_ROOT, workdir, "shard-0.json.corrupt-*"))
    check(len(corrupt) == 1,
          f"torn ledger quarantined on disk "
          f"({os.path.basename(corrupt[0]) if corrupt else 'missing'})")
    counters = counters_of(m1)
    for name in ("checkpoint.corrupt_files", "dse.shards_quarantined",
                 "dse.lease_steals", "lease.claims", "lease.expirations"):
        check(counters.get(name, 0) >= 1,
              f"survivor counted {name}={counters.get(name, 0)}")
    match = SUMMARY_RE.search(survivor_out)
    check(match is not None and int(match.group(5)) >= 1,
          f"survivor re-swept the dead shard's units "
          f"({match.group(5) if match else '?'} stolen)", survivor_err)

    mm = os.path.join(base, "quarantine-merge.json")
    merge = run_merge(workdir, mm)
    check(merge.returncode == 0, "dse-merge exited 0 after the steal",
          merge.stderr)
    check(counters_of(mm).get("dse.merge_divergences", 0) == 0,
          "zero duplicate-key divergences at merge")
    assert_parity(workdir, reference, "quarantine + steal")


def scenario_kill_steal(base, reference):
    """SIGKILL shard 0 of 3 mid-chunk; survivors steal the rest."""
    print("dse-chaos: --- scenario 2: SIGKILL + lease steal ---")
    workdir = os.path.join(base, "kill-steal")
    stall_plan = write_stall_plan(os.path.join(base, "stall.json"))
    metrics = [os.path.join(base, f"kill-steal-m{i}.json") for i in range(3)]
    victim = spawn(shard_command(workdir, 0, 3, metrics[0],
                                 "--fault-plan", stall_plan))
    kill_after_first_flush(
        victim, os.path.join(REPO_ROOT, workdir, "shard-0.json"))
    survivors = [spawn(shard_command(workdir, i, 3, metrics[i]))
                 for i in (1, 2)]
    stolen = 0
    for process, shard in zip(survivors, (1, 2)):
        rc, out, err = wait_shard(process, f"surviving shard {shard}")
        check(rc == 0, f"surviving shard {shard} exited 0", err)
        match = SUMMARY_RE.search(out)
        stolen += int(match.group(5)) if match else 0

    steals = sum(
        counters_of(m).get("dse.lease_steals", 0) for m in metrics[1:])
    expirations = sum(
        counters_of(m).get("lease.expirations", 0) for m in metrics[1:])
    check(expirations >= 1,
          f"killed shard's lease expired ({expirations} expirations)")
    check(steals >= 1 and stolen >= 1,
          f"survivors reclaimed the lease and stole work "
          f"({steals} steals, {stolen} units)")

    mm = os.path.join(base, "kill-steal-merge.json")
    merge = run_merge(workdir, mm)
    check(merge.returncode == 0, "dse-merge exited 0 after the kill",
          merge.stderr)
    counters = counters_of(mm)
    check(counters.get("dse.merge_missing_units", 0) == 0,
          "no units lost to the SIGKILL")
    check(counters.get("dse.merge_divergences", 0) == 0,
          "zero duplicate-key divergences at merge")
    assert_parity(workdir, reference, "SIGKILL + steal")


def scenario_kill_resume(base, reference):
    """SIGKILL with stealing off; --resume must finish the shard."""
    print("dse-chaos: --- scenario 3: SIGKILL + checkpoint resume ---")
    workdir = os.path.join(base, "kill-resume")
    stall_plan = write_stall_plan(os.path.join(base, "stall-resume.json"))
    metrics = [os.path.join(base, f"kill-resume-m{i}.json")
               for i in range(3)]
    victim = spawn(shard_command(workdir, 0, 3, metrics[0],
                                 "--no-steal", "--fault-plan", stall_plan))
    kill_after_first_flush(
        victim, os.path.join(REPO_ROOT, workdir, "shard-0.json"))
    for shard in (1, 2):
        process = spawn(shard_command(workdir, shard, 3, metrics[shard],
                                      "--no-steal"))
        rc, _, err = wait_shard(process, f"shard {shard}")
        check(rc == 0, f"shard {shard} exited 0 without stealing", err)

    mm_incomplete = os.path.join(base, "kill-resume-merge-1.json")
    merge = run_merge(workdir, mm_incomplete)
    check(merge.returncode == 1,
          "dse-merge exited 1 while the killed shard's units "
          "were missing", merge.stderr)
    missing = counters_of(mm_incomplete).get("dse.merge_missing_units", 0)
    check(missing >= 1, f"merge counted {missing} missing units")

    wait_lease_stale(workdir, 0)
    resumed = spawn(shard_command(workdir, 0, 3, metrics[0],
                                  "--no-steal", "--resume"))
    rc, out, err = wait_shard(resumed, "resumed shard 0")
    check(rc == 0, "resumed shard 0 exited 0", err)
    match = SUMMARY_RE.search(out)
    check(match is not None, f"resumed shard printed its summary ({out!r})",
          err)
    evaluated, skipped = int(match.group(3)), int(match.group(4))
    check(skipped >= 1,
          f"resume picked up the surviving ledger "
          f"({skipped} units skipped)")
    check(evaluated == missing,
          f"bounded recompute: re-evaluated exactly the {missing} "
          f"missing units (got {evaluated})")

    mm = os.path.join(base, "kill-resume-merge-2.json")
    merge = run_merge(workdir, mm)
    check(merge.returncode == 0, "dse-merge exited 0 after the resume",
          merge.stderr)
    check(counters_of(mm).get("dse.merge_divergences", 0) == 0,
          "zero duplicate-key divergences at merge")
    assert_parity(workdir, reference, "SIGKILL + resume")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the scratch directory (default: delete on exit)")
    args = parser.parse_args(argv)

    print(f"dse-chaos: serial reference sweep ({SIZE}x{SIZE} widened space)")
    reference = serial_frontier_bytes()
    base = tempfile.mkdtemp(prefix="dse-chaos-")
    try:
        scenario_quarantine_steal(base, reference)
        scenario_kill_steal(base, reference)
        scenario_kill_resume(base, reference)
    finally:
        if args.keep:
            print(f"dse-chaos: scratch kept at {base}")
        else:
            shutil.rmtree(base, ignore_errors=True)
    print("dse-chaos: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
