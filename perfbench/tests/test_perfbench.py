"""Tests of the benchmark harness itself (run: python -m pytest perfbench/tests)."""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

import calib
import common
import serve_load
import tracing
import workloads


def test_one_seed_gives_one_op_list_and_schedule():
    for make in (workloads.solve_ops, workloads.accel_ops, workloads.dse_ops):
        assert make(7, 3) == make(7, 3)
        assert make(7, 3) != make(8, 3)
    first = serve_load.build_schedule(7, 300, 20.0)
    assert first == serve_load.build_schedule(7, 300, 20.0)
    assert first != serve_load.build_schedule(8, 300, 20.0)


def test_rounds_are_balanced_whatever_the_seed():
    for seed in (1, 2, 3):
        ops = workloads.solve_ops(seed, 10)
        combos = [op.params[:2] for op in ops]
        assert all(combos.count(c) == 10 for c in set(combos))
        conditioned = [op.params[:2] for op in ops if op.params[2]]
        assert all(conditioned.count(c) == 3 for c in set(combos))
        assert all(sum(op.params[2] for op in ops[r * 10:(r + 1) * 10]) == 3
                   for r in range(10))
    schedule = serve_load.build_schedule(3, 240, 20.0)
    assert schedule[-1].due == pytest.approx(240 / 20.0)
    kinds = [(tuple(s.doc["shape"]), s.doc["tenant"]) for s in schedule]
    assert all(kinds.count(k) == 20 for k in set(kinds))


def test_percentile_refuses_a_thin_tail():
    values = list(range(1, 101))
    assert common.percentile(values, 90) == 90
    assert common.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        common.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        common.percentile(list(range(999)), 99)
    assert common.percentile(list(range(1000)), 99) == 989


def test_metric_names_are_well_formed():
    names = [n for n, _ in workloads.END_TO_END + workloads.PER_LAYER]
    names += list(tracing.LAYERS) + list(tracing.COUNTERS)
    assert len(set(n for n, _ in workloads.PER_LAYER)) == len(
        workloads.PER_LAYER)
    assert all(common.METRIC_NAME.match(n) for n in names), names
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(common.METRIC_NAME.match(n) for n in declared)
    assert [m["name"] for m in spec["end_to_end"]] == [
        n for n, _ in workloads.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [
        n for n, _ in workloads.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_calibration_scales_each_op_by_the_kernel_times_around_it():
    nominal = calib.NOMINAL_S
    # The machine runs at half speed for the last five ops.
    refs = [nominal] * 5 + [2 * nominal] * 5
    times = [1.0] * 5 + [2.0] * 5
    assert calib.calibrate(times, refs) == [pytest.approx(1.0)] * 10
    samples = [(10.0, nominal), (20.0, 2 * nominal)]
    assert calib.calibrate_at([1.0, 2.0, 3.0], [10.2, 19.5, 15.0],
                              samples) == pytest.approx([1.0, 1.0, 2.0])


def test_class_medians_keep_the_mix_and_drop_per_op_noise():
    classes = ["a", "b", "a", "b", "a"]
    latencies = [1.0, 10.0, 3.0, 12.0, 2.0]
    assert workloads.class_medians(classes, latencies) == [
        2.0, 11.0, 2.0, 11.0, 2.0]


def test_clean_env_scrubs_program_settings_and_pins_blas():
    env = common.clean_env({"HETEROSVD_JOBS": "4",
                            "HETEROSVD_SERVE_ADDR": "h:1",
                            "OPENBLAS_NUM_THREADS": "8", "PATH": "/bin"})
    assert not any(k.startswith("HETEROSVD_") for k in env)
    assert env["PATH"] == "/bin"
    assert all(env[k] == common.BLAS_THREADS for k in common.BLAS_VARS)
    assert env["PYTHONHASHSEED"] == "0"


class _FakeServer:
    """NDJSON server in a thread that answers each request at once,
    except that it stops reading for ``stall_s`` after request ``r0``."""

    def __init__(self, stall_s: float):
        self.stall_s = stall_s
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever)

    async def _handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            doc = json.loads(line)
            if doc["id"] == "r0":
                await asyncio.sleep(self.stall_s)
            writer.write((json.dumps({
                "id": doc["id"], "ok": True, "sigma": [1.0],
                "queue_s": 0.0, "service_s": 0.0,
            }) + "\n").encode())
            await writer.drain()
        writer.close()

    def __enter__(self):
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._handle, "127.0.0.1", 0),
            self.loop).result(5)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    def __exit__(self, *exc):
        async def close():
            self.server.close()
            await self.server.wait_closed()
        asyncio.run_coroutine_threadsafe(close(), self.loop).result(5)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        assert not self.thread.is_alive()
        self.loop.close()


def test_open_loop_latency_counts_a_server_stall_from_the_due_time():
    schedule = serve_load.build_schedule(5, 20, 40.0)
    with _FakeServer(stall_s=0.3) as fake:
        outcomes = serve_load.drive("127.0.0.1", fake.port, schedule)
    lane0 = outcomes[0::serve_load.CONNECTIONS]
    stall_end = lane0[0].scheduled.due + 0.3
    for outcome in lane0:
        assert outcome.latency == pytest.approx(
            outcome.answered_at - outcome.scheduled.due)
        if outcome.scheduled.due < stall_end:
            # Queued behind the stall: latency counts it from the due
            # time, not from when the request happened to be sent.
            assert outcome.latency >= stall_end - outcome.scheduled.due - 0.02
    # The stall was the server's, so the generator stayed on time.
    assert max(o.late for o in outcomes) < 0.05
    assert all(o.ok for o in outcomes)


def test_a_stalled_generator_shows_up_as_lateness():
    schedule = serve_load.build_schedule(6, 20, 40.0)
    stall_s = 0.25

    async def stalled_drive():
        loop = asyncio.get_running_loop()
        # Block the generator's own loop just after the run starts.
        loop.call_later(0.06, time.sleep, stall_s)
        outcomes = [serve_load.Outcome(s) for s in schedule]
        await serve_load._drive("127.0.0.1", fake.port, outcomes, 10.0)
        return outcomes

    with _FakeServer(stall_s=0.0) as fake:
        outcomes = asyncio.run(stalled_drive())
    late = [o.late for o in outcomes]
    assert max(late) >= stall_s - 0.1
    # Latency runs from the due time, so the lateness is inside it.
    assert all(o.latency >= o.late for o in outcomes)


def test_saturate_keeps_a_fixed_window_outstanding():
    with _FakeServer(stall_s=0.0) as fake:
        outcomes = serve_load.saturate("127.0.0.1", fake.port, 3, 0.3)
    ids = [o.scheduled.doc["id"] for o in outcomes]
    assert len(set(ids)) == len(ids) > 2 * serve_load.WINDOW
    assert all(o.ok and o.latency >= 0 and o.late == 0 for o in outcomes)
    # No more than WINDOW requests per connection are ever in flight.
    events = sorted([(o.sent_at, 1) for o in outcomes]
                    + [(o.answered_at, -1) for o in outcomes])
    in_flight = [sum(d for _, d in events[:k + 1])
                 for k in range(len(events))]
    assert max(in_flight) == serve_load.WINDOW * serve_load.CONNECTIONS
    # Request rN is the seeded schedule's N-th (cycling through it).
    schedule = serve_load.build_schedule(3, serve_load.SATURATE_REQUESTS,
                                         20.0)
    for o in outcomes:
        n = int(o.scheduled.doc["id"][1:])
        assert o.scheduled.doc == dict(schedule[n % len(schedule)].doc,
                                       id=f"r{n}")


def _small_solve():
    import repro
    from repro.workloads.matrices import random_matrix

    start = time.perf_counter()
    for seed, n in ((1, 16), (2, 24), (3, 32)):
        repro.svd(random_matrix(n, n, seed=seed), method="block")
        repro.svd(random_matrix(n, n, seed=seed), method="hestenes")
    return time.perf_counter() - start


def test_traced_self_times_are_non_negative_and_reconcile():
    import repro

    svd_module = sys.modules["repro.linalg.svd"]
    original = svd_module.svd
    recorder = tracing.SpanRecorder()
    installed = tracing.install(recorder,
                                tracing.WORKLOAD_LAYERS["solve"])
    try:
        assert repro.svd is not original
        busy = _small_solve()
    finally:
        installed.uninstall()
    assert repro.svd is original and svd_module.svd is original
    summary = tracing.summarize(recorder.spans)
    top = summary.pop("_top")["self_s"]
    assert set(summary) == set(tracing.WORKLOAD_LAYERS["solve"])
    assert all(row["self_s"] >= -1e-9 for row in summary.values())
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(
        top, rel=1e-9)
    residual = busy - top
    assert 0 <= residual < 0.05 * busy


def test_span_dump_round_trips(tmp_path):
    recorder = tracing.SpanRecorder()
    installed = tracing.install(recorder, ("linalg.driver", "linalg.round"))
    try:
        _small_solve()
    finally:
        installed.uninstall()
    path = str(tmp_path / "spans.json")
    tracing.dump(recorder.spans, path, cpu_s=1.5)
    spans, doc = tracing.load(path)
    assert doc["cpu_s"] == 1.5
    before = tracing.summarize(recorder.spans)
    after = tracing.summarize(spans)
    assert {k: v["calls"] for k, v in before.items()} == {
        k: v["calls"] for k, v in after.items()}
    for key in before:
        assert after[key]["self_s"] == pytest.approx(
            before[key]["self_s"], abs=1e-5)


def test_exact_counts_repeat_across_runs():
    loop = workloads.Accel(3)
    loop.max_rounds = 1
    loop.setup()
    first = workloads.run_pass(loop, range(6), workloads.Result())[1]
    recorder = tracing.SpanRecorder()
    installed = tracing.install(recorder, tracing.WORKLOAD_LAYERS["accel"])
    try:
        second = workloads.run_pass(loop, range(6), workloads.Result(),
                                    recorder)[1]
    finally:
        installed.uninstall()
    assert first == second
    assert first["core.accelerator.iterations"] > 0
    calls = tracing.summarize(recorder.spans)["linalg.scalar_rotation"]
    again = tracing.SpanRecorder()
    installed = tracing.install(again, ("linalg.scalar_rotation",))
    try:
        workloads.run_pass(loop, range(6), workloads.Result(), again)
    finally:
        installed.uninstall()
    assert tracing.summarize(again.spans)["linalg.scalar_rotation"][
        "calls"] == calls["calls"]


@pytest.fixture
def short_trace(monkeypatch):
    monkeypatch.setitem(workloads.TRACE_OPS, "solve", 2)
    monkeypatch.setitem(workloads.TRACE_OPS, "accel", 1)
    monkeypatch.setitem(workloads.TRACE_OPS, "dse", 2)


@pytest.mark.parametrize("name, calls", [
    ("solve", "linalg.round.calls"),
    ("accel", "linalg.scalar_rotation.calls"),
    ("dse", "sim.events"),
])
def test_traced_run_checks_call_counts_repeat(short_trace, name, calls):
    loop = workloads.CLOSED[name](5)
    loop.max_rounds = 1
    loop.setup()
    result = workloads.Result()
    workloads.run_traced(name, loop, result)
    assert result.correct, result.problems
    assert result.metrics[calls] > 0
    assert all(result.metrics[n] >= 0 for n, _ in workloads.PER_LAYER
               if n != "trace.overhead_ratio")


def test_traced_run_fails_when_call_counts_differ(short_trace, monkeypatch):
    loop = workloads.Solve(5)
    loop.max_rounds = 1
    loop.setup()
    seen = iter(({"linalg.round.calls": 7}, {"linalg.round.calls": 8}))
    monkeypatch.setattr(workloads, "call_counts", lambda _: next(seen))
    result = workloads.Result()
    workloads.run_traced("solve", loop, result)
    assert not result.correct
    assert "linalg.round.calls" in result.problems[0]


def test_all_runs_each_workload_alone_in_a_fresh_process(monkeypatch):
    import run

    commands = []

    def fake_run(cmd):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 1 if "serve" in cmd else 0)

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    argv = ["--seed", "4", "--seconds", "3", "--trace", "1"]
    assert run.main(["--workload", "all"] + argv) == 1
    # Each child gets exactly the command line of that workload run
    # alone, so it reports the same metrics under the same conditions.
    assert [c[2:] for c in commands] == [
        ["--workload", name, "--seed", "4", "--seconds", "3.0",
         "--trace", "1"] for name in common.WORKLOADS]
    assert all(c[0] == sys.executable and c[1] == os.path.abspath(run.__file__)
               for c in commands)


def test_wrong_output_fails_the_check():
    loop = workloads.Solve(1)
    loop.max_rounds = 1
    loop.setup()
    loop.references[0] = loop.references[0] * (1 + 1e-6)
    result = workloads.Result()
    workloads.run_pass(loop, range(1), result)
    assert result.failed == 1 and not result.correct


def test_without_program_source_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=common.clean_env(),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
