"""Chaos-hardening tests: serve fault sites, breaker, supervision, drain.

Every scenario drives a real daemon (:class:`repro.serve.ServerThread`)
with a seeded :class:`~repro.resilience.FaultPlan` active, so the
injected failure sequence — and therefore the recovery trajectory the
test pins — is deterministic.
"""

import socket
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServeConnectionError, ServeProtocolError
from repro.resilience import CircuitBreaker, FaultPlan, FaultSpec
from repro.resilience.faults import load_fault_plan, registered_sites
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import decode_line, encode
from repro.serve.server import SERVE_FAULT_SITES, SVDServer

REPO_ROOT = Path(__file__).resolve().parents[2]


def _wait_stats(probe, predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate(probe.stats()):
            return True
        time.sleep(0.01)
    return False


class TestFaultSites:
    def test_serve_sites_are_registered(self):
        valid = registered_sites()
        for site in SERVE_FAULT_SITES:
            assert site in valid

    def test_committed_serve_chaos_plan_loads(self):
        plan = load_fault_plan(
            REPO_ROOT / "examples" / "fault_plans" / "serve_chaos.json"
        )
        assert plan.seed == 11
        assert set(plan.specs) == set(SERVE_FAULT_SITES)

    def test_committed_chaos_smoke_plan_still_loads(self):
        plan = load_fault_plan(
            REPO_ROOT / "examples" / "fault_plans" / "chaos_smoke.json"
        )
        assert plan.specs


class TestEngineFault:
    def test_without_retries_answers_internal(self):
        plan = FaultPlan(faults=[FaultSpec(site="serve.engine_fault",
                                           at=(0,))])
        with ServerThread(ServeConfig(retries=0)) as handle:
            with plan.activate():
                with ServeClient(*handle.address) as client:
                    with pytest.raises(ServeProtocolError,
                                       match="injected engine fault"):
                        client.decompose(shape=[16, 16], seed=3)
                    # The daemon is still alive and serving.
                    response = client.decompose(shape=[16, 16], seed=3)
                    assert response["degraded"] is False
                    stats = client.stats()
        assert stats["serve.internal_errors"] == 1
        assert stats.get("serve.requeued_batches", 0) == 0

    def test_with_retries_requeues_once_and_stays_byte_identical(self):
        plan = FaultPlan(faults=[FaultSpec(site="serve.engine_fault",
                                           at=(0,))])
        with ServerThread(ServeConfig(retries=1)) as handle:
            with ServeClient(*handle.address) as client:
                baseline = client.decompose(shape=[16, 16], seed=3)
                with plan.activate():
                    retried = client.decompose(shape=[16, 16], seed=3)
                stats = client.stats()
        # The transient failure was absorbed by one requeue: same
        # engine tier, same bytes, no client-visible error.
        assert retried["degraded"] is False
        assert np.asarray(retried["sigma"]).tobytes() == np.asarray(
            baseline["sigma"]
        ).tobytes()
        assert stats["serve.requeued_batches"] == 1
        assert stats["serve.requeued_jobs"] == 1
        assert stats.get("serve.internal_errors", 0) == 0

    def test_second_failure_of_requeued_batch_is_final(self):
        # Requeue is one-shot: a batch that fails again is answered
        # internal, not spun forever.
        plan = FaultPlan(faults=[FaultSpec(site="serve.engine_fault",
                                           at=(0, 1))])
        with ServerThread(ServeConfig(retries=1)) as handle:
            with plan.activate():
                with ServeClient(*handle.address) as client:
                    with pytest.raises(ServeProtocolError,
                                       match="injected engine fault"):
                        client.decompose(shape=[16, 16], seed=3)
                    stats = client.stats()
        assert stats["serve.requeued_batches"] == 1
        assert stats["serve.internal_errors"] == 1


class TestCircuitBreaker:
    def test_tripped_vectorized_breaker_browns_out(self):
        server = SVDServer(ServeConfig(breaker_threshold=1))
        # No breaker yet: the engine runs the batch.
        assert server._admit_engine("vectorized") == (True, None)
        server._strategy_breaker("vectorized").record_failure()
        # Tripped: (False, None) sends the batch to the brownout tier.
        assert server._admit_engine("vectorized") == (False, None)

    def test_each_strategy_keeps_its_own_breaker(self):
        server = SVDServer(ServeConfig(breaker_threshold=1))
        server._strategy_breaker("vectorized").record_failure()
        assert server._admit_engine("vectorized") == (False, None)
        assert server._admit_engine("scalar") == (True, None)

    def test_trips_demotes_to_brownout_and_recovers_via_probe(self):
        # The whole trajectory — trip after `breaker_threshold`
        # failures, browned-out service while open, seeded half-open
        # probe, recovery — must replay exactly what a twin breaker
        # with the same (name, seed) predicts.
        config = ServeConfig(breaker_threshold=2, breaker_probe_after=2,
                             retries=0)
        plan = FaultPlan(faults=[FaultSpec(site="serve.engine_fault",
                                           at=(0, 1))])
        twin = CircuitBreaker("serve.engine.vectorized",
                              failure_threshold=2, probe_after=2)
        twin.record_failure()
        twin.record_failure()
        assert twin.state == "open"
        predicted_brownouts = 0
        while not twin.allow():
            predicted_brownouts += 1
        assert predicted_brownouts >= 1

        with ServerThread(config) as handle:
            with ServeClient(*handle.address) as client:
                with plan.activate():
                    for _ in range(2):
                        with pytest.raises(ServeProtocolError,
                                           match="injected engine fault"):
                            client.decompose(shape=[16, 16], seed=5,
                                             strategy="vectorized")
                # Plan exhausted/inactive: every further failure or
                # success is the breaker's own doing.
                trajectory = [
                    client.decompose(shape=[16, 16], seed=5,
                                     strategy="vectorized")["degraded"]
                    for _ in range(predicted_brownouts + 1)
                ]
                stats = client.stats()
        # Open breaker → brownout tier (degraded) for exactly the
        # predicted number of requests, then the half-open probe runs
        # the engine again and recovers it.
        assert trajectory == [True] * predicted_brownouts + [False]
        assert stats["serve.breaker_trips"] == 1
        assert stats["serve.breaker_browned_out"] == predicted_brownouts
        assert stats["serve.breaker_probes"] == 1
        assert stats["serve.breaker_recoveries"] == 1

    def test_failed_probe_reopens_then_second_probe_recovers(self):
        config = ServeConfig(breaker_threshold=1, breaker_probe_after=1,
                             retries=0)
        # Twin breaker (same name/seed/knobs) predicts the exact
        # brownout counts before each probe — the seeded schedule is a
        # pure function of (name, seed).
        twin = CircuitBreaker("serve.engine.vectorized",
                              failure_threshold=1, probe_after=1)
        twin.record_failure()  # trip
        before_first_probe = 0
        while not twin.allow():
            before_first_probe += 1
        twin.record_failure()  # the probe fails: reopened
        before_second_probe = 0
        while not twin.allow():
            before_second_probe += 1

        # Fail the first attempt and the first probe attempt; the
        # second probe (engine attempt #2) runs clean.
        plan = FaultPlan(faults=[FaultSpec(site="serve.engine_fault",
                                           at=(0, 1))])

        def ask(client):
            return client.decompose(shape=[16, 16], seed=5,
                                    strategy="vectorized")

        with ServerThread(config) as handle:
            with ServeClient(*handle.address) as client:
                with plan.activate():
                    with pytest.raises(ServeProtocolError,
                                       match="injected engine fault"):
                        ask(client)  # trips the breaker
                    first_wave = [
                        ask(client) for _ in range(before_first_probe)
                    ]
                    # The first probe; the second injected fault fails
                    # it, re-opening the breaker.
                    with pytest.raises(ServeProtocolError,
                                       match="injected engine fault"):
                        ask(client)
                    second_wave = [
                        ask(client) for _ in range(before_second_probe)
                    ]
                    # The second probe runs clean and recovers the tier.
                    recovered = ask(client)
                    stats = client.stats()
        assert all(r["degraded"] for r in first_wave + second_wave)
        assert recovered["degraded"] is False
        assert stats["serve.breaker_trips"] == 1
        assert stats["serve.breaker_reopened"] == 1
        assert stats["serve.breaker_probes"] == 2
        assert stats["serve.breaker_recoveries"] == 1


class TestDispatcherSupervision:
    def test_crash_answers_orphans_and_restarts(self):
        plan = FaultPlan(faults=[FaultSpec(site="serve.compute_crash",
                                           at=(0,))])
        with ServerThread(ServeConfig()) as handle:
            with plan.activate():
                with ServeClient(*handle.address) as client:
                    # The in-flight batch is orphaned by the injected
                    # crash but still answered — exactly once, with a
                    # structured internal error.
                    with pytest.raises(ServeProtocolError,
                                       match="dispatcher crashed"):
                        client.decompose(shape=[16, 16], seed=7)
                    # The supervisor restarted the loop: the daemon
                    # keeps serving.
                    response = client.decompose(shape=[16, 16], seed=7)
                    assert response["degraded"] is False
                    stats = client.stats()
        assert stats["serve.dispatcher_restarts"] == 1
        assert stats["serve.orphaned"] == 1


class TestResponseFaults:
    def test_response_drop_strands_no_state(self):
        plan = FaultPlan(faults=[FaultSpec(site="serve.response_drop",
                                           at=(0,))])
        with ServerThread(ServeConfig()) as handle:
            host, port = handle.address
            with plan.activate():
                dropped = ServeClient(host, port, timeout=1.5)
                with pytest.raises(ServeConnectionError):
                    dropped.decompose(shape=[16, 16], seed=2)
                dropped.close()
                with ServeClient(host, port) as probe:
                    assert _wait_stats(
                        probe,
                        lambda s: s.get("serve.responses_dropped", 0) == 1,
                    )
                    # The daemon took no damage: same request, answered.
                    assert probe.decompose(
                        shape=[16, 16], seed=2
                    )["degraded"] is False

    def test_slow_write_delays_but_answers(self):
        plan = FaultPlan(faults=[FaultSpec(site="serve.slow_write",
                                           at=(0,), param=0.3)])
        with ServerThread(ServeConfig()) as handle:
            with plan.activate():
                with ServeClient(*handle.address) as client:
                    begin = time.monotonic()
                    response = client.decompose(shape=[16, 16], seed=2)
                    elapsed = time.monotonic() - begin
                    stats = client.stats()
        assert response["degraded"] is False
        assert elapsed >= 0.25
        assert stats["serve.slow_writes"] == 1

    def test_accept_drop_swallows_the_request(self):
        plan = FaultPlan(faults=[FaultSpec(site="serve.accept_drop",
                                           at=(0,))])
        with ServerThread(ServeConfig()) as handle:
            host, port = handle.address
            with plan.activate():
                swallowed = ServeClient(host, port, timeout=1.5)
                with pytest.raises(ServeConnectionError):
                    swallowed.decompose(shape=[16, 16], seed=2)
                swallowed.close()
                with ServeClient(host, port) as probe:
                    stats = probe.stats()
        assert stats["serve.requests_dropped"] == 1
        # The request never reached the queue or the engine.
        assert stats.get("serve.batches", 0) == 0


def _park_pool(server_thread):
    import threading

    release = threading.Event()
    server_thread.server._pool.submit(release.wait)
    return release


def _send_decompose(address, request_id, shape, seed):
    """Open a raw connection, send one decompose, return the socket."""
    sock = socket.create_connection(address, timeout=30)
    sock.sendall(encode({
        "op": "decompose", "id": request_id,
        "shape": list(shape), "seed": seed, "deadline_s": 60.0,
    }))
    return sock


class TestGracefulDrain:
    def test_drain_closes_admission_finishes_work_and_exits(self):
        handle = ServerThread(ServeConfig(drain_deadline_s=30.0)).start()
        host, port = handle.address
        release = _park_pool(handle)
        pending = None
        try:
            # One admitted job, held in flight by the parked pool.
            pending = _send_decompose((host, port), "d-pending",
                                      (16, 16), 4)
            with ServeClient(host, port) as probe:
                # Popped from the queue = provably in flight behind
                # the parked pool.
                assert _wait_stats(
                    probe,
                    lambda s: (s.get("serve.requests", 0) >= 1
                               and s["queue_depth"] == 0),
                )
                probe.drain()
            # Admission is now closed: a fresh decompose is rejected
            # with code="draining" and a positive retry_after_s hint.
            with ServeClient(host, port) as rejected:
                envelope = rejected.request({
                    "op": "decompose", "id": "d-late",
                    "shape": [16, 16], "seed": 9,
                })
                assert envelope["ok"] is False
                assert envelope["error"]["code"] == "draining"
                assert 0 < envelope["error"]["retry_after_s"] <= 30.0
                stats = rejected.stats()
                assert stats["draining"] == 1
                assert stats["serve.drained_rejects"] == 1
                assert stats["serve.drains"] == 1
            # Release the pool: the in-flight job finishes normally...
            release.set()
            response = decode_line(pending.makefile("rb").readline())
            assert response["id"] == "d-pending"
            assert response["ok"] is True
            assert response["degraded"] is False
            # ...and the drained daemon exits on its own.
            deadline = time.monotonic() + 10.0
            while handle._thread.is_alive():
                assert time.monotonic() < deadline, (
                    "daemon did not exit after draining"
                )
                time.sleep(0.02)
        finally:
            release.set()
            if pending is not None:
                pending.close()
            handle.stop()

    def test_expired_drain_deadline_sheds_leftovers(self):
        handle = ServerThread(ServeConfig(drain_deadline_s=0.2)).start()
        host, port = handle.address
        release = _park_pool(handle)
        first = second = None
        try:
            # Two different coalescing keys: the first batch goes in
            # flight (behind the parked pool), the second stays queued.
            first = _send_decompose((host, port), "d-first", (16, 16), 4)
            with ServeClient(host, port) as probe:
                assert _wait_stats(
                    probe,
                    lambda s: (s.get("serve.requests", 0) >= 1
                               and s["queue_depth"] == 0),
                )
            second = _send_decompose((host, port), "d-second", (24, 24), 5)
            with ServeClient(host, port) as probe:
                assert _wait_stats(
                    probe, lambda s: s.get("serve.requests", 0) >= 2
                )
                probe.drain()
            time.sleep(0.3)  # burn the whole drain budget
            release.set()
            # The in-flight batch still completes normally; the queued
            # leftover is answered code="shutdown", not stranded.
            first_response = decode_line(first.makefile("rb").readline())
            assert first_response["ok"] is True
            second_response = decode_line(second.makefile("rb").readline())
            assert second_response["ok"] is False
            assert second_response["error"]["code"] == "shutdown"
            deadline = time.monotonic() + 10.0
            while handle._thread.is_alive():
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            release.set()
            for sock in (first, second):
                if sock is not None:
                    sock.close()
            handle.stop()


class TestChaosSoakTool:
    """``tools/chaos_soak.py`` runs its bench phase from the repo root,
    so a relative ``--out`` must reach it already made absolute."""

    @pytest.fixture
    def soak(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "chaos_soak", REPO_ROOT / "tools" / "chaos_soak.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_relative_out_is_resolved_against_the_callers_cwd(
        self, soak, tmp_path, monkeypatch
    ):
        seen = {}
        monkeypatch.setattr(soak, "soak_phase", lambda size: None)
        monkeypatch.setattr(
            soak, "bench_phase",
            lambda out_dir, size: seen.setdefault("out", out_dir),
        )
        monkeypatch.chdir(tmp_path)
        assert soak.main(["--out", "reports"]) == 0
        out = Path(seen["out"])
        assert out.is_absolute()
        assert out == tmp_path.resolve() / "reports"
        assert out.is_dir()
