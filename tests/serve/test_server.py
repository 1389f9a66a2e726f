"""End-to-end server tests over a real loopback socket.

Each test hosts the daemon with :class:`repro.serve.ServerThread` and
talks to it with :class:`repro.serve.ServeClient` or a raw socket.
Timing-sensitive scenarios (deadline expiry in queue, overload
rejection) are made deterministic by first parking a slow engine job
on the single compute thread, so subsequent jobs provably sit in the
queue for the duration.
"""

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceeded,
    ServeProtocolError,
    ServiceOverloadError,
)
from repro.linalg import svd
from repro.serve import (
    AdmissionPolicy,
    ServeClient,
    ServeConfig,
    ServerThread,
)
from repro.serve.protocol import decode_line, encode
from repro.workloads.matrices import random_matrix


@pytest.fixture()
def server():
    with ServerThread(ServeConfig()) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as handle:
        yield handle


def _raw_exchange(address, *lines):
    """Send raw byte lines, return one decoded response per line."""
    with socket.create_connection(address, timeout=30) as sock:
        handle = sock.makefile("rb")
        for line in lines:
            sock.sendall(line)
        return [decode_line(handle.readline()) for _ in lines]


def _park_slow_job(address, results):
    """Occupy the compute thread with a big engine-tier decompose."""
    def work():
        with ServeClient(*address) as slow:
            results.append(slow.decompose(shape=[96, 96], seed=1))

    thread = threading.Thread(target=work)
    thread.start()
    return thread


def _park_pool(server_thread):
    """Deterministically park the daemon's compute thread.

    Returns a ``threading.Event``; until it is set, every admitted job
    provably stays queued (or in flight, for the oversized tier) —
    no reliance on a 'slow enough' decompose.
    """
    release = threading.Event()
    server_thread.server._pool.submit(release.wait)
    return release


def _wait_stats(probe, predicate, timeout=10.0):
    """Poll the ``stats`` op until ``predicate(stats)`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate(probe.stats()):
            return True
        time.sleep(0.01)
    return False


class TestByteIdentity:
    def test_seeded_result_byte_identical_to_serial_svd(self, client):
        for seed, shape in [(3, (16, 16)), (11, (24, 24)), (5, (32, 16))]:
            response = client.decompose(shape=shape, seed=seed)
            assert response["degraded"] is False
            assert response["shed"] is False
            local = svd(
                random_matrix(*shape, seed=seed),
                method="block", block_width=4, precision=1e-6,
            ).singular_values
            wire = np.asarray(response["sigma"], dtype=np.float64)
            assert wire.tobytes() == np.asarray(
                local, dtype=np.float64
            ).tobytes()

    def test_inline_matrix_byte_identical(self, client):
        matrix = random_matrix(8, 8, seed=42)
        response = client.decompose(matrix=matrix.tolist())
        local = svd(
            matrix, method="block", block_width=4, precision=1e-6,
        ).singular_values
        assert np.asarray(response["sigma"]).tobytes() == np.asarray(
            local, dtype=np.float64
        ).tobytes()

    def test_coalesced_batch_matches_one_at_a_time(self, server):
        # Same-key requests from several connections coalesce into one
        # executor batch; every answer must still be byte-identical to
        # its own serial svd() call.
        seeds = list(range(6))
        responses = {}
        errors = []

        def ask(seed):
            try:
                with ServeClient(*server.address) as c:
                    responses[seed] = c.decompose(shape=[16, 16], seed=seed)
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=ask, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for seed in seeds:
            local = svd(
                random_matrix(16, 16, seed=seed),
                method="block", block_width=4, precision=1e-6,
            ).singular_values
            assert np.asarray(
                responses[seed]["sigma"]
            ).tobytes() == np.asarray(local, dtype=np.float64).tobytes()


    def test_both_orientations_share_one_engine_run(self, server):
        # (16, 32) and (32, 16) requests factor the same 32x16 problem,
        # so they coalesce into one batch and one stacked Jacobi run.
        shapes = [(16, 32), (32, 16), (16, 32), (32, 16)]
        responses = {}
        release = _park_pool(server)
        threads = []

        def ask(seed, shape):
            with ServeClient(*server.address) as c:
                responses[seed] = c.decompose(shape=list(shape), seed=seed)

        try:
            with ServeClient(*server.address) as probe:
                # A first job is popped and parked on the compute thread;
                # the mixed-orientation jobs then queue behind it.
                threads.append(threading.Thread(target=ask,
                                                args=(99, (16, 16))))
                threads[-1].start()
                assert _wait_stats(probe, lambda st: st["admitted"] >= 1
                                   and st["queue_depth"] == 0)
                for seed, shape in enumerate(shapes):
                    threads.append(threading.Thread(target=ask,
                                                    args=(seed, shape)))
                    threads[-1].start()
                assert _wait_stats(probe,
                                   lambda st: st["queue_depth"] == 4)
        finally:
            release.set()
            for thread in threads:
                thread.join()
        with ServeClient(*server.address) as probe:
            stats = probe.stats()
        assert stats["serve.batches"] == 2
        assert stats["serve.coalesced_tasks"] == 5
        for seed, shape in enumerate(shapes):
            local = svd(
                random_matrix(*shape, seed=seed),
                method="block", block_width=4, precision=1e-6,
            ).singular_values
            assert responses[seed]["degraded"] is False
            assert np.asarray(responses[seed]["sigma"]).tobytes() == \
                np.asarray(local, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_prepared_shape_coalesces_tall_wide_and_square(self, server,
                                                           method):
        # The Jacobi methods sweep the 16x16 triangle of every one of
        # these inputs' QR, so all three shapes share one batch.
        shapes = [(32, 16), (16, 32), (16, 16)]
        responses = {}
        release = _park_pool(server)
        threads = []

        def ask(seed, shape):
            with ServeClient(*server.address) as c:
                responses[seed] = c.decompose(shape=list(shape), seed=seed,
                                              method=method)

        try:
            with ServeClient(*server.address) as probe:
                # A job of another key is popped and parked first; the
                # three shapes then queue behind it.
                threads.append(threading.Thread(target=ask,
                                                args=(99, (24, 24))))
                threads[-1].start()
                assert _wait_stats(probe, lambda st: st["admitted"] >= 1
                                   and st["queue_depth"] == 0)
                for seed, shape in enumerate(shapes):
                    threads.append(threading.Thread(target=ask,
                                                    args=(seed, shape)))
                    threads[-1].start()
                assert _wait_stats(probe,
                                   lambda st: st["queue_depth"] == 3)
        finally:
            release.set()
            for thread in threads:
                thread.join()
        with ServeClient(*server.address) as probe:
            stats = probe.stats()
        assert stats["serve.batches"] == 2
        assert stats["serve.coalesced_tasks"] == 4
        for seed, shape in enumerate(shapes):
            local = svd(
                random_matrix(*shape, seed=seed), method=method,
                block_width=4 if method == "block" else None,
                precision=1e-6,
            ).singular_values
            assert responses[seed]["degraded"] is False
            assert np.asarray(responses[seed]["sigma"]).tobytes() == \
                np.asarray(local, dtype=np.float64).tobytes()


class TestMethodField:
    def test_explicit_block_byte_identical_to_default(self, client):
        # Requests that spell out method="block" must coalesce with —
        # and answer identically to — requests that omit the field.
        default = client.decompose(shape=[16, 16], seed=3)
        explicit = client.decompose(shape=[16, 16], seed=3,
                                    method="block")
        assert np.asarray(default["sigma"]).tobytes() == np.asarray(
            explicit["sigma"]
        ).tobytes()

    @pytest.mark.parametrize("method", ["block", "dnc", "streaming",
                                        "hestenes"])
    def test_alternate_methods_match_lapack(self, client, method):
        matrix = random_matrix(32, 16, seed=8)
        response = client.decompose(matrix=matrix.tolist(),
                                    method=method)
        assert response["degraded"] is False
        reference = np.linalg.svd(matrix, compute_uv=False)
        sigma = np.asarray(response["sigma"])[: len(reference)]
        np.testing.assert_allclose(sigma, reference, atol=1e-6)

    def test_unaligned_width_answered_by_engine(self, client):
        # 18 columns on the default P_eng = 4 grid: every request must
        # be answered ok by the engine tier, without tripping the
        # breaker into brownout.
        for seed in range(3):
            response = client.decompose(shape=[18, 18], seed=seed)
            assert response["degraded"] is False
            assert response["shed"] is False
            reference = np.linalg.svd(random_matrix(18, 18, seed=seed),
                                      compute_uv=False)
            np.testing.assert_allclose(response["sigma"], reference,
                                       atol=1e-5)
        assert client.stats().get("serve.breaker_trips", 0) == 0

    @pytest.mark.parametrize("method", ["qr", "tsqr"])
    def test_unknown_method_answered_schema(self, client, method):
        from repro.errors import ServeProtocolError

        with pytest.raises(ServeProtocolError, match="method"):
            client.decompose(shape=[16, 16], seed=1, method=method)


class TestBrownoutTier:
    def test_oversized_request_is_shed_and_degraded(self):
        config = ServeConfig(
            admission=AdmissionPolicy(max_cells=256, reject_cells=100_000)
        )
        with ServerThread(config) as handle:
            with ServeClient(*handle.address) as client:
                response = client.decompose(shape=[32, 32], seed=2)
                assert response["degraded"] is True
                assert response["shed"] is True
                reference = np.linalg.svd(
                    random_matrix(32, 32, seed=2), compute_uv=False
                )
                np.testing.assert_allclose(
                    np.asarray(response["sigma"]), reference,
                    rtol=1e-10, atol=1e-12,
                )
                stats = client.stats()
                assert stats["serve.shed"] == 1
                assert stats["serve.degraded"] == 1
                assert stats["serve.oversized"] == 1

    def test_beyond_hard_cap_rejected_oversized(self):
        config = ServeConfig(
            admission=AdmissionPolicy(max_cells=256, reject_cells=1024)
        )
        with ServerThread(config) as handle:
            with ServeClient(*handle.address) as client:
                with pytest.raises(ServiceOverloadError) as excinfo:
                    client.decompose(shape=[64, 64], seed=0)
                assert excinfo.value.code == "oversized"

    def test_tall_jacobi_request_admitted_on_its_own_shape(self):
        # The key holds the 4x4 prepared shape; the tiers and the
        # oversized message judge the request's 128x4 and 512x4.
        config = ServeConfig(
            admission=AdmissionPolicy(max_cells=256, reject_cells=1024)
        )
        with ServerThread(config) as handle:
            with ServeClient(*handle.address) as client:
                response = client.decompose(shape=[128, 4], seed=1)
                assert response["shed"] is True
                with pytest.raises(ServiceOverloadError) as excinfo:
                    client.decompose(shape=[512, 4], seed=0)
                assert excinfo.value.code == "oversized"
                assert "512x4 (2048 cells)" in str(excinfo.value)

    def test_huge_declared_shape_rejected_without_materialization(
        self, client
    ):
        # The declared shape names an ~80 GB matrix; the hard cap must
        # fire off the declaration, before any allocation happens.
        with pytest.raises(ServiceOverloadError) as excinfo:
            client.decompose(shape=[100_000, 100_000], seed=0)
        assert excinfo.value.code == "oversized"

    def test_oversized_inflight_cap_rejects_overloaded(self):
        # Oversized jobs never enter the queue, so they are admitted
        # against max_oversized instead: with the compute thread
        # parked and a cap of 1, the first oversized request goes in
        # flight and the rest must be refused code=overloaded.
        config = ServeConfig(admission=AdmissionPolicy(max_oversized=1))
        with ServerThread(config) as handle:
            release = _park_pool(handle)
            docs = [
                {"op": "decompose", "id": f"o-{i}",
                 "shape": [512, 256], "seed": i}
                for i in range(3)
            ]
            with socket.create_connection(
                handle.address, timeout=30
            ) as sock:
                reader = sock.makefile("rb")
                for doc in docs:
                    sock.sendall(encode(doc))
                # o-0 holds the single in-flight slot behind the
                # parked pool, so o-1 and o-2 are answered (refused)
                # first, in order.
                refused = [
                    decode_line(reader.readline()) for _ in range(2)
                ]
                assert [r["id"] for r in refused] == ["o-1", "o-2"]
                assert all(
                    r["error"]["code"] == "overloaded" for r in refused
                )
                release.set()
                served = decode_line(reader.readline())
                assert served["id"] == "o-0"
                assert served["ok"] is True
                assert served["degraded"] is True
                assert served["shed"] is True


class TestSloAndOverload:
    def test_queued_job_past_deadline_answered_deadline(self, server):
        results = []
        slow = _park_slow_job(server.address, results)
        try:
            with ServeClient(*server.address) as client:
                # The compute thread is busy for >> 1 ms, so this job's
                # budget provably expires while it waits in the queue.
                with pytest.raises(DeadlineExceeded):
                    client.decompose(shape=[16, 16], seed=9,
                                     deadline_s=0.001)
        finally:
            slow.join()
        assert results and results[0]["ok"]

    def test_full_queue_rejects_overloaded(self):
        config = ServeConfig(
            admission=AdmissionPolicy(max_depth=1, high_water=1)
        )
        with ServerThread(config) as handle:
            release = _park_pool(handle)
            results = []
            threads = []

            def ask(seed):
                with ServeClient(*handle.address) as client:
                    results.append(
                        client.decompose(shape=[16, 16], seed=seed)
                    )

            try:
                with ServeClient(*handle.address) as probe:
                    # Job A: admitted, popped by the dispatcher, stuck
                    # behind the parked pool.
                    threads.append(
                        threading.Thread(target=ask, args=(1,))
                    )
                    threads[-1].start()
                    assert _wait_stats(
                        probe,
                        lambda s: s["admitted"] >= 1
                        and s["queue_depth"] == 0,
                    )
                    # Job B: fills the single queue slot.
                    threads.append(
                        threading.Thread(target=ask, args=(2,))
                    )
                    threads[-1].start()
                    assert _wait_stats(
                        probe, lambda s: s["queue_depth"] == 1
                    )
                    with ServeClient(*handle.address) as overflow:
                        with pytest.raises(
                            ServiceOverloadError
                        ) as excinfo:
                            overflow.decompose(shape=[16, 16], seed=3)
                        assert excinfo.value.code == "overloaded"
            finally:
                release.set()
                for thread in threads:
                    thread.join()
        assert len(results) == 2 and all(r["ok"] for r in results)


class TestWireRejections:
    def test_non_json_line(self, server):
        (response,) = _raw_exchange(server.address, b"not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "schema"
        assert response["id"] is None

    def test_unknown_op(self, server):
        (response,) = _raw_exchange(
            server.address, encode({"op": "explode", "id": "x"})
        )
        assert response["error"]["code"] == "schema"
        assert response["id"] == "x"

    def test_missing_matrix_and_shape(self, server):
        (response,) = _raw_exchange(
            server.address, encode({"op": "decompose", "id": "x"})
        )
        assert response["error"]["code"] == "schema"

    def test_bad_block_width(self, server):
        (response,) = _raw_exchange(
            server.address,
            encode({"op": "decompose", "id": "x", "shape": [16, 16],
                    "block_width": 99}),
        )
        assert response["error"]["code"] == "schema"
        assert "block_width" in response["error"]["message"]

    def test_strategy_field_answered_schema_then_serving_goes_on(
            self, server):
        # Protocol version 2 has no kernel choice: the field is unknown.
        refused, answered = _raw_exchange(
            server.address,
            encode({"op": "decompose", "id": "x", "shape": [16, 16],
                    "seed": 1, "strategy": "auto"}),
            encode({"op": "decompose", "id": "y", "shape": [16, 16],
                    "seed": 1}),
        )
        assert refused["id"] == "x" and refused["ok"] is False
        assert refused["error"]["code"] == "schema"
        assert "strategy" in refused["error"]["message"]
        assert answered["id"] == "y" and answered["ok"] is True

    def test_non_finite_matrix_rejected_invalid(self, server):
        (response,) = _raw_exchange(
            server.address,
            encode({"op": "decompose", "id": "x",
                    "matrix": [[1.0, 2.0], [3.0, None]]}),
        )
        # None materializes as NaN -> input validation, not schema.
        assert response["error"]["code"] in ("schema", "invalid")

    def test_client_raises_protocol_error_for_schema_answer(self, client):
        from repro.serve.client import raise_for_error

        envelope = client.request({"op": "decompose", "id": "x"})
        assert envelope["ok"] is False
        with pytest.raises(ServeProtocolError) as excinfo:
            raise_for_error(envelope)
        assert excinfo.value.code == "schema"


class TestManagementOps:
    def test_ping(self, client):
        response = client.ping()
        assert response["pong"] is True
        assert response["version"] == "2"

    def test_stats_reflect_traffic(self, client):
        client.decompose(shape=[16, 16], seed=0)
        stats = client.stats()
        assert stats["serve.requests"] == 1
        assert stats["admitted"] == 1
        assert stats["serve.batches"] == 1
        assert stats["version"] == "2"

    def test_shutdown_stops_the_server(self, server):
        with ServeClient(*server.address) as client:
            client.decompose(shape=[16, 16], seed=1)
            client.shutdown()
        server._thread.join(timeout=10)
        assert not server._thread.is_alive()
        # Double-stop is a no-op.
        server.stop()


def _loose_server():
    """A loop-less SVDServer for driving tier coroutines directly."""
    from repro.serve.server import SVDServer

    server = SVDServer(ServeConfig())
    server._loop = asyncio.get_running_loop()
    server._pool = ThreadPoolExecutor(max_workers=1)
    return server


def _loose_job(server, index, key):
    from repro.serve.queue import Job

    return Job(
        request_id=f"j{index}",
        tenant="t",
        key=key,
        matrix=random_matrix(key.m, key.n, seed=index),
        future=server._loop.create_future(),
    )


class TestTierInternals:
    def test_brownout_queue_time_excludes_batchmates_service(
        self, monkeypatch
    ):
        import repro.serve.server as server_mod
        from repro.serve.protocol import CoalesceKey

        real_sigma = server_mod._brownout_sigma

        def slow_sigma(matrix):
            time.sleep(0.05)
            return real_sigma(matrix)

        monkeypatch.setattr(server_mod, "_brownout_sigma", slow_sigma)
        key = CoalesceKey(8, 8, "float64", 4)

        async def run():
            server = _loose_server()
            try:
                jobs = [_loose_job(server, i, key) for i in range(3)]
                await server._run_brownout(jobs, shed=True)
                return [job.future.result() for job in jobs]
            finally:
                server._pool.shutdown(wait=True)

        responses = asyncio.run(run())
        assert all(r["degraded"] for r in responses)
        # Job 0 is dispatched immediately: the ~100 ms its batchmates
        # compute after it must not be booked as its queue time.
        assert responses[0]["queue_s"] < 0.05

    def test_engine_report_hole_answered_internal(self, monkeypatch):
        # A report missing a task's result must answer that job with
        # an internal error, not raise KeyError into the dispatcher.
        from types import SimpleNamespace

        import repro.exec.batch as batch_mod
        from repro.serve.protocol import CoalesceKey

        key = CoalesceKey(8, 8, "float64", 4)

        class HoleyExecutor:
            def __init__(self, *args, **kwargs):
                pass

            def run(self, batch, deadline=None):
                return SimpleNamespace(
                    results=[SimpleNamespace(
                        task_id=0, pipeline=0, degraded=False,
                        sigma=np.ones(8),
                    )],
                    wall_makespan=0.001,
                )

        monkeypatch.setattr(batch_mod, "BatchExecutor", HoleyExecutor)

        async def run():
            server = _loose_server()
            try:
                jobs = [_loose_job(server, i, key) for i in range(2)]
                await server._run_engine(jobs, key)
                return [job.future.result() for job in jobs]
            finally:
                server._pool.shutdown(wait=True)

        responses = asyncio.run(run())
        assert responses[0]["ok"] is True
        assert responses[1]["ok"] is False
        assert responses[1]["error"]["code"] == "internal"


class TestConcurrentResponsesOnOneConnection:
    def test_pipelined_requests_all_answered(self, server):
        # Write several requests before reading anything; responses may
        # arrive in any order but every id must be answered exactly
        # once.
        docs = [
            {"op": "decompose", "id": f"p-{i}", "shape": [16, 16],
             "seed": i}
            for i in range(5)
        ]
        with socket.create_connection(server.address, timeout=60) as sock:
            handle = sock.makefile("rb")
            for doc in docs:
                sock.sendall(encode(doc))
            seen = set()
            for _ in docs:
                response = decode_line(handle.readline())
                assert response["ok"]
                seen.add(response["id"])
        assert seen == {doc["id"] for doc in docs}


class TestShutdownAndSideTasks:
    def test_drain_on_shutdown_answers_each_queued_job_exactly_once(self):
        from repro.serve.protocol import CoalesceKey

        key = CoalesceKey(8, 8, "float64", 4)

        async def run():
            server = _loose_server()
            try:
                jobs = [_loose_job(server, i, key) for i in range(3)]
                for job in jobs:
                    server.queue.push(job)
                # One job was already answered (e.g. by _fail_orphans
                # after a dispatcher crash): the drain must not touch
                # its settled future.
                jobs[1].future.set_result({"id": "j1", "ok": True})
                server._drain_on_shutdown()
                first = [job.future.result() for job in jobs]
                # Idempotent: the queue is empty and every future is
                # done, so a second drain changes nothing (a double
                # set_result would raise InvalidStateError).
                server._drain_on_shutdown()
                second = [job.future.result() for job in jobs]
                return first, second
            finally:
                server._pool.shutdown(wait=True)

        first, second = asyncio.run(run())
        assert first == second
        assert first[1]["ok"] is True
        for response in (first[0], first[2]):
            assert response["ok"] is False
            assert response["error"]["code"] == "shutdown"

    def test_spawn_tracks_then_discards_side_tasks(self):
        async def run():
            server = _loose_server()
            try:
                async def noop():
                    return 42

                task = server._spawn(noop())
                assert task in server._side_tasks
                assert await task == 42
                # Let the done-callback run.
                await asyncio.sleep(0)
                return len(server._side_tasks)
            finally:
                server._pool.shutdown(wait=True)

        assert asyncio.run(run()) == 0

    def test_stats_report_draining_flag(self, client):
        assert client.stats()["draining"] == 0
