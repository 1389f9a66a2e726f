"""JobQueue unit tests: admission ladder, WFQ ordering, coalescing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.serve.protocol import CoalesceKey
from repro.serve.queue import AdmissionPolicy, Job, JobQueue

KEY_A = CoalesceKey(16, 16, "float64", 4)
KEY_B = CoalesceKey(24, 24, "float64", 4)
#: Same cell count as KEY_A but a different key — fairness tests use
#: it so virtual-time charges stay equal while batches never mix.
KEY_A2 = CoalesceKey(16, 16, "float64", 4, "hestenes")


def _job(tenant="default", key=KEY_A, request_id="r"):
    return Job(
        request_id=request_id,
        tenant=tenant,
        key=key,
        matrix=np.zeros((key.m, key.n)),
    )


class TestAdmissionPolicy:
    def test_defaults_valid(self):
        AdmissionPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 0},
        {"high_water": 0},
        {"high_water": 10, "max_depth": 5},
        {"max_cells": 1},
        {"reject_cells": 16, "max_cells": 65536},
        {"max_batch": 0},
        {"max_oversized": 0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(**kwargs)

    def test_classify_ladder(self):
        queue = JobQueue(AdmissionPolicy(max_cells=100, reject_cells=1000))
        assert queue.classify(100) == "engine"
        assert queue.classify(101) == "brownout"
        assert queue.classify(1000) == "brownout"
        assert queue.classify(1001) == "reject"


class TestAdmission:
    def test_push_at_max_depth_raises_overloaded(self):
        queue = JobQueue(AdmissionPolicy(max_depth=2, high_water=1))
        queue.push(_job(request_id="a"))
        queue.push(_job(request_id="b"))
        with pytest.raises(ServiceOverloadError) as excinfo:
            queue.push(_job(request_id="c"))
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.depth == 2
        assert excinfo.value.limit == 2
        assert queue.total_rejected == 1
        assert queue.depth == 2

    def test_peak_depth_tracked(self):
        queue = JobQueue()
        for index in range(5):
            queue.push(_job(request_id=str(index)))
        queue.pop_batch()
        assert queue.depth == 0
        assert queue.peak_depth == 5
        stats = queue.stats()
        assert stats["peak_queue_depth"] == 5
        assert stats["admitted"] == 5

    def test_emptied_tenants_are_forgotten(self):
        # Tenant names are arbitrary client strings: once a tenant's
        # backlog drains, its deque and vtime entry must go with it or
        # unique names grow the queue's bookkeeping without bound.
        queue = JobQueue()
        for name in ("alpha", "beta", "gamma"):
            queue.push(_job(tenant=name, request_id=name))
        while queue.depth:
            queue.pop_batch()
        assert queue.stats()["tenants"] == 0
        assert queue._queues == {}
        assert queue._vtime == {}
        # Re-entry re-anchors to the virtual clock as usual.
        queue.push(_job(tenant="alpha", request_id="again"))
        assert queue._vtime["alpha"] == queue._virtual_now

    def test_drain_forgets_tenants(self):
        queue = JobQueue()
        queue.push(_job(tenant="alpha", request_id="a"))
        queue.push(_job(tenant="beta", key=KEY_B, request_id="b"))
        assert len(queue.drain()) == 2
        assert queue.stats()["tenants"] == 0
        assert queue._vtime == {}


class TestCoalescing:
    def test_pop_gathers_same_key_only(self):
        queue = JobQueue()
        queue.push(_job(request_id="a1", key=KEY_A))
        queue.push(_job(request_id="b1", key=KEY_B))
        queue.push(_job(request_id="a2", key=KEY_A))
        batch, key = queue.pop_batch()
        assert key == KEY_A
        assert [job.request_id for job in batch] == ["a1", "a2"]
        batch, key = queue.pop_batch()
        assert key == KEY_B
        assert [job.request_id for job in batch] == ["b1"]
        assert queue.depth == 0

    def test_skipped_jobs_keep_fifo_order(self):
        queue = JobQueue()
        for request_id, key in [("b1", KEY_B), ("a1", KEY_A),
                                ("b2", KEY_B), ("a2", KEY_A)]:
            queue.push(_job(request_id=request_id, key=key))
        queue.pop_batch()  # pops the b's (head job's key)
        batch, key = queue.pop_batch()
        assert key == KEY_A
        assert [job.request_id for job in batch] == ["a1", "a2"]

    def test_max_batch_respected(self):
        queue = JobQueue(AdmissionPolicy(max_batch=3))
        for index in range(5):
            queue.push(_job(request_id=str(index)))
        batch, _ = queue.pop_batch()
        assert len(batch) == 3
        assert queue.depth == 2

    def test_coalesces_across_tenants(self):
        queue = JobQueue()
        queue.push(_job(tenant="alpha", request_id="a"))
        queue.push(_job(tenant="beta", request_id="b"))
        batch, _ = queue.pop_batch()
        assert {job.request_id for job in batch} == {"a", "b"}

    def test_empty_queue_pops_nothing(self):
        assert JobQueue().pop_batch() == ([], None)


class TestWeightedFairness:
    def test_heavier_tenant_served_proportionally_more(self):
        # Full queue, two tenants with distinct keys so batches never
        # mix: weight 4 should be served ~4 jobs for every 1 of
        # weight 1.
        queue = JobQueue(
            AdmissionPolicy(max_batch=1),
            tenant_weights={"heavy": 4.0, "light": 1.0},
        )
        for index in range(24):
            queue.push(_job(tenant="heavy", key=KEY_A,
                            request_id=f"h{index}"))
            queue.push(_job(tenant="light", key=KEY_A2,
                            request_id=f"l{index}"))
        first_ten = []
        for _ in range(10):
            batch, _ = queue.pop_batch()
            first_ten.extend(job.request_id for job in batch)
        heavy = sum(1 for rid in first_ten if rid.startswith("h"))
        light = len(first_ten) - heavy
        assert heavy == 8 and light == 2

    def test_equal_weights_alternate(self):
        queue = JobQueue(AdmissionPolicy(max_batch=1))
        for index in range(4):
            queue.push(_job(tenant="x", key=KEY_A, request_id=f"x{index}"))
            queue.push(_job(tenant="y", key=KEY_A2, request_id=f"y{index}"))
        served = []
        for _ in range(8):
            batch, _ = queue.pop_batch()
            served.extend(job.request_id[0] for job in batch)
        # Same cost per job, equal weights: strict alternation.
        assert served == ["x", "y"] * 4

    def test_idle_tenant_does_not_hoard_credit(self):
        queue = JobQueue(AdmissionPolicy(max_batch=1))
        for index in range(8):
            queue.push(_job(tenant="busy", key=KEY_A,
                            request_id=f"b{index}"))
        for _ in range(8):
            queue.pop_batch()
        # "sleeper" was idle the whole time; it re-enters at the
        # current virtual clock, not at zero.  "busy" emptied, so its
        # charge was folded into the clock and it re-anchors there too:
        # a genuine tie, broken by name, one job each — neither tenant
        # gained anything by its history.
        queue.push(_job(tenant="sleeper", key=KEY_B, request_id="s0"))
        queue.push(_job(tenant="busy", key=KEY_A, request_id="b8"))
        order = [queue.pop_batch()[0][0].request_id for _ in range(2)]
        assert order == ["b8", "s0"]
        assert queue.depth == 0

    def test_bad_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            JobQueue(tenant_weights={"zero": 0.0})


class TestDrain:
    def test_drain_returns_everything(self):
        queue = JobQueue()
        for index in range(4):
            queue.push(_job(request_id=str(index)))
        drained = queue.drain()
        assert len(drained) == 4
        assert queue.depth == 0
        assert queue.pop_batch() == ([], None)
