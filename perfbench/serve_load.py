"""Load against a ``heterosvd serve`` daemon subprocess.

:func:`build_schedule` turns a seed into a fixed list of send times and
requests; :func:`drive` replays it over pipelined connections from one
asyncio loop and times every answer from its *scheduled* send time, so
a stall anywhere (daemon, socket or this generator) lands in the
latency of every request due during it.  How late each request actually
left is recorded separately: a late generator makes a run invalid, not
slow.  :func:`saturate` sends the same kind of requests closed-loop,
a fixed number outstanding per connection, to keep the daemon busy.
:class:`Daemon` owns the subprocess and always reaps it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.client import ServeClient

import common

#: Engine-tier shapes and tenants of the mix (every request is small,
#: so protocol, admission, coalescing and per-batch overhead dominate).
SHAPES = ((16, 16), (24, 24), (32, 16), (16, 32))
TENANTS = ("alpha", "beta", "gamma")

#: Pipelined client connections.
CONNECTIONS = 2

#: Requests each connection keeps outstanding in :func:`saturate`:
#: enough that the daemon always has work queued, so its CPU never
#: idles between requests.
WINDOW = 4

#: Requests in the seeded list :func:`saturate` sends (and cycles
#: through, should a run outlast it).
SATURATE_REQUESTS = 6000

#: Seconds a run waits for outstanding answers after the last send.
ANSWER_TIMEOUT_S = 30.0

#: Seconds a daemon may take to print its ready line.
READY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Scheduled:
    """One request and the offset (s) at which it is due."""

    due: float
    doc: Dict


def build_schedule(seed: int, count: int, rate: float) -> List[Scheduled]:
    """``count`` seeded Poisson arrivals at ``rate`` per second.

    Exponential gaps are rescaled so the last request is due at exactly
    ``count / rate``: the burstiness is Poisson but the offered load of
    every seed is the same.  Every block of 12 consecutive requests
    holds each (shape, tenant) pair once, in seeded order.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0, size=count)
    due = np.cumsum(gaps) * ((count / rate) / gaps.sum())
    combos = [(s, t) for s in SHAPES for t in TENANTS]
    order: List[Tuple] = []
    while len(order) < count:
        order.extend(combos[i] for i in rng.permutation(len(combos)))
    seeds = rng.integers(0, 2**31 - 1, size=count)
    return [
        Scheduled(float(due[i]), {
            "op": "decompose", "id": f"r{i}",
            "tenant": order[i][1], "shape": list(order[i][0]),
            "seed": int(seeds[i]),
        })
        for i in range(count)
    ]


@dataclass
class Outcome:
    """What :func:`drive` saw for one request."""

    scheduled: Scheduled
    #: ``time.monotonic()`` of offset 0 of the schedule.
    origin: float = float("nan")
    sent_at: float = float("nan")
    answered_at: float = float("nan")
    response: Optional[Dict] = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send time to the answer."""
        return self.answered_at - self.scheduled.due

    @property
    def late(self) -> float:
        """Seconds the request left after it was due."""
        return self.sent_at - self.scheduled.due

    @property
    def ok(self) -> bool:
        """Answered normally (not shed, degraded or an error)."""
        r = self.response
        return bool(r and r.get("ok") and not r.get("shed")
                    and not r.get("degraded"))


async def _lane(host: str, port: int, lane: Sequence[Outcome],
                t0: float) -> None:
    reader, writer = await asyncio.open_connection(
        host, port, limit=1 << 24)
    by_id = {o.scheduled.doc["id"]: o for o in lane}

    async def send() -> None:
        loop = asyncio.get_running_loop()
        for outcome in lane:
            wait = t0 + outcome.scheduled.due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            outcome.sent_at = loop.time() - t0
            writer.write((json.dumps(outcome.scheduled.doc) + "\n").encode())
            await writer.drain()

    async def receive() -> None:
        loop = asyncio.get_running_loop()
        pending = len(lane)
        while pending:
            line = await reader.readline()
            if not line:
                raise ConnectionError(
                    f"daemon closed the connection, {pending} answers due")
            now = loop.time() - t0
            response = json.loads(line)
            outcome = by_id.get(response.get("id"))
            if outcome is None or outcome.response is not None:
                raise ValueError(f"unexpected answer {response.get('id')!r}")
            outcome.answered_at = now
            outcome.response = response
            pending -= 1

    try:
        sender = asyncio.ensure_future(send())
        receiver = asyncio.ensure_future(receive())
        await asyncio.gather(sender, receiver)
    finally:
        for task in (sender, receiver):
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _drive(host: str, port: int, outcomes: List[Outcome],
                 timeout_s: float) -> None:
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.05
    origin = time.monotonic() + (t0 - loop.time())
    for outcome in outcomes:
        outcome.origin = origin
    lanes = [outcomes[k::CONNECTIONS] for k in range(CONNECTIONS)]
    await asyncio.wait_for(
        asyncio.gather(*(_lane(host, port, lane, t0) for lane in lanes)),
        timeout=timeout_s,
    )


def drive(host: str, port: int, schedule: Sequence[Scheduled]) -> List[Outcome]:
    """Replay ``schedule`` open-loop; one :class:`Outcome` per request."""
    outcomes = [Outcome(s) for s in schedule]
    span = schedule[-1].due if schedule else 0.0
    asyncio.run(_drive(host, port, outcomes, span + ANSWER_TIMEOUT_S))
    return outcomes


async def _saturate_lane(host: str, port: int, docs: Iterator[Dict],
                         seconds: float, t0: float,
                         outcomes: List[Outcome]) -> None:
    reader, writer = await asyncio.open_connection(
        host, port, limit=1 << 24)
    loop = asyncio.get_running_loop()
    pending: Dict[str, Outcome] = {}

    def send() -> None:
        doc = next(docs)
        outcome = Outcome(Scheduled(loop.time() - t0, doc))
        outcome.sent_at = outcome.scheduled.due
        pending[doc["id"]] = outcome
        outcomes.append(outcome)
        writer.write((json.dumps(doc) + "\n").encode())

    try:
        for _ in range(WINDOW):
            send()
        await writer.drain()
        while pending:
            line = await reader.readline()
            if not line:
                raise ConnectionError(
                    f"daemon closed the connection, {len(pending)} "
                    f"answers due")
            now = loop.time() - t0
            response = json.loads(line)
            outcome = pending.pop(response.get("id"), None)
            if outcome is None:
                raise ValueError(f"unexpected answer {response.get('id')!r}")
            outcome.answered_at = now
            outcome.response = response
            if now < seconds:
                send()
                await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def saturate(host: str, port: int, seed: int,
             seconds: float) -> List[Outcome]:
    """Send ``seed``'s requests closed-loop for ``seconds``.

    Each connection keeps :data:`WINDOW` requests outstanding and sends
    the next one as an answer arrives, so every request is timed from
    when it was actually sent.  The requests are those of
    :func:`build_schedule` (send times ignored), connection ``k`` taking
    every :data:`CONNECTIONS`-th from the ``k``-th.  Returns one
    :class:`Outcome` per request sent, in send order.
    """
    schedule = build_schedule(seed, SATURATE_REQUESTS, 20.0)

    def docs(lane: int) -> Iterator[Dict]:
        for n in itertools.count(lane, CONNECTIONS):
            yield dict(schedule[n % len(schedule)].doc, id=f"r{n}")

    async def run() -> List[Outcome]:
        t0 = asyncio.get_running_loop().time()
        origin = time.monotonic()
        lanes: List[List[Outcome]] = [[] for _ in range(CONNECTIONS)]
        await asyncio.wait_for(asyncio.gather(*(
            _saturate_lane(host, port, docs(k), seconds, t0, lanes[k])
            for k in range(CONNECTIONS))), timeout=seconds + ANSWER_TIMEOUT_S)
        outcomes = sorted((o for lane in lanes for o in lane),
                          key=lambda o: o.sent_at)
        for outcome in outcomes:
            outcome.origin = origin
        return outcomes

    return asyncio.run(run())


class Daemon:
    """A ``heterosvd serve --port 0`` subprocess in a scrubbed env.

    Use as a context manager: leaving it always stops the process
    (``shutdown`` op, then kill) and waits for it, so nothing leaks
    into the next run.  ``out_path`` receives the daemon's CPU time,
    peak RSS, calibration samples and spans at exit (see ``daemon.py``),
    ``metrics_path`` its ``--metrics`` snapshot; ``cpu`` pins it to one
    CPU.
    """

    def __init__(self, out_path: str, trace: bool = False,
                 metrics_path: Optional[str] = None,
                 cpu: Optional[int] = None):
        cmd = [sys.executable, os.path.join(common.HERE, "daemon.py"),
               "--out", out_path]
        if trace:
            cmd.append("--trace")
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        cmd += ["--", "serve", "--port", "0"]
        if metrics_path is not None:
            cmd += ["--metrics", metrics_path]
        self.cmd = cmd
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def __enter__(self) -> "Daemon":
        self.proc = subprocess.Popen(
            self.cmd, env=common.clean_env(), cwd=common.ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        # A daemon that never prints its ready line is killed, which
        # ends the read below with EOF.
        watchdog = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            try:
                line = self.proc.stdout.readline().strip()
            finally:
                watchdog.cancel()
            if not line.startswith("serving on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.host, _, port = line[len("serving on "):].rpartition(":")
            self.port = int(port)
            self.request({"op": "ping", "id": "ping"})
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def request(self, doc: Dict) -> Dict:
        """One synchronous request/answer on a fresh connection."""
        with ServeClient(self.host, self.port, timeout=30.0) as client:
            return client.request(doc)

    def __exit__(self, *exc_info) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                try:
                    self.request({"op": "shutdown", "id": "bye"})
                except Exception:  # noqa: BLE001 - kill below regardless
                    pass
                proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            self.proc = None
