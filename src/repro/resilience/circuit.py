"""Per-resource circuit breaker with seeded probe scheduling.

A :class:`CircuitBreaker` protects one failure-prone tier (the serving
layer keeps one, ``serve.engine``, for its engine tier) with the
classic three-state machine:

* **closed** — normal operation; failures are counted, and
  ``failure_threshold`` consecutive failures *trip* the breaker;
* **open** — the protected tier is not used; after a scheduled number
  of withheld calls the breaker *half-opens*;
* **half-open** — exactly one probe call is allowed through; success
  closes the breaker (recovery), failure re-opens it.

The probe schedule is **seeded**: the number of calls withheld before
each half-open probe is ``probe_after`` plus a jitter drawn from a PRNG
seeded by ``seed`` and the breaker's name (the same derivation
:class:`~repro.resilience.faults.FaultSpec` uses for firing indices).
Two breakers guarding different tiers therefore probe at decorrelated
offsets, yet a chaos run replays the exact same trip/probe/recover
sequence — which is what lets a test pin the whole trajectory.

The breaker is deliberately not thread-safe: the serving layer drives
it from the single dispatcher task, and tests drive it inline.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics

#: The three breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trip-after-N-failures breaker with seeded half-open probes.

    Args:
        name: Identifies the protected resource (seeds the probe
            jitter; shown in counters and messages).
        failure_threshold: Consecutive failures (while closed) that
            trip the breaker.
        probe_after: Base number of ``allow()`` calls withheld while
            open before a half-open probe is let through.
        probe_jitter: Upper bound on the seeded jitter added to
            ``probe_after`` (0 = fixed schedule).
        seed: Seeds the jitter PRNG; successive trips draw successive
            values from the same stream, so the whole schedule is a
            pure function of ``(name, seed)``.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        probe_after: int = 4,
        probe_jitter: int = 2,
        seed: int = 0,
    ):
        if not name:
            raise ConfigurationError("circuit breaker needs a name")
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if probe_after < 1:
            raise ConfigurationError(
                f"probe_after must be >= 1, got {probe_after}"
            )
        if probe_jitter < 0:
            raise ConfigurationError(
                f"probe_jitter must be >= 0, got {probe_jitter}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.probe_after = probe_after
        self.probe_jitter = probe_jitter
        self.seed = int(seed)
        self._rng = random.Random(
            self.seed * 1_000_003 + zlib.crc32(name.encode())
        )
        self._state = CLOSED
        self._failures = 0
        self._countdown = 0
        #: Lifetime transition counts (closed→open, probes let through,
        #: half-open→closed).
        self.trips = 0
        self.probes = 0
        self.recoveries = 0

    # -- introspection -------------------------------------------------------
    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        return self._state

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self._state!r}, "
            f"failures={self._failures}, trips={self.trips})"
        )

    # -- the state machine ---------------------------------------------------
    def allow(self) -> bool:
        """May the protected tier be used for this call?

        Closed: always.  Open: the call is withheld until the seeded
        probe countdown reaches zero, at which point the breaker
        half-opens and this call becomes the probe.  Half-open: no —
        one probe is already outstanding.
        """
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            self._countdown -= 1
            if self._countdown <= 0:
                self._state = HALF_OPEN
                self.probes += 1
                _metrics.counter("resilience.breaker_probes").inc()
                return True
            return False
        return False  # half-open: the probe slot is taken

    def record_success(self) -> Optional[str]:
        """Report a successful protected call.

        Returns ``"recovered"`` when this success closes a half-open
        breaker, else None.
        """
        if self._state == HALF_OPEN:
            self._state = CLOSED
            self._failures = 0
            self.recoveries += 1
            _metrics.counter("resilience.breaker_recoveries").inc()
            return "recovered"
        if self._state == CLOSED:
            self._failures = 0
        return None

    def record_failure(self) -> Optional[str]:
        """Report a failed protected call.

        Returns ``"tripped"`` when this failure opens a closed breaker,
        ``"reopened"`` when it fails a half-open probe, else None.
        """
        if self._state == CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._open()
                self.trips += 1
                _metrics.counter("resilience.breaker_trips").inc()
                return "tripped"
            return None
        if self._state == HALF_OPEN:
            self._open()
            _metrics.counter("resilience.breaker_reopened").inc()
            return "reopened"
        return None

    def _open(self) -> None:
        self._state = OPEN
        self._failures = 0
        self._countdown = self.probe_after + (
            self._rng.randrange(self.probe_jitter + 1)
            if self.probe_jitter else 0
        )
