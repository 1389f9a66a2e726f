"""Circuit-breaker state machine and seeded probe-schedule tests."""

import pytest

from repro.errors import ConfigurationError
from repro.resilience import CircuitBreaker
from repro.resilience.circuit import CLOSED, HALF_OPEN, OPEN


def _trip(breaker):
    """Drive a closed breaker to open; return the trip event."""
    event = None
    for _ in range(breaker.failure_threshold):
        event = breaker.record_failure()
    return event


def _calls_until_probe(breaker, limit=64):
    """Number of withheld ``allow()`` calls before the half-open probe."""
    for withheld in range(limit):
        if breaker.allow():
            return withheld
    raise AssertionError(f"no probe within {limit} allow() calls")


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker("t")
        assert breaker.state == CLOSED
        assert breaker.allow() is True

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("t", failure_threshold=3)
        assert breaker.record_failure() is None
        assert breaker.record_failure() is None
        assert breaker.record_failure() == "tripped"
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker("t", failure_threshold=2)
        breaker.record_failure()
        assert breaker.record_success() is None
        # The streak restarted: one more failure must not trip.
        assert breaker.record_failure() is None
        assert breaker.state == CLOSED

    def test_open_withholds_then_half_opens(self):
        breaker = CircuitBreaker("t", failure_threshold=1,
                                 probe_after=3, probe_jitter=0)
        assert _trip(breaker) == "tripped"
        # Fixed schedule (no jitter): exactly probe_after - 1 calls
        # are withheld, the probe_after-th becomes the probe.
        assert breaker.allow() is False
        assert breaker.allow() is False
        assert breaker.allow() is True
        assert breaker.state == HALF_OPEN
        assert breaker.probes == 1

    def test_half_open_admits_only_one_probe(self):
        breaker = CircuitBreaker("t", failure_threshold=1,
                                 probe_after=1, probe_jitter=0)
        _trip(breaker)
        assert breaker.allow() is True   # the probe
        assert breaker.allow() is False  # probe slot taken
        assert breaker.state == HALF_OPEN

    def test_probe_success_recovers(self):
        breaker = CircuitBreaker("t", failure_threshold=1,
                                 probe_after=1, probe_jitter=0)
        _trip(breaker)
        assert breaker.allow() is True
        assert breaker.record_success() == "recovered"
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1
        assert breaker.allow() is True

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker("t", failure_threshold=1,
                                 probe_after=1, probe_jitter=0)
        _trip(breaker)
        assert breaker.allow() is True
        assert breaker.record_failure() == "reopened"
        assert breaker.state == OPEN
        # Reopening does not count as a fresh trip.
        assert breaker.trips == 1

    def test_failure_while_open_is_a_no_op(self):
        breaker = CircuitBreaker("t", failure_threshold=1,
                                 probe_after=4, probe_jitter=0)
        _trip(breaker)
        assert breaker.record_failure() is None
        assert breaker.state == OPEN

    def test_repr_names_the_resource(self):
        breaker = CircuitBreaker("serve.engine")
        assert "serve.engine" in repr(breaker)
        assert "closed" in repr(breaker)


class TestSeededSchedule:
    def test_schedule_is_a_pure_function_of_name_and_seed(self):
        # Two breakers with identical (name, seed) must replay the
        # exact same withhold counts across successive trips — that is
        # what makes a chaos run deterministic.
        def schedule(name, seed, trips=5):
            breaker = CircuitBreaker(name, failure_threshold=1,
                                     probe_after=2, probe_jitter=4,
                                     seed=seed)
            counts = []
            for _ in range(trips):
                _trip(breaker)
                counts.append(_calls_until_probe(breaker))
                breaker.record_success()
            return counts

        assert schedule("tier-a", 0) == schedule("tier-a", 0)
        assert schedule("tier-a", 7) == schedule("tier-a", 7)

    def test_name_decorrelates_the_jitter(self):
        # Different names draw from different PRNG streams; over a few
        # trips the schedules should diverge (probabilistically certain
        # with jitter spanning 0..8 over 8 trips).
        def schedule(name):
            breaker = CircuitBreaker(name, failure_threshold=1,
                                     probe_after=1, probe_jitter=8)
            counts = []
            for _ in range(8):
                _trip(breaker)
                counts.append(_calls_until_probe(breaker))
                breaker.record_success()
            return counts

        assert schedule("tier-a") != schedule("tier-b")

    def test_jitter_bounds(self):
        breaker = CircuitBreaker("t", failure_threshold=1,
                                 probe_after=3, probe_jitter=2)
        for _ in range(6):
            _trip(breaker)
            withheld = _calls_until_probe(breaker)
            # countdown = probe_after + jitter in [0, probe_jitter];
            # the probe call itself is the last decrement.
            assert 2 <= withheld <= 4
            breaker.record_success()


class TestValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("t", failure_threshold=0)

    def test_rejects_bad_probe_after(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("t", probe_after=0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("t", probe_jitter=-1)
