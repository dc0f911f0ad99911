"""Unit tests for the per-backend circuit breakers.

All state-machine behaviour is exercised on an injected fake clock, so
cooldowns are deterministic and the suite never sleeps.
"""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import BreakerBoard, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self, clock):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self, clock):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        breaker.record_failure("a")
        breaker.record_failure("b")
        assert breaker.state == "closed"
        breaker.record_failure("c")
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self, clock):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0, clock=clock)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_trip_opens_immediately(self, clock):
        breaker = CircuitBreaker(threshold=5, cooldown=10.0, clock=clock)
        breaker.trip("pool rebuilt")
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_after_cooldown(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.9)
        assert breaker.state == "open"
        clock.advance(0.2)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe is admitted

    def test_probe_success_closes(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_probe_failure_reopens_for_full_cooldown(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure("probe died")
        assert breaker.state == "open"
        clock.advance(9.0)
        assert breaker.state == "open"
        clock.advance(2.0)
        assert breaker.state == "half_open"

    def test_transitions_recorded_in_snapshot(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.trip("pool rebuilt")
        clock.advance(11.0)
        breaker.allow()
        breaker.record_success()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        transitions = [t["to"] for t in snap["transitions"]]
        assert transitions == ["open", "closed"]
        assert "pool rebuilt" in snap["transitions"][0]["reason"]

    def test_reset_returns_to_pristine(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.trip("x")
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.snapshot()["transitions"] == []

    def test_validation(self, clock):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown=-1.0)

    def test_nan_cooldown_rejected(self):
        # A NaN cooldown never compares >=, so a tripped breaker would
        # never reach half-open again.
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown=float("nan"))


class TestBreakerBoard:
    def test_breakers_created_lazily_and_cached(self, clock):
        board = BreakerBoard(threshold=2, cooldown=5.0, clock=clock)
        first = board.breaker("sharded")
        assert board.breaker("sharded") is first
        assert board.snapshot().keys() == {"sharded"}

    def test_open_backends_only_lists_open(self, clock):
        board = BreakerBoard(threshold=1, cooldown=10.0, clock=clock)
        board.breaker("sharded").trip("dead pool")
        board.breaker("compiled").record_success()
        assert board.open_backends() == ("sharded",)
        # Half-open breakers admit their probe: not "unavailable".
        clock.advance(11.0)
        assert board.open_backends() == ()

    def test_reset_clears_everything(self, clock):
        board = BreakerBoard(threshold=1, cooldown=10.0, clock=clock)
        board.breaker("sharded").trip("x")
        board.reset()
        assert board.open_backends() == ()
        assert board.snapshot() == {}
