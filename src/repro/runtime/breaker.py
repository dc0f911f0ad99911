"""Per-backend circuit breakers for the execution runtime.

The supervised dispatch layer (:mod:`repro.engine.dispatch`) makes a
single sharded call survive worker death; the breaker makes the *next*
call cheap when the pool keeps dying. Classic three-state machine, one
per backend:

* **closed** — healthy, requests flow;
* **open** — tripped by ``threshold`` consecutive failures or by one
  pool rebuild (a rebuild means a worker died — the expensive incident
  the breaker exists to not repeat); the planner routes around the
  backend until ``cooldown`` seconds pass;
* **half-open** — the cooldown expired; the next request is a probe.
  Success closes the breaker, failure re-opens it for another full
  cooldown.

The breaker never *blocks* anything itself: it only answers
:meth:`CircuitBreaker.allow`, and the planner's graceful-degradation
step (:func:`repro.runtime.planner.plan` with ``unavailable=``) does
the actual rerouting — always to a backend whose results are
numerically identical, so a tripped breaker costs throughput, never
correctness. State transitions are recorded so ``context.stats()`` can
show the whole history.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["CircuitBreaker", "BreakerBoard"]

#: The three breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """One backend's failure-rate guard.

    ``threshold`` consecutive :meth:`record_failure` calls (or one
    :meth:`trip`) open the breaker for ``cooldown`` seconds; the first
    request after the cooldown runs as a half-open probe. ``clock`` is
    injectable for deterministic tests (defaults to
    :func:`time.monotonic`).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold!r}"
            )
        if not cooldown >= 0:  # NaN fails too
            raise ConfigurationError(
                f"breaker cooldown must be non-negative, got {cooldown!r}"
            )
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self._transitions: List[Tuple[str, str]] = []

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` — cooldown-aware."""
        if self._opened_at is None:
            return CLOSED
        if self._clock() - self._opened_at >= self.cooldown:
            return HALF_OPEN
        return OPEN

    def allow(self) -> bool:
        """May a request use this backend right now?

        Closed: yes. Open: no. Half-open: yes — and that request is the
        probe whose outcome decides the next state.
        """
        state = self.state
        if state == OPEN:
            return False
        if state == HALF_OPEN:
            self._probing = True
        return True

    # -- transitions -------------------------------------------------------

    def _open(self, reason: str) -> None:
        self._transitions.append((OPEN, reason))
        self._opened_at = self._clock()
        self._probing = False

    def record_success(self) -> None:
        """A request finished cleanly; a half-open probe closes us."""
        self._consecutive_failures = 0
        if self._opened_at is not None and (
            self._probing or self.state == HALF_OPEN
        ):
            self._transitions.append((CLOSED, "half-open probe succeeded"))
            self._opened_at = None
            self._probing = False

    def record_failure(self, reason: str = "shard failure") -> None:
        """A request failed; enough of these in a row open the breaker."""
        self._consecutive_failures += 1
        if self._opened_at is not None:
            # A failure while open or probing restarts the full cooldown.
            self._open(f"{reason} (re-opened)")
        elif self._consecutive_failures >= self.threshold:
            self._open(
                f"{self._consecutive_failures} consecutive failures "
                f"(last: {reason})"
            )

    def trip(self, reason: str) -> None:
        """Open immediately, whatever the failure count (pool rebuild)."""
        self._consecutive_failures = max(
            self._consecutive_failures, self.threshold
        )
        self._open(reason)

    def reset(self) -> None:
        """Back to pristine closed (test isolation)."""
        self._consecutive_failures = 0
        self._opened_at = None
        self._probing = False
        self._transitions.clear()

    def snapshot(self) -> Dict:
        """Plain-dict state for ``context.stats()`` (json-safe)."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown,
            "transitions": [
                {"to": to, "reason": reason}
                for to, reason in self._transitions
            ],
        }


class BreakerBoard:
    """The per-backend breaker set one :class:`ExecutionContext` owns.

    Breakers are created lazily per backend name, all sharing the same
    ``threshold``/``cooldown``/``clock``. :meth:`open_backends` is what
    the planner consumes: only *open* breakers make a backend
    unavailable — a half-open breaker lets its probe through.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, backend: str) -> CircuitBreaker:
        breaker = self._breakers.get(backend)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self._threshold,
                cooldown=self._cooldown,
                clock=self._clock,
            )
            self._breakers[backend] = breaker
        return breaker

    def open_backends(self) -> Tuple[str, ...]:
        """Backends whose breaker is open right now (not half-open)."""
        return tuple(
            name
            for name, breaker in sorted(self._breakers.items())
            if breaker.state == OPEN
        )

    def snapshot(self) -> Dict[str, Dict]:
        """Every breaker that has seen traffic, keyed by backend."""
        return {
            name: breaker.snapshot()
            for name, breaker in sorted(self._breakers.items())
        }

    def reset(self) -> None:
        for breaker in self._breakers.values():
            breaker.reset()
        self._breakers.clear()
