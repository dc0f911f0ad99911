"""Runtime configuration.

One frozen :class:`RuntimeConfig` carries every routing and
supervision knob that apps, the CLI and the guarded pipeline once took
as separate per-engine keyword flags. Apps take it as ``config=``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "RuntimeConfig",
]

#: The registered backend names, in fallback-documentation order.
BACKEND_NAMES: Tuple[str, ...] = ("scalar", "compiled", "incremental", "sharded")


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything the execution runtime needs to route a workload.

    Parameters
    ----------
    backend:
        Force every dispatch through one backend (``"scalar"``,
        ``"compiled"``, ``"incremental"`` or ``"sharded"``); ``None``
        lets :func:`~repro.runtime.planner.plan` choose per workload.
    workers:
        Worker-process budget for the sharded backend. ``None`` or
        ``<= 1`` keeps everything in-process; the planner only routes
        to ``sharded`` when more than one worker is allowed (or the
        backend is forced).
    shards:
        Shard count for batch dispatch; default
        ``min(workers, scenarios)``.
    flush_threshold:
        Dirty-fraction flush threshold handed to
        :class:`~repro.engine.incremental.IncrementalAnalyzer`.
    sharded_min_cells:
        Batches of at least this many cells (``scenarios x nodes``)
        route to the sharded backend when ``workers > 1``; smaller
        batches stay on the in-process compiled kernels, whose results
        are bitwise identical anyway.
    shard_timeout:
        Wall-clock budget (seconds) for each shard of a supervised
        dispatch, measured from its own submission; ``None`` disables
        the deadline (worker *crashes* are still detected, hangs are
        not). The CLI flag ``--shard-timeout`` maps here.
    max_retries:
        How many times one shard is re-dispatched after a timeout or
        worker death before degrading to a serial in-process
        evaluation. The CLI flag ``--max-retries`` maps here.
    retry_backoff:
        Base of the exponential backoff between supervision retry
        rounds (``retry_backoff * 2**round`` seconds, capped at 2 s).
    breaker_threshold:
        Consecutive sharded-dispatch failures that trip the backend's
        circuit breaker (a pool rebuild trips it immediately).
    breaker_cooldown:
        Seconds a tripped breaker stays open before admitting a
        half-open probe request.
    calibration:
        A measured serial/sharded crossover model (duck-typed like
        :class:`~repro.runtime.calibrate.CrossoverCalibration`: needs
        ``sharded_wins(cells)`` and ``breakeven_cells``). When present,
        the planner routes batch workloads by the *measured* break-even
        point instead of the static ``sharded_min_cells`` guess, and
        the sharded backend sizes shards from the same cost model.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    shards: Optional[int] = None
    flush_threshold: float = 0.25
    sharded_min_cells: int = 4096
    shard_timeout: Optional[float] = 30.0
    max_retries: int = 2
    retry_backoff: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    calibration: Optional[Any] = None

    def __post_init__(self):
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from "
                f"{BACKEND_NAMES}"
            )
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(
                f"workers must be non-negative, got {self.workers!r}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError(
                f"shards must be at least 1, got {self.shards!r}"
            )
        if not 0.0 <= self.flush_threshold <= 1.0:
            raise ConfigurationError(
                f"flush_threshold must be in [0, 1], got "
                f"{self.flush_threshold!r}"
            )
        # ``not x >= 0`` rather than ``x < 0`` so NaN fails too.
        if not self.sharded_min_cells >= 0:
            raise ConfigurationError(
                f"sharded_min_cells must be non-negative, got "
                f"{self.sharded_min_cells!r}"
            )
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ConfigurationError(
                f"shard_timeout must be positive or None, got "
                f"{self.shard_timeout!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if not self.retry_backoff >= 0:
            raise ConfigurationError(
                f"retry_backoff must be non-negative, got "
                f"{self.retry_backoff!r}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold!r}"
            )
        if not self.breaker_cooldown >= 0:
            raise ConfigurationError(
                f"breaker_cooldown must be non-negative, got "
                f"{self.breaker_cooldown!r}"
            )
        if self.calibration is not None and not hasattr(
            self.calibration, "sharded_wins"
        ):
            raise ConfigurationError(
                "calibration must provide sharded_wins(cells) (see "
                "repro.runtime.calibrate.CrossoverCalibration), got "
                f"{self.calibration!r}"
            )

    @property
    def parallel(self) -> bool:
        """True when the config allows multi-process dispatch."""
        return self.workers is not None and self.workers > 1

    def with_backend(self, backend: Optional[str]) -> "RuntimeConfig":
        """A copy with the forced backend replaced."""
        return replace(self, backend=backend)

    def with_workers(self, workers: Optional[int]) -> "RuntimeConfig":
        """A copy with the worker budget replaced."""
        return replace(self, workers=workers)
