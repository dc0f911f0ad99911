"""Runtime configuration.

One frozen :class:`RuntimeConfig` carries the routing and supervision
knobs a caller sets: the forced backend, the worker budget, the shard
supervision budget and a measured crossover calibration. The CLI maps
its flags here; apps, sweeps and the guarded pipeline take the
:class:`~repro.runtime.context.ExecutionContext` built from it as
``context=``.
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
    shard_timeout:
        Wall-clock budget (seconds) for each shard of a supervised
        dispatch, measured from its own submission; ``None`` disables
        the deadline (worker *crashes* are still detected, hangs are
        not). The CLI flag ``--shard-timeout`` maps here.
    max_retries:
        How many times one shard is re-dispatched after a timeout or
        worker death before degrading to a serial in-process
        evaluation. The CLI flag ``--max-retries`` maps here.
    calibration:
        A measured serial/sharded crossover model (duck-typed like
        :class:`~repro.runtime.calibrate.CrossoverCalibration`: needs
        ``sharded_wins(cells)`` and ``breakeven_cells``). When present,
        the planner routes batch workloads by the *measured* break-even
        point instead of the static
        :data:`~repro.runtime.planner.SHARDED_MIN_CELLS` guess, and
        the sharded backend sizes shards from the same cost model.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    shard_timeout: Optional[float] = 30.0
    max_retries: int = 2
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
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ConfigurationError(
                f"shard_timeout must be positive or None, got "
                f"{self.shard_timeout!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
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
