"""The one instrumentation surface of the execution runtime.

:class:`RuntimeStats` aggregates everything a production operator wants
from one place: per-backend dispatch counts, per-workload-kind wall
clock, plan provenance tallies, the engine-layer cache counters
(topology LRU, incremental engine) and the dispatch pool's state.
``ExecutionContext.stats()`` returns its snapshot; the CLI prints it
under ``--debug``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict

__all__ = ["RuntimeStats"]


class RuntimeStats:
    """Mutable counters for one :class:`ExecutionContext`."""

    def __init__(self):
        self._dispatch: Dict[str, int] = {}
        self._workloads: Dict[str, int] = {}
        self._phase_seconds: Dict[str, float] = {}
        self._plans = {"auto": 0, "forced": 0, "degraded": 0}
        self._pool_dispatches = 0
        self._sweep_runs = 0
        self._sweep_chunks = 0
        self._sweep_cse_hits = 0
        self._sweep_unique_nodes = 0
        self._sweep_total_refs = 0
        self._sweep_peak_chunk_bytes = 0
        self._sweep_backends: Dict[str, int] = {}
        self._groups: Dict[str, Callable[[], dict]] = {}

    # -- recording ---------------------------------------------------------

    def register_group(self, name: str, provider: Callable[[], dict]) -> None:
        """Attach an extra named snapshot group (e.g. ``"service"``).

        ``provider()`` runs at :meth:`snapshot` time; registering the
        same name again replaces the provider. Registered groups
        survive :meth:`reset` — a counter reset must not silently
        unhook a live service's instrumentation.
        """
        self._groups[name] = provider

    def record_plan(self, forced: bool, degraded: bool = False) -> None:
        self._plans["forced" if forced else "auto"] += 1
        if degraded:
            self._plans["degraded"] += 1

    def count(self, backend: str, kind: str) -> None:
        """Count one dispatch without timing it."""
        self._dispatch[backend] = self._dispatch.get(backend, 0) + 1
        self._workloads[kind] = self._workloads.get(kind, 0) + 1
        if backend == "sharded":
            self._pool_dispatches += 1

    @contextmanager
    def record(self, backend: str, kind: str):
        """Count one dispatch and time it into the kind's phase bucket."""
        self.count(backend, kind)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._phase_seconds[kind] = (
                self._phase_seconds.get(kind, 0.0) + elapsed
            )

    def record_sweep_run(self, provenance: Dict[str, int]) -> None:
        """Count one lazy-sweep run and fold in its compiler counters.

        ``provenance`` carries the compiled sweep's ``cse_hits`` /
        ``unique_nodes`` / ``total_refs`` (missing keys count zero).
        """
        self._sweep_runs += 1
        self._sweep_cse_hits += int(provenance.get("cse_hits", 0))
        self._sweep_unique_nodes += int(provenance.get("unique_nodes", 0))
        self._sweep_total_refs += int(provenance.get("total_refs", 0))

    def record_sweep_chunk(self, backend: str, staged_bytes: int) -> None:
        """Count one executed sweep chunk and its staged-buffer size."""
        self._sweep_chunks += 1
        self._sweep_backends[backend] = (
            self._sweep_backends.get(backend, 0) + 1
        )
        self._sweep_peak_chunk_bytes = max(
            self._sweep_peak_chunk_bytes, int(staged_bytes)
        )

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Everything, as one nested plain-dict (safe to json-dump).

        Keys: ``"dispatch"`` (per-backend call counts), ``"workloads"``
        (per-kind call counts), ``"phases"`` (per-kind wall-clock
        seconds), ``"plans"`` (auto vs forced vs breaker-degraded
        decisions), ``"caches"`` (the engine layer's
        :func:`~repro.engine.cache_info` groups), ``"pool"`` (worker
        pool size and generation, sharded dispatches through this
        context),
        ``"supervision"`` (the dispatch layer's process-wide failure
        telemetry: timeouts, retries, rebuilds, worker deaths, serial
        fallbacks, per-worker failure counts), ``"transport"`` (the
        zero-copy story made observable: bytes pickled to and from
        workers, arena-segment reuse hits and each persistent arena's
        capacity/generation) and ``"sweep"`` (the lazy-sweep executor:
        runs and chunks executed, the compiler's CSE hit/node/ref
        tallies, the largest staged chunk in bytes and per-backend
        chunk counts).
        """
        from ..engine import cache_info
        from ..engine.dispatch import (
            arena_info,
            dispatch_telemetry,
            pool_generation,
            pool_size,
        )

        telemetry = dispatch_telemetry()
        snapshot = {
            "dispatch": dict(self._dispatch),
            "workloads": dict(self._workloads),
            "phases": dict(self._phase_seconds),
            "plans": dict(self._plans),
            "caches": cache_info(),
            "pool": {
                "workers": pool_size(),
                "generation": pool_generation(),
                "sharded_dispatches": self._pool_dispatches,
            },
            "supervision": telemetry,
            "transport": {
                "bytes_shipped": telemetry["bytes_shipped"],
                "bytes_returned": telemetry["bytes_returned"],
                "arena_hits": telemetry["arena_hits"],
                "arenas": arena_info(),
            },
            "sweep": {
                "runs": self._sweep_runs,
                "chunks": self._sweep_chunks,
                "cse_hits": self._sweep_cse_hits,
                "unique_nodes": self._sweep_unique_nodes,
                "total_refs": self._sweep_total_refs,
                "peak_chunk_bytes": self._sweep_peak_chunk_bytes,
                "backends": dict(self._sweep_backends),
            },
        }
        for name, provider in self._groups.items():
            snapshot[name] = provider()
        return snapshot

    def reset(self) -> None:
        groups = self._groups
        self.__init__()
        self._groups = groups
