"""The unified execution runtime: registry, routing, instrumentation.

The paper's closed forms are evaluated by one pair of kernels over
one tree's compiled sums, driven three ways — in process
(:class:`~repro.engine.TimingTable` and the batch kernels), by delta
updates (:class:`~repro.engine.incremental.IncrementalAnalyzer`) and
by the sharded multi-process dispatch layer. This package is the seam
that makes them one system:

* :mod:`~repro.runtime.backends` — the :class:`Backend` protocol
  (capabilities: point, table, batch, edit, many) with adapters
  wrapping the four engines, and the :class:`BackendRegistry` future
  backends (GPU kernels, async serving) plug into;
* :mod:`~repro.runtime.planner` — workload-aware routing: tree size,
  batch size, edit count and tree count pick the backend, every
  decision carries provenance, and ``backend="..."`` always wins;
* :mod:`~repro.runtime.context` — :class:`ExecutionContext` /
  :class:`Session`, the one front door apps, the CLI and the guarded
  pipeline dispatch through (and the context manager that guarantees
  pool/shared-memory teardown on exceptions);
* :mod:`~repro.runtime.config` — :class:`RuntimeConfig`, the routing
  and supervision knobs an :class:`ExecutionContext` is built from;
  every entry point takes that context as ``context=``;
* :mod:`~repro.runtime.calibrate` — the measured serial/sharded
  crossover: microbenchmark both paths, fit linear cost models, route
  batches by the fitted break-even point (persisted in
  ``BENCH_crossover.json``) so planner-routed calls are never slower
  than serial;
* :mod:`~repro.runtime.stats` — the single instrumentation surface
  behind ``context.stats()`` and CLI ``--debug``;
* :mod:`~repro.runtime.breaker` — per-backend circuit breakers: N
  consecutive sharded failures (or one worker-pool rebuild) open the
  breaker, the planner degrades a tripped route ``sharded ->
  compiled`` with provenance and a warn-once notice, and a
  cooldown-expired half-open probe closes it again.

See ``docs/ARCHITECTURE.md`` for the layer map and the routing
decision table, and ``docs/ROBUSTNESS.md`` for the process-level
fault-recovery story.
"""

from .backends import (
    Backend,
    BackendRegistry,
    CompiledBackend,
    IncrementalBackend,
    ScalarBackend,
    SessionState,
    ShardedBackend,
    default_registry,
)
from .calibrate import (
    CALIBRATION_FILE,
    CrossoverCalibration,
    load_calibration,
    plan_shards,
    reset_calibration_warnings,
    run_calibration,
    save_calibration,
)
from .breaker import BreakerBoard, CircuitBreaker
from .config import BACKEND_NAMES, RuntimeConfig
from .context import (
    ExecutionContext,
    Session,
    default_context,
    reset_default_context,
    reset_degradation_warnings,
    resolve_context,
    set_default_context,
)
from .planner import WORKLOAD_KINDS, ExecutionPlan, Workload, plan
from .stats import RuntimeStats

__all__ = [
    "BACKEND_NAMES",
    "CALIBRATION_FILE",
    "WORKLOAD_KINDS",
    "Backend",
    "BackendRegistry",
    "BreakerBoard",
    "CircuitBreaker",
    "CompiledBackend",
    "CrossoverCalibration",
    "ExecutionContext",
    "ExecutionPlan",
    "IncrementalBackend",
    "RuntimeConfig",
    "RuntimeStats",
    "ScalarBackend",
    "Session",
    "SessionState",
    "ShardedBackend",
    "Workload",
    "default_context",
    "default_registry",
    "load_calibration",
    "plan",
    "plan_shards",
    "run_calibration",
    "save_calibration",
    "reset_calibration_warnings",
    "reset_default_context",
    "reset_degradation_warnings",
    "resolve_context",
    "set_default_context",
]
