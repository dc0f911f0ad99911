"""The execution context: one front door to all four engines.

:class:`ExecutionContext` owns the routing policy
(:class:`~repro.runtime.config.RuntimeConfig` +
:func:`~repro.runtime.planner.plan`), the backend registry, the
instrumentation counters and — when the sharded backend engages — the
worker pool and shared-memory lifetime. Apps, the CLI and the guarded
pipeline all go through it:

* :meth:`ExecutionContext.session` — per-tree point/table/edit work,
  returning a :class:`Session` whose backend was chosen by the planner
  (or forced);
* :meth:`ExecutionContext.batch` / :meth:`ExecutionContext.analyze_many`
  — scenario-batch and multi-tree work;
* :meth:`ExecutionContext.sweep_chunks` — chunked lazy sweeps: every
  staged scenario block is planned and dispatched individually as a
  ``"sweep"`` workload, so the calibrated serial/sharded crossover
  applies per chunk;
* :meth:`ExecutionContext.track` — an instrumentation hook for code
  that drives engine primitives directly but still wants its work
  counted on the one surface;
* :meth:`ExecutionContext.stats` — the single instrumentation snapshot.

Used as a context manager, the context guarantees worker-pool shutdown
and shared-memory release even when the protected block raises — the
leak path ``analyze_many`` callers used to have on error exits.
"""

from __future__ import annotations

import warnings
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..analysis.analyzer import NodeTiming
from ..circuit.tree import RLCTree
from ..engine.compiled import CompiledTree
from ..engine.incremental import IncrementalAnalyzer
from ..engine.sharded import ShardError
from ..engine.table import BatchTiming, TimingTable, iter_analyze_batch
from ..errors import DispatchError
from .backends import BackendRegistry, SessionState, default_registry
from .breaker import BreakerBoard
from .config import RuntimeConfig
from .planner import ExecutionPlan, Workload, plan
from .stats import RuntimeStats

__all__ = [
    "ExecutionContext",
    "Session",
    "default_context",
    "set_default_context",
    "reset_default_context",
    "resolve_context",
    "reset_degradation_warnings",
]

TreeSource = Union[RLCTree, CompiledTree]

#: Common prefix of every degradation warning; the targeted pytest
#: ``filterwarnings`` entry in pyproject.toml matches on it.
_DEGRADED_PREFIX = "repro.runtime degraded"

#: (from_backend, to_backend) pairs that already warned this process.
_degraded_warned: Set[Tuple[str, str]] = set()


def _warn_degraded(from_backend: str, to_backend: str) -> None:
    """Warn (once per route) that a tripped breaker rerouted a plan."""
    key = (from_backend, to_backend)
    if key in _degraded_warned:
        return
    _degraded_warned.add(key)
    warnings.warn(
        f"{_DEGRADED_PREFIX}: backend {from_backend!r} circuit breaker is "
        f"open; routing to {to_backend!r} instead (results are identical, "
        "throughput is reduced until the breaker closes)",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_degradation_warnings() -> None:
    """Forget which degradations already warned (test isolation)."""
    _degraded_warned.clear()


class Session:
    """One tree bound to one planned backend, with cached state.

    Obtained from :meth:`ExecutionContext.session`; every query is
    counted against the owning context's stats under the session's
    workload kind.
    """

    def __init__(
        self,
        context: "ExecutionContext",
        state: SessionState,
        execution_plan: ExecutionPlan,
    ):
        self._context = context
        self._state = state
        self._plan = execution_plan

    @property
    def plan(self) -> ExecutionPlan:
        """The routing decision (backend + provenance) behind this session."""
        return self._plan

    @property
    def backend(self) -> str:
        return self._plan.backend

    def value(self, metric: str, node: str) -> float:
        with self._record():
            return self._state.value(metric, node)

    def timing(self, node: str) -> NodeTiming:
        with self._record():
            return self._state.timing(node)

    def sums(self, node: str):
        with self._record():
            return self._state.sums(node)

    def report(self, nodes: Optional[Sequence[str]] = None) -> List[NodeTiming]:
        with self._record():
            return self._state.report(nodes)

    def table(self) -> TimingTable:
        with self._record():
            return self._state.table()

    @property
    def generation(self) -> int:
        """The state's edit generation: a :meth:`table` read stays
        current until it changes (only an incremental session's edits
        change it)."""
        return self._state.generation

    def count_read(self) -> None:
        """Count one dispatch for a read the caller answers from a
        :meth:`table` it already holds at the current generation."""
        self._context._stats.count(self._plan.backend, self._plan.workload.kind)

    def editor(self) -> IncrementalAnalyzer:
        """The live delta-update analyzer (incremental sessions only)."""
        return self._state.editor()

    def _record(self):
        return self._context._stats.record(
            self._plan.backend, self._plan.workload.kind
        )


class ExecutionContext:
    """Routing, caching and instrumentation for one runtime scope."""

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        registry: Optional[BackendRegistry] = None,
    ):
        self._config = config or RuntimeConfig()
        self._registry = registry or default_registry()
        self._stats = RuntimeStats()
        # A calibration measured under a different worker budget must
        # not drive this context's routing: its sharded cost curve was
        # fitted for another pool shape, so its break-even point is
        # meaningless here. Ignore it (warn once) and record the
        # staleness so stats()/operators can see why routing fell back
        # to the static thresholds.
        self._calibration_stale = False
        calibration = self._config.calibration
        if (
            calibration is not None
            and self._config.workers is not None
            and getattr(calibration, "workers", None)
            not in (None, self._config.workers)
        ):
            from dataclasses import replace

            from .calibrate import _warn_calibration

            self._calibration_stale = True
            _warn_calibration(
                f"stale-workers:{calibration.workers}->{self._config.workers}",
                f"ignoring calibration measured at workers="
                f"{calibration.workers} for a context configured with "
                f"workers={self._config.workers}; re-run run_calibration "
                "with the current worker budget",
            )
            self._config = replace(self._config, calibration=None)
        self._breakers = BreakerBoard(
            threshold=self._config.breaker_threshold,
            cooldown=self._config.breaker_cooldown,
        )
        self._closed = False

    # -- policy ------------------------------------------------------------

    @property
    def config(self) -> RuntimeConfig:
        return self._config

    @property
    def registry(self) -> BackendRegistry:
        return self._registry

    @property
    def breakers(self) -> BreakerBoard:
        """The per-backend circuit breakers this context maintains."""
        return self._breakers

    def plan(
        self, workload: Workload, backend: Optional[str] = None
    ) -> ExecutionPlan:
        """Route one workload; forced ``backend`` always wins.

        A tripped ``sharded`` breaker is routed around (``sharded ->
        compiled``); the returned plan records the degradation in its
        provenance and a warn-once ``RuntimeWarning`` flags the first
        occurrence of each route.
        """
        decision = plan(
            workload,
            self._config,
            backend,
            unavailable=self._breakers.open_backends(),
        )
        # Surface capability mismatches at plan time, not mid-dispatch.
        self._registry.get(decision.backend).require(workload.kind)
        self._stats.record_plan(decision.forced, decision.degraded)
        if decision.degraded:
            _warn_degraded(decision.degraded_from, decision.backend)
        return decision

    def _dispatch(self, decision: ExecutionPlan, call: Callable):
        """Run one backend call and keep its circuit breaker informed.

        For the sharded backend the dispatch-layer telemetry delta is
        the health signal: a pool rebuild during the call trips the
        breaker immediately (a worker died — the next calls should not
        pay for respawning workers again), a serial fallback counts as
        a failure, a clean run counts as a success (closing a half-open
        breaker). A :class:`~repro.errors.DispatchError` — shards
        failed outright — always counts as a failure, whatever the
        backend.
        """
        breaker = self._breakers.breaker(decision.backend)
        if decision.backend != "sharded":
            try:
                return call()
            except DispatchError as exc:
                breaker.record_failure(str(exc))
                raise
        from ..engine.dispatch import dispatch_telemetry

        before = dispatch_telemetry()
        try:
            result = call()
        except DispatchError as exc:
            breaker.record_failure(str(exc))
            raise
        after = dispatch_telemetry()
        if after["rebuilds"] > before["rebuilds"]:
            breaker.trip("worker pool rebuilt during dispatch")
        elif after["serial_fallbacks"] > before["serial_fallbacks"]:
            breaker.record_failure("shard exhausted retries")
        else:
            breaker.record_success()
        return result

    # -- per-tree sessions -------------------------------------------------

    def session(
        self,
        tree: TreeSource,
        settle_band: float = 0.1,
        *,
        backend: Optional[str] = None,
        kind: Optional[str] = None,
        edits_expected: int = 0,
    ) -> Session:
        """Open per-tree state on the backend the planner picks.

        ``kind`` overrides the inferred workload kind (``"edit"`` when
        ``edits_expected`` is positive, else ``"table"``); pass
        ``kind="point"`` for one-shot single-node queries. Point and
        table sessions open the same compiled state: its point reads
        evaluate the O(1) kernel, its first ``table()``/``report()``
        the vector kernel, and both give the same bits.
        """
        size = tree.size if isinstance(tree, RLCTree) else tree.topology.size
        if kind is None:
            kind = "edit" if edits_expected > 0 else "table"
        workload = Workload(
            kind=kind, tree_size=size, edit_count=edits_expected
        )
        decision = self.plan(workload, backend)
        adapter = self._registry.get(decision.backend)
        with self._stats.record(decision.backend, kind):
            state = self._dispatch(
                decision,
                lambda: adapter.open(tree, settle_band, self._config),
            )
        return Session(self, state, decision)

    # -- bulk dispatch -----------------------------------------------------

    def batch(
        self,
        compiled: CompiledTree,
        rlc: np.ndarray,
        *,
        settle_band: float = 0.1,
        metrics: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
    ) -> BatchTiming:
        """Evaluate an ``(S, 3, n)`` value block over one topology."""
        rlc = np.asarray(rlc)
        workload = Workload(
            kind="batch",
            tree_size=compiled.topology.size,
            scenarios=int(rlc.shape[0]),
        )
        decision = self.plan(workload, backend)
        adapter = self._registry.get(decision.backend)
        with self._stats.record(decision.backend, "batch"):
            return self._dispatch(
                decision,
                lambda: adapter.batch(
                    compiled, rlc, settle_band, metrics, self._config
                ),
            )

    def sweep_chunks(
        self,
        compiled: CompiledTree,
        fill: Callable[[np.ndarray, int, int], None],
        scenarios: int,
        *,
        chunk_size: int,
        settle_band: float = 0.1,
        metrics: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        provenance: Optional[dict] = None,
    ):
        """Stream an S-scenario sweep as chunked batch dispatches.

        The lazy-sweep executor (:func:`repro.sweep.iter_sweep`) comes
        through here: ``fill(view, lo, hi)`` stages scenario rows
        ``[lo, hi)`` into one reused ``(chunk, 3, n)`` buffer (see
        :func:`~repro.engine.table.iter_analyze_batch`) and every
        staged chunk is planned and dispatched *individually* as a
        ``"sweep"`` workload — the calibrated serial/sharded crossover
        decides per chunk, each chunk's backend and staged bytes land
        in ``stats()["sweep"]``, and a breaker tripping mid-sweep
        degrades the remaining chunks without losing the stream.
        ``provenance`` carries the sweep compiler's CSE counters into
        the same stats group. Returns an iterator of ``(offset,
        BatchTiming)`` pairs in offset order.
        """
        size = compiled.topology.size
        self._stats.record_sweep_run(provenance or {})

        def evaluate(view: np.ndarray, lo: int, hi: int) -> BatchTiming:
            workload = Workload(
                kind="sweep", tree_size=size, scenarios=hi - lo
            )
            decision = self.plan(workload, backend)
            adapter = self._registry.get(decision.backend)
            with self._stats.record(decision.backend, "sweep"):
                result = self._dispatch(
                    decision,
                    lambda: adapter.batch(
                        compiled, view, settle_band, metrics, self._config
                    ),
                )
            self._stats.record_sweep_chunk(
                decision.backend, int(view.nbytes)
            )
            return result

        return iter_analyze_batch(
            compiled,
            fill,
            scenarios,
            chunk_size=chunk_size,
            settle_band=settle_band,
            metrics=metrics,
            evaluate=evaluate,
        )

    def analyze_many(
        self,
        trees: Sequence[TreeSource],
        *,
        settle_band: float = 0.1,
        metrics: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
    ) -> List[Union[TimingTable, ShardError]]:
        """Evaluate independent trees; one result per input, in order."""
        trees = list(trees)
        sizes = [
            t.size if isinstance(t, RLCTree) else t.topology.size
            for t in trees
        ]
        workload = Workload(
            kind="many",
            tree_size=max(sizes, default=0),
            tree_count=len(trees),
        )
        decision = self.plan(workload, backend)
        adapter = self._registry.get(decision.backend)
        with self._stats.record(decision.backend, "many"):
            return self._dispatch(
                decision,
                lambda: adapter.many(
                    trees, settle_band, metrics, self._config
                ),
            )

    # -- calibration -------------------------------------------------------

    def calibrate(self, **kwargs):
        """Measure the serial/sharded crossover and adopt it for routing.

        Runs :func:`~repro.runtime.calibrate.run_calibration` with this
        context's worker budget (keyword arguments are forwarded, e.g.
        ``sizes=``/``repeats=``/``measure=``), installs the result as
        ``config.calibration`` so subsequent batch plans route by the
        measured break-even point, and returns the calibration for
        persisting via
        :func:`~repro.runtime.calibrate.save_calibration`.
        """
        from dataclasses import replace

        from .calibrate import run_calibration

        calibration = run_calibration(workers=self._config.workers, **kwargs)
        self._config = replace(self._config, calibration=calibration)
        return calibration

    # -- instrumentation ---------------------------------------------------

    def track(self, backend: str, kind: str):
        """Count and time engine work driven outside the dispatch methods.

        For app code that calls engine primitives directly (vectorized
        DP kernels, hand-rolled probe loops) but should still show up
        in :meth:`stats` — use as ``with context.track("compiled",
        "batch"): ...``.
        """
        self._registry.get(backend)  # validate the name
        return self._stats.record(backend, kind)

    def add_stats_group(self, name: str, provider: Callable[[], dict]) -> None:
        """Register an extra named group in :meth:`stats` snapshots.

        The seam higher layers (the analysis service, future MCP
        frontends) use to surface their own counters on the one
        instrumentation surface: ``provider()`` is called at snapshot
        time and its dict lands under ``stats()[name]``.
        """
        self._stats.register_group(name, provider)

    def stats(self) -> dict:
        """The one instrumentation snapshot (see :class:`RuntimeStats`).

        On top of the :class:`RuntimeStats` groups, ``"breakers"``
        holds this context's per-backend circuit-breaker states and
        transition history, ``"calibration_stale"`` flags a persisted
        crossover calibration that was ignored at construction because
        it was measured under a different worker budget, and any groups
        registered via :meth:`add_stats_group` (e.g. the analysis
        service's ``"service"`` group) appear under their own names.
        """
        snapshot = self._stats.snapshot()
        snapshot["breakers"] = self._breakers.snapshot()
        snapshot["calibration_stale"] = self._calibration_stale
        return snapshot

    def reset_stats(self) -> None:
        self._stats.reset()

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear down pool workers and release the shared-memory arenas.

        Idempotent. The dispatch pool is process-global, so closing a
        context also closes the pool for sibling contexts — they will
        lazily respawn it. Long-lived services should keep one context
        open rather than wrapping every call.
        """
        if self._closed:
            return
        self._closed = True
        from ..engine import shutdown_pool
        from ..engine.dispatch import release_arenas

        shutdown_pool()
        release_arenas()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Teardown runs on exceptions too, so an error path through
        # analyze_many and friends cannot leak the pool or the arenas.
        self.close()


_default_context: Optional[ExecutionContext] = None


def default_context() -> ExecutionContext:
    """The process-wide context used when callers pass none.

    Lazily created; never closed automatically (the dispatch layer's
    own ``atexit`` hooks release the pool and shared memory at process
    exit).
    """
    global _default_context
    if _default_context is None or _default_context.closed:
        _default_context = ExecutionContext()
    return _default_context


def set_default_context(context: ExecutionContext) -> None:
    global _default_context
    _default_context = context


def reset_default_context() -> None:
    """Drop the process default (a fresh one is created on next use)."""
    global _default_context
    _default_context = None


def resolve_context(
    context: Optional[ExecutionContext] = None,
    config: Optional[RuntimeConfig] = None,
) -> ExecutionContext:
    """The context an app entry point should use.

    An explicit ``context`` wins; an explicit ``config`` gets its own
    (unclosed) context so the override cannot leak into the shared
    default; otherwise the process default is returned.
    """
    if context is not None:
        if config is not None:
            raise_config_conflict()
        return context
    if config is not None:
        return ExecutionContext(config)
    return default_context()


def raise_config_conflict() -> None:
    from ..errors import ConfigurationError

    raise ConfigurationError(
        "pass either context= or config=, not both; build the context "
        "from the config first"
    )
