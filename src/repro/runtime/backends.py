"""The backend protocol and the four engine adapters.

A :class:`Backend` wraps one evaluation engine behind a uniform
capability surface so the :class:`~repro.runtime.context.ExecutionContext`
can route any workload without knowing engine internals:

* ``"scalar"`` — the dict-sweep :class:`~repro.analysis.TreeAnalyzer`
  (``use_engine=False``); cheapest for one-off point queries on small
  trees, and the reference semantics everything else is pinned against.
* ``"compiled"`` — the vectorized :class:`~repro.engine.TimingTable` /
  :func:`~repro.engine.analyze_batch` pair. A session reads every value
  (sums and ``elmore_delay`` included) from one table; only a tree
  outside the closed forms' domain gets the scalar state instead, so
  the scalar path's typed errors surface unchanged.
* ``"incremental"`` — the delta-update
  :class:`~repro.engine.incremental.IncrementalAnalyzer` for
  edit-stream workloads.
* ``"sharded"`` — the multi-process :func:`~repro.engine.analyze_many`
  / :func:`~repro.engine.analyze_batch_sharded` dispatch layer.

Every adapter answers the same queries with bitwise-identical values on
in-domain trees — the cross-backend equivalence suite pins that — so
routing is purely a *cost* decision, never a *semantics* one.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.analyzer import NodeTiming, TreeAnalyzer
from ..analysis.delay import elmore_delay
from ..circuit.tree import RLCTree
from ..engine import (
    analyze_batch,
    analyze_many,
    evaluate,
    fast_path_eligible,
    timing_table,
)
from ..engine.compiled import CompiledTree
from ..engine.incremental import IncrementalAnalyzer
from ..engine.sharded import ShardError, analyze_batch_sharded
from ..engine.table import BatchTiming, TimingTable
from ..errors import ConfigurationError, DispatchError
from .config import BACKEND_NAMES, RuntimeConfig

__all__ = [
    "CAP_POINT",
    "CAP_TABLE",
    "CAP_BATCH",
    "CAP_EDIT",
    "CAP_MANY",
    "CAP_SWEEP",
    "Backend",
    "SessionState",
    "BackendRegistry",
    "default_registry",
]

#: Capability labels: scalar point-query, full-table, batch ``S x n``,
#: edit-stream, multi-tree, chunked lazy sweep.
CAP_POINT = "point"
CAP_TABLE = "table"
CAP_BATCH = "batch"
CAP_EDIT = "edit"
CAP_MANY = "many"
CAP_SWEEP = "sweep"

TreeSource = Union[RLCTree, CompiledTree]


class SessionState(abc.ABC):
    """Per-tree evaluation state owned by one runtime session."""

    @abc.abstractmethod
    def value(self, metric: str, node: str) -> float:
        """One metric at one node (``"elmore_delay"`` included)."""

    @abc.abstractmethod
    def timing(self, node: str) -> NodeTiming:
        """Every metric at one node."""

    @abc.abstractmethod
    def sums(self, node: str) -> Tuple[float, float]:
        """``(T_RC, T_LC)`` at one node."""

    @abc.abstractmethod
    def report(self, nodes: Optional[Sequence[str]] = None) -> List[NodeTiming]:
        """Per-node metrics (default: every node)."""

    def table(self) -> Optional[TimingTable]:
        """The vectorized full-tree table, when this state has one."""
        return None

    def editor(self) -> IncrementalAnalyzer:
        """The live delta-update analyzer (incremental states only)."""
        raise ConfigurationError(
            "this session's backend does not support edit streams; "
            "force backend='incremental'"
        )


def _require_tree(source: TreeSource, backend: str) -> RLCTree:
    if not isinstance(source, RLCTree):
        raise ConfigurationError(
            f"backend {backend!r} needs an RLCTree session source, got "
            f"{type(source).__name__}"
        )
    return source


class _AnalyzerState(SessionState):
    """Session state backed by the scalar :class:`TreeAnalyzer`."""

    def __init__(self, analyzer: TreeAnalyzer):
        self._analyzer = analyzer

    def value(self, metric: str, node: str) -> float:
        if metric == "elmore_delay":
            return float(self._analyzer.elmore_delay(node))
        method = {
            "t_rc": lambda n: self._analyzer.sums(n)[0],
            "t_lc": lambda n: self._analyzer.sums(n)[1],
            "zeta": self._analyzer.zeta,
            "omega_n": self._analyzer.omega_n,
            "delay_50": self._analyzer.delay_50,
            "rise_time": self._analyzer.rise_time,
            "overshoot": self._analyzer.overshoot,
            "settling": self._analyzer.settling_time,
            "settling_time": self._analyzer.settling_time,
        }.get(metric)
        if method is None:
            raise ConfigurationError(f"unknown metric {metric!r}")
        return float(method(node))

    def timing(self, node: str) -> NodeTiming:
        return self._analyzer.timing(node)

    def sums(self, node: str) -> Tuple[float, float]:
        return self._analyzer.sums(node)

    def report(self, nodes: Optional[Sequence[str]] = None) -> List[NodeTiming]:
        return self._analyzer.report(None if nodes is None else list(nodes))


class _TableState(SessionState):
    """Session state backed by one immutable :class:`TimingTable`."""

    def __init__(self, table: TimingTable):
        self._table = table

    def value(self, metric: str, node: str) -> float:
        if metric == "elmore_delay":
            return float(elmore_delay(self._table.value("t_rc", node)))
        return float(self._table.value(metric, node))

    def timing(self, node: str) -> NodeTiming:
        return self._table.timing(node)

    def sums(self, node: str) -> Tuple[float, float]:
        return (
            self._table.value("t_rc", node),
            self._table.value("t_lc", node),
        )

    def report(self, nodes: Optional[Sequence[str]] = None) -> List[NodeTiming]:
        return self._table.timings(nodes)

    def table(self) -> Optional[TimingTable]:
        return self._table


class _IncrementalState(SessionState):
    """Session state backed by a live delta-update analyzer."""

    def __init__(self, analyzer: IncrementalAnalyzer):
        self._incremental = analyzer

    def value(self, metric: str, node: str) -> float:
        if metric == "elmore_delay":
            return float(elmore_delay(self._incremental.sums(node)[0]))
        return float(self._incremental.value(metric, node))

    def timing(self, node: str) -> NodeTiming:
        return self._incremental.timing(node)

    def sums(self, node: str) -> Tuple[float, float]:
        return self._incremental.sums(node)

    def report(self, nodes: Optional[Sequence[str]] = None) -> List[NodeTiming]:
        table = self._incremental.timing_table()
        if not fast_path_eligible(table.metrics.t_rc, table.metrics.t_lc):
            # The table tabulates out-of-domain sums without a check; the
            # per-node path raises their typed error, as timing() does.
            selected = table.names if nodes is None else nodes
            return [self._incremental.timing(node) for node in selected]
        return table.timings(nodes)

    def table(self) -> Optional[TimingTable]:
        return self._incremental.timing_table()

    def editor(self) -> IncrementalAnalyzer:
        return self._incremental


class Backend(abc.ABC):
    """One evaluation engine behind the uniform runtime surface."""

    #: Registry key; one of :data:`~repro.runtime.config.BACKEND_NAMES`.
    name: str = ""
    #: Workload kinds this backend can serve.
    capabilities: frozenset = frozenset()

    def supports(self, kind: str) -> bool:
        return kind in self.capabilities

    def require(self, kind: str) -> None:
        if not self.supports(kind):
            raise ConfigurationError(
                f"backend {self.name!r} does not support {kind!r} "
                f"workloads (capabilities: {sorted(self.capabilities)})"
            )

    @abc.abstractmethod
    def open(
        self, source: TreeSource, settle_band: float, config: RuntimeConfig
    ) -> SessionState:
        """Build per-tree session state for point/table/edit queries."""

    def batch(
        self,
        compiled: CompiledTree,
        rlc: np.ndarray,
        settle_band: float,
        metrics: Optional[Sequence[str]],
        config: RuntimeConfig,
    ) -> BatchTiming:
        """Evaluate an ``(S, 3, n)`` value block over one topology."""
        self.require(CAP_BATCH)
        raise NotImplementedError

    def many(
        self,
        trees: Sequence[TreeSource],
        settle_band: float,
        metrics: Optional[Sequence[str]],
        config: RuntimeConfig,
    ) -> List[Union[TimingTable, ShardError]]:
        """Evaluate independent trees, one result per input in order."""
        self.require(CAP_MANY)
        raise NotImplementedError


class ScalarBackend(Backend):
    """The reference dict-sweep analyzer (``use_engine=False``)."""

    name = "scalar"
    # "edit" here means re-sweeping per edit: any per-tree backend can
    # serve an edit stream by recomputation, only the incremental one
    # offers a live editor(). Forcing scalar/compiled on edit workloads
    # is the escape hatch apps use to benchmark against delta updates.
    capabilities = frozenset({CAP_POINT, CAP_TABLE, CAP_EDIT})

    def open(self, source, settle_band, config):
        tree = _require_tree(source, self.name)
        return _AnalyzerState(
            TreeAnalyzer(tree, settle_band=settle_band, use_engine=False)
        )


class CompiledBackend(Backend):
    """The vectorized table/batch engine.

    A session is one :class:`TimingTable`, whatever the source type; a
    tree outside the closed forms' domain gets the scalar state instead.
    """

    name = "compiled"
    capabilities = frozenset(
        {CAP_POINT, CAP_TABLE, CAP_BATCH, CAP_EDIT, CAP_MANY, CAP_SWEEP}
    )

    def open(self, source, settle_band, config):
        if isinstance(source, CompiledTree):
            return _TableState(evaluate(source, settle_band=settle_band))
        # An empty tree takes the scalar state too, which rejects it.
        table = timing_table(source, settle_band) if source.size else None
        if table is None:
            return ScalarBackend().open(source, settle_band, config)
        return _TableState(table)

    def batch(self, compiled, rlc, settle_band, metrics, config):
        return analyze_batch(
            compiled, rlc, settle_band=settle_band, metrics=metrics
        )

    def many(self, trees, settle_band, metrics, config):
        # workers=1 runs the exact same unit code path serially, so the
        # results are bitwise identical to pool dispatch.
        return analyze_many(
            trees, settle_band=settle_band, metrics=metrics, workers=1
        )


class IncrementalBackend(Backend):
    """The O(depth) delta-update engine for edit-heavy loops."""

    name = "incremental"
    capabilities = frozenset({CAP_POINT, CAP_TABLE, CAP_EDIT})

    def open(self, source, settle_band, config):
        return _IncrementalState(
            IncrementalAnalyzer(
                source,
                settle_band=settle_band,
                flush_threshold=config.flush_threshold,
            )
        )


def _supervision_policy(config: RuntimeConfig):
    """The dispatch-layer supervision policy this config asks for."""
    from ..engine.dispatch import SupervisionPolicy

    return SupervisionPolicy(
        shard_timeout=config.shard_timeout,
        max_retries=config.max_retries,
        backoff=config.retry_backoff,
    )


class ShardedBackend(Backend):
    """The multi-process dispatch layer over the compiled kernels.

    Every dispatch runs under the supervision policy the config's
    ``shard_timeout``/``max_retries``/``retry_backoff`` knobs describe:
    worker death and hung shards cost a bounded retry (with automatic
    pool rebuild) and at worst a serial in-process evaluation — the
    call never hangs and the numbers never change.
    """

    name = "sharded"
    capabilities = frozenset(
        {CAP_POINT, CAP_TABLE, CAP_BATCH, CAP_MANY, CAP_SWEEP}
    )

    def open(self, source, settle_band, config):
        result = analyze_many(
            [source],
            settle_band=settle_band,
            workers=config.workers,
            supervision=_supervision_policy(config),
        )[0]
        if isinstance(result, ShardError):
            raise DispatchError(str(result))
        return _TableState(result)

    def batch(self, compiled, rlc, settle_band, metrics, config):
        scenarios = int(rlc.shape[0])
        workers = config.workers if config.parallel else None
        if config.shards is not None:
            shards = config.shards
        elif config.calibration is not None and workers:
            # Cost-model shard sizing: near the break-even point fewer,
            # larger shards amortize dispatch overhead better than one
            # shard per worker.
            from .calibrate import plan_shards

            shards = plan_shards(
                scenarios * compiled.size, workers, config.calibration
            )
        else:
            shards = min(workers or scenarios, scenarios)
        return analyze_batch_sharded(
            compiled,
            rlc,
            settle_band=settle_band,
            metrics=metrics,
            shards=shards,
            workers=workers,
            supervision=_supervision_policy(config),
        )

    def many(self, trees, settle_band, metrics, config):
        return analyze_many(
            trees,
            settle_band=settle_band,
            metrics=metrics,
            workers=config.workers,
            supervision=_supervision_policy(config),
        )


class BackendRegistry:
    """Name -> :class:`Backend` mapping; the seam future engines plug into."""

    def __init__(self):
        self._backends: Dict[str, Backend] = {}

    def register(self, backend: Backend, replace: bool = False) -> None:
        if not backend.name:
            raise ConfigurationError("backend must carry a non-empty name")
        if backend.name in self._backends and not replace:
            raise ConfigurationError(
                f"backend {backend.name!r} is already registered; pass "
                "replace=True to override"
            )
        self._backends[backend.name] = backend

    def get(self, name: str) -> Backend:
        try:
            return self._backends[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown backend {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    @classmethod
    def with_defaults(cls) -> "BackendRegistry":
        registry = cls()
        for backend in (
            ScalarBackend(),
            CompiledBackend(),
            IncrementalBackend(),
            ShardedBackend(),
        ):
            registry.register(backend)
        assert registry.names() == BACKEND_NAMES
        return registry


_DEFAULT_REGISTRY: Optional[BackendRegistry] = None


def default_registry() -> BackendRegistry:
    """The process-wide registry holding the four stock backends."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = BackendRegistry.with_defaults()
    return _DEFAULT_REGISTRY
