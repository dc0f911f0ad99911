"""The backend protocol and the four engine adapters.

A :class:`Backend` wraps one evaluation engine behind a uniform
capability surface so the :class:`~repro.runtime.context.ExecutionContext`
can route any workload without knowing engine internals:

* ``"compiled"`` — one tree's compiled sums for sessions, and the
  vectorized :func:`~repro.engine.analyze_batch` for batches. A
  session's point reads evaluate the O(1) kernel twin on one row; its
  ``table()``/``report()`` evaluate the vector kernel once, on first
  use. The two kernels agree bit for bit.
* ``"scalar"`` — the same session state as ``"compiled"`` under its own
  name and capability set; kept so ``--backend scalar`` and registries
  that name it keep working.
* ``"incremental"`` — the delta-update
  :class:`~repro.engine.incremental.IncrementalAnalyzer` for
  edit-stream workloads.
* ``"sharded"`` — the multi-process :func:`~repro.engine.analyze_many`
  / :func:`~repro.engine.analyze_batch_sharded` dispatch layer.

Every adapter reads the same compiled sums and the same two kernels, so
every query gets bitwise-identical values whatever the route, and a
node outside the closed forms' domain raises the same typed
:class:`~repro.errors.ElementValueError` on every route; routing is
purely a *cost* decision, never a *semantics* one.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.analyzer import NodeTiming
from ..analysis.delay import elmore_delay
from ..circuit.tree import RLCTree
from ..engine import analyze_batch, analyze_many
from ..engine.compiled import CompiledTree, compile_tree
from ..engine.incremental import IncrementalAnalyzer
from ..engine.kernels import (
    check_domain,
    metrics_from_sums,
    scalar_metrics,
    validate_settle_band,
)
from ..engine.sharded import ShardError, analyze_batch_sharded
from ..engine.table import BatchTiming, TimingTable, _metric_field
from ..errors import ConfigurationError, DispatchError, TopologyError
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

    @abc.abstractmethod
    def table(self) -> TimingTable:
        """The full-tree metric table; out-of-domain rows stay in it
        (non-finite) and its row accessors raise for them."""

    @property
    def generation(self) -> int:
        """Changes whenever an edit changes :meth:`table`'s answer; a
        state without edits stays at 0."""
        return 0

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


class _TreeState(SessionState):
    """Session state over one tree's compiled ``(T_RC, T_LC)`` arrays.

    The compiled, scalar and sharded backends all open this state. A
    point read checks its row's domain and evaluates the kernels' O(1)
    twin (:func:`~repro.engine.kernels.scalar_metrics`) until a table
    exists, and reads that table after; :meth:`table` and :meth:`report`
    evaluate the vector kernel once, on first use. Both kernels give the
    same bits, so which one serves a read is a cost choice only.
    """

    def __init__(
        self,
        names: Tuple[str, ...],
        index: Dict[str, int],
        t_rc: np.ndarray,
        t_lc: np.ndarray,
        settle_band: float,
        table: Optional[TimingTable] = None,
    ):
        self._names = names
        self._index = index
        self._t_rc = t_rc
        self._t_lc = t_lc
        self._settle_band = settle_band
        self._table = table

    @classmethod
    def from_source(cls, source: TreeSource, settle_band: float) -> "_TreeState":
        """Run both Appendix passes on ``source``; no metric kernel yet."""
        validate_settle_band(settle_band)
        if isinstance(source, CompiledTree):
            compiled = source
        elif source.size == 0:
            raise TopologyError("cannot analyze an empty tree")
        else:
            compiled = compile_tree(source)
        t_rc, t_lc = compiled.second_order_sums()
        return cls(
            compiled.names, compiled.topology.index, t_rc, t_lc, settle_band
        )

    @classmethod
    def from_table(cls, table: TimingTable) -> "_TreeState":
        """Wrap an already evaluated table (the sharded backend's)."""
        m = table.metrics
        return cls(
            table.names, table._index, m.t_rc, m.t_lc, table.settle_band, table
        )

    def sums(self, node: str) -> Tuple[float, float]:
        try:
            i = self._index[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None
        return float(self._t_rc[i]), float(self._t_lc[i])

    def value(self, metric: str, node: str) -> float:
        if metric == "elmore_delay":
            return float(elmore_delay(self.sums(node)[0]))
        if self._table is not None:
            return self._table.value(metric, node)
        field = _metric_field(metric)
        t_rc, t_lc = self.sums(node)
        check_domain(t_rc, t_lc, node)
        return scalar_metrics(t_rc, t_lc, self._settle_band)[field]

    def timing(self, node: str) -> NodeTiming:
        if self._table is not None:
            return self._table.timing(node)
        t_rc, t_lc = self.sums(node)
        check_domain(t_rc, t_lc, node)
        return NodeTiming(
            node=node, **scalar_metrics(t_rc, t_lc, self._settle_band)
        )

    def report(self, nodes: Optional[Sequence[str]] = None) -> List[NodeTiming]:
        return self.table().timings(nodes)

    def table(self) -> TimingTable:
        if self._table is None:
            self._table = TimingTable(
                names=self._names,
                settle_band=self._settle_band,
                metrics=metrics_from_sums(
                    self._t_rc, self._t_lc, self._settle_band
                ),
                _index=self._index,
            )
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
        return self._incremental.timing_table().timings(nodes)

    def table(self) -> TimingTable:
        return self._incremental.timing_table()

    @property
    def generation(self) -> int:
        return self._incremental.generation

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
    """The compiled session state under the ``"scalar"`` name.

    It has no engine of its own: it opens the same state as
    :class:`CompiledBackend`, so a forced ``scalar`` route answers with
    the default route's bits. It keeps its name and capability set for
    the callers and registries that name it, and still takes only an
    :class:`RLCTree` source.
    """

    name = "scalar"
    # "edit" here means re-sweeping per edit: any per-tree backend can
    # serve an edit stream by recomputation, only the incremental one
    # offers a live editor(). Forcing scalar/compiled on edit workloads
    # is the escape hatch apps use to benchmark against delta updates.
    capabilities = frozenset({CAP_POINT, CAP_TABLE, CAP_EDIT})

    def open(self, source, settle_band, config):
        return _TreeState.from_source(
            _require_tree(source, self.name), settle_band
        )


class CompiledBackend(Backend):
    """The vectorized table/batch engine.

    A session holds one tree's compiled sums, whatever the source type.
    """

    name = "compiled"
    capabilities = frozenset(
        {CAP_POINT, CAP_TABLE, CAP_BATCH, CAP_EDIT, CAP_MANY, CAP_SWEEP}
    )

    def open(self, source, settle_band, config):
        return _TreeState.from_source(source, settle_band)

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
        # Out-of-domain rows stay in the table and raise when read, as on
        # every other route, instead of failing the whole tree here.
        result = analyze_many(
            [source],
            settle_band=settle_band,
            workers=config.workers,
            check_domain=False,
            supervision=_supervision_policy(config),
        )[0]
        if isinstance(result, ShardError):
            raise DispatchError(str(result))
        return _TreeState.from_table(result)

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
