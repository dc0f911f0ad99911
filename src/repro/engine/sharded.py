"""Sharded multi-tree and scenario-shard dispatch across processes.

:func:`repro.engine.analyze_batch` vectorizes S scenarios of *one*
topology inside one process; this module is the next scale step the
workloads in the paper's Section 5 actually have — thousands of
independent closed-form net evaluations per optimization sweep:

* :func:`analyze_many` — a heterogeneous set of trees (distinct nets, or
  value-perturbed copies of a few nets), one
  :class:`~repro.engine.table.TimingTable` each;
* :func:`analyze_batch_sharded` — one huge ``(S, 3, n)`` scenario batch
  split into ``shards`` contiguous scenario ranges evaluated in
  parallel and reassembled in order.

Both follow the *compile once, ship CompiledTree + value blocks*
protocol of :mod:`repro.engine.dispatch`: structure travels as pickled
:class:`~repro.engine.compiled.CompiledTopology` payloads that seed each
worker's per-process topology cache, values travel through persistent
parent-owned shared-memory *arenas* (one per entry point, reused and
grown across calls — see :class:`repro.engine.dispatch.Arena`), and
workers write their metric rows straight into a shared result block, so
neither values nor results cross the pickle boundary when shared memory
is available (each direction falls back to inline pickling when it is
not). Results are stitched together in deterministic input order — the
evaluation itself is per-scenario independent elementwise math, so
sharded output is **bitwise identical** to the serial engine.

Failure is per shard, not per call: a shard that raises (or a unit
whose tree is outside the closed forms' domain) comes back as a
structured :class:`ShardError` — severity/code/message via the
robustness :class:`~repro.robustness.diagnostics.Diagnostic` machinery —
while the surviving shards still return their results. With
``shards=1``/``workers<=1``, or when no pool can be created, everything
runs serially in-process through the same code path.

Process-level failure is handled one layer up the same way: multi-worker
dispatches go through :func:`repro.engine.dispatch.run_supervised`, so a
worker that crashes or hangs costs a bounded retry (pool rebuild plus
re-dispatch under the :class:`~repro.engine.dispatch.SupervisionPolicy`)
and, at worst, a serial in-process evaluation of the affected shard —
never a hung or failed call, and never a result that differs from the
serial engine. ``fault_plan`` is the matching injection hook: a
:class:`~repro.robustness.faults.ProcessFaultPlan` (or any
``shard index → fault`` mapping) that makes chosen shards crash, hang
or stall deterministically inside the worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import ConfigurationError, DispatchError
from ..robustness.diagnostics import Diagnostic, Severity
from . import dispatch as _dispatch
from .compiled import CompiledTree, compile_tree, topology_key
from .compiled import topology_cache_info as _local_cache_info
from .kernels import METRIC_NAMES, MetricArrays, validate_settle_band
from .table import BatchTiming, TimingTable, _batch_values, _metric_field

__all__ = [
    "ShardError",
    "ShardOutcome",
    "analyze_many",
    "analyze_batch_sharded",
    "topology_cache_info",
    "dispatch_pool",
    "shutdown_pool",
]

#: Diagnostic code carried by every :class:`ShardError`.
SHARD_FAILURE_CODE = "shard-failure"


@dataclass(frozen=True)
class ShardError:
    """Structured record of one failed shard or work unit.

    ``scope`` is ``"tree"`` (an :func:`analyze_many` unit) or
    ``"scenarios"`` (an :func:`analyze_batch_sharded` shard);
    ``detail`` names the unit (``"tree 3"``, ``"scenarios 100:200"``).
    ``error_type``/``message``/``traceback`` describe the exception the
    worker captured, and ``pid``/``attempt``/``elapsed_s`` say which
    worker process failed, on which dispatch attempt, after how much
    wall clock — so a retried-then-failed shard is diagnosable from the
    exception alone. :attr:`diagnostic` renders the whole record through
    the robustness :class:`~repro.robustness.diagnostics.Diagnostic`
    machinery.
    """

    shard: int
    scope: str
    detail: str
    error_type: str
    message: str
    traceback: str = ""
    pid: Optional[int] = None
    attempt: int = 0
    elapsed_s: float = 0.0

    @property
    def diagnostic(self) -> Diagnostic:
        where = f"pid {self.pid}" if self.pid is not None else "no worker"
        return Diagnostic(
            severity=Severity.ERROR,
            code=SHARD_FAILURE_CODE,
            message=(
                f"{self.scope} shard {self.shard} ({self.detail}) failed: "
                f"{self.error_type}: {self.message} "
                f"[{where}, attempt {self.attempt}, "
                f"{self.elapsed_s:.3f}s elapsed]"
            ),
        )

    def __str__(self) -> str:
        return str(self.diagnostic)


@dataclass(frozen=True)
class ShardOutcome:
    """A surviving shard of a partially-failed sharded batch.

    ``bytes_shipped``/``bytes_returned`` record the pickle transport
    this shard actually paid (payload + any inline value slice out,
    pickled metric arrays back) — both ~0 on the arena path, which is
    how the zero-copy claim stays observable per shard.
    """

    shard: int
    start: int
    stop: int
    timing: BatchTiming
    bytes_shipped: int = 0
    bytes_returned: int = 0


def _resolve_workers(workers: Optional[int], units: int) -> int:
    """Effective worker count for ``units`` work units.

    ``workers=None`` uses the affinity-aware
    :func:`~repro.engine.dispatch.effective_cpu_count`, not raw
    ``os.cpu_count()`` — in a cgroup-limited container the difference
    decides whether parallel dispatch can possibly pay.
    """
    if workers is None:
        workers = _dispatch.effective_cpu_count()
    if workers < 0:
        raise ConfigurationError(
            f"workers must be non-negative, got {workers}"
        )
    return max(1, min(workers, units))


def _run_units(
    units: List,
    worker_fn,
    workers: int,
    supervision: Optional[_dispatch.SupervisionPolicy] = None,
    stage=None,
) -> List[Tuple]:
    """Run units through the supervised pool, or serially without one.

    Results come back in deterministic unit order regardless of worker
    scheduling. Worker functions capture their own exceptions, so the
    only failures that reach this layer are *process-level* — a worker
    crash, a hung shard, an uncreatable pool — and
    :func:`~repro.engine.dispatch.run_supervised` absorbs all of them
    (retry with pool rebuild, then serial in-process fallback).
    ``stage`` is forwarded to the supervisor's pipelining hook; in the
    serial path each unit is staged right before it runs.
    """
    if workers > 1:
        return _dispatch.run_supervised(
            units, worker_fn, workers, policy=supervision, stage=stage
        )
    out = []
    for unit in units:
        if stage is not None:
            stage(unit)
        out.append(worker_fn(unit))
    return out


def _selected_fields(select: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    """The metric fields a worker will produce, in METRIC_NAMES order."""
    if select is None:
        return tuple(METRIC_NAMES)
    want = set(select) | {"t_rc", "t_lc"}
    return tuple(name for name in METRIC_NAMES if name in want)


def _returned_bytes(body: Dict) -> int:
    """Pickle payload a worker's ``"ok"`` body shipped home."""
    return sum(
        value.nbytes
        for value in body.values()
        if isinstance(value, np.ndarray)
    )


def _fault_for(fault_plan: Any, index: int) -> Any:
    """The process fault ``fault_plan`` assigns to shard ``index``.

    Accepts a :class:`~repro.robustness.faults.ProcessFaultPlan` (via
    its ``for_shard`` method), any mapping of shard index to fault, or
    ``None``.
    """
    if fault_plan is None:
        return None
    for_shard = getattr(fault_plan, "for_shard", None)
    if for_shard is not None:
        return for_shard(index)
    return fault_plan.get(index)


# -- heterogeneous tree sets -------------------------------------------------


def analyze_many(
    trees: Sequence[Union[RLCTree, CompiledTree]],
    *,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    check_domain: bool = True,
    cache: bool = True,
    supervision: Optional[_dispatch.SupervisionPolicy] = None,
    fault_plan: Any = None,
) -> List[Union[TimingTable, ShardError]]:
    """Evaluate many (possibly heterogeneous) trees across workers.

    Returns one entry per input tree, **in input order**: a
    :class:`~repro.engine.table.TimingTable` on success or a
    :class:`ShardError` for a tree whose evaluation failed — surviving
    trees always return, whatever happened to their neighbours. Inputs
    may be :class:`~repro.circuit.tree.RLCTree` or already-compiled
    :class:`~repro.engine.compiled.CompiledTree` objects.

    Each distinct topology is compiled (and pickled) exactly once in
    this process; workers seed their per-process caches from the shipped
    payloads. ``workers=None`` uses the affinity-aware
    :func:`~repro.engine.dispatch.effective_cpu_count`; ``workers<=1``
    evaluates serially in-process through the same unit code path, so
    results are bitwise identical for any worker count.

    With ``check_domain`` (the default) a tree whose sums fall outside
    the closed forms' domain reports a typed per-tree error instead of a
    table with non-finite rows; without it the table is returned and its
    row accessors raise each such row's
    :class:`~repro.errors.ElementValueError`.

    Multi-worker dispatches run under ``supervision`` (defaulting to
    the stock :class:`~repro.engine.dispatch.SupervisionPolicy`): hung
    or crashed workers cost a bounded retry and at worst a serial
    re-evaluation of the affected units, never a hung call.
    ``fault_plan`` maps unit indices to process-level faults for the
    robustness recovery tests.
    """
    validate_settle_band(settle_band)
    select = None
    if metrics is not None:
        select = tuple(_metric_field(metric) for metric in metrics)
    compiled: List[CompiledTree] = [
        tree if isinstance(tree, CompiledTree) else compile_tree(tree, cache=cache)
        for tree in trees
    ]
    workers = _resolve_workers(workers, len(compiled))
    fields = _selected_fields(select)

    # Zero-copy transport: with >1 workers and shared memory, every
    # tree's (3, n) value rows and (F, n) metric rows live in the
    # persistent "many" arena — units carry descriptors, values are
    # staged per unit just before its submission, and workers write
    # results in place instead of pickling arrays home.
    arena = None
    value_rows: List = []
    out_rows: List = []
    if workers > 1 and _dispatch.shared_memory_available():
        try:
            arena = _dispatch.get_arena("many")
            footprint = sum(
                8 * (3 + len(fields)) * ct.size for ct in compiled
            )
            arena.begin(footprint)
        except (OSError, ValueError):
            arena = None

    payloads: Dict[Tuple, bytes] = {}
    units = []
    shipped = 0
    for index, ct in enumerate(compiled):
        key = topology_key(ct.topology)
        payload = payloads.get(key)
        if payload is None:
            payload = _dispatch.encode_topology(ct.topology)
            payloads[key] = payload
        shipped += len(payload)
        if arena is not None:
            value_host, value_view = arena.allocate((3, ct.size))
            out_host, out_view = arena.allocate((len(fields), ct.size))
            value_rows.append(value_host)
            out_rows.append(out_host)
            unit = _dispatch.TreeUnit(
                index=index,
                key=key,
                payload=payload,
                resistance=None,
                inductance=None,
                capacitance=None,
                settle_band=settle_band,
                select=select,
                check_domain=check_domain,
                fault=_fault_for(fault_plan, index),
                values=value_view,
                out=out_view,
                out_fields=fields,
            )
        else:
            shipped += (
                ct.resistance.nbytes
                + ct.inductance.nbytes
                + ct.capacitance.nbytes
            )
            unit = _dispatch.TreeUnit(
                index=index,
                key=key,
                payload=payload,
                resistance=ct.resistance,
                inductance=ct.inductance,
                capacitance=ct.capacitance,
                settle_band=settle_band,
                select=select,
                check_domain=check_domain,
                fault=_fault_for(fault_plan, index),
            )
        units.append(unit)
    _dispatch._note("bytes_shipped", shipped)

    stage = None
    if arena is not None:

        def stage(unit):
            ct = compiled[unit.index]
            rows = value_rows[unit.index]
            rows[0, :] = ct.resistance
            rows[1, :] = ct.inductance
            rows[2, :] = ct.capacitance

    raw = _run_units(units, _dispatch.run_tree_unit, workers, supervision, stage)
    by_index = {index: (status, body) for index, status, body in raw}
    returned = 0
    out: List[Union[TimingTable, ShardError]] = []
    for index, ct in enumerate(compiled):
        status, body = by_index[index]
        if status == "ok":
            if body.get("arena"):
                # Copy out of the arena: the region is scratch space the
                # next dispatch call will overwrite.
                rows = out_rows[index]
                body = {
                    name: (
                        rows[fields.index(name)].copy()
                        if name in fields
                        else None
                    )
                    for name in METRIC_NAMES
                }
            else:
                returned += _returned_bytes(body)
            out.append(
                TimingTable(
                    names=ct.names,
                    settle_band=settle_band,
                    metrics=MetricArrays(**body),
                    _index=ct.topology.index,
                )
            )
        else:
            out.append(
                ShardError(
                    shard=index,
                    scope="tree",
                    detail=f"tree {index}",
                    **body,
                )
            )
    _dispatch._note("bytes_returned", returned)
    return out


# -- scenario-sharded batches ------------------------------------------------


def _shard_slices(scenarios: int, shards: int) -> List[Tuple[int, int]]:
    """``shards`` contiguous, near-equal ``[start, stop)`` scenario ranges."""
    base, extra = divmod(scenarios, shards)
    slices = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def analyze_batch_sharded(
    compiled: CompiledTree,
    rlc: Optional[np.ndarray] = None,
    *,
    resistance: Optional[np.ndarray] = None,
    inductance: Optional[np.ndarray] = None,
    capacitance: Optional[np.ndarray] = None,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    fault_shards: Sequence[int] = (),
    supervision: Optional[_dispatch.SupervisionPolicy] = None,
    fault_plan: Any = None,
) -> BatchTiming:
    """:func:`~repro.engine.table.analyze_batch`, sharded across workers.

    The S scenarios are split into ``shards`` contiguous ranges; each
    worker computes its range's sums and metrics and the shard outputs
    are concatenated back in shard order. Scenario rows are evaluated by
    independent elementwise/per-row array math, so the assembled
    :class:`~repro.engine.table.BatchTiming` is **bitwise identical** to
    the in-process ``analyze_batch`` for any shard/worker count.

    The value block travels through one shared-memory segment when
    available (workers read only their scenario rows); otherwise each
    unit carries its slice inline. ``shards=1`` (or an effective worker
    count of 1, or an unavailable pool) falls back to the serial
    in-process engine.

    If any shard fails, a :class:`~repro.errors.DispatchError` is raised
    carrying the structured :class:`ShardError` records *and* the
    surviving shards' :class:`ShardOutcome` results — partial work is
    reported, never silently discarded. ``fault_shards`` injects a
    deliberate *value-level* failure into the named shard indices (the
    robustness fault-injection hook); ``fault_plan`` maps shard indices
    to *process-level* faults (crash/hang/delay inside the worker),
    which the supervised dispatch recovers from transparently.
    Multi-worker dispatches run under ``supervision`` (defaulting to the
    stock :class:`~repro.engine.dispatch.SupervisionPolicy`).
    """
    validate_settle_band(settle_band)
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    r, l, c = _batch_values(compiled, rlc, resistance, inductance, capacitance)
    scenarios = r.shape[0]
    shards = max(1, min(shards, scenarios))
    workers = _resolve_workers(workers, shards)
    fault_shards = frozenset(fault_shards)

    if shards == 1 and workers <= 1 and not fault_shards and fault_plan is None:
        # Serial fast path: no pickling, no block copy.
        from .table import analyze_batch

        return analyze_batch(
            compiled,
            np.stack([r, l, c], axis=1),
            settle_band=settle_band,
            metrics=metrics,
        )

    select = None
    if metrics is not None:
        select = tuple(_metric_field(metric) for metric in metrics)
    fields = _selected_fields(select)
    key = topology_key(compiled.topology)
    payload = _dispatch.encode_topology(compiled.topology)
    slices = _shard_slices(scenarios, shards)
    n = compiled.size

    # Zero-copy transport: the whole (S, 3, n) value block and the
    # (F, S, n) result block live in the persistent "batch" arena.
    # Workers read only their scenario rows and write their metric rows
    # in place (disjoint slices, no locking), so nothing but the tiny
    # shard descriptors and "ok" acks crosses the pickle boundary, and
    # repeated calls reuse the same segment instead of re-mapping one.
    arena = None
    values_host = out_host = None
    values_view = out_view = None
    if workers > 1 and _dispatch.shared_memory_available():
        try:
            arena = _dispatch.get_arena("batch")
            arena.begin(8 * (scenarios * 3 * n + len(fields) * scenarios * n))
            values_host, values_view = arena.allocate((scenarios, 3, n))
            out_host, out_view = arena.allocate((len(fields), scenarios, n))
        except (OSError, ValueError):
            arena = None  # e.g. /dev/shm unavailable: ship inline

    block = None
    if arena is None:
        block = np.stack([r, l, c], axis=1)  # (S, 3, n), contiguous

    units = []
    shipped = 0
    unit_shipped: List[int] = []
    for index, (start, stop) in enumerate(slices):
        if arena is not None:
            shard_block: Any = values_view
            cost = len(payload)
        else:
            shard_block = block[start:stop]
            cost = len(payload) + shard_block.nbytes
        shipped += cost
        unit_shipped.append(cost)
        units.append(
            _dispatch.BatchShard(
                index=index,
                key=key,
                payload=payload,
                block=shard_block,
                start=start,
                stop=stop,
                settle_band=settle_band,
                select=select,
                inject=(
                    f"fault_shards[{index}]" if index in fault_shards else None
                ),
                fault=_fault_for(fault_plan, index),
                out=out_view if arena is not None else None,
                out_fields=fields if arena is not None else None,
            )
        )
    _dispatch._note("bytes_shipped", shipped)

    stage = None
    if arena is not None:

        def stage(unit):
            # Pipelined submit-while-compute: each shard's rows are
            # copied into the arena just before its first submission,
            # overlapping staging with already-running shards. Retries
            # re-read the same rows; they are never re-staged.
            sl = slice(unit.start, unit.stop)
            values_host[sl, 0, :] = r[sl]
            values_host[sl, 1, :] = l[sl]
            values_host[sl, 2, :] = c[sl]

    raw = _run_units(units, _dispatch.run_batch_shard, workers, supervision, stage)

    def _shard_metrics(body: Dict, start: int, stop: int) -> Dict:
        if body.get("arena"):
            # Copy out of the arena: the region is scratch space the
            # next dispatch call will overwrite.
            return {
                name: (
                    out_host[fields.index(name), start:stop].copy()
                    if name in fields
                    else None
                )
                for name in METRIC_NAMES
            }
        return body

    by_index = {index: (status, body) for index, status, body in raw}
    errors: List[ShardError] = []
    outcomes: List[ShardOutcome] = []
    ok_bodies: Dict[int, Dict] = {}
    returned = 0
    for index, (start, stop) in enumerate(slices):
        status, body = by_index[index]
        if status == "ok":
            ok_bodies[index] = body
            if not body.get("arena"):
                returned += _returned_bytes(body)
        else:
            errors.append(
                ShardError(
                    shard=index,
                    scope="scenarios",
                    detail=f"scenarios {start}:{stop}",
                    **body,
                )
            )
    _dispatch._note("bytes_returned", returned)
    if errors:
        for index, (start, stop) in enumerate(slices):
            body = ok_bodies.get(index)
            if body is None:
                continue
            outcomes.append(
                ShardOutcome(
                    shard=index,
                    start=start,
                    stop=stop,
                    timing=BatchTiming(
                        names=compiled.names,
                        settle_band=settle_band,
                        metrics=MetricArrays(**_shard_metrics(body, start, stop)),
                    ),
                    bytes_shipped=unit_shipped[index],
                    bytes_returned=(
                        0 if body.get("arena") else _returned_bytes(body)
                    ),
                )
            )
        raise DispatchError(
            f"{len(errors)} of {shards} shards failed "
            f"({len(outcomes)} survived): "
            + "; ".join(str(e.diagnostic) for e in errors[:3]),
            shard_errors=tuple(errors),
            partial=tuple(outcomes),
        )

    stitched = {}
    if arena is not None and all(
        body.get("arena") for body in ok_bodies.values()
    ):
        # Every shard wrote in place: one copy per metric, no
        # per-shard concatenate.
        for name in METRIC_NAMES:
            stitched[name] = (
                out_host[fields.index(name)].copy() if name in fields else None
            )
    else:
        bodies = [
            _shard_metrics(ok_bodies[index], start, stop)
            for index, (start, stop) in enumerate(slices)
        ]
        for name in METRIC_NAMES:
            columns = [body[name] for body in bodies]
            if any(column is None for column in columns):
                stitched[name] = None
            else:
                stitched[name] = np.concatenate(columns, axis=0)
    return BatchTiming(
        names=compiled.names,
        settle_band=settle_band,
        metrics=MetricArrays(**stitched),
    )


# -- pool-aware cache introspection -----------------------------------------


def topology_cache_info() -> Dict:
    """Topology-cache counters aggregated across the dispatch pool.

    The per-process view (``repro.engine.topology_cache_info``) only
    sees this process; this one adds every live pool worker's counters:
    ``{"hits", "misses", "size"}`` are parent + workers combined,
    ``"parent"`` is this process alone and ``"workers"`` maps worker pid
    to its own counters (empty when no pool is running).
    """
    parent = _local_cache_info()
    workers = _dispatch.worker_cache_infos()
    combined = {
        "hits": parent["hits"],
        "misses": parent["misses"],
        "size": parent["size"],
        "maxsize": parent["maxsize"],
        "preorder_builds": parent.get("preorder_builds", 0),
    }
    for info in workers.values():
        combined["hits"] += info["hits"]
        combined["misses"] += info["misses"]
        combined["size"] += info["size"]
        combined["preorder_builds"] += info.get("preorder_builds", 0)
    combined["parent"] = parent
    combined["workers"] = workers
    return combined


def shutdown_pool() -> None:
    """Tear down the shared worker pool (safe to call when idle)."""
    _dispatch.shutdown_pool()


#: Re-exported scope manager for the persistent pool — see
#: :func:`repro.engine.dispatch.dispatch_pool`.
dispatch_pool = _dispatch.dispatch_pool
