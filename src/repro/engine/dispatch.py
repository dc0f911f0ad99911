"""Work units, shared-memory arenas and the supervised worker pool.

This is the transport half of the sharded dispatch protocol
(:mod:`repro.engine.sharded` is the policy half). The protocol is
*compile once, ship the structure, stream the values*:

* the parent compiles every distinct topology once and pickles the
  :class:`~repro.engine.compiled.CompiledTopology` into a payload that
  travels with the work units;
* each worker process keeps the ordinary per-process topology cache
  (:mod:`repro.engine.compiled`, lock-guarded) seeded from those
  payloads — the first unit for a topology unpickles it, every later
  unit is a cache hit, and :func:`worker_cache_infos` reads the
  hit/miss counters back out of every worker for aggregation;
* scenario value matrices for sharded batches, and the metric rows
  workers compute from them, travel through persistent
  ``multiprocessing.shared_memory`` arenas (:class:`Arena`) rather
  than being pickled per shard — each worker attaches by segment name
  and touches only its ``[start:stop]`` scenario rows. When shared
  memory is unavailable the units simply carry their slice inline; the
  protocol degrades, the results do not change.

Worker task functions never raise: every unit evaluates to
``(index, "ok", metric payload)`` or ``(index, "err", failure
description)``, so one poisoned unit can never take down the map call
that carries its siblings.

The pool itself is a lazily-created, process-global
:class:`concurrent.futures.ProcessPoolExecutor` (fork where available,
spawn otherwise), reused across dispatches so worker caches stay warm,
and torn down at interpreter exit. On top of it sits the *supervision*
layer, :func:`run_supervised`, which extends the per-unit error capture
across the process boundary:

* every shard gets a wall-clock deadline (``future.result(timeout=…)``
  measured from its own submission);
* a worker that **crashes** (``BrokenProcessPool``) or **hangs** (shard
  timeout) triggers an automatic pool rebuild — hung workers are
  killed, fresh ones respawn, per-worker topology caches re-seed from
  the shipped payloads, and parent-owned arena segments survive
  untouched because workers re-attach by name;
* failed shards are re-dispatched with bounded exponential backoff, and
  a shard that exhausts its retries degrades to a **serial in-process
  evaluation** of the same unit code path, so the assembled result is
  still bitwise identical to the serial engine;
* every incident is counted in the module telemetry
  (:func:`dispatch_telemetry`) — timeouts, retries, rebuilds, worker
  deaths, serial fallbacks and per-worker failure tallies — which the
  runtime layer folds into ``context.stats()`` and uses to trip the
  per-backend circuit breaker.

:func:`pool_health` is the live-probe companion: worker liveness from
the process table plus an optional round-trip heartbeat through the
pool.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, ReproError
from .compiled import (
    CompiledTopology,
    CompiledTree,
    clear_topology_cache,
    lookup_topology,
    seed_topology_cache,
    topology_cache_info,
)
from .kernels import (
    METRIC_NAMES,
    MetricArrays,
    fast_path_eligible,
    metrics_from_sums,
)
from .table import batch_metrics

try:  # pragma: no cover - always present on supported platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "Arena",
    "ArenaRef",
    "ArenaView",
    "get_arena",
    "release_arenas",
    "arena_info",
    "TreeUnit",
    "BatchShard",
    "SupervisionPolicy",
    "run_tree_unit",
    "run_batch_shard",
    "run_supervised",
    "get_pool",
    "rebuild_pool",
    "dispatch_pool",
    "shutdown_pool",
    "pool_size",
    "pool_generation",
    "pool_health",
    "worker_cache_infos",
    "dispatch_telemetry",
    "reset_dispatch_telemetry",
    "shared_memory_available",
    "effective_cpu_count",
]

#: Default per-shard wall-clock budget (seconds) when the caller does
#: not configure one. ``None`` disables the deadline entirely.
DEFAULT_SHARD_TIMEOUT = 60.0


def effective_cpu_count() -> int:
    """CPUs this *process* may actually run on, never less than 1.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup/affinity restriction (CI runners, containers) it can both
    overcount (machine has 64 cores, the job gets 2) and — through
    wrappers that cache a stale value — undercount. Preference order:
    ``os.process_cpu_count()`` (3.13+, affinity-aware by definition),
    the ``sched_getaffinity`` mask, then ``os.cpu_count()``. Benchmarks
    key their speedup gates on this so a "cores: 1" reading on a
    multi-core box can no longer silently disable them.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        try:
            count = counter()
            if count:
                return max(1, count)
        except OSError:  # pragma: no cover - platform quirk
            pass
    try:
        affinity = os.sched_getaffinity(0)
        if affinity:
            return max(1, len(affinity))
    except (AttributeError, OSError):  # pragma: no cover - no affinity API
        pass
    return max(1, os.cpu_count() or 1)


# -- supervision policy ------------------------------------------------------


@dataclass(frozen=True)
class SupervisionPolicy:
    """The fault-handling knobs of one supervised dispatch call.

    ``shard_timeout`` is each shard's wall-clock budget measured from
    its own submission (``None`` waits forever — crash detection still
    works, hang detection does not). ``max_retries`` bounds how many
    times one shard is re-dispatched after a timeout or worker death;
    between rounds the supervisor sleeps ``backoff * 2**round`` seconds
    (capped at 2 s). A shard that exhausts its retries is evaluated
    serially in the parent when ``serial_fallback`` is set (the default
    — results stay bitwise identical to the serial engine), or reported
    as a structured ``"err"`` outcome when it is not.
    """

    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT
    max_retries: int = 2
    backoff: float = 0.05
    serial_fallback: bool = True

    def __post_init__(self):
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ConfigurationError(
                f"shard_timeout must be positive or None, got "
                f"{self.shard_timeout!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if not self.backoff >= 0:  # NaN fails too
            raise ConfigurationError(
                f"backoff must be non-negative, got {self.backoff!r}"
            )


# -- failure telemetry -------------------------------------------------------

_telemetry_lock = threading.Lock()


def _fresh_telemetry() -> Dict[str, Any]:
    return {
        "timeouts": 0,
        "retries": 0,
        "rebuilds": 0,
        "worker_deaths": 0,
        "serial_fallbacks": 0,
        "exhausted": 0,
        "bytes_shipped": 0,
        "bytes_returned": 0,
        "arena_hits": 0,
        "worker_failures": {},
    }


_telemetry: Dict[str, Any] = _fresh_telemetry()


def _note(key: str, count: int = 1) -> None:
    with _telemetry_lock:
        _telemetry[key] += count


def _note_worker_failure(pid: Optional[int]) -> None:
    if pid is None:
        return
    with _telemetry_lock:
        failures = _telemetry["worker_failures"]
        failures[pid] = failures.get(pid, 0) + 1


def dispatch_telemetry() -> Dict[str, Any]:
    """A snapshot of the process-wide supervision counters.

    Keys: ``timeouts`` (shards that blew their deadline), ``retries``
    (shard re-dispatches), ``rebuilds`` (pool teardown+respawn cycles),
    ``worker_deaths`` (``BrokenProcessPool`` incidents),
    ``serial_fallbacks`` (shards that exhausted retries and ran in the
    parent), ``exhausted`` (shards that exhausted retries with serial
    fallback disabled), ``bytes_shipped``/``bytes_returned`` (pickle
    transport actually paid by dispatched work units — arena/shared
    traffic counts as zero, which is the point of it), ``arena_hits``
    (dispatch calls that reused a live arena segment instead of
    allocating) and ``worker_failures`` (pid → failure count for
    workers observed dead at rebuild time).
    """
    with _telemetry_lock:
        snapshot = dict(_telemetry)
        snapshot["worker_failures"] = dict(snapshot["worker_failures"])
    return snapshot


def reset_dispatch_telemetry() -> None:
    """Zero the supervision counters (test isolation)."""
    global _telemetry
    with _telemetry_lock:
        _telemetry = _fresh_telemetry()


# -- shared-memory segments ------------------------------------------------


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can be used."""
    return _shared_memory is not None


def _attach_segment(name: str):
    """Attach to a named segment without a resource-tracker claim.

    On this Python, ``SharedMemory(name=...)`` registers the segment
    with the resource tracker even when merely *attaching* (there is no
    ``track=False`` before 3.13). The parent already owns the one true
    registration, and a second one in a worker either leaks (worker
    spawned its own tracker → "leaked shared_memory objects" warnings at
    exit) or can race the parent's unlink. Suppressing registration for
    the duration of the attach keeps ownership where it belongs: the
    parent registers on create and unregisters on unlink, exactly once.
    Pool workers run one task at a time, so the brief module-level patch
    cannot race another attach in the same process.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


# -- persistent shared-memory arenas ----------------------------------------
#
# A segment per dispatch call would pay create + copy + unlink every
# time — measurable overhead exactly where the sharded path is supposed
# to win. An Arena amortizes it: one parent-owned segment per purpose
# ("batch", "many"), reused across calls, grown geometrically when a
# call needs more room and released only at context close /
# interpreter exit. Work units carry ArenaView
# descriptors (segment name + byte offset + shape) instead of arrays,
# so steady-state dispatch ships a few hundred descriptor bytes while
# values *and* results travel through shared memory — zero-copy both
# directions.


@dataclass(frozen=True)
class ArenaRef:
    """Identity of one arena segment: its shm name + growth generation.

    The generation increments every time the arena outgrows its segment
    and moves to a fresh one (fresh *name* — attaching is by name, so a
    stale cached attachment can never alias a new segment). Workers and
    pool rebuilds are oblivious: every task attaches by the name in the
    views it received, whatever generation the arena is on now.
    """

    name: str
    generation: int


@dataclass(frozen=True)
class ArenaView:
    """Picklable window into an arena: ``shape`` float64s at ``offset``."""

    ref: ArenaRef
    offset: int
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return 8 * count


class Arena:
    """One parent-owned, grow-only shared-memory scratch segment.

    Lifecycle per dispatch call: ``begin(nbytes)`` resets the bump
    cursor and guarantees capacity (growing — never shrinking — by at
    least 2x so reuse converges after a few calls), then ``allocate()``
    carves float64 regions off the cursor, each returning the live
    parent-side ndarray view plus the picklable :class:`ArenaView` the
    workers attach through. The segment persists across calls, pool
    rebuilds and worker deaths; only :meth:`close` (via
    :func:`release_arenas`, the runtime context or the atexit hook)
    unlinks it.

    Not thread-safe — same discipline as the pool globals: one dispatch
    call in flight per process.
    """

    def __init__(self, tag: str):
        if _shared_memory is None:  # pragma: no cover - gated by caller
            raise ReproError("shared memory is unavailable on this platform")
        self.tag = tag
        self._shm = None
        self._capacity = 0
        self._cursor = 0
        self._generation = 0

    @property
    def name(self) -> Optional[str]:
        return None if self._shm is None else self._shm.name

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def capacity(self) -> int:
        return self._capacity

    def begin(self, nbytes: int) -> None:
        """Start a dispatch call: reset the cursor, ensure capacity.

        Growing swaps to a *fresh* segment (new name, generation + 1)
        and unlinks the old one — parent-side views from earlier calls
        are invalidated, which is why allocation only happens between
        ``begin`` and the end of the same dispatch call.
        """
        self._cursor = 0
        if nbytes <= self._capacity and self._shm is not None:
            _note("arena_hits")
            return
        size = max(nbytes, 2 * self._capacity, 4096)
        old = self._shm
        self._shm = _shared_memory.SharedMemory(create=True, size=size)
        # The OS may round the segment up; advertise what was asked for.
        self._capacity = size
        self._generation += 1
        if old is not None:
            try:
                old.close()
                old.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def allocate(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, ArenaView]:
        """Carve a float64 region off the cursor.

        Returns ``(parent_view, descriptor)``: the ndarray is backed by
        the live segment (writes are visible to attached workers
        immediately), the descriptor is what travels in a work unit.
        """
        view = ArenaView(
            ref=ArenaRef(name=self._shm.name, generation=self._generation),
            offset=self._cursor,
            shape=tuple(int(d) for d in shape),
        )
        end = self._cursor + view.nbytes
        if self._shm is None or end > self._capacity:
            raise ReproError(
                f"arena {self.tag!r} allocation of {view.nbytes} bytes at "
                f"offset {self._cursor} exceeds the {self._capacity}-byte "
                "reservation; call begin() with the full call footprint"
            )
        self._cursor = end
        array = np.ndarray(
            view.shape, dtype=float, buffer=self._shm.buf, offset=view.offset
        )
        return array, view

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        shm = self._shm
        self._shm = None
        self._capacity = 0
        self._cursor = 0
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double close
            pass

    def __repr__(self) -> str:
        return (
            f"Arena(tag={self.tag!r}, name={self.name!r}, "
            f"capacity={self._capacity}, generation={self._generation})"
        )


#: Parent-side arena registry, keyed by purpose tag. Never populated
#: inside workers (the initializer clears it after fork).
_arenas: Dict[str, Arena] = {}


def get_arena(tag: str) -> Arena:
    """The persistent arena for ``tag``, created on first use."""
    arena = _arenas.get(tag)
    if arena is None:
        arena = Arena(tag)
        _arenas[tag] = arena
    return arena


def release_arenas() -> None:
    """Close and unlink every live arena (idempotent)."""
    for arena in list(_arenas.values()):
        try:
            arena.close()
        except Exception:  # pragma: no cover - last-resort cleanup
            pass
    _arenas.clear()


def arena_info() -> Dict[str, Dict[str, Any]]:
    """Tag → ``{"capacity", "generation", "name"}`` of the live arenas."""
    return {
        tag: {
            "capacity": arena.capacity,
            "generation": arena.generation,
            "name": arena.name,
        }
        for tag, arena in _arenas.items()
    }


#: Worker-side cache of attached arena segments, name → SharedMemory.
#: Bounded: an arena that grew leaves its old name behind forever, so
#: stale attachments are evicted oldest-first past the cap.
_ARENA_ATTACH_LIMIT = 8
_arena_attachments: "Dict[str, Any]" = {}


def _attach_view(view: ArenaView) -> np.ndarray:
    """The ndarray behind an :class:`ArenaView`, wherever we run.

    In the parent (including the supervised serial-fallback path) the
    live arena's own buffer is used directly. In a worker the segment
    is attached by name once and cached for the process's lifetime —
    re-attachment after a pool rebuild is automatic because fresh
    workers start with an empty cache. The cache is evicted
    oldest-first so segments orphaned by arena growth don't pin
    /dev/shm mappings forever (dicts iterate in insertion order).
    """
    for arena in _arenas.values():
        if arena.name == view.ref.name:
            return np.ndarray(
                view.shape,
                dtype=float,
                buffer=arena._shm.buf,
                offset=view.offset,
            )
    segment = _arena_attachments.get(view.ref.name)
    if segment is None:
        segment = _attach_segment(view.ref.name)
        while len(_arena_attachments) >= _ARENA_ATTACH_LIMIT:
            stale_name = next(iter(_arena_attachments))
            stale = _arena_attachments.pop(stale_name)
            try:
                stale.close()
            except Exception:  # pragma: no cover - mid-teardown close
                pass
        _arena_attachments[view.ref.name] = segment
    return np.ndarray(
        view.shape, dtype=float, buffer=segment.buf, offset=view.offset
    )


# -- work units -------------------------------------------------------------


def encode_topology(topology: CompiledTopology) -> bytes:
    """The pickled payload of one topology, shipped with work units."""
    return pickle.dumps(topology, protocol=pickle.HIGHEST_PROTOCOL)


def _resolve_topology(key: Tuple, payload: bytes) -> CompiledTopology:
    """Per-process cache lookup, falling back to the shipped payload."""
    topology = lookup_topology(key)
    if topology is None:
        topology = pickle.loads(payload)
        seed_topology_cache(topology, key=key)
    return topology


@dataclass(frozen=True)
class TreeUnit:
    """One tree of an :func:`~repro.engine.sharded.analyze_many` call.

    Values travel one of two ways: ``values`` names a ``(3, n)`` arena
    region (R/L/C rows, staged by the parent just before submission)
    and the per-element vectors are ``None``, or — without shared
    memory — the vectors ship inline and ``values`` is ``None``. When
    ``out`` is set the worker writes its metric rows into that
    ``(len(out_fields), n)`` arena region instead of pickling arrays
    home, returning only a tiny acknowledgement body.

    ``attempt`` is stamped by the supervisor on every (re-)dispatch so
    failure descriptions can say which try failed; ``fault`` carries an
    optional process-level fault spec (duck-typed, see
    :class:`repro.robustness.faults.ProcessFault`) applied by the
    worker-side hook — never in the parent.
    """

    index: int
    key: Tuple
    payload: bytes = field(repr=False)
    resistance: Optional[np.ndarray]
    inductance: Optional[np.ndarray]
    capacitance: Optional[np.ndarray]
    settle_band: float
    select: Optional[Tuple[str, ...]]
    check_domain: bool = True
    attempt: int = 0
    fault: Optional[Any] = None
    values: Optional[ArenaView] = None
    out: Optional[ArenaView] = None
    out_fields: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class BatchShard:
    """One contiguous scenario range of a sharded batch.

    ``block`` is an :class:`ArenaView` into the full ``(S, 3, n)``
    shared value block (the worker reads rows ``start:stop``), or the
    shard's own ``(stop - start, 3, n)`` slice shipped inline when
    shared memory is unavailable or the dispatch runs serially. With
    ``out`` set the worker writes each computed metric into its
    ``[:, start:stop, :]`` slice of that ``(len(out_fields), S, n)``
    arena region — sibling shards write
    disjoint slices, so no coordination is needed — and returns only an
    acknowledgement body instead of pickled arrays. ``inject`` names a
    value-level fault to raise instead of evaluating — the hook the
    robustness fault-injection suite uses to exercise per-shard error
    capture. ``fault`` is the *process-level* counterpart (crash, hang,
    delay; see :class:`repro.robustness.faults.ProcessFault`), applied
    only inside pool workers; ``attempt`` is stamped by the supervisor
    on every (re-)dispatch.
    """

    index: int
    key: Tuple
    payload: bytes = field(repr=False)
    block: Union[ArenaView, np.ndarray]
    start: int
    stop: int
    settle_band: float
    select: Optional[Tuple[str, ...]]
    inject: Optional[str] = None
    attempt: int = 0
    fault: Optional[Any] = None
    out: Optional[ArenaView] = None
    out_fields: Optional[Tuple[str, ...]] = None


def _metric_payload(metrics: MetricArrays) -> Dict[str, Optional[np.ndarray]]:
    """A plain picklable dict of the metric arrays (or ``None`` gaps)."""
    return {name: getattr(metrics, name) for name in METRIC_NAMES}


def _describe_failure(
    exc: BaseException, *, attempt: int = 0, elapsed: float = 0.0
) -> Dict[str, Any]:
    """The structured failure record a worker sends home.

    Carries enough provenance — worker pid, attempt number, elapsed
    wall clock — that a retried-then-failed shard is diagnosable from
    the resulting :class:`~repro.engine.sharded.ShardError` alone.
    """
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "pid": os.getpid(),
        "attempt": attempt,
        "elapsed_s": elapsed,
    }


# -- worker-side process faults ----------------------------------------------

#: True only inside pool workers (set by the initializer). The
#: process-fault hook keys on it so an injected crash/hang can never
#: fire in the parent — in particular not on the serial-fallback path a
#: fault-injected shard ends up on after exhausting its retries.
_IN_WORKER = False


def _apply_process_fault(fault: Any, attempt: int) -> None:
    """Worker-side hook: crash, hang or delay this task deliberately.

    ``fault`` is duck-typed (``kind``, optional ``attempts``,
    ``seconds`` and ``exit_code`` attributes — canonically a
    :class:`repro.robustness.faults.ProcessFault`). ``attempts`` bounds
    how many dispatch attempts the fault affects (``None`` = all), which
    is what makes the recovery path deterministic: ``attempts=1``
    crashes the first try and lets the retry succeed.
    """
    if fault is None or not _IN_WORKER:
        return
    budget = getattr(fault, "attempts", 1)
    if budget is not None and attempt >= budget:
        return
    kind = getattr(fault, "kind", None)
    seconds = getattr(fault, "seconds", None)
    if kind == "crash":
        os._exit(getattr(fault, "exit_code", 17))
    elif kind == "hang":
        time.sleep(3600.0 if seconds is None else seconds)
    elif kind == "delay":
        time.sleep(0.25 if seconds is None else seconds)
    else:
        raise ReproError(f"unknown process fault kind {kind!r}")


def run_tree_unit(unit: TreeUnit) -> Tuple[int, str, Dict[str, Any]]:
    """Evaluate one tree unit; never raises."""
    start = time.perf_counter()
    try:
        _apply_process_fault(unit.fault, unit.attempt)
        topology = _resolve_topology(unit.key, unit.payload)
        if unit.values is not None:
            rows = _attach_view(unit.values)
            r, l, c = rows[0], rows[1], rows[2]
        else:
            r, l, c = unit.resistance, unit.inductance, unit.capacitance
        compiled = CompiledTree(topology, r, l, c)
        t_rc, t_lc = compiled.second_order_sums()
        if unit.check_domain and not fast_path_eligible(t_rc, t_lc):
            from ..errors import ElementValueError

            raise ElementValueError(
                f"tree {unit.index}: node sums fall outside the closed "
                "forms' domain (non-finite or non-positive); check the "
                "element values"
            )
        metrics = metrics_from_sums(
            t_rc, t_lc, unit.settle_band, select=unit.select
        )
        if unit.out is not None:
            out = _attach_view(unit.out)
            for row, name in enumerate(unit.out_fields):
                out[row, :] = getattr(metrics, name)
            return unit.index, "ok", {"arena": True}
        return unit.index, "ok", _metric_payload(metrics)
    except Exception as exc:
        return unit.index, "err", _describe_failure(
            exc, attempt=unit.attempt, elapsed=time.perf_counter() - start
        )


def run_batch_shard(shard: BatchShard) -> Tuple[int, str, Dict[str, Any]]:
    """Evaluate one scenario shard; never raises."""
    start = time.perf_counter()
    try:
        _apply_process_fault(shard.fault, shard.attempt)
        if shard.inject is not None:
            raise ReproError(f"injected shard fault: {shard.inject}")
        topology = _resolve_topology(shard.key, shard.payload)
        if isinstance(shard.block, ArenaView):
            rows = _attach_view(shard.block)[shard.start:shard.stop]
        else:
            rows = shard.block
        metrics = batch_metrics(
            topology,
            rows[:, 0, :],
            rows[:, 1, :],
            rows[:, 2, :],
            shard.settle_band,
            shard.select,
        )
        if shard.out is not None:
            out = _attach_view(shard.out)
            for row, name in enumerate(shard.out_fields):
                out[row, shard.start:shard.stop] = getattr(metrics, name)
            return shard.index, "ok", {"arena": True}
        return shard.index, "ok", _metric_payload(metrics)
    except Exception as exc:
        return shard.index, "err", _describe_failure(
            exc, attempt=shard.attempt, elapsed=time.perf_counter() - start
        )


# -- the worker pool ---------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_barrier = None
_pool_generation = 0
_pool_scope_depth = 0  # live dispatch_pool() nesting level
_WORKER_BARRIER = None  # set inside each worker by the initializer


def _init_worker(barrier) -> None:
    """Worker initializer: a clean per-process cache plus the barrier.

    Resetting the cache matters under fork: the child would otherwise
    inherit the parent's cache *counters*, and the pool-wide aggregation
    would double-count the parent's pre-fork history. ``_IN_WORKER``
    arms the process-fault hook — only real pool workers ever apply an
    injected crash/hang.
    """
    global _WORKER_BARRIER, _IN_WORKER
    _WORKER_BARRIER = barrier
    _IN_WORKER = True
    clear_topology_cache()
    # Workers never own arenas: drop any fork-inherited parent registry
    # so every ArenaView resolves through attach-by-name (the path that
    # stays correct across arena growth), with a per-process cache.
    _arenas.clear()
    _arena_attachments.clear()


def _pool_context():
    for method in ("fork", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:  # pragma: no cover - platform without method
            continue
    return multiprocessing.get_context()  # pragma: no cover


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared worker pool, (re)created to hold ``workers`` processes.

    The pool persists across dispatch calls so per-process topology
    caches stay warm; asking for a different worker count tears the old
    pool down first.
    """
    global _pool, _pool_workers, _pool_barrier
    if workers < 2:
        raise ReproError("a dispatch pool needs at least 2 workers")
    if _pool is not None and _pool_workers == workers:
        return _pool
    shutdown_pool()
    ctx = _pool_context()
    barrier = ctx.Barrier(workers)
    _pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(barrier,),
    )
    _pool_workers = workers
    _pool_barrier = barrier
    return _pool


def _pool_processes(pool) -> List:
    """The executor's worker ``Process`` objects (best effort)."""
    processes = getattr(pool, "_processes", None)
    if not processes:
        return []
    try:
        return list(processes.values())
    except Exception:  # pragma: no cover - executor mid-teardown
        return []


def _process_dead(process) -> bool:
    """Whether a worker process is dead, robust to concurrent reaping.

    ``Process.is_alive()`` alone is not enough: its ``waitpid`` races
    the executor's management thread joining the same pid, and losing
    that race (``ECHILD``) makes ``is_alive()`` report a dead worker as
    alive forever. A reaped pid no longer exists, so ``os.kill(pid, 0)``
    settles it either way.
    """
    try:
        if not process.is_alive():
            return True
    except Exception:  # pragma: no cover - process mid-teardown
        return True
    if process.pid is None:
        return False
    try:
        os.kill(process.pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # pragma: no cover - e.g. EPERM: someone is there
        return False
    return False


def shutdown_pool() -> None:
    """Tear down the shared pool (no-op when none is running).

    Idempotent and exception-safe: the module globals are cleared
    *first*, every teardown step is individually shielded, and hung or
    already-dead workers are killed outright rather than joined — a
    worker that died mid-terminate can neither mask an original error
    nor wedge interpreter exit.
    """
    global _pool, _pool_workers, _pool_barrier
    pool = _pool
    _pool = None
    _pool_workers = 0
    _pool_barrier = None
    if pool is None:
        return
    processes = _pool_processes(pool)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(5.0)
        except Exception:
            pass


def rebuild_pool(workers: Optional[int] = None) -> Optional[ProcessPoolExecutor]:
    """Tear the pool down and respawn it with ``workers`` processes.

    The recovery action behind every worker-death or shard-timeout
    incident: hung workers are killed, fresh ones start with clean
    topology caches (re-seeded lazily from the payloads the next units
    carry), and parent-owned arena segments stay linked — workers
    re-attach by name. Returns the fresh pool, or ``None`` when no pool
    was running and no worker count was given.
    """
    global _pool_generation
    if workers is None:
        workers = _pool_workers
    shutdown_pool()
    if workers < 2:
        return None
    _pool_generation += 1
    _note("rebuilds")
    return get_pool(workers)


@contextlib.contextmanager
def dispatch_pool(workers: int) -> Iterator[Any]:
    """Scope the shared worker pool to a ``with`` block.

    Creates (or resizes) the persistent pool on entry and tears it down
    on exit, whatever happens inside — the deterministic-lifecycle
    counterpart of the lazily-created pool that
    :func:`~repro.engine.sharded.analyze_many` and
    :func:`~repro.engine.sharded.analyze_batch_sharded` otherwise leave
    running for cache warmth. Dispatch calls made inside the block with
    a matching ``workers`` count reuse this pool. The ``atexit`` hook
    remains the fallback for pools created outside any such scope, so
    interpreter shutdown never leaks worker processes either way.

    Nesting is legal and reference-counted: the scopes share the one
    process-global pool, inner exits are no-ops, and only the outermost
    exit tears the pool down. A supervised dispatch inside the block may
    transparently rebuild the pool; the rebuilt pool is still torn down
    on exit.
    """
    global _pool_scope_depth
    pool = get_pool(workers)
    _pool_scope_depth += 1
    try:
        yield pool
    finally:
        _pool_scope_depth -= 1
        if _pool_scope_depth <= 0:
            _pool_scope_depth = 0
            shutdown_pool()


def _atexit_cleanup() -> None:
    """Interpreter-exit fallback: release the arenas, stop the pool.

    Arenas are unlinked *before* the pool is terminated so no worker is
    killed mid-read of a segment that then disappears under a
    still-running sibling; by exit time no dispatch call is in flight,
    so any surviving segment is simply a leak to reclaim. Each arena
    close is shielded individually and the pool teardown never raises,
    so a broken pool cannot prevent the remaining segments from being
    unlinked.
    """
    release_arenas()
    shutdown_pool()


atexit.register(_atexit_cleanup)


def pool_size() -> int:
    """Worker count of the live pool (0 when none is running)."""
    return _pool_workers


def pool_generation() -> int:
    """How many times the pool has been rebuilt after a fault."""
    return _pool_generation


# -- supervised dispatch -----------------------------------------------------


def _exhausted_description(attempt: int, reason: str) -> Dict[str, Any]:
    return {
        "error_type": "ShardRetryExhausted",
        "message": (
            f"shard gave up after {attempt} dispatch attempt(s): {reason}; "
            "serial fallback disabled"
        ),
        "traceback": "",
        "pid": None,
        "attempt": attempt,
        "elapsed_s": 0.0,
    }


def run_supervised(
    units: Sequence[Any],
    worker_fn,
    workers: int,
    policy: Optional[SupervisionPolicy] = None,
    stage=None,
) -> List[Tuple[int, str, Dict[str, Any]]]:
    """Run work units through the pool under the supervision policy.

    The contract matches the plain map it replaces — one
    ``(index, status, body)`` triple per unit, in input order — but the
    failure domain is wider: worker crashes (``BrokenProcessPool``),
    hung shards (wall-clock deadline) and pool-creation failures are
    all absorbed. Recovery actions, in order:

    1. **retry** — a timed-out or crash-orphaned shard is re-dispatched
       (with exponential backoff) up to ``policy.max_retries`` times;
       the pool is rebuilt first, so a hung worker cannot poison the
       retry. Retry budget is only charged to *attributable* failures:
       a timeout names its shard, but a pool break with several shards
       in flight names nobody — the next round then runs in quarantine
       (one shard per slot, rebuilding between failures) so the culprit
       is charged exactly and innocent bystanders keep their budget;
    2. **degrade** — a shard that exhausts its retries is evaluated
       serially in the parent through the same unit code path (bitwise
       identical), or reported as a structured ``"err"`` outcome when
       ``policy.serial_fallback`` is off;
    3. **degrade wholesale** — when no pool can be created at all
       (sandboxed platforms), everything runs serially, matching the
       old unsupervised behaviour.

    Value-level failures — a unit whose evaluation raises — are *not*
    retried: the worker already captured them as deterministic ``"err"``
    outcomes, and re-running a deterministic failure buys nothing.

    ``stage`` is the pipelining hook: called with each unit exactly once,
    immediately before its *first* dispatch. Callers that stream values
    through a shared arena stage each shard's rows there — so copying
    shard k+1's input overlaps the workers computing shards <= k, and a
    retry (whose data already sits in the arena) never re-stages.
    """
    if policy is None:
        policy = SupervisionPolicy()
    order = [unit.index for unit in units]
    pending: Dict[int, Any] = {unit.index: unit for unit in units}
    if len(pending) != len(units):
        raise ConfigurationError("work unit indices must be unique")
    attempts: Dict[int, int] = {index: 0 for index in pending}
    staged: set = set()

    def _ensure_staged(index: int, unit: Any) -> None:
        if stage is not None and index not in staged:
            staged.add(index)
            stage(unit)
    results: Dict[int, Tuple[int, str, Dict[str, Any]]] = {}
    round_no = 0
    # A pool break with several shards in flight is unattributable: any
    # of them may be the culprit, and charging them all lets one bad
    # shard exhaust innocent bystanders' retry budgets. So such rounds
    # charge nobody, and the next round runs in quarantine — one shard
    # per slot — where every failure names its culprit exactly.
    quarantine = False
    while pending:
        try:
            pool = get_pool(workers)
        except (OSError, ImportError, PermissionError):
            # No pool on this platform (or none anymore): in-process.
            for index in sorted(pending):
                unit = pending.pop(index)
                _ensure_staged(index, unit)
                results[index] = worker_fn(
                    replace(unit, attempt=attempts[index])
                )
            break
        batches: List[List[int]] = (
            [[index] for index in sorted(pending)]
            if quarantine and len(pending) > 1
            else [sorted(pending)]
        )
        round_broken = False
        charged: List[int] = []
        incident = "timeout"
        for batch in batches:
            if pool is None:  # mid-round rebuild failed; retry next round
                break
            submitted: Dict[int, Tuple[Optional[Any], float]] = {}
            # Workers spawn lazily on the first submit, and a broken
            # executor clears its process table the moment the
            # management thread notices — so snapshot after *every*
            # submit, before any crash can land, or there is nothing to
            # attribute failures to.
            batch_processes: Dict[int, Any] = {}
            for index in batch:
                unit = replace(pending[index], attempt=attempts[index])
                _ensure_staged(index, unit)
                try:
                    future = pool.submit(worker_fn, unit)
                except Exception:
                    # Executor already broken: the shard goes through
                    # the rebuild-and-retry path below.
                    submitted[index] = (None, time.monotonic())
                    continue
                submitted[index] = (future, time.monotonic())
                for process in _pool_processes(pool):
                    batch_processes.setdefault(process.pid, process)
            batch_broken = any(f is None for f, _ in submitted.values())
            batch_timed_out: List[int] = []
            for index in sorted(submitted):
                future, submitted_at = submitted[index]
                if future is None:
                    continue
                timeout = None
                if policy.shard_timeout is not None:
                    timeout = max(
                        0.0,
                        submitted_at + policy.shard_timeout - time.monotonic(),
                    )
                try:
                    results[index] = future.result(timeout=timeout)
                    del pending[index]
                except FuturesTimeoutError:
                    batch_timed_out.append(index)
                    _note("timeouts")
                except (BrokenExecutor, OSError):
                    batch_broken = True
            # A timeout always names its shard; a break only does when
            # exactly one shard was in flight (a quarantine slot).
            charged.extend(batch_timed_out)
            if batch_broken:
                round_broken = True
                incident = "worker death"
                _note("worker_deaths")
                if len(batch) == 1:
                    charged.extend(batch)
                # The culprit may still be an unreaped zombie while the
                # executor's management thread is mid-waitpid, in which
                # case both liveness probes transiently say "alive" —
                # poll briefly until the reap lands (it is already in
                # flight: the broken future we just collected proves it).
                deadline = time.monotonic() + 1.0
                while True:
                    dead = [
                        pid
                        for pid, process in batch_processes.items()
                        if _process_dead(process)
                    ]
                    if dead or time.monotonic() >= deadline:
                        break
                    time.sleep(0.01)
                for pid in dead:
                    _note_worker_failure(pid)
            if batch_timed_out or batch_broken:
                # Dead or hung workers poison the executor: rebuild now
                # (kills the hung worker, respawns the rest, keeps the
                # arena segments linked) so the next slot starts clean.
                pool = rebuild_pool(workers)
        if not pending:
            break
        exhausted: List[int] = []
        for index in charged:
            attempts[index] += 1
            if attempts[index] > policy.max_retries:
                exhausted.append(index)
            else:
                _note("retries")
        for index in exhausted:
            unit = pending.pop(index)
            if policy.serial_fallback:
                _note("serial_fallbacks")
                # Same code path, parent process: bitwise identical, and
                # the _IN_WORKER guard disarms any injected fault.
                _ensure_staged(index, unit)
                results[index] = worker_fn(
                    replace(unit, attempt=attempts[index])
                )
            else:
                _note("exhausted")
                results[index] = (
                    index,
                    "err",
                    _exhausted_description(attempts[index], incident),
                )
        quarantine = round_broken
        if pending:
            time.sleep(min(policy.backoff * (2 ** round_no), 2.0))
        round_no += 1
    return [results[index] for index in order]


# -- worker introspection ----------------------------------------------------


def _worker_probe(_index: int) -> Tuple[int, Dict[str, int]]:
    """One worker's pid + cache counters, synchronized on the barrier.

    The barrier holds each worker at this task until every worker has
    picked one up, which is what guarantees the probe fan-out below
    lands on ``workers`` *distinct* processes rather than one fast
    worker draining the queue. A worker stuck elsewhere breaks the
    barrier via timeout and the survivors report anyway.
    """
    if _WORKER_BARRIER is not None:
        try:
            _WORKER_BARRIER.wait(5.0)
        except threading.BrokenBarrierError:
            pass
    return os.getpid(), topology_cache_info()


def _collect_probes(timeout: float) -> Tuple[Dict[int, Dict[str, int]], bool]:
    """Fan a probe task across the pool; returns ``(by_pid, complete)``.

    Tolerates a half-dead pool: a broken executor, a dead worker or a
    probe that never returns within ``timeout`` just drops out of the
    result — the survivors still report, and ``complete`` says whether
    every worker answered.
    """
    if _pool is None:
        return {}, True
    futures = []
    for index in range(_pool_workers):
        try:
            futures.append(_pool.submit(_worker_probe, index))
        except Exception:
            break
    results: Dict[int, Dict[str, int]] = {}
    complete = len(futures) == _pool_workers
    deadline = time.monotonic() + timeout
    try:
        for future in futures:
            try:
                remaining = max(0.0, deadline - time.monotonic())
                pid, info = future.result(timeout=remaining)
                results[pid] = info
            except Exception:
                complete = False
    finally:
        if _pool_barrier is not None and _pool_barrier.broken:
            try:
                _pool_barrier.reset()
            except Exception:  # pragma: no cover - barrier mid-teardown
                pass
    return results, complete


def worker_cache_infos(timeout: float = 10.0) -> Dict[int, Dict[str, int]]:
    """Topology-cache counters of every pool worker, keyed by pid.

    Empty when no pool is running; on a half-dead pool the surviving
    workers' counters are returned and the dead ones are simply absent
    (this call never raises and never blocks past ``timeout``).
    """
    results, _ = _collect_probes(timeout)
    return results


def pool_health(probe: bool = True, timeout: float = 5.0) -> Dict[str, Any]:
    """Liveness and responsiveness of the shared worker pool.

    Returns a plain dict: ``running``/``workers``/``generation`` (pool
    state), ``alive_pids``/``dead_pids`` (from the process table),
    ``responsive`` (did every worker answer a round-trip heartbeat
    within ``timeout``; ``None`` when ``probe`` is off or no pool runs)
    and ``responding_pids``. The supervision counters ride along under
    ``"telemetry"`` so one call paints the whole failure picture.
    """
    health: Dict[str, Any] = {
        "running": _pool is not None,
        "workers": _pool_workers,
        "generation": _pool_generation,
        "alive_pids": [],
        "dead_pids": [],
        "responsive": None,
        "responding_pids": [],
        "telemetry": dispatch_telemetry(),
    }
    if _pool is None:
        return health
    for process in _pool_processes(_pool):
        bucket = "dead_pids" if _process_dead(process) else "alive_pids"
        health[bucket].append(process.pid)
    health["alive_pids"].sort()
    health["dead_pids"].sort()
    if probe:
        responses, complete = _collect_probes(timeout)
        health["responding_pids"] = sorted(responses)
        health["responsive"] = complete and bool(
            responses or _pool_workers == 0
        )
    return health
