"""The compiled vectorized analysis engine.

The paper's complexity argument (Appendix: O(n), two multiplications per
section) only pays off in Python when the constant factor is array-sized
rather than interpreter-sized. This package flattens an
:class:`~repro.circuit.tree.RLCTree` into NumPy arrays **once** and then
evaluates every tree sweep and every closed-form metric as vectorized
kernels:

* :mod:`~repro.engine.compiled` — :class:`CompiledTopology` (permutation,
  parent-index vector, CSR child offsets, level grouping) and
  :class:`CompiledTree` (topology + per-section R/L/C value vectors),
  with a topology-fingerprint cache so value-only perturbations of the
  same tree shape skip the structural compile entirely;
* :mod:`~repro.engine.kernels` — the closed-form metric formulas
  (eqs. 29-30, 33-36, 39-42) as masked ufunc-style kernels over
  ``(T_RC, T_LC)`` arrays, with the RC limit (``T_LC == 0``) handled by
  elementwise masking;
* :mod:`~repro.engine.table` — :class:`TimingTable` (the full-tree
  vectorized equivalent of ``TreeAnalyzer.report()``) and
  :func:`analyze_batch`, which evaluates S value-scenarios x N nodes in
  one stacked ``(S, N)`` array pass — the shape of Monte-Carlo variation,
  wire-sizing and clock-tuning workloads;
* :mod:`~repro.engine.sharded` / :mod:`~repro.engine.dispatch` — the
  multi-process scale step: :func:`analyze_many` dispatches
  heterogeneous tree sets and :func:`analyze_batch_sharded` splits huge
  scenario batches into shards evaluated across a worker pool
  (``compile once, ship CompiledTree + value blocks`` over
  ``multiprocessing`` with shared-memory value matrices), with
  per-shard structured error capture and bitwise-identical results
  versus the in-process engine. Multi-worker dispatches are
  *supervised*: per-shard wall-clock deadlines, bounded retry with
  automatic pool rebuild on worker death, and serial in-process
  fallback when retries are exhausted, so a crashed or hung worker can
  never hang the call or change the numbers.

The engine is the one implementation of the per-node physics: every
entry point (``TreeAnalyzer``, runtime sessions, the guarded analyzer,
the CLI) reads its sums and its two closed-form kernels, the vector
:func:`metrics_from_sums` and its O(1) twin :func:`scalar_metrics`,
which agree bit for bit. The property suite pins them against the
dict oracle in ``tests/conftest.py`` and the O(n^2) path-tracing
oracle to 1e-12 relative. See ``docs/PERFORMANCE.md`` for the
architecture and measured speedups (``BENCH_engine.json``).

All array math is plain NumPy. Sharded calls move input values and
metric outputs through persistent shared-memory *arenas* in
:mod:`~repro.engine.dispatch`: parent-owned, grow-only segments reused
across calls, so nothing large is pickled.
"""

from .compiled import (
    CompiledTopology,
    CompiledTree,
    clear_topology_cache,
    compile_tree,
    seed_topology_cache,
    topology_cache_info,
    topology_fingerprint,
    topology_key,
)
from .dispatch import (
    SupervisionPolicy,
    arena_info,
    dispatch_pool,
    dispatch_telemetry,
    effective_cpu_count,
    pool_health,
    release_arenas,
    reset_dispatch_telemetry,
)
from .incremental import (
    EditSession,
    IncrementalAnalyzer,
    clear_incremental_counters,
    incremental_cache_info,
)
from .kernels import (
    MetricArrays,
    check_domain,
    fast_path_eligible,
    metrics_from_sums,
    scalar_metrics,
    validate_settle_band,
)
from .sharded import (
    ShardError,
    ShardOutcome,
    analyze_batch_sharded,
    analyze_many,
    shutdown_pool,
)
from .table import (
    BatchTiming,
    TimingTable,
    analyze_batch,
    evaluate,
    timing_table,
)


def cache_info():
    """Every engine-layer cache/counter group, as one nested dict.

    ``"topology"`` is the structural-compile LRU of this process
    (:func:`topology_cache_info`, including lazily built preorder
    layouts); ``"incremental"`` is the delta-update engine's counters
    (:func:`incremental_cache_info`). The CLI prints this under
    ``--debug``.
    """
    return {
        "topology": topology_cache_info(),
        "incremental": incremental_cache_info(),
    }

__all__ = [
    "CompiledTopology",
    "CompiledTree",
    "compile_tree",
    "topology_fingerprint",
    "topology_key",
    "clear_topology_cache",
    "seed_topology_cache",
    "topology_cache_info",
    "MetricArrays",
    "metrics_from_sums",
    "scalar_metrics",
    "check_domain",
    "fast_path_eligible",
    "validate_settle_band",
    "TimingTable",
    "BatchTiming",
    "evaluate",
    "analyze_batch",
    "timing_table",
    "ShardError",
    "ShardOutcome",
    "analyze_many",
    "analyze_batch_sharded",
    "shutdown_pool",
    "dispatch_pool",
    "SupervisionPolicy",
    "pool_health",
    "dispatch_telemetry",
    "reset_dispatch_telemetry",
    "arena_info",
    "release_arenas",
    "effective_cpu_count",
    "IncrementalAnalyzer",
    "EditSession",
    "incremental_cache_info",
    "clear_incremental_counters",
    "cache_info",
]
