"""Chunked execution of compiled sweeps through the runtime.

The executor never materializes the ``(S, 3, n)`` value block. It asks
the engine's chunk iterator for one reused ``(chunk, 3, n)`` staging
buffer, evaluates the compiled expression schedule per chunk (shared
subtrees once, per the CSE schedule), and hands every staged chunk to
:meth:`repro.runtime.ExecutionContext.sweep_chunks`, where the planner
routes it through the calibrated serial/sharded crossover as a
``"sweep"`` workload. Peak value-matrix memory is ``O(chunk x n)``
regardless of the scenario count.

Sequential axes (RNG-backed factor draws) carry their generator in a
per-run stream table keyed by axis; the chunk context advances each
stream exactly once per chunk and refuses out-of-order evaluation, so
the concatenated draws are bitwise the eager single draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.tree import RLCTree
from ..engine import compile_tree
from ..engine.compiled import CompiledTree
from ..engine.table import BatchTiming
from ..errors import ConfigurationError
from ..runtime import ExecutionContext, resolve_context
from .compile import CompiledSweep
from .expr import Axis, Expr

__all__ = ["DEFAULT_CHUNK", "SweepResult", "iter_sweep", "run_sweep"]

#: Default scenario rows per staged chunk: large enough to amortize
#: dispatch, small enough that a chunk of a wide tree stays cache-warm.
DEFAULT_CHUNK = 4096


class _ChunkContext:
    """Evaluation context of one scenario block ``[lo, hi)``."""

    def __init__(self, space, lo: int, hi: int, streams):
        self._space = space
        self.lo = lo
        self.hi = hi
        self._streams = streams

    def axis_column(self, axis: Axis) -> np.ndarray:
        """The axis's values for this block as a ``(chunk, 1)`` column."""
        return self._space.axis_chunk(axis, self.lo, self.hi).reshape(-1, 1)

    def draw_block(self, axis: Axis) -> np.ndarray:
        """The next block of a sequential axis's draw stream."""
        state = self._streams[axis]
        if state["next"] != self.lo:
            raise ConfigurationError(
                f"sequential axis {axis.name!r} must be evaluated in "
                f"chunk order: expected offset {state['next']}, got "
                f"{self.lo}"
            )
        block = axis.draw(state["rng"], self.hi - self.lo)
        state["next"] = self.hi
        return block


def _evaluate_roots(sweep: CompiledSweep, ctx: _ChunkContext, slots):
    """Write the three root values for one chunk into ``slots`` (the
    staging buffer's R, L and C planes), honoring the CSE flag.

    Each root is computed straight into its slot through ``out=``, so a
    chunk allocates no ``(chunk, n)`` temporary per root. Under CSE a
    node that is the root of several slots is computed once and copied.
    """
    if sweep.cse:
        targets: Dict[Expr, list] = {}
        for root, slot in zip(sweep.roots, slots):
            targets.setdefault(root, []).append(slot)
        # Reference-counted schedule: drop a value from the memo the
        # moment its last consumer has run. Holding every intermediate
        # of the whole schedule alive defeats the allocator's buffer
        # reuse and costs more than the recomputation CSE saves.
        remaining: Dict[Expr, int] = {}
        for node in sweep.order:
            for dep in node.deps:
                remaining[dep] = remaining.get(dep, 0) + 1
        memo: Dict[Expr, object] = {}
        for node in sweep.order:
            args = []
            for dep in node.deps:
                args.append(memo[dep])
                remaining[dep] -= 1
                if remaining[dep] == 0:
                    del memo[dep]
            if node in targets:
                first, *rest = targets[node]
                node._compute_into(ctx, args, first)
                for slot in rest:
                    slot[...] = first
                if remaining.get(node):
                    memo[node] = first
            else:
                memo[node] = node._compute(ctx, args)
        return

    # CSE disabled: re-walk the expression *tree*, recomputing shared
    # subtrees at every reference. Stateful nodes stay memoized so an
    # RNG stream never advances twice within one chunk.
    stateful: Dict[Expr, object] = {}

    def evaluate(node: Expr):
        if node.stateful and node in stateful:
            return stateful[node]
        value = node._compute(ctx, [evaluate(dep) for dep in node.deps])
        if node.stateful:
            stateful[node] = value
        return value

    for root, slot in zip(sweep.roots, slots):
        root._compute_into(ctx, [evaluate(dep) for dep in root.deps], slot)


def _check_sections(sweep: CompiledSweep, sections: int) -> None:
    """Fail before the first chunk when a factor axis or a constant
    vector does not span the tree's sections."""
    for node in sweep.order:
        width = node.sections
        if width is None or width == sections:
            continue
        what = (
            "a constant vector"
            if node.axis is None
            else f"factor axis {node.axis.name!r}"
        )
        raise ConfigurationError(
            f"{what} spans {width} sections, but the tree has {sections}"
        )


def iter_sweep(
    sweep: CompiledSweep,
    tree: Union[RLCTree, CompiledTree],
    *,
    chunk_size: int = DEFAULT_CHUNK,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> Iterator[Tuple[int, BatchTiming]]:
    """Stream a compiled sweep over ``tree`` as ``(offset, BatchTiming)``
    chunks in offset order.

    Each chunk's metrics are bitwise identical to the corresponding
    rows of one eager :func:`~repro.engine.table.analyze_batch` over
    the full materialized block — the kernels see the same values in
    the same order, whatever ``chunk_size`` — so chunking is purely a
    memory/latency knob.
    """
    runtime = resolve_context(context)
    compiled = compile_tree(tree) if isinstance(tree, RLCTree) else tree
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be positive, got {chunk_size}"
        )
    _check_sections(sweep, compiled.size)
    streams = {
        axis: {"rng": axis.start_stream(), "next": 0}
        for axis in sweep.space.sequential_axes
    }

    def fill(view: np.ndarray, lo: int, hi: int) -> None:
        ctx = _ChunkContext(sweep.space, lo, hi, streams)
        _evaluate_roots(sweep, ctx, (view[:, 0, :], view[:, 1, :], view[:, 2, :]))

    return runtime.sweep_chunks(
        compiled,
        fill,
        sweep.space.size,
        chunk_size=chunk_size,
        settle_band=settle_band,
        metrics=metrics,
        backend=backend,
        provenance={
            "cse_hits": sweep.cse_hits,
            "unique_nodes": sweep.unique_nodes,
            "total_refs": sweep.total_refs,
        },
    )


@dataclass(frozen=True)
class SweepResult:
    """Materialized per-``(metric, node)`` columns of one executed sweep."""

    scenarios: int
    chunks: int
    columns: Dict[Tuple[str, str], np.ndarray]

    def column(self, metric: str, node: str) -> np.ndarray:
        """The ``(scenarios,)`` column of one metric at one node."""
        try:
            return self.columns[(metric, node)]
        except KeyError:
            raise ConfigurationError(
                f"({metric!r}, {node!r}) was not collected by this sweep"
            ) from None


def run_sweep(
    sweep: CompiledSweep,
    tree: Union[RLCTree, CompiledTree],
    *,
    nodes: Sequence[str],
    metrics: Sequence[str] = ("delay_50",),
    chunk_size: int = DEFAULT_CHUNK,
    settle_band: float = 0.1,
    backend: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> SweepResult:
    """Run a sweep to completion, keeping selected columns.

    Only the requested ``(metric, node)`` columns are accumulated —
    ``O(S)`` scalars each — while the value matrices stay chunked, so
    peak memory remains ``O(chunk x n)`` plus the output columns.
    """
    nodes = tuple(nodes)
    metrics = tuple(metrics)
    if not nodes:
        raise ConfigurationError("run_sweep needs at least one node")
    columns = {
        (metric, node): np.empty(sweep.space.size)
        for metric in metrics
        for node in nodes
    }
    chunks = 0
    for lo, batch in iter_sweep(
        sweep,
        tree,
        chunk_size=chunk_size,
        settle_band=settle_band,
        metrics=metrics,
        backend=backend,
        context=context,
    ):
        chunks += 1
        hi = lo + batch.scenarios
        for metric in metrics:
            for node in nodes:
                columns[(metric, node)][lo:hi] = batch.column(metric, node)
    return SweepResult(
        scenarios=sweep.space.size, chunks=chunks, columns=columns
    )
