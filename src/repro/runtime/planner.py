"""Workload-aware backend routing.

The planner is the "model the cost, then dispatch" step: a
:class:`Workload` describes *what* is being asked (one point query? an
``(S, n)`` scenario batch? an edit stream?), :func:`plan` decides *which
engine* answers it, and the returned :class:`ExecutionPlan` records why
— every decision carries its provenance so ``context.stats()`` and the
CLI can explain a routing choice after the fact.

Routing rules (first match wins), with the worker budget and
calibration taken from :class:`~repro.runtime.config.RuntimeConfig`
and the static batch boundary from :data:`SHARDED_MIN_CELLS`:

========  ============================================  ===========
kind      condition                                     backend
========  ============================================  ===========
any       ``backend=`` forced (call or config)          as forced
edit      always (delta updates are the whole point)    incremental
many      ``workers > 1`` and ``tree_count >= 2``       sharded
many      otherwise                                     compiled
batch     calibrated: ``cells >= breakeven_cells``      sharded
batch     ``workers > 1`` and ``cells >= min_cells``    sharded
batch     otherwise                                     compiled
sweep     same rules as ``batch``, per chunk            sharded/compiled
table     always (one vectorized pass)                  compiled
point     always (compiled sums, O(1) kernel per read)  compiled
========  ============================================  ===========

Point and table sessions share one per-tree state (the compiled sums),
so the two rows differ only in which reads a caller is expected to
make, never in the bits those reads return.

When the sharded backend is *unavailable* — its circuit breaker
tripped after repeated shard failures or a pool rebuild — the
auto-routing degrades ``sharded -> compiled`` instead. Only sharded
dispatches record breaker failures, so ``compiled`` is the floor. The
resulting plan is marked ``degraded`` and carries the skipped backend in
its provenance; results are numerically identical on both rungs, so
degradation costs throughput, never correctness. A *forced* backend is
never rerouted — an explicit ``backend=`` wins over the breaker, and the
caller owns the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .config import RuntimeConfig

__all__ = [
    "SHARDED_MIN_CELLS",
    "WORKLOAD_KINDS",
    "Workload",
    "ExecutionPlan",
    "plan",
]

#: Without a calibration, batches of at least this many cells
#: (``scenarios x nodes``) route to the sharded backend when
#: ``workers > 1``; smaller batches stay on the in-process compiled
#: kernels, whose results are bitwise identical anyway.
SHARDED_MIN_CELLS = 4096

#: The six workload shapes the runtime routes.
WORKLOAD_KINDS: Tuple[str, ...] = (
    "point",
    "table",
    "batch",
    "edit",
    "many",
    "sweep",
)


@dataclass(frozen=True)
class Workload:
    """One unit of work, described by shape rather than by API call.

    ``kind`` is one of :data:`WORKLOAD_KINDS`: ``"point"`` (one metric
    at one node), ``"table"`` (every metric at every node of one tree),
    ``"batch"`` (``scenarios`` value-rows over one topology),
    ``"edit"`` (a stream of element edits interleaved with queries),
    ``"many"`` (independent, possibly heterogeneous trees) and
    ``"sweep"`` (one staged chunk of a lazy scenario sweep —
    ``scenarios`` rows over one topology, planned chunk by chunk so
    the serial/sharded crossover applies per block).
    """

    kind: str
    tree_size: int = 0
    scenarios: int = 0
    edit_count: int = 0
    tree_count: int = 1

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; choose from "
                f"{WORKLOAD_KINDS}"
            )

    @property
    def cells(self) -> int:
        """Total kernel lanes of a batch: scenarios x nodes."""
        return self.scenarios * self.tree_size


@dataclass(frozen=True)
class ExecutionPlan:
    """A routing decision plus its provenance.

    ``degraded`` marks a plan the breaker rerouted: ``degraded_from``
    is the backend the heuristics *wanted* and ``backend`` the healthy
    one that will actually serve — the reasons tuple records the walk.
    """

    backend: str
    workload: Workload
    forced: bool
    reasons: Tuple[str, ...]
    degraded: bool = False
    degraded_from: Optional[str] = None

    def __str__(self) -> str:
        tag = "forced" if self.forced else "auto"
        if self.degraded:
            tag += f", degraded from {self.degraded_from}"
        return (
            f"{self.workload.kind} -> {self.backend} [{tag}] "
            f"({'; '.join(self.reasons)})"
        )


def _degrade(
    chosen: str, unavailable: Sequence[str]
) -> Tuple[str, Tuple[str, ...]]:
    """Route a ``sharded`` choice whose breaker is open to ``compiled``.

    Returns the healthy backend plus the provenance entry describing the
    step. ``compiled`` is the floor: no compiled call raises the
    :class:`~repro.errors.DispatchError` that feeds a breaker, and the
    supervised dispatch layer's own serial fallback is the remaining
    safety net.
    """
    if chosen == "sharded" and chosen in unavailable:
        return "compiled", ("breaker open for 'sharded' -> degraded to 'compiled'",)
    return chosen, ()


def plan(
    workload: Workload,
    config: Optional[RuntimeConfig] = None,
    backend: Optional[str] = None,
    unavailable: Sequence[str] = (),
) -> ExecutionPlan:
    """Pick a backend for ``workload`` and say why.

    ``backend`` (per-call) beats ``config.backend`` beats the
    size/batch/edit-count heuristics; a forced backend always wins and
    is recorded as such in the provenance. ``unavailable`` names
    backends whose circuit breaker is open right now — an auto chosen
    ``sharded`` degrades to ``compiled`` past it (forced backends do
    not: an explicit choice beats the breaker).
    """
    config = config or RuntimeConfig()
    forced = backend or config.backend
    if forced is not None:
        origin = "call" if backend else "config"
        # Validate through RuntimeConfig's name check.
        config.with_backend(forced)
        reasons = [f"backend {forced!r} forced by {origin}"]
        if forced in unavailable:
            reasons.append(
                f"breaker open for {forced!r} ignored: forced by {origin}"
            )
        return ExecutionPlan(
            backend=forced,
            workload=workload,
            forced=True,
            reasons=tuple(reasons),
        )

    reasons = []
    if workload.kind == "edit":
        chosen = "incremental"
        reasons.append(
            f"edit stream ({workload.edit_count or 'unbounded'} edits) "
            "-> delta updates"
        )
    elif workload.kind == "many":
        if config.parallel and workload.tree_count >= 2:
            chosen = "sharded"
            reasons.append(
                f"{workload.tree_count} trees with workers="
                f"{config.workers} -> pool dispatch"
            )
        else:
            chosen = "compiled"
            reasons.append(
                f"{workload.tree_count} tree(s) in-process "
                f"(workers={config.workers}) -> serial vectorized"
            )
    elif workload.kind in ("batch", "sweep"):
        calibration = config.calibration
        if calibration is not None:
            # A measured crossover beats the static guess: route by the
            # fitted break-even point, which is the never-slower-than-
            # serial guarantee (below it the pool cannot pay off).
            breakeven = calibration.breakeven_cells
            if config.parallel and calibration.sharded_wins(workload.cells):
                chosen = "sharded"
                reasons.append(
                    f"{workload.cells} cells >= calibrated break-even="
                    f"{breakeven} with workers={config.workers} "
                    "-> pool dispatch"
                )
            else:
                chosen = "compiled"
                reasons.append(
                    f"{workload.cells} cells below calibrated "
                    f"break-even={breakeven} or workers<=1 "
                    "-> in-process vectorized (never slower than serial)"
                )
        elif config.parallel and workload.cells >= SHARDED_MIN_CELLS:
            chosen = "sharded"
            reasons.append(
                f"{workload.cells} cells >= sharded_min_cells="
                f"{SHARDED_MIN_CELLS} with workers="
                f"{config.workers} -> pool dispatch"
            )
        else:
            chosen = "compiled"
            reasons.append(
                f"{workload.cells} cells below sharded_min_cells="
                f"{SHARDED_MIN_CELLS} or workers<=1 "
                "-> in-process vectorized"
            )
    elif workload.kind == "table":
        chosen = "compiled"
        reasons.append("full table -> one vectorized pass")
    else:  # point
        chosen = "compiled"
        reasons.append(
            f"point query on {workload.tree_size} nodes -> compiled sums, "
            "O(1) kernel per read"
        )
    final, degrade_reasons = _degrade(chosen, unavailable)
    return ExecutionPlan(
        backend=final,
        workload=workload,
        forced=False,
        reasons=tuple(reasons) + degrade_reasons,
        degraded=final != chosen,
        degraded_from=chosen if final != chosen else None,
    )
