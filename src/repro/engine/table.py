"""Full-tree and batch evaluation on top of the compiled form.

:class:`TimingTable` is one tree's every metric at every node, as
``(n,)`` columns, plus accessors that materialize
:class:`~repro.analysis.analyzer.NodeTiming` objects. Rows outside the
closed forms' domain stay in the columns as the kernels' non-finite
values; the row accessors (``value``, ``timing``, ``timings``) raise
that row's typed :class:`~repro.errors.ElementValueError` instead.

:func:`analyze_batch` is the S-scenario generalization: given one
compiled topology and ``(S, n)`` value matrices (or a stacked
``(S, 3, n)`` R/L/C block), it evaluates all S x n node metrics in one
array pass — the shape of Monte-Carlo variation, sweep-based sizing and
tuning workloads, where the tree's structure never changes and only the
element values do.

:func:`iter_analyze_batch` is the chunked form of the same pass: a
caller-supplied ``fill`` stages scenario blocks into one reused
``(chunk, 3, n)`` buffer and each block is evaluated as it lands, so
arbitrarily large sweeps run with ``O(chunk x n)`` peak value-matrix
memory. The lazy sweep layer (:mod:`repro.sweep`) drives all its
execution through this entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import ReductionError, TopologyError
from .compiled import CompiledTopology, CompiledTree, compile_tree
from .kernels import (
    METRIC_NAMES,
    MetricArrays,
    check_domain,
    fast_path_eligible,
    metrics_from_sums,
    validate_settle_band,
)

__all__ = [
    "TimingTable",
    "BatchTiming",
    "evaluate",
    "analyze_batch",
    "batch_metrics",
    "iter_analyze_batch",
    "timing_table",
]

#: Metric-name aliases accepted by the ``value``/``column`` accessors;
#: keys include the guarded pipeline's metric names.
_METRIC_FIELDS: Dict[str, str] = {
    "t_rc": "t_rc",
    "t_lc": "t_lc",
    "zeta": "zeta",
    "omega_n": "omega_n",
    "delay_50": "delay_50",
    "rise_time": "rise_time",
    "overshoot": "overshoot",
    "settling": "settling",
    "settling_time": "settling",
}


def _metric_field(metric: str) -> str:
    try:
        return _METRIC_FIELDS[metric]
    except KeyError:
        raise ReductionError(
            f"unknown metric {metric!r}; choose from {sorted(_METRIC_FIELDS)}"
        ) from None


@dataclass(frozen=True)
class TimingTable:
    """All closed-form metrics for every node of one tree, as arrays."""

    names: Tuple[str, ...]
    settle_band: float
    metrics: MetricArrays
    _index: Dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self._index:
            self._index.update({n: i for i, n in enumerate(self.names)})

    # -- array access ------------------------------------------------------

    def __getattr__(self, name: str):
        # Expose metric columns (t_rc, delay_50, ...) as attributes.
        if name in _METRIC_FIELDS:
            return self.column(name)
        raise AttributeError(name)

    def column(self, metric: str) -> np.ndarray:
        """One metric for all nodes, in ``names`` order."""
        values = getattr(self.metrics, _metric_field(metric))
        if values is None:
            raise ReductionError(
                f"metric {metric!r} was not evaluated; include it in the "
                "``metrics`` selection"
            )
        return values

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def _row(self, node: str) -> int:
        """``node``'s row index, after :func:`check_domain` on its sums."""
        i = self.index(node)
        m = self.metrics
        check_domain(float(m.t_rc[i]), float(m.t_lc[i]), node)
        return i

    def value(self, metric: str, node: str) -> float:
        """One metric at one node; an out-of-domain row raises."""
        column = self.column(metric)
        return float(column[self._row(node)])

    # -- NodeTiming materialization ---------------------------------------

    def timing(self, node: str):
        """The :class:`~repro.analysis.analyzer.NodeTiming` of one node."""
        from ..analysis.analyzer import NodeTiming

        i = self._row(node)
        m = self.metrics
        return NodeTiming(
            node=node,
            t_rc=float(m.t_rc[i]),
            t_lc=float(m.t_lc[i]),
            zeta=float(m.zeta[i]),
            omega_n=float(m.omega_n[i]),
            delay_50=float(m.delay_50[i]),
            rise_time=float(m.rise_time[i]),
            overshoot=float(m.overshoot[i]),
            settling=float(m.settling[i]),
        )

    def timings(self, nodes: Optional[Sequence[str]] = None) -> List:
        """``NodeTiming`` objects for ``nodes`` (default: every node).

        Raises the typed error of the first out-of-domain row selected.
        """
        from ..analysis.analyzer import NodeTiming

        m = self.metrics
        if nodes is not None:
            return [self.timing(node) for node in nodes]
        if not fast_path_eligible(m.t_rc, m.t_lc):
            for node in self.names:
                self._row(node)
        rows = zip(
            self.names,
            m.t_rc.tolist(),
            m.t_lc.tolist(),
            m.zeta.tolist(),
            m.omega_n.tolist(),
            m.delay_50.tolist(),
            m.rise_time.tolist(),
            m.overshoot.tolist(),
            m.settling.tolist(),
        )
        # Bulk materialization: writing the instance __dict__ wholesale
        # skips the frozen dataclass's per-field object.__setattr__
        # round-trips, which at 10k+ nodes is the dominant cost of a
        # full report. The result is indistinguishable from __init__.
        new = NodeTiming.__new__
        out = []
        for node, t_rc, t_lc, zeta, omega_n, delay, rise, over, settle in rows:
            timing = new(NodeTiming)
            timing.__dict__.update(
                node=node,
                t_rc=t_rc,
                t_lc=t_lc,
                zeta=zeta,
                omega_n=omega_n,
                delay_50=delay,
                rise_time=rise,
                overshoot=over,
                settling=settle,
            )
            out.append(timing)
        return out


def evaluate(compiled: CompiledTree, settle_band: float = 0.1) -> TimingTable:
    """Sums plus every metric for one compiled tree, in one array pass.

    Performs no domain checking on the *sums*: entries the closed forms
    cannot serve come out non-finite (see
    :func:`~repro.engine.kernels.metrics_from_sums`), and the table's row
    accessors raise for them. The ``settle_band`` request, however, is
    validated up front — out-of-domain bands raise
    :class:`~repro.errors.ConfigurationError` before any sweep runs.
    """
    validate_settle_band(settle_band)
    t_rc, t_lc = compiled.second_order_sums()
    return TimingTable(
        names=compiled.names,
        settle_band=settle_band,
        metrics=metrics_from_sums(t_rc, t_lc, settle_band),
        _index=compiled.topology.index,
    )


def timing_table(
    tree: RLCTree, settle_band: float = 0.1, *, cache: bool = True
) -> TimingTable:
    """The metric table of ``tree``: :func:`evaluate` on its compiled form.

    Always a table; nodes outside the closed forms' domain are
    non-finite rows whose accessors raise. An out-of-domain
    ``settle_band`` raises :class:`~repro.errors.ConfigurationError`.
    """
    return evaluate(compile_tree(tree, cache=cache), settle_band)


@dataclass(frozen=True)
class BatchTiming:
    """Metrics for S value-scenarios x n nodes, as ``(S, n)`` arrays."""

    names: Tuple[str, ...]
    settle_band: float
    metrics: MetricArrays
    _index: Dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self._index:
            self._index.update({n: i for i, n in enumerate(self.names)})

    def __getattr__(self, name: str):
        if name in _METRIC_FIELDS:
            field_name = _METRIC_FIELDS[name]
            values = getattr(self.metrics, field_name)
            if values is None:
                raise ReductionError(
                    f"metric {name!r} was not evaluated; include it in the "
                    "``metrics`` selection"
                )
            return values
        raise AttributeError(name)

    @property
    def scenarios(self) -> int:
        return self.metrics.t_rc.shape[0]

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def column(self, metric: str, node: str) -> np.ndarray:
        """One metric at one node across all scenarios, shape ``(S,)``.

        Returned as a fresh copy: a strided view into the ``(S, n)``
        metric block would keep the whole block alive for as long as the
        caller holds the column — exactly the lifetime bug a Monte-Carlo
        loop that extracts one sink column per batch would hit.
        """
        values = getattr(self.metrics, _metric_field(metric))
        if values is None:
            raise ReductionError(
                f"metric {metric!r} was not evaluated; include it in the "
                "``metrics`` selection"
            )
        return values[:, self.index(node)].copy()

    def scenario(self, s: int) -> TimingTable:
        """The full :class:`TimingTable` of scenario ``s``."""
        m = self.metrics
        row = MetricArrays(
            **{
                name: None if values is None else values[s]
                for name in METRIC_NAMES
                for values in (getattr(m, name),)
            }
        )
        return TimingTable(
            names=self.names,
            settle_band=self.settle_band,
            metrics=row,
            _index=self._index,
        )


def _batch_values(
    compiled: CompiledTree,
    rlc: Optional[np.ndarray],
    resistance: Optional[np.ndarray],
    inductance: Optional[np.ndarray],
    capacitance: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = compiled.size
    if rlc is not None:
        if resistance is not None or inductance is not None or capacitance is not None:
            raise ReductionError(
                "pass either a stacked rlc block or per-element matrices, not both"
            )
        rlc = np.asarray(rlc, dtype=float)
        if rlc.ndim != 3 or rlc.shape[1] != 3 or rlc.shape[2] != n:
            raise ReductionError(
                f"rlc block must have shape (S, 3, {n}), got {rlc.shape}"
            )
        return rlc[:, 0, :], rlc[:, 1, :], rlc[:, 2, :]

    given = [
        a for a in (resistance, inductance, capacitance) if a is not None
    ]
    if not given:
        raise ReductionError(
            "analyze_batch needs an rlc block or at least one value matrix"
        )
    scenarios = {np.asarray(a).shape[0] for a in given if np.asarray(a).ndim == 2}
    if len(scenarios) > 1:
        raise ReductionError(
            f"value matrices disagree on scenario count: {sorted(scenarios)}"
        )
    s = scenarios.pop() if scenarios else 1

    out = []
    for label, values, nominal in (
        ("resistance", resistance, compiled.resistance),
        ("inductance", inductance, compiled.inductance),
        ("capacitance", capacitance, compiled.capacitance),
    ):
        if values is None:
            values = nominal
        values = np.asarray(values, dtype=float)
        if values.shape not in ((n,), (s, n)):
            raise ReductionError(
                f"{label} matrix must have shape ({n},) or ({s}, {n}), "
                f"got {values.shape}"
            )
        out.append(np.broadcast_to(values, (s, n)))
    return tuple(out)


def analyze_batch(
    compiled: CompiledTree,
    rlc: Optional[np.ndarray] = None,
    *,
    resistance: Optional[np.ndarray] = None,
    inductance: Optional[np.ndarray] = None,
    capacitance: Optional[np.ndarray] = None,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
) -> BatchTiming:
    """Evaluate S value-scenarios over one topology in a single pass.

    Values come either as one stacked ``rlc`` block of shape
    ``(S, 3, n)`` (R, L, C along the middle axis, nodes in
    ``compiled.names`` order) or as per-element matrices of shape
    ``(S, n)``; an element left ``None`` uses the compiled tree's
    nominal vector for every scenario. Scenario entries outside the
    closed forms' domain come out NaN — batch workloads filter rather
    than raise.

    ``metrics`` restricts which metric kernels run (default: all) —
    worthwhile on large batches, where a single-metric sweep skips most
    of the elementwise work. Reading an unselected metric raises
    :class:`~repro.errors.ReductionError`; the sums are always kept.

    ``settle_band`` outside ``(0, 1)`` raises
    :class:`~repro.errors.ConfigurationError` before any values are
    touched.
    """
    validate_settle_band(settle_band)
    r, l, c = _batch_values(compiled, rlc, resistance, inductance, capacitance)
    select = None
    if metrics is not None:
        select = tuple(_metric_field(metric) for metric in metrics)
    return BatchTiming(
        names=compiled.names,
        settle_band=settle_band,
        metrics=batch_metrics(compiled.topology, r, l, c, settle_band, select),
    )


def batch_metrics(
    topology: CompiledTopology,
    r: np.ndarray,
    l: np.ndarray,
    c: np.ndarray,
    settle_band: float,
    select: Optional[Tuple[str, ...]] = None,
) -> MetricArrays:
    """Sums and metrics of S scenarios: the batch engine's one kernel.

    Takes scenario-major ``(S, n)`` R/L/C matrices and returns
    :class:`MetricArrays` of ``(S, n)`` arrays, but runs both Appendix
    sweeps and the metric kernels **node-major**, on ``(n, S)`` blocks:
    each level step then gathers contiguous rows of S values instead
    of S strided columns. The transpose in is free when the matrices
    are already node-major underneath (the staging buffer of
    :func:`iter_analyze_batch` is) and costs one copy otherwise; the
    transpose out is a view. Every scenario's results are bitwise those
    of the 1-D :func:`evaluate` on its own values — the layout changes
    which memory an operation touches, never its operands or their
    association.
    """
    t_rc, t_lc = topology.second_order_sums(
        *(np.ascontiguousarray(v.T) for v in (r, l, c))
    )
    sums = metrics_from_sums(t_rc, t_lc, settle_band, select=select)
    return MetricArrays(
        **{
            name: None if values is None else values.T
            for name in METRIC_NAMES
            for values in (getattr(sums, name),)
        }
    )


def iter_analyze_batch(
    compiled: CompiledTree,
    fill,
    scenarios: int,
    *,
    chunk_size: int,
    settle_band: float = 0.1,
    metrics: Optional[Sequence[str]] = None,
    evaluate=None,
):
    """Chunked :func:`analyze_batch`: stream scenario blocks through one
    reused staging buffer.

    ``fill(view, lo, hi)`` writes scenario rows ``[lo, hi)`` into
    ``view`` — shape ``(hi - lo, 3, n)``, a slice of one preallocated
    buffer reused for every chunk — so peak value-matrix memory is
    ``O(chunk_size x n)`` however large ``scenarios`` is. The buffer
    is node-major underneath: ``view[:, k, :]`` is the transpose of a
    C-contiguous ``(n, chunk)`` plane, so a ``fill`` that writes each
    slot in that memory order (``order="F"`` on a ufunc ``out=``) and
    the batch kernel both stream contiguous memory. Yields
    ``(lo, BatchTiming)`` pairs in offset order; the chunk results are
    bitwise identical to the corresponding rows of one eager
    :func:`analyze_batch` over the full block.

    ``evaluate(view, lo, hi)`` overrides per-chunk evaluation — the
    runtime's sweep dispatcher routes each chunk through its planned
    backend this way; the default evaluates in process via
    :func:`analyze_batch`. The staged slice is only valid until the
    next chunk is staged, matching :class:`BatchTiming`'s
    no-input-retention contract.

    Arguments are validated eagerly at call time, not at first
    iteration.
    """
    validate_settle_band(settle_band)
    scenarios = int(scenarios)
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ReductionError(
            f"chunk_size must be positive, got {chunk_size}"
        )
    if scenarios < 0:
        raise ReductionError(
            f"scenario count must be non-negative, got {scenarios}"
        )

    def chunks():
        if scenarios == 0:
            return
        rows = min(chunk_size, scenarios)
        buffer = np.empty((3, compiled.size, rows)).transpose(2, 0, 1)
        for lo in range(0, scenarios, chunk_size):
            hi = min(lo + chunk_size, scenarios)
            view = buffer[: hi - lo]
            fill(view, lo, hi)
            if evaluate is None:
                yield lo, analyze_batch(
                    compiled,
                    view,
                    settle_band=settle_band,
                    metrics=metrics,
                )
            else:
                yield lo, evaluate(view, lo, hi)

    return chunks()
