"""The guarded analysis pipeline: an answer or a well-typed error.

:class:`GuardedAnalyzer` wraps a runtime session's closed forms with
the three defensive layers the rest of this package provides:

1. **Validation** — the input tree is validated (and optionally
   repaired under an explicit :class:`~repro.robustness.RepairPolicy`)
   before any numerics run; invalid trees fail fast with a structured
   :class:`~repro.errors.ValidationError`.
2. **Fallback chain** — each metric resolves through a configurable
   tier chain, by default ``closed-form`` (the paper's O(n) equivalent
   second-order model) then ``awe`` (stable-only AWE, order 3) then
   ``exact`` (modal simulation measured on a node-adaptive grid). A
   tier answers only with a finite value; anything else — a
   :class:`~repro.errors.ReproError`, a numpy ``LinAlgError``, an
   overflow, a NaN — is recorded and the next tier runs. The first
   tier is one read of the runtime session's closed-form table: nodes
   whose metrics it gives finite are answered there, and only the
   others — out-of-domain rows are non-finite in that table — walk the
   chain.
   The exact tier declines a tree above :data:`EXACT_STATE_BUDGET`
   states with a typed failure instead of simulating it.
3. **Numerical-health retries** — the exact tier probes its
   eigendecomposition (condition, residual, finiteness) and on a
   tripped probe retries once in normalized units
   (:func:`~repro.robustness.health.rescale_tree`), scaling time-valued
   results back. The retry loop is deterministic and bounded.

Every query returns a :class:`RobustnessReport` recording which tier
answered and what every earlier tier reported, so a production caller
can log *why* a number cost more than the closed form. The public
guarantee: every metric query either returns finite metrics or raises a
:class:`~repro.errors.ReproError` subclass — never a raw numpy
traceback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.analyzer import NodeTiming, TreeAnalyzer
from ..circuit.tree import RLCTree
from ..errors import (
    ConfigurationError,
    FallbackExhaustedError,
    NumericalHealthError,
    ReproError,
    SimulationError,
    TopologyError,
)
from ..runtime import ExecutionContext, RuntimeConfig, resolve_context
from ..simulation import measures
from ..simulation.state_space import ensure_positive_capacitance
from .health import characteristic_scales, rescale_tree
from .validate import RepairPolicy, sanitize

__all__ = [
    "EXACT_STATE_BUDGET",
    "TierAttempt",
    "RobustnessReport",
    "GuardedTiming",
    "GuardedAnalyzer",
    "shielded",
]

#: Exception types a tier may fail with; anything else propagates (it
#: would indicate a programming error, not hostile input). ``Warning``
#: is included so warnings promoted to errors (pytest
#: ``filterwarnings = error``) count as tier failures too.
_TIER_FAILURES = (
    ReproError,
    ArithmeticError,  # ZeroDivisionError, OverflowError, FloatingPointError
    ValueError,
    np.linalg.LinAlgError,
    Warning,
)

#: Largest state count (sections plus inductive sections) the exact
#: tier simulates; above it the tier records a typed "over budget"
#: failure instead. The exact tier's cost is one dense eigensolve,
#: O(states^3), plus (modes x grid) complex step-response blocks on
#: grids of up to 36,009 points. Measured on ``random_tree(N)`` seed 0
#: with R = 0 on the root's first child (one escalated row, four metrics
#: through the exact tier, 2-core x86 VM): 100 states 1.6 s and 269 MB
#: peak RSS, 200 states 2.6 s and 429 MB, 400 states 6.2 s and 775 MB,
#: against 82 MB for the same process without escalation. 200 keeps one
#: escalated row under 500 MB.
EXACT_STATE_BUDGET = 200

#: The four guarded metrics and whether their value carries time units
#: (time-valued results from a rescaled solve are multiplied back).
_METRICS: Dict[str, bool] = {
    "delay_50": True,
    "rise_time": True,
    "overshoot": False,
    "settling_time": True,
}


def shielded(fn: Callable) -> Callable:
    """Convert raw numerical escapes into :class:`NumericalHealthError`.

    Decorator for entry points (the ``apps`` layer, scripts) that build
    on the analysis stack: a ``LinAlgError``, ``ZeroDivisionError``,
    ``OverflowError`` or ``FloatingPointError`` leaking out of ``fn``
    becomes a well-typed :class:`~repro.errors.ReproError` subclass with
    the original exception chained. ``ReproError`` itself passes through
    untouched.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ReproError:
            raise
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            raise NumericalHealthError(
                f"{fn.__name__}: numerical failure "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    return wrapper


@dataclass(frozen=True)
class TierAttempt:
    """What one tier did for one query."""

    tier: str
    status: str  # "ok" | "failed"
    detail: str = ""
    rescaled: bool = False

    def __str__(self) -> str:
        extra = " [rescaled units]" if self.rescaled else ""
        note = f": {self.detail}" if self.detail else ""
        return f"{self.tier} -> {self.status}{extra}{note}"


@dataclass(frozen=True)
class RobustnessReport:
    """Provenance of one guarded metric value."""

    node: str
    metric: str
    value: float
    tier: str
    attempts: Tuple[TierAttempt, ...]

    @property
    def degraded(self) -> bool:
        """True when the first-choice tier did not produce the answer."""
        return bool(self.attempts) and self.attempts[0].status != "ok"

    def __str__(self) -> str:
        chain = "; ".join(str(a) for a in self.attempts)
        return (
            f"{self.metric}({self.node!r}) = {self.value:.6g} "
            f"via {self.tier} [{chain}]"
        )


#: The provenance of every metric the closed-form table answers: its
#: first tier succeeded. One tuple shared by all those reports.
_CLOSED_FORM_OK: Tuple[TierAttempt, ...] = (TierAttempt("closed-form", "ok"),)


def _closed_form_report(node: str, metric: str, value: float) -> RobustnessReport:
    """A table-answered metric's report (shares :data:`_CLOSED_FORM_OK`)."""
    return RobustnessReport(
        node=node, metric=metric, value=value, tier="closed-form",
        attempts=_CLOSED_FORM_OK,
    )


def _finite_row(m, i: int) -> bool:
    """True when the table answers all four guarded metrics at row ``i``.

    The same finiteness test a single query's closed-form tier applies;
    a row that fails it (any metric non-finite) walks the chain. A
    session routed to the incremental backend tabulates sums outside
    the closed forms' domain too, which that tier rejects with a typed
    error; on a validated tree (no negative elements) those are
    overflowed sums or ``T_RC = 0 < T_LC``, whose settling time is
    infinite, so they fail this test and walk the chain too.
    """
    return (
        math.isfinite(m.delay_50[i])
        and math.isfinite(m.rise_time[i])
        and math.isfinite(m.overshoot[i])
        and math.isfinite(m.settling[i])
    )


@dataclass(frozen=True)
class GuardedTiming(NodeTiming):
    """A :class:`NodeTiming` that remembers how each metric was obtained."""

    reports: Tuple[RobustnessReport, ...] = field(default=(), compare=False)

    @property
    def degraded(self) -> bool:
        return any(r.degraded for r in self.reports)


class _ClosedFormReports:
    """The ``reports`` of a row the closed-form table answered whole.

    A non-data descriptor, so a ``reports`` entry in the instance
    ``__dict__`` (every row built through ``__init__`` or the chain)
    wins. Rows built from the table leave it unset: their four reports
    are a pure function of the row — closed-form tier, the row's own
    values, the shared :data:`_CLOSED_FORM_OK` attempts — and are built
    on first read and then cached, instead of 4n records per report
    that most callers never look at.
    """

    def __get__(self, timing, owner=None):
        if timing is None:
            return ()  # the dataclass field default
        values = (
            timing.delay_50, timing.rise_time, timing.overshoot, timing.settling
        )
        reports = tuple(
            _closed_form_report(timing.node, metric, value)
            for metric, value in zip(_METRICS, values)
        )
        timing.__dict__["reports"] = reports
        return reports


GuardedTiming.reports = _ClosedFormReports()


class GuardedAnalyzer:
    """Fault-tolerant front door to the timing metrics of one tree.

    Parameters
    ----------
    tree:
        The tree to analyze. Validated (and repaired, per ``policy``)
        before any numerics run; error-severity findings that survive
        repair raise :class:`~repro.errors.ValidationError` immediately.
    settle_band:
        Settling band, as for :class:`~repro.analysis.TreeAnalyzer`.
    chain:
        Tier names to try in order; any non-empty subset/permutation of
        ``("closed-form", "awe", "exact")``.
    policy:
        Repair policy for :func:`~repro.robustness.sanitize`; default
        repairs nothing.
    awe_order:
        Pole count for the AWE tier.
    max_rescale_retries:
        Bound on unit-rescaling retries in the exact tier (0 disables
        rescaling entirely).
    config / context:
        Runtime routing for the closed-form tier, which reads a runtime
        session opened on the sanitized tree: an explicit
        :class:`~repro.runtime.ExecutionContext` wins, a bare
        :class:`~repro.runtime.RuntimeConfig` gets its own context,
        neither means the process default
        (:func:`~repro.runtime.default_context`).
    """

    DEFAULT_CHAIN: Tuple[str, ...] = ("closed-form", "awe", "exact")

    #: Grid-refinement schedule of the exact tier (points per pass).
    _GRID_POINTS: Tuple[int, ...] = (4001, 12003, 36009)

    #: Relative change between successive grid passes below which a
    #: measured metric counts as converged.
    _GRID_RTOL = 5e-3

    def __init__(
        self,
        tree: RLCTree,
        settle_band: float = 0.1,
        *,
        chain: Sequence[str] = DEFAULT_CHAIN,
        policy: Optional[RepairPolicy] = None,
        awe_order: int = 3,
        max_rescale_retries: int = 1,
        config: Optional[RuntimeConfig] = None,
        context: Optional[ExecutionContext] = None,
    ):
        chain = tuple(chain)
        unknown = [t for t in chain if t not in self.DEFAULT_CHAIN]
        if not chain or unknown:
            raise ConfigurationError(
                f"fallback chain must be a non-empty subset of "
                f"{self.DEFAULT_CHAIN}, got {chain!r}"
            )
        if awe_order < 1:
            raise ConfigurationError(
                f"awe_order must be at least 1, got {awe_order!r}"
            )
        if max_rescale_retries < 0:
            raise ConfigurationError(
                f"max_rescale_retries must be >= 0, got {max_rescale_retries!r}"
            )
        self._chain = chain
        self._awe_order = awe_order
        self._max_rescale_retries = max_rescale_retries
        self._settle_band = settle_band

        self._tree, self.validation = sanitize(tree, policy)
        self.validation.raise_if_errors()

        self._runtime = resolve_context(context, config)
        self._session = self._runtime.session(self._tree, settle_band)
        # A finite table row answers the first tier only when the chain
        # opens with it; otherwise every row walks the chain.
        self._table_answers = chain[0] == "closed-form"
        # The session's table and its row columns as lists, held until
        # the session's edit generation moves (see _read_table).
        self._table = None
        self._columns: Tuple[list, ...] = ()
        self._table_generation = -1
        # One AWE model per escalated node, failures included: node ->
        # (AweMetrics, None) or (None, the exception it raised).
        self._awe_cache: Dict[str, Tuple[object, Optional[BaseException]]] = {}
        # Exact-tier simulators, one per rescaling attempt, built lazily:
        # attempt index -> (simulator, helper analyzer, time scale).
        self._exact_cache: Dict[int, Tuple[object, TreeAnalyzer, float]] = {}

    # -- public API --------------------------------------------------------

    @property
    def tree(self) -> RLCTree:
        """The (possibly repaired) tree actually being analyzed."""
        return self._tree

    @property
    def chain(self) -> Tuple[str, ...]:
        return self._chain

    def query(self, metric: str, node: str) -> RobustnessReport:
        """Resolve one metric through the fallback chain.

        Returns the full provenance record; the value is
        ``report.value``. Raises
        :class:`~repro.errors.FallbackExhaustedError` when every tier
        fails, :class:`~repro.errors.TopologyError` for an unknown node,
        :class:`~repro.errors.ConfigurationError` for an unknown metric.
        """
        if metric not in _METRICS:
            raise ConfigurationError(
                f"unknown metric {metric!r}; choose from {tuple(_METRICS)}"
            )
        self._check_node(node)
        if self._table_answers:
            table = self._read_table()
            i = table.index(node)
            if _finite_row(table.metrics, i):
                return _closed_form_report(
                    node, metric, float(table.column(metric)[i])
                )
        return self._resolve(metric, node)

    def delay_50(self, node: str) -> float:
        """Guarded 50% delay at ``node``."""
        return self.query("delay_50", node).value

    def rise_time(self, node: str) -> float:
        """Guarded 10-90% rise time at ``node``."""
        return self.query("rise_time", node).value

    def overshoot(self, node: str) -> float:
        """Guarded first-overshoot fraction at ``node`` (0 if monotone)."""
        return self.query("overshoot", node).value

    def settling_time(self, node: str) -> float:
        """Guarded settling time at ``node``."""
        return self.query("settling_time", node).value

    def timing(self, node: str) -> GuardedTiming:
        """All metrics for one node, each resolved through the chain."""
        return self.report((node,))[0]

    def report(self, nodes: Optional[Sequence[str]] = None) -> List[GuardedTiming]:
        """Per-node guarded metrics for ``nodes`` (default: every node).

        Any selection costs one table read: every node whose four
        metrics are finite is answered from it, and only the rest walk
        the fallback chain (every node, when the chain does not open
        with ``closed-form``). The sums and damping always come from the
        table. Raises :class:`~repro.errors.TopologyError` for an
        unknown node or the root before any node walks the chain.
        """
        table = self._read_table()
        answers = self._table_answers
        columns = self._columns
        if nodes is not None:
            # List reads per row: timing() passes one node, and each
            # array index it saves counts in a per-node loop.
            isfinite = math.isfinite
            t_rc, t_lc, zeta, omega_n, delay, rise, over, settle = columns
            rows = []
            for node in nodes:
                self._check_node(node)
                i = table.index(node)
                row_delay = delay[i]
                row_rise = rise[i]
                row_over = over[i]
                row_settle = settle[i]
                rows.append((
                    node,
                    # _finite_row on the floats already read.
                    answers and isfinite(row_delay) and isfinite(row_rise)
                    and isfinite(row_over) and isfinite(row_settle),
                    t_rc[i],
                    t_lc[i],
                    zeta[i],
                    omega_n[i],
                    row_delay,
                    row_rise,
                    row_over,
                    row_settle,
                ))
            return self._table_rows(rows)
        m = table.metrics
        finite = (
            np.isfinite(m.delay_50)
            & np.isfinite(m.rise_time)
            & np.isfinite(m.overshoot)
            & np.isfinite(m.settling)
            & answers
        )
        return self._table_rows(zip(table.names, finite.tolist(), *columns))

    # -- the table-backed closed-form tier ------------------------------------

    def _read_table(self):
        """The session's table, resolved once per edit generation.

        Every call counts one dispatch, as a ``Session.table()`` call
        does; only a new generation (an incremental session's edit)
        pays for the resolve again, and for ``_columns``: the table's
        ``t_rc, t_lc, zeta, omega_n, delay_50, rise_time, overshoot,
        settling`` columns as lists, which :meth:`report` reads rows
        from.
        """
        session = self._session
        generation = session.generation
        if generation != self._table_generation:
            table = session.table()
            m = table.metrics
            self._columns = tuple(
                column.tolist()
                for column in (
                    m.t_rc, m.t_lc, m.zeta, m.omega_n,
                    m.delay_50, m.rise_time, m.overshoot, m.settling,
                )
            )
            self._table = table
            self._table_generation = generation
        else:
            session.count_read()
        return self._table

    def _table_rows(self, rows) -> List[GuardedTiming]:
        """``GuardedTiming`` objects from table rows.

        Each row is ``(node, finite, t_rc, t_lc, zeta, omega_n,
        delay_50, rise_time, overshoot, settling)``. A finite row is the
        closed-form answer as it stands; any other row resolves each
        metric through the full chain, exactly as :meth:`query` walks
        it. Objects are built with ``__new__`` plus one ``__dict__``
        update, as :meth:`~repro.engine.TimingTable.timings` does,
        skipping the frozen dataclass's per-field setattr.
        """
        new = object.__new__
        out = []
        for (
            node, finite, t_rc, t_lc, zeta, omega_n, delay, rise, over, settle
        ) in rows:
            timing = new(GuardedTiming)
            state = timing.__dict__
            if not finite:
                reports = tuple(
                    self._resolve(metric, node) for metric in _METRICS
                )
                delay, rise, over, settle = (rep.value for rep in reports)
                state["reports"] = reports
            # A finite row leaves ``reports`` unset: _ClosedFormReports
            # builds its four closed-form records on first read.
            state.update(
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

    # -- the per-query chain --------------------------------------------------

    def _check_node(self, node: str) -> None:
        if node not in self._tree or node == self._tree.root:
            raise TopologyError(f"unknown node {node!r}")

    def _resolve(self, metric: str, node: str) -> RobustnessReport:
        """Walk the tier chain for one (known) metric at one (known) node."""
        attempts: List[TierAttempt] = []
        for tier in self._chain:
            runner = getattr(self, "_tier_" + tier.replace("-", "_"))
            try:
                with np.errstate(all="ignore"):
                    value, rescaled, detail = runner(metric, node)
            except _TIER_FAILURES as exc:
                attempts.append(TierAttempt(
                    tier=tier,
                    status="failed",
                    detail=f"{type(exc).__name__}: {exc}",
                ))
                continue
            if not (isinstance(value, float) and math.isfinite(value)):
                attempts.append(TierAttempt(
                    tier=tier,
                    status="failed",
                    detail=f"non-finite result {value!r}",
                    rescaled=rescaled,
                ))
                continue
            attempts.append(TierAttempt(
                tier=tier, status="ok", detail=detail, rescaled=rescaled
            ))
            return RobustnessReport(
                node=node,
                metric=metric,
                value=value,
                tier=tier,
                attempts=tuple(attempts),
            )
        raise FallbackExhaustedError(
            f"every tier of {self._chain} failed for {metric} at {node!r}: "
            + "; ".join(str(a) for a in attempts),
            attempts=tuple(attempts),
        )

    # -- tiers ----------------------------------------------------------------

    def _tier_closed_form(
        self, metric: str, node: str
    ) -> Tuple[float, bool, str]:
        # An out-of-domain row raises its typed error here, which the
        # chain records before the next tier runs.
        return float(self._session.value(metric, node)), False, ""

    def _tier_awe(self, metric: str, node: str) -> Tuple[float, bool, str]:
        from ..reduction.awe import awe_step_metrics

        # All four metrics of a node come from one AWE model; a failure
        # is memoized too, so each metric records the same attempt.
        if node not in self._awe_cache:
            try:
                model = awe_step_metrics(
                    self._tree,
                    node,
                    order=self._awe_order,
                    stable_only=True,
                    min_stable_ratio=0.5,
                    settle_band=self._settle_band,
                )
            except _TIER_FAILURES as exc:
                # Dropping the traceback frees the failed solve's frames.
                self._awe_cache[node] = (None, exc.with_traceback(None))
            else:
                self._awe_cache[node] = (model, None)
        result, failure = self._awe_cache[node]
        if failure is not None:
            raise failure
        value = {
            "delay_50": result.delay_50,
            "rise_time": result.rise_time,
            "overshoot": result.first_overshoot_fraction or 0.0,
            "settling_time": result.settling_time,
        }[metric]
        return float(value), False, f"order-{self._awe_order} stable AWE"

    def _tier_exact(self, metric: str, node: str) -> Tuple[float, bool, str]:
        """Exact modal simulation with bounded unit-rescaling retries."""
        tree = self._tree
        states = tree.size + sum(
            1 for name in tree.nodes if tree.section(name).inductance > 0.0
        )
        if states > EXACT_STATE_BUDGET:
            raise SimulationError(
                f"over budget: {states} states > EXACT_STATE_BUDGET="
                f"{EXACT_STATE_BUDGET}; the exact tier does not simulate "
                "a tree this large"
            )
        last_exc: Optional[Exception] = None
        for attempt in range(self._max_rescale_retries + 1):
            try:
                simulator, helper, time_scale = self._exact_backend(attempt)
                value = self._measure_exact(simulator, helper, metric, node)
            except _TIER_FAILURES as exc:
                last_exc = exc
                continue
            if not math.isfinite(value):
                last_exc = NumericalHealthError(
                    f"exact tier produced non-finite {metric} ({value!r})"
                )
                continue
            if _METRICS[metric]:
                value *= time_scale
            detail = (
                "modal simulation"
                if attempt == 0
                else f"modal simulation after rescaling retry {attempt}"
            )
            return float(value), attempt > 0, detail
        raise NumericalHealthError(
            f"exact tier exhausted {self._max_rescale_retries + 1} attempt(s) "
            f"for {metric} at {node!r}; last failure: "
            f"{type(last_exc).__name__}: {last_exc}"
        )

    # -- exact-tier helpers ---------------------------------------------------

    def _exact_backend(self, attempt: int):
        """(simulator, helper analyzer, time scale) for one retry level.

        Attempt 0 solves in the caller's units; attempt 1 re-solves in
        normalized units from :func:`characteristic_scales`. Both apply
        the epsilon-capacitance floor transient analysis requires, and
        both gate on the eigensystem health probes.
        """
        if attempt in self._exact_cache:
            return self._exact_cache[attempt]

        from ..simulation.exact import ExactSimulator

        if attempt == 0:
            tree, time_scale = self._tree, 1.0
        else:
            tau, z = characteristic_scales(self._tree)
            tree, time_scale = rescale_tree(self._tree, tau, z), tau
        tree = ensure_positive_capacitance(tree)

        simulator = ExactSimulator(tree)
        probes = simulator.health_report()
        tripped = [p for p in probes if not p.ok]
        if tripped:
            raise NumericalHealthError(
                "eigensystem health probes tripped: "
                + "; ".join(str(p) for p in tripped)
            )
        helper = TreeAnalyzer(tree, settle_band=self._settle_band)
        self._exact_cache[attempt] = (simulator, helper, time_scale)
        return self._exact_cache[attempt]

    def _horizon(self, simulator, helper: TreeAnalyzer, node: str) -> float:
        """Time horizon adapted to ``node``'s own dynamics.

        The global grid of :meth:`ExactSimulator.time_grid` spans the
        *slowest mode of the whole tree*, which on a stiff tree can be
        many decades beyond the queried node's dynamics and leaves its
        crossings unresolved. The closed-form settling estimate of the
        node itself is the right yardstick; the global estimate remains
        the fallback when the closed form cannot provide one.
        """
        candidates = []
        for estimate in (
            lambda: helper.settling_time(node),
            lambda: 4.0 * helper.delay_50(node) + 2.0 * helper.rise_time(node),
        ):
            try:
                value = float(estimate())
            except _TIER_FAILURES:
                continue
            if math.isfinite(value) and value > 0.0:
                candidates.append(value)
        if candidates:
            return 4.0 * max(candidates)
        return float(simulator.settle_time_estimate())

    def _measure_exact(
        self, simulator, helper: TreeAnalyzer, metric: str, node: str
    ) -> float:
        """Measure one metric on node-adaptive, convergence-checked grids."""
        horizon = self._horizon(simulator, helper, node)
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise NumericalHealthError(
                f"no usable time horizon for node {node!r} "
                f"(estimate {horizon!r})"
            )
        previous: Optional[float] = None
        for points in self._GRID_POINTS:
            value, extended = self._measure_on_grid(
                simulator, metric, node, horizon, points
            )
            horizon = extended
            if previous is not None:
                scale = max(abs(value), abs(previous), 1e-300)
                if abs(value - previous) <= self._GRID_RTOL * scale:
                    return value
            previous = value
        return previous

    def _measure_on_grid(
        self, simulator, metric: str, node: str, horizon: float, points: int
    ) -> Tuple[float, float]:
        """One measurement pass; grows the horizon until crossings fit."""
        for _ in range(6):
            t = np.linspace(0.0, horizon, points)
            v = simulator.step_response(node, t)
            if not np.all(np.isfinite(v)):
                raise NumericalHealthError(
                    f"step response at {node!r} contains non-finite samples"
                )
            try:
                if metric == "delay_50":
                    return measures.delay_50(t, v), horizon
                if metric == "rise_time":
                    return measures.rise_time_10_90(t, v), horizon
                if metric == "overshoot":
                    peaks = measures.overshoots(t, v)
                    if not peaks:
                        return 0.0, horizon
                    return peaks[0][1] - 1.0, horizon
                return measures.settling_time(t, v, band=self._settle_band), horizon
            except ReproError:
                # Crossing/settling beyond the grid: widen and try again.
                horizon *= 8.0
                if not math.isfinite(horizon):
                    raise
        raise NumericalHealthError(
            f"{metric} at {node!r} not measurable within any bounded horizon"
        )
