"""One-shot tree timing analysis — the library's main entry point.

:class:`TreeAnalyzer` runs the paper end to end on one tree: the O(n)
moment sweeps (Appendix), the per-node second-order models (Section III)
and the closed-form metrics (Section IV). Typical use::

    from repro import TreeAnalyzer
    from repro.circuit import fig5_tree

    analyzer = TreeAnalyzer(fig5_tree())
    timing = analyzer.timing("n7")
    print(timing.delay_50, timing.rise_time, timing.zeta)

Everything is computed from two depth-first passes over the tree plus
O(1) closed forms per node, so analyzing a million-node tree is entirely
practical — which is the paper's reason for existing. Nodes without
inductance on their weighted path (``T_LC = 0``) are handled through the
RC Elmore limit and report ``zeta = inf``.

Every metric query reads one table: the compiled vectorized engine
(:mod:`repro.engine`) flattens the tree to arrays once (topology cached
across value-perturbed copies), runs both Appendix sums and evaluates
every per-node metric as array kernels on first use. A node outside
the closed forms' domain (corrupted values, ``T_RC <= 0`` where a
model is required) is a non-finite row of that table, and reading it
raises :class:`~repro.errors.ElementValueError`; every other node
still answers. See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import ConfigurationError, ElementValueError, TopologyError
from ..simulation.sources import Source
from .delay import elmore_delay
from .oscillation import overshoot_train
from .response import model_response
from .second_order import SecondOrderModel

__all__ = ["NodeTiming", "TreeAnalyzer"]


@dataclass(frozen=True)
class NodeTiming:
    """All closed-form figures of merit for one node.

    ``overshoot`` is the first-overshoot excursion as a fraction of the
    final value (``Lambda_1``, eq. 39) — ``0.0`` for monotone nodes.
    ``settling`` uses the conventional 10% band. RC-limit nodes have
    ``zeta = inf`` and ``omega_n = inf`` with the Elmore/Wyatt metrics.
    """

    node: str
    t_rc: float
    t_lc: float
    zeta: float
    omega_n: float
    delay_50: float
    rise_time: float
    overshoot: float
    settling: float

    @property
    def elmore_delay(self) -> float:
        """The classic RC Elmore (Wyatt) delay of the same node."""
        return elmore_delay(self.t_rc)

    @property
    def is_underdamped(self) -> bool:
        return self.zeta < 1.0


class TreeAnalyzer:
    """Closed-form timing of every node of one RLC tree."""

    def __init__(self, tree: RLCTree, settle_band: float = 0.1):
        if tree.size == 0:
            raise TopologyError("cannot analyze an empty tree")
        if not 0.0 < settle_band < 1.0:
            # A bad band is a bad *request*, not a bad circuit.
            raise ConfigurationError("settle_band must be in (0, 1)")
        self._tree = tree
        self._settle_band = settle_band

    @property
    def tree(self) -> RLCTree:
        return self._tree

    @cached_property
    def _table(self):
        # Imported here: the engine's kernels import repro.analysis at load.
        from ..engine import timing_table

        return timing_table(self._tree, settle_band=self._settle_band)

    def timing_table(self):
        """The :class:`~repro.engine.TimingTable` behind every accessor.

        Every metric at every node as arrays, built once on first use;
        out-of-domain nodes are non-finite rows. Values read from the
        table and from the per-node accessors are identical.
        """
        return self._table

    # -- per-node primitives ---------------------------------------------------

    def sums(self, node: str) -> Tuple[float, float]:
        """``(T_RC, T_LC)`` at ``node``; defined at every node."""
        table = self._table
        i = table.index(node)
        m = table.metrics
        return float(m.t_rc[i]), float(m.t_lc[i])

    def zeta(self, node: str) -> float:
        """Equivalent damping factor (eq. 30); inf at RC-limit nodes."""
        return self._table.value("zeta", node)

    def omega_n(self, node: str) -> float:
        """Equivalent natural frequency (eq. 29); inf at RC-limit nodes."""
        return self._table.value("omega_n", node)

    def model(self, node: str) -> Optional[SecondOrderModel]:
        """The node's second-order model, or ``None`` in the RC limit."""
        t_rc, t_lc = self.sums(node)
        if t_lc == 0.0:
            return None
        return SecondOrderModel.from_sums(t_rc, t_lc)

    # -- closed-form metrics ------------------------------------------------------

    def delay_50(self, node: str) -> float:
        """Eq. 35 at ``node`` (RC limit: Elmore/Wyatt delay)."""
        return self._table.value("delay_50", node)

    def rise_time(self, node: str) -> float:
        """Eq. 36 at ``node`` (RC limit: single-pole rise time)."""
        return self._table.value("rise_time", node)

    def elmore_delay(self, node: str) -> float:
        """The RC Elmore (Wyatt) delay, ignoring all inductance."""
        t_rc, _ = self.sums(node)
        return elmore_delay(t_rc)

    def overshoot(self, node: str) -> float:
        """First-overshoot fraction ``Lambda_1`` (eq. 39); 0 if monotone."""
        return self._table.value("overshoot", node)

    def overshoots(self, node: str, threshold: float = 1e-4):
        """Full ringing train at ``node`` (empty for monotone nodes)."""
        model = self.model(node)
        if model is None or model.zeta >= 1.0:
            return []
        return overshoot_train(model, threshold=threshold)

    def settling_time(self, node: str) -> float:
        """Eq. 42 at ``node`` (monotone nodes: dominant-pole band entry)."""
        return self._table.value("settling", node)

    def timing(self, node: str) -> NodeTiming:
        """All metrics for one node in one object."""
        return self._table.timing(node)

    def report(self, nodes: Optional[List[str]] = None) -> List[NodeTiming]:
        """Per-node metrics for ``nodes`` (default: every node)."""
        return self._table.timings(nodes)

    def report_all(self) -> List[NodeTiming]:
        """Metrics for every node, in tree order, from one table pass."""
        return self._table.timings()

    def critical_sink(self) -> NodeTiming:
        """The sink with the largest 50% delay."""
        sinks = self._tree.leaves()
        return max((self.timing(s) for s in sinks), key=lambda x: x.delay_50)

    # -- waveforms --------------------------------------------------------------

    def step_waveform(
        self, node: str, t: np.ndarray, amplitude: float = 1.0
    ) -> np.ndarray:
        """Eq. 31 closed-form step response at ``node``.

        RC-limit nodes use the single-pole (Wyatt) response
        ``V (1 - exp(-t / T_RC))``.
        """
        model = self.model(node)
        t = np.asarray(t, dtype=float)
        if model is not None:
            return model.step_response(t, amplitude)
        t_rc, _ = self.sums(node)
        return amplitude * (1.0 - np.exp(-np.maximum(t, 0.0) / t_rc)) * (t >= 0.0)

    def waveform(
        self, node: str, source: Union[Source, callable], t: np.ndarray
    ) -> np.ndarray:
        """Closed-form response at ``node`` to any supported source."""
        model = self.model(node)
        if model is None:
            # The topology is fine; the *element values* put the node in
            # the RC limit where no second-order model exists.
            raise ElementValueError(
                f"node {node!r} is in the RC limit; use step_waveform or add "
                "inductance"
            )
        return model_response(model, source, t)

    def metrics_for(self, node: str, source) -> "ArbitraryInputMetrics":
        """Crossing metrics under a shaped input (Section IV's iterative
        method): input-referred 50% delay, rise time, overshoot."""
        from .arbitrary_input import ArbitraryInputMetrics, response_metrics

        model = self.model(node)
        if model is None:
            raise ElementValueError(
                f"node {node!r} is in the RC limit; shaped-input metrics "
                "need a finite second-order model"
            )
        return response_metrics(model, source)

    def time_grid(self, node: str, span: float = 4.0, points: int = 2001) -> np.ndarray:
        """A grid covering ``span`` times the node's settling time."""
        horizon = span * self.settling_time(node)
        if horizon <= 0.0:
            horizon = span * self.delay_50(node) * 4.0
        return np.linspace(0.0, horizon, points)
