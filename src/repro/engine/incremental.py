"""Incremental delta-update evaluation for edit-heavy design loops.

The batch engine (:mod:`repro.engine.table`) made *one* evaluation O(n)
with array-sized constants; optimization loops need the next step: after
editing a single segment, re-timing should not pay O(n) again. The
closed forms make that possible because both path sums are linear in
every element value:

.. math::

    T_{RC,i} = \\sum_{e \\in path(i)} R_e \\, C_{down}(e)
    \\qquad
    T_{LC,i} = \\sum_{e \\in path(i)} L_e \\, C_{down}(e)

* An **R edit** (``R_e += dR``) changes ``T_RC`` by the *constant*
  ``dR * Cdown(e)`` for every node in subtree(e) and nothing elsewhere.
* An **L edit** is the same statement about ``T_LC``.
* A **C edit** (``C_e += dC``) raises ``Cdown(a)`` by ``dC`` for every
  ancestor-or-self ``a`` of ``e`` — O(depth) scalar updates — and each
  such ancestor contributes the constant ``dC * R_a`` (resp.
  ``dC * L_a``) to every node in subtree(a).

So every value edit decomposes into a handful of *subtree-constant
offsets*. :class:`IncrementalAnalyzer` keeps the ``Cdown`` vector exact
at all times (O(depth) per edit) and stores the offsets **lazily** in a
``{slot: (dT_RC, dT_LC)}`` map: a point query composes the offsets along
the node's root path in O(depth); a bulk query (or the configurable
dirty-fraction threshold) flushes them into the sum vectors — as
per-subtree slice additions over the topology's contiguous
:meth:`~repro.engine.compiled.CompiledTopology.preorder_layout` when the
touched region is small, or as one
:meth:`~repro.engine.compiled.CompiledTopology.descend` pass when it is
not. Metric kernels re-run only over the stale region.

Because each edit's delta is computed from the *current* state and the
sums are linear in each parameter, a sequence of edits is algebraically
exact — only floating-point rounding accumulates (one rounded add per
edit per touched entry), which is why the property suite can pin long
random edit sequences against a full recompute at 1e-12 and why
:meth:`IncrementalAnalyzer.recompute` exists to re-zero the drift.

Structural edits (:meth:`EditSession.attach_subtree` /
:meth:`EditSession.detach_subtree`) change the topology itself; they
rebuild and recompile, but only when the structure actually changes —
attaching an empty subtree is a no-op.

Module-level counters (edits, lazy queries, flush and refresh
strategies, recompiles) are exposed through
:func:`incremental_cache_info` and aggregated into
:func:`repro.engine.cache_info`.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.elements import Section
from ..circuit.tree import RLCTree
from ..errors import (
    ConfigurationError,
    ElementValueError,
    ReductionError,
    TopologyError,
)
from .compiled import CompiledTree, compile_tree
from .kernels import (
    check_domain,
    fast_path_eligible,
    metrics_from_sums,
    scalar_metrics,
    validate_settle_band,
)
from .table import TimingTable, _metric_field

__all__ = [
    "IncrementalAnalyzer",
    "EditSession",
    "incremental_cache_info",
    "clear_incremental_counters",
]


# -- module counters ---------------------------------------------------------

_COUNTER_KEYS = (
    "analyzers",
    "edits",
    "lazy_queries",
    "auto_flushes",
    "targeted_flushes",
    "bulk_flushes",
    "full_metric_refreshes",
    "partial_metric_refreshes",
    "bulk_value_loads",
    "full_recomputes",
    "structural_recompiles",
)

_counters_lock = threading.Lock()
_counters: Dict[str, int] = dict.fromkeys(_COUNTER_KEYS, 0)


def _bump(key: str, amount: int = 1) -> None:
    with _counters_lock:
        _counters[key] += amount


def incremental_cache_info() -> Dict[str, int]:
    """Process-wide counters of the incremental engine.

    ``edits``/``lazy_queries`` measure the hot path;
    ``targeted_flushes``/``bulk_flushes`` show which materialization
    strategy the dirty-fraction heuristic picked;
    ``partial_metric_refreshes`` vs ``full_metric_refreshes`` show how
    often the kernels ran on a stale subset only. Aggregated into
    :func:`repro.engine.cache_info` and printed by the CLI under
    ``--debug``.
    """
    with _counters_lock:
        return dict(_counters)


def clear_incremental_counters() -> None:
    """Reset every counter of :func:`incremental_cache_info` to zero."""
    with _counters_lock:
        for key in _COUNTER_KEYS:
            _counters[key] = 0


# -- edit validation ---------------------------------------------------------


def _validate_value(label: str, value: float) -> None:
    if not math.isfinite(value):
        raise ElementValueError(f"{label} must be finite, got {value!r}")
    if value < 0.0:
        raise ElementValueError(f"{label} must be non-negative, got {value!r}")


class EditSession:
    """A batch of edits against one :class:`IncrementalAnalyzer`.

    Usable as a context manager. Within a session the dirty-fraction
    auto-flush check is deferred until the session closes, so a burst of
    edits never flushes halfway through; queries issued mid-session are
    still exact (pending offsets compose lazily). Outside a session the
    analyzer's own edit methods check the threshold after every edit.
    """

    def __init__(self, analyzer: "IncrementalAnalyzer"):
        self._analyzer = analyzer
        self.edits = 0

    def __enter__(self) -> "EditSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Run the deferred dirty-fraction check (idempotent)."""
        self._analyzer._maybe_autoflush()

    # -- value edits -------------------------------------------------------

    def set_resistance(self, node: str, value: float) -> None:
        """Set one section's series resistance."""
        self._analyzer._edit_resistance(node, value)
        self.edits += 1

    def set_inductance(self, node: str, value: float) -> None:
        """Set one section's series inductance."""
        self._analyzer._edit_inductance(node, value)
        self.edits += 1

    def set_capacitance(self, node: str, value: float) -> None:
        """Set one section's shunt capacitance."""
        self._analyzer._edit_capacitance(node, value)
        self.edits += 1

    def set_section(self, node: str, section: Section) -> None:
        """Replace all three values of one section."""
        self._analyzer._edit_section(node, section)
        self.edits += 1

    def scale_segment(
        self,
        node: str,
        resistance_factor: float = 1.0,
        inductance_factor: float = 1.0,
        capacitance_factor: float = 1.0,
    ) -> None:
        """Multiply one section's values by per-element factors."""
        self._analyzer._edit_scale(
            node, resistance_factor, inductance_factor, capacitance_factor
        )
        self.edits += 1

    # -- bulk and structural edits ----------------------------------------

    def set_values(
        self,
        resistance: Optional[np.ndarray] = None,
        inductance: Optional[np.ndarray] = None,
        capacitance: Optional[np.ndarray] = None,
    ) -> None:
        """Replace whole value vectors at once (see
        :meth:`IncrementalAnalyzer.set_values`)."""
        self._analyzer.set_values(
            resistance=resistance,
            inductance=inductance,
            capacitance=capacitance,
        )
        self.edits += 1

    def attach_subtree(self, parent: str, subtree: RLCTree) -> None:
        """Graft ``subtree``'s sections below ``parent`` (recompiles)."""
        self._analyzer.attach_subtree(parent, subtree)
        self.edits += 1

    def detach_subtree(self, node: str) -> RLCTree:
        """Remove ``node`` and its descendants (recompiles)."""
        detached = self._analyzer.detach_subtree(node)
        self.edits += 1
        return detached


class IncrementalAnalyzer:
    """Edit-and-re-time analysis over one compiled tree.

    Wraps a :class:`~repro.engine.compiled.CompiledTree` (or compiles an
    :class:`~repro.circuit.tree.RLCTree`) and keeps ``(Cdown, T_RC,
    T_LC)`` state that value edits update by *deltas* instead of full
    sweeps — see the module docstring for the math. Point queries
    (:meth:`sums`, :meth:`value`, :meth:`timing`) cost O(depth); the
    bulk :meth:`timing_table` flushes pending offsets and re-runs the
    metric kernels over the stale region only.

    ``flush_threshold`` is the dirty fraction — the fraction of
    sections carrying a pending offset (:attr:`dirty_fraction`) — above
    which pending offsets are materialized eagerly after an edit;
    ``0.0`` flushes after every edit, ``1.0`` defers flushing to bulk
    queries almost always. Both extremes produce identical results up
    to summation order (≤ ulps) — the threshold trades amortized
    per-edit flush cost against the size of the offset map a bulk query
    eventually materializes.

    Value edits enforce the :class:`~repro.circuit.elements.Section`
    invariants (finite, non-negative, R and L not both zero);
    :meth:`set_values` trusts its vectors like
    :meth:`CompiledTree.with_values` does.
    """

    def __init__(
        self,
        tree: Union[RLCTree, CompiledTree],
        settle_band: float = 0.1,
        *,
        flush_threshold: float = 0.25,
        cache: bool = True,
    ):
        validate_settle_band(settle_band)
        if not 0.0 <= flush_threshold <= 1.0:
            raise ConfigurationError(
                f"flush_threshold must be in [0, 1], got {flush_threshold!r}"
            )
        if isinstance(tree, RLCTree):
            compiled = compile_tree(tree, cache=cache)
        elif isinstance(tree, CompiledTree):
            compiled = tree
        else:
            raise ConfigurationError(
                "IncrementalAnalyzer needs an RLCTree or CompiledTree, "
                f"got {type(tree).__name__}"
            )
        self._settle_band = settle_band
        self._flush_threshold = flush_threshold
        self._cache = cache
        self._generation = 0
        self._load_compiled(compiled)
        _bump("analyzers")

    def _load_compiled(self, compiled: CompiledTree) -> None:
        self._topology = compiled.topology
        self._r = np.array(compiled.resistance, dtype=float, copy=True)
        self._l = np.array(compiled.inductance, dtype=float, copy=True)
        self._c = np.array(compiled.capacitance, dtype=float, copy=True)
        #: pending subtree-constant offsets: slot -> [dT_RC, dT_LC]
        self._pending: Dict[int, List[float]] = {}
        self._pending_weight = 0
        #: subtree roots whose metric rows are stale (sums changed since
        #: the cached MetricArrays was built)
        self._stale_roots: set = set()
        self._stale_weight = 0
        self._metrics = None
        self._recompute_sums()

    # -- identity ----------------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        """Node names in compiled (insertion) order."""
        return self._topology.names

    @property
    def size(self) -> int:
        return self._topology.size

    @property
    def settle_band(self) -> float:
        return self._settle_band

    @property
    def flush_threshold(self) -> float:
        return self._flush_threshold

    @property
    def generation(self) -> int:
        """Edit counter: it changes whenever an edit, a bulk load or a
        recompute changes the sums, so a table read at one generation
        stays current until it moves."""
        return self._generation

    @property
    def pending_edits(self) -> int:
        """Number of distinct subtree offsets awaiting a flush."""
        return len(self._pending)

    @property
    def dirty_fraction(self) -> float:
        """Fraction of sections currently carrying a pending offset.

        This — not the (overlapping) subtree footprint — is what the
        ``flush_threshold`` compares against: it grows by O(depth/n) per
        edit, so flushes amortize over many edits instead of firing on
        the first near-root edit whose subtree spans the whole tree.
        """
        n = self._topology.size
        return len(self._pending) / n if n else 0.0

    def session(self) -> EditSession:
        """A new :class:`EditSession` over this analyzer."""
        return EditSession(self)

    def snapshot(self) -> CompiledTree:
        """The current values as an immutable :class:`CompiledTree`.

        The oracle hook: ``evaluate(analyzer.snapshot())`` is the full
        recompute the property suite pins incremental results against.
        """
        return CompiledTree(
            self._topology,
            self._r.copy(),
            self._l.copy(),
            self._c.copy(),
        )

    def tree(self) -> RLCTree:
        """Materialize the current state as a fresh :class:`RLCTree`."""
        topology = self._topology
        n = topology.size
        out = RLCTree(topology.root)
        for i, name in enumerate(topology.names):
            p = topology.parent[i]
            out.add_section(
                name,
                topology.root if p == n else topology.names[p],
                section=Section(
                    float(self._r[i]), float(self._l[i]), float(self._c[i])
                ),
            )
        return out

    def section(self, node: str) -> Section:
        """The current values of one section."""
        i = self._topology.node_index(node)
        return Section(float(self._r[i]), float(self._l[i]), float(self._c[i]))

    # -- full recompute ----------------------------------------------------

    def _recompute_sums(self) -> None:
        topology = self._topology
        self._cdown = topology.accumulate(self._c)
        self._t_rc = topology.descend(self._r * self._cdown)
        self._t_lc = topology.descend(self._l * self._cdown)
        self._pending.clear()
        self._pending_weight = 0
        self._stale_roots.clear()
        self._stale_weight = 0
        self._metrics = None
        self._generation += 1
        _bump("full_recomputes")

    def recompute(self) -> None:
        """Drop all delta state and rebuild the sums from the values.

        Re-zeros the accumulated floating-point drift; results before
        and after differ by at most the drift itself (≤ ulps per edit).
        """
        self._recompute_sums()

    # -- value edits -------------------------------------------------------

    def set_resistance(self, node: str, value: float) -> None:
        """Set one section's series resistance (O(depth) amortized)."""
        self._edit_resistance(node, value)
        self._maybe_autoflush()

    def set_inductance(self, node: str, value: float) -> None:
        """Set one section's series inductance (O(depth) amortized)."""
        self._edit_inductance(node, value)
        self._maybe_autoflush()

    def set_capacitance(self, node: str, value: float) -> None:
        """Set one section's shunt capacitance (O(depth) amortized)."""
        self._edit_capacitance(node, value)
        self._maybe_autoflush()

    def set_section(self, node: str, section: Section) -> None:
        """Replace all three values of one section."""
        self._edit_section(node, section)
        self._maybe_autoflush()

    def scale_segment(
        self,
        node: str,
        resistance_factor: float = 1.0,
        inductance_factor: float = 1.0,
        capacitance_factor: float = 1.0,
    ) -> None:
        """Multiply one section's values by per-element factors."""
        self._edit_scale(
            node, resistance_factor, inductance_factor, capacitance_factor
        )
        self._maybe_autoflush()

    def _edit_resistance(self, node: str, value: float) -> None:
        i = self._topology.node_index(node)
        value = float(value)
        _validate_value("resistance", value)
        if value == 0.0 and self._l[i] == 0.0:
            raise ElementValueError(
                f"section {node!r} needs R > 0 or L > 0; a zero-impedance "
                "branch short-circuits two nodes"
            )
        dr = value - self._r[i]
        if dr == 0.0:
            return
        self._r[i] = value
        self._add_pending(i, dr * self._cdown[i], 0.0)
        self._mark_stale(i)
        _bump("edits")

    def _edit_inductance(self, node: str, value: float) -> None:
        i = self._topology.node_index(node)
        value = float(value)
        _validate_value("inductance", value)
        if value == 0.0 and self._r[i] == 0.0:
            raise ElementValueError(
                f"section {node!r} needs R > 0 or L > 0; a zero-impedance "
                "branch short-circuits two nodes"
            )
        dl = value - self._l[i]
        if dl == 0.0:
            return
        self._l[i] = value
        self._add_pending(i, 0.0, dl * self._cdown[i])
        self._mark_stale(i)
        _bump("edits")

    def _edit_capacitance(self, node: str, value: float) -> None:
        i = self._topology.node_index(node)
        value = float(value)
        _validate_value("capacitance", value)
        dc = value - self._c[i]
        if dc == 0.0:
            return
        self._c[i] = value
        # Root path: Cdown rises by dc at every ancestor-or-self a, and
        # each a contributes the subtree-constant (dc*R_a, dc*L_a).
        path_arr, path_list = self._topology.root_path(i)
        self._cdown[path_arr] += dc
        drc_list = (dc * self._r[path_arr]).tolist()
        dlc_list = (dc * self._l[path_arr]).tolist()
        pending = self._pending
        new_slots: List[int] = []
        for slot, drc, dlc in zip(path_list, drc_list, dlc_list):
            if drc == 0.0 and dlc == 0.0:
                continue
            offset = pending.get(slot)
            if offset is None:
                pending[slot] = [drc, dlc]
                new_slots.append(slot)
            else:
                offset[0] += drc
                offset[1] += dlc
        if new_slots:
            _, position, end = self._topology.preorder_layout()
            self._pending_weight += int(
                np.sum(end[new_slots] - position[new_slots])
            )
        self._mark_stale(path_list[-1])
        _bump("edits")

    def _edit_section(self, node: str, section: Section) -> None:
        if not isinstance(section, Section):
            raise ElementValueError(
                f"set_section needs a Section, got {type(section).__name__}"
            )
        # Order the R/L writes so the Section invariant (not both zero)
        # holds at every intermediate step: write the non-zero series
        # element of the target first.
        if section.resistance != 0.0:
            if self._r[self._topology.node_index(node)] != section.resistance:
                self._edit_resistance(node, section.resistance)
            if self._l[self._topology.node_index(node)] != section.inductance:
                self._edit_inductance(node, section.inductance)
        else:
            if self._l[self._topology.node_index(node)] != section.inductance:
                self._edit_inductance(node, section.inductance)
            if self._r[self._topology.node_index(node)] != section.resistance:
                self._edit_resistance(node, section.resistance)
        if self._c[self._topology.node_index(node)] != section.capacitance:
            self._edit_capacitance(node, section.capacitance)

    def _edit_scale(
        self,
        node: str,
        resistance_factor: float,
        inductance_factor: float,
        capacitance_factor: float,
    ) -> None:
        i = self._topology.node_index(node)
        # Section construction validates the scaled values.
        self._edit_section(
            node,
            Section(
                float(self._r[i]) * resistance_factor,
                float(self._l[i]) * inductance_factor,
                float(self._c[i]) * capacitance_factor,
            ),
        )

    # -- pending offset bookkeeping ----------------------------------------

    def _add_pending(self, slot: int, drc: float, dlc: float) -> None:
        offset = self._pending.get(slot)
        if offset is None:
            _, position, end = self._topology.preorder_layout()
            self._pending[slot] = [drc, dlc]
            self._pending_weight += int(end[slot] - position[slot])
        else:
            offset[0] += drc
            offset[1] += dlc

    def _mark_stale(self, slot: int) -> None:
        self._generation += 1
        if slot not in self._stale_roots:
            _, position, end = self._topology.preorder_layout()
            self._stale_roots.add(slot)
            self._stale_weight += int(end[slot] - position[slot])

    def _maybe_autoflush(self) -> None:
        n = self._topology.size
        if self._pending and len(self._pending) > self._flush_threshold * n:
            self.flush()
            _bump("auto_flushes")

    def flush(self) -> None:
        """Materialize pending offsets into the ``T_RC``/``T_LC`` vectors.

        Chooses per-subtree slice additions when the offsets touch a
        small region (at most n entries in aggregate), one
        :meth:`~repro.engine.compiled.CompiledTopology.descend` pass
        otherwise. Both strategies apply the same deltas; they differ
        only in summation order (≤ ulps).
        """
        if not self._pending:
            return
        topology = self._topology
        n = topology.size
        order, position, end = topology.preorder_layout()
        if self._pending_weight <= n:
            for slot, (drc, dlc) in self._pending.items():
                span = order[position[slot]:end[slot]]
                if drc != 0.0:
                    self._t_rc[span] += drc
                if dlc != 0.0:
                    self._t_lc[span] += dlc
            _bump("targeted_flushes")
        else:
            vec_rc = np.zeros(n)
            vec_lc = np.zeros(n)
            for slot, (drc, dlc) in self._pending.items():
                vec_rc[slot] = drc
                vec_lc[slot] = dlc
            # descend() turns per-slot offsets into their root-path
            # composition — exactly the lazy query's sum, for all nodes
            # at once.
            self._t_rc += topology.descend(vec_rc)
            self._t_lc += topology.descend(vec_lc)
            _bump("bulk_flushes")
        self._pending.clear()
        self._pending_weight = 0

    # -- bulk edits --------------------------------------------------------

    def set_values(
        self,
        resistance: Optional[np.ndarray] = None,
        inductance: Optional[np.ndarray] = None,
        capacitance: Optional[np.ndarray] = None,
    ) -> None:
        """Replace whole value vectors and recompute the sums.

        The bulk counterpart of the per-section edits — a wire-sizing
        probe swaps all n values at once, and a fresh O(n) sweep (with
        the chain fast path where it applies) beats n delta updates.
        Vectors are trusted like :meth:`CompiledTree.with_values`
        (shape-checked, not value-validated). Elements left ``None``
        keep their current values.
        """
        n = self._topology.size
        for label, values, target in (
            ("resistance", resistance, self._r),
            ("inductance", inductance, self._l),
            ("capacitance", capacitance, self._c),
        ):
            if values is None:
                continue
            values = np.asarray(values, dtype=float)
            if values.shape != (n,):
                raise ReductionError(
                    f"{label} vector must have shape ({n},), got {values.shape}"
                )
            target[...] = values
        self._recompute_sums()
        _bump("bulk_value_loads")

    # -- structural edits --------------------------------------------------

    def attach_subtree(self, parent: str, subtree: RLCTree) -> None:
        """Graft every section of ``subtree`` below node ``parent``.

        ``subtree``'s own root is only an attachment handle: its
        children become children of ``parent``, keeping their section
        values. Recompiles the topology — unless ``subtree`` is empty,
        in which case the structure did not change and nothing happens.
        Name collisions raise :class:`~repro.errors.TopologyError`
        before any state changes.
        """
        if parent != self._topology.root:
            self._topology.node_index(parent)  # raises for unknown nodes
        if subtree.size == 0:
            return
        clash = [name for name in subtree.nodes if name in self._topology.index]
        if clash or self._topology.root in subtree.nodes:
            bad = clash or [self._topology.root]
            raise TopologyError(
                f"cannot attach subtree: node names {sorted(bad)!r} "
                "already exist in the tree"
            )
        base = self.tree()
        for name in subtree.nodes:
            p = subtree.parent(name)
            base.add_section(
                name,
                parent if p == subtree.root else p,
                section=subtree.section(name),
            )
        self._rebuild(base)

    def detach_subtree(self, node: str) -> RLCTree:
        """Remove ``node`` and all its descendants; recompiles.

        Returns the removed sections as their own
        :class:`~repro.circuit.tree.RLCTree`, rooted at the former
        attachment point's name — so ``attach_subtree(parent,
        detached)`` round-trips.
        """
        i = self._topology.node_index(node)
        topology = self._topology
        order, position, end = topology.preorder_layout()
        removed = set(order[position[i]:end[i]].tolist())
        parent_slot = topology.parent[i]
        parent_name = (
            topology.root
            if parent_slot == topology.size
            else topology.names[parent_slot]
        )

        remaining = RLCTree(topology.root)
        detached = RLCTree(parent_name)
        n = topology.size
        for j, name in enumerate(topology.names):
            p = topology.parent[j]
            p_name = topology.root if p == n else topology.names[p]
            section = Section(
                float(self._r[j]), float(self._l[j]), float(self._c[j])
            )
            if j in removed:
                detached.add_section(
                    name,
                    parent_name if j == i else p_name,
                    section=section,
                )
            else:
                remaining.add_section(name, p_name, section=section)
        self._rebuild(remaining)
        return detached

    def _rebuild(self, tree: RLCTree) -> None:
        self._load_compiled(compile_tree(tree, cache=self._cache))
        _bump("structural_recompiles")

    # -- queries -----------------------------------------------------------

    def sums(self, node: str) -> Tuple[float, float]:
        """``(T_RC, T_LC)`` at ``node``, pending offsets composed lazily.

        O(depth): one walk up the root path adding any pending
        subtree-constant offsets whose subtree contains the node.
        """
        i = self._topology.node_index(node)
        t_rc = float(self._t_rc[i])
        t_lc = float(self._t_lc[i])
        if self._pending:
            parents = self._topology.parent_list()
            n = self._topology.size
            pending = self._pending
            slot = i
            while slot != n:
                offset = pending.get(slot)
                if offset is not None:
                    t_rc += offset[0]
                    t_lc += offset[1]
                slot = parents[slot]
            _bump("lazy_queries")
        return t_rc, t_lc

    def value(self, metric: str, node: str) -> float:
        """One metric at one node, O(depth) + an O(1) kernel evaluation.

        The kernels' O(1) twin, so the value matches the vectorized
        table bit for bit; nodes outside the closed forms' domain raise
        :class:`~repro.errors.ElementValueError` like a table read.
        """
        field = _metric_field(metric)
        t_rc, t_lc = self.sums(node)
        check_domain(t_rc, t_lc, node)
        if field == "t_rc":
            return t_rc
        if field == "t_lc":
            return t_lc
        return scalar_metrics(t_rc, t_lc, self._settle_band)[field]

    def timing(self, node: str):
        """The full :class:`~repro.analysis.analyzer.NodeTiming` of one
        node, at point-query cost."""
        from ..analysis.analyzer import NodeTiming

        t_rc, t_lc = self.sums(node)
        check_domain(t_rc, t_lc, node)
        return NodeTiming(
            node=node, **scalar_metrics(t_rc, t_lc, self._settle_band)
        )

    def metric_at(self, metric: str, nodes: Sequence[str]) -> np.ndarray:
        """One metric at several nodes, as a ``(len(nodes),)`` vector.

        Composes pending offsets per node, so it is exact mid-session;
        after a bulk :meth:`set_values` (pending empty) it is a pure
        gather + subset kernel.
        """
        field = _metric_field(metric)
        index = self._topology.node_index
        idx = np.fromiter(
            (index(node) for node in nodes), dtype=np.intp, count=len(nodes)
        )
        t_rc = self._t_rc[idx].copy()
        t_lc = self._t_lc[idx].copy()
        if self._pending:
            for k, node in enumerate(nodes):
                t_rc[k], t_lc[k] = self.sums(node)
        if not fast_path_eligible(t_rc, t_lc):
            for k, node in enumerate(nodes):
                check_domain(float(t_rc[k]), float(t_lc[k]), node)
        if field == "t_rc":
            return t_rc
        if field == "t_lc":
            return t_lc
        metrics = metrics_from_sums(
            t_rc, t_lc, self._settle_band, select=(field,)
        )
        return np.asarray(getattr(metrics, field))

    def timing_table(self) -> TimingTable:
        """Every metric at every node; flushes, then refreshes stale rows.

        The returned table is immutable: later edits build fresh metric
        arrays rather than mutating the ones a previous table holds.
        """
        self.flush()
        self._refresh_metrics()
        return TimingTable(
            names=self._topology.names,
            settle_band=self._settle_band,
            metrics=self._metrics,
            _index=self._topology.index,
        )

    def _refresh_metrics(self) -> None:
        n = self._topology.size
        if self._metrics is not None and not self._stale_roots:
            return
        partial = (
            self._metrics is not None
            and self._stale_weight <= self._flush_threshold * n
        )
        if partial:
            order, position, end = self._topology.preorder_layout()
            mask = np.zeros(n, dtype=bool)
            for slot in self._stale_roots:
                mask[order[position[slot]:end[slot]]] = True
            idx = np.flatnonzero(mask)
            sub = metrics_from_sums(
                self._t_rc[idx], self._t_lc[idx], self._settle_band
            )
            fields = {"t_rc": self._t_rc.copy(), "t_lc": self._t_lc.copy()}
            for name in ("zeta", "omega_n", "delay_50", "rise_time",
                         "overshoot", "settling"):
                column = getattr(self._metrics, name).copy()
                column[idx] = getattr(sub, name)
                fields[name] = column
            self._metrics = type(self._metrics)(**fields)
            _bump("partial_metric_refreshes")
        else:
            self._metrics = metrics_from_sums(
                self._t_rc.copy(), self._t_lc.copy(), self._settle_band
            )
            _bump("full_metric_refreshes")
        self._stale_roots.clear()
        self._stale_weight = 0
