"""O(n) moment computation for RLC trees (the paper's Appendix).

The second-order model at node ``i`` needs two sums over every capacitor
``k`` in the tree (eqs. 26-27)::

    T_RC(i) = sum_k C_k R_ki        T_LC(i) = sum_k C_k L_ki

Computing them naively costs O(n^2). The Appendix's insight (inherited
from Rubinstein-Penfield for RC trees) is that both can be rewritten as
path sums::

    T_RC(i) = sum_{s in path(i)} R_s * C_load(s)

where ``C_load(s)`` is the total capacitance of the subtree hanging off
section ``s`` — because section ``s`` is common to the root paths of
``i`` and ``k`` exactly when ``k`` is in ``s``'s subtree. Two depth-first
passes then evaluate the sums at *all* nodes:

1. ``Cal_Cap_Loads`` (postorder): accumulate subtree capacitances —
   additions only;
2. ``Cal_Summations`` (preorder): ``S(i) = S(parent) + R_i * C_load(i)``
   (and the L analogue) — two multiplications per section.

Both passes run in one place, the level-grouped kernels of
:class:`repro.engine.CompiledTopology`; :func:`capacitive_loads` and
:func:`second_order_sums` here are their per-name views, so a dict read
and a table read of the same node give the same bits.

The same trick generalizes to *exact* transfer-function moments of any
order. Expanding the tree's exact node transfer functions in powers of
``s`` gives the recursion (derived from the path-trace expression of
eq. 20)::

    m_j(i) = - sum_k [ R_ki * C_k m_{j-1}(k)  +  L_ki * C_k m_{j-2}(k) ]

which is the same weighted-path-sum shape with weights
``C_k * m_{j-1}(k)`` and ``C_k * m_{j-2}(k)``; each moment order is one
more O(n) sweep. The recursion runs in one place, the level-grouped
kernel :meth:`repro.engine.CompiledTree.exact_moments`; this module's
:func:`exact_moments` is its per-name view. It powers the AWE baseline
(:mod:`repro.reduction.awe`) and the ablation that compares the paper's
approximate second moment (eq. 28) against the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..circuit.tree import RLCTree
from ..errors import ReductionError

__all__ = [
    "capacitive_loads",
    "second_order_sums",
    "elmore_sums",
    "inductance_sums",
    "exact_moments",
    "MomentSummary",
    "moment_summary",
    "multiplication_count",
]


def _compiled(tree: RLCTree):
    # Imported here: the engine's kernels import repro.analysis at load.
    from ..engine.compiled import compile_tree

    return compile_tree(tree)


def capacitive_loads(tree: RLCTree) -> Dict[str, float]:
    """Total capacitance driven by each section (``Cal_Cap_Loads``).

    ``C_load(s)`` is the capacitance of the subtree rooted at ``s``
    (including ``s`` itself): the per-name view of
    :meth:`repro.engine.CompiledTopology.accumulate`, additions only.
    """
    compiled = _compiled(tree)
    loads = compiled.topology.accumulate(compiled.capacitance)
    return dict(zip(compiled.names, loads.tolist()))


def second_order_sums(tree: RLCTree) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(T_RC, T_LC)`` at every node in O(n) — the Appendix algorithm.

    Returns two dicts keyed by node name. ``T_RC`` is the Elmore sum of
    eq. 26; ``T_LC`` is its inductive analogue of eq. 27. The per-name
    view of :meth:`repro.engine.CompiledTree.second_order_sums`.
    """
    compiled = _compiled(tree)
    t_rc, t_lc = compiled.second_order_sums()
    names = compiled.names
    return dict(zip(names, t_rc.tolist())), dict(zip(names, t_lc.tolist()))


def elmore_sums(tree: RLCTree) -> Dict[str, float]:
    """``T_RC`` (the Elmore time constant sum) at every node, O(n)."""
    return second_order_sums(tree)[0]


def inductance_sums(tree: RLCTree) -> Dict[str, float]:
    """``T_LC`` at every node, O(n)."""
    return second_order_sums(tree)[1]


def exact_moments(
    tree: RLCTree, order: int, nodes: Sequence[str] | None = None
) -> Dict[str, List[float]]:
    """Exact transfer-function moments ``m_0 .. m_order`` per node.

    ``m_j`` is the coefficient of ``s^j`` in the node's exact normalized
    transfer function (eq. 11). ``m_0 = 1``; each further order is one
    O(n) weighted-path-sum sweep, so the total cost is O(n * order).

    The per-name view of :meth:`repro.engine.CompiledTree.exact_moments`,
    which evaluates the recursion for every node at once (every node's
    moment feeds every ancestor's next order); when ``nodes`` is given
    only those nodes' histories are returned.
    """
    if order < 0:
        raise ReductionError("moment order must be non-negative")
    compiled = _compiled(tree)
    index = compiled.topology.index
    if nodes is None:
        selected: Sequence[str] = compiled.names
    else:
        selected = tuple(nodes)
        for name in selected:
            if name not in index:
                raise ReductionError(f"unknown node {name!r}")
    columns = compiled.exact_moments(order).T
    return {name: columns[index[name]].tolist() for name in selected}


@dataclass(frozen=True)
class MomentSummary:
    """The low-order moment picture at one node.

    ``m2_approx`` is the paper's eq.-28 Elmore-style approximation
    ``T_RC^2 - T_LC``; ``m2_exact`` the true coefficient. Their gap is
    what the second-order model gives up for O(n) tractability, and the
    ``bench_ablation_m2`` benchmark quantifies its delay impact.
    """

    node: str
    t_rc: float
    t_lc: float
    m1: float
    m2_exact: float

    @property
    def m2_approx(self) -> float:
        return self.t_rc * self.t_rc - self.t_lc

    @property
    def m2_relative_gap(self) -> float:
        """|m2_approx - m2_exact| / |m2_exact| (0 when both vanish)."""
        if self.m2_exact == 0.0:
            return 0.0 if self.m2_approx == 0.0 else float("inf")
        return abs(self.m2_approx - self.m2_exact) / abs(self.m2_exact)


def moment_summary(tree: RLCTree, nodes: Sequence[str] | None = None) -> Dict[str, MomentSummary]:
    """Per-node :class:`MomentSummary` for ``nodes`` (default: all).

    The sums and the exact moments come from one compiled tree.
    """
    compiled = _compiled(tree)
    index = compiled.topology.index
    selected = compiled.names if nodes is None else tuple(nodes)
    for name in selected:
        if name not in index:
            raise ReductionError(f"unknown node {name!r}")
    t_rc, t_lc = compiled.second_order_sums()
    exact = compiled.exact_moments(2)
    return {
        name: MomentSummary(
            node=name,
            t_rc=float(t_rc[i]),
            t_lc=float(t_lc[i]),
            m1=float(exact[1, i]),
            m2_exact=float(exact[2, i]),
        )
        for name in selected
        for i in (index[name],)
    }


def multiplication_count(tree: RLCTree) -> int:
    """Multiplications to evaluate the model at all nodes (Appendix).

    ``Cal_Cap_Loads`` needs none; ``Cal_Summations`` needs two per
    section (``R_i * C_load`` and ``L_i * C_load``), so the count is
    ``2 n`` — exactly the order of the tree's characteristic polynomial
    (each section contributes one L state and one C state).
    """
    return 2 * tree.size
