"""Tree flattening: :class:`CompiledTopology`, :class:`CompiledTree`.

An :class:`~repro.circuit.tree.RLCTree` stores its structure as dicts of
names — ideal for incremental construction and validation, hostile to
array math. Compilation separates the two concerns the way the paper's
Appendix separates them: the *structure* (which node feeds which) is
fixed per net, while the *values* (R/L/C per section) are what design
loops perturb thousands of times.

:class:`CompiledTopology` holds the structure only:

* ``names`` — the nodes in insertion order, which
  :meth:`RLCTree.add_section` guarantees is topological (parent before
  child);
* ``parent`` — the parent slot of every node, with a sentinel slot ``n``
  standing in for the root;
* CSR children (``child_offsets`` / ``child_indices``) for subtree
  queries;
* per-level index groups, siblings contiguous, which is what lets the
  two depth-first passes of the Appendix (``Cal_Cap_Loads`` /
  ``Cal_Summations``) run as one vectorized gather/segment-sum per tree
  level instead of one dict operation per node.

:class:`CompiledTree` pairs a topology with three value vectors. Both
sweep directions accept **node-major** arrays of shape ``(n, ...)``, so
a single code path serves one tree's ``(n,)`` vector and an ``(n, S)``
block of S value scenarios. Node-major is what makes the batch sweeps
cheap: every level step gathers and scatters whole contiguous rows of S
values instead of S strided columns (see
:func:`repro.engine.table.batch_metrics`, the one place that turns
scenario-major ``(S, n)`` matrices into this layout).

Because design loops (Monte-Carlo variation, wire sizing, clock tuning)
rebuild trees with identical structure, :func:`compile_tree` keys a
small LRU cache on :func:`topology_fingerprint` — a pure-structure key —
and re-extracts only the value vectors on a hit. Values are read from
the tree on *every* call, so a cache hit can never serve stale element
values; only the permutation/level arrays are shared.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import ReductionError, TopologyError

__all__ = [
    "CompiledTopology",
    "CompiledTree",
    "topology_fingerprint",
    "topology_key",
    "compile_tree",
    "clear_topology_cache",
    "seed_topology_cache",
    "lookup_topology",
    "topology_cache_info",
]


def topology_fingerprint(tree: RLCTree) -> Tuple:
    """A hashable key identifying the tree's *structure* only.

    Two trees share a fingerprint exactly when they have the same root
    name, the same nodes in the same insertion order, and the same
    parent for every node — element values are deliberately excluded,
    which is what lets value-only perturbations reuse a compiled
    topology.
    """
    names = tree.nodes
    return (tree.root, names, tuple(tree.parent(name) for name in names))


def topology_key(topology: "CompiledTopology") -> Tuple:
    """The :func:`topology_fingerprint` a compiled topology came from.

    Reconstructed purely from the structure arrays, so a
    :class:`CompiledTopology` shipped to a worker process (where the
    original :class:`~repro.circuit.tree.RLCTree` never existed) can be
    seeded into that process's topology cache under the same key the
    parent used.
    """
    n = topology.size
    parents = tuple(
        topology.root if p == n else topology.names[p]
        for p in topology.parent
    )
    return (topology.root, topology.names, parents)


@dataclass(frozen=True)
class _LevelGroup:
    """One tree level, pre-sorted so siblings are contiguous.

    ``nodes`` are the level's node slots ordered by (parent slot,
    insertion order); ``parents``/``starts``/``ends`` describe the
    sibling segments: children of ``parents[i]`` occupy
    ``nodes[starts[i]:ends[i]]``.
    """

    nodes: np.ndarray
    parents: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


class CompiledTopology:
    """The structure of one RLC tree, flattened to index arrays."""

    def __init__(self, root: str, names: Tuple[str, ...], parent: np.ndarray):
        n = len(names)
        self.root = root
        self.names = names
        self.size = n
        self.index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        #: parent slot per node; the sentinel ``n`` stands for the root.
        self.parent = parent

        # Levels: level of node i is level(parent) + 1; root is level 0.
        level = np.empty(n, dtype=np.intp)
        for i in range(n):
            p = parent[i]
            level[i] = 1 if p == n else level[p] + 1
        self.level = level
        self.depth = int(level.max()) if n else 0

        # Per-level groups with siblings contiguous (stable sort by
        # parent keeps siblings in insertion order, matching the dict
        # traversals' accumulation order).
        groups: List[_LevelGroup] = []
        for lvl in range(1, self.depth + 1):
            nodes = np.flatnonzero(level == lvl)
            order = np.argsort(parent[nodes], kind="stable")
            nodes = nodes[order]
            parents, starts = np.unique(parent[nodes], return_index=True)
            ends = np.append(starts[1:], nodes.size)
            groups.append(_LevelGroup(nodes, parents, starts, ends))
        self.levels: Tuple[_LevelGroup, ...] = tuple(groups)

        # CSR children over non-root nodes (root's children are level 1).
        counts = np.zeros(n + 1, dtype=np.intp)
        for i in range(n):
            counts[parent[i]] += 1
        offsets = np.zeros(n + 2, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        child_indices = np.empty(n, dtype=np.intp)
        cursor = offsets[:-1].copy()
        for i in range(n):  # insertion order -> children stored in order
            p = parent[i]
            child_indices[cursor[p]] = i
            cursor[p] += 1
        #: children of node i are child_indices[child_offsets[i]:child_offsets[i+1]];
        #: slot ``n`` holds the root's children.
        self.child_offsets = offsets[:-1]
        self.child_ends = offsets[1:]
        self.child_indices = child_indices

        #: True when the tree is a pure chain in insertion order
        #: (``parent[i] == i - 1`` with the root feeding node 0). Both
        #: sweep directions then collapse to a single ``cumsum`` instead
        #: of one python-level iteration per tree level — the dominant
        #: cost on deep nets, where ``depth == n``.
        self.is_chain = bool(
            n > 0
            and parent[0] == n
            and np.array_equal(parent[1:], np.arange(n - 1))
        )

        # Preorder layout (order/position/end), built lazily by
        # preorder_layout() — only incremental edits need it.
        self._preorder: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # Lazy per-slot root-path cache and a plain-python parent list,
        # both for the incremental engine's O(depth) walks (python-int
        # arithmetic beats numpy scalar indexing ~10x on these).
        self._root_paths: Dict[int, Tuple[np.ndarray, List[int]]] = {}
        self._parent_pylist: Optional[List[int]] = None

    @classmethod
    def from_tree(cls, tree: RLCTree) -> "CompiledTopology":
        names = tree.nodes
        n = len(names)
        index = {name: i for i, name in enumerate(names)}
        parent = np.empty(n, dtype=np.intp)
        for i, name in enumerate(names):
            p = tree.parent(name)
            parent[i] = n if p == tree.root else index[p]
        return cls(tree.root, names, parent)

    # -- vectorized sweeps -------------------------------------------------

    def accumulate(self, weights: np.ndarray) -> np.ndarray:
        """Subtree totals of per-node ``weights`` (``Cal_Cap_Loads``).

        ``weights`` is node-major, shape ``(n, ...)``; the return value
        (same shape, C-contiguous) is the sum of each node's own weight
        plus its whole subtree's. One segment-sum per level, deepest
        first — additions only, exactly the Appendix's postorder pass.
        """
        weights = np.asarray(weights, dtype=float)
        if self.is_chain:
            # Reverse running sum. Bitwise identical to the level loop:
            # both form acc[k] = w[k] (+) acc[k+1] one partial sum at a
            # time, and IEEE addition is commutative, so the operand
            # order difference (accumulator left vs right) cannot change
            # a single bit.
            return np.ascontiguousarray(np.cumsum(weights[::-1], axis=0)[::-1])
        acc = np.array(weights, copy=True, order="C")
        for group in self.levels[:0:-1]:  # deepest level down to level 2
            # Sibling segments tile the level (starts[0] == 0, ends
            # chain to nodes.size), so reduceat sums each parent's
            # children with additions only. A cumsum-and-subtract
            # segmented sum would carry absolute error at the scale of
            # the *level* total — catastrophic for a tiny subtree next
            # to large siblings. Per scenario, reduceat along the node
            # axis associates exactly like the 1-D reduceat.
            acc[group.parents] += np.add.reduceat(
                acc[group.nodes], group.starts, axis=0
            )
        return acc

    def descend(self, contrib: np.ndarray) -> np.ndarray:
        """Root-to-node prefix sums of ``contrib`` (``Cal_Summations``).

        ``out[i] = out[parent(i)] + contrib[i]`` with the root
        contributing zero; one row gather + add per level, shallow
        first. ``contrib`` is node-major, shape ``(n, ...)``.
        """
        contrib = np.asarray(contrib, dtype=float)
        if self.is_chain:
            # Plain running sum — the level loop's exact association
            # (accumulator + contrib, one element per step).
            return np.cumsum(contrib, axis=0)
        n = self.size
        out = np.zeros((n + 1,) + contrib.shape[1:])
        for group in self.levels:
            idx = group.nodes
            out[idx] = out[self.parent[idx]] + contrib[idx]
        return out[:n]

    def descend2(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Root-to-node prefix sums of two addends per node.

        Evaluates ``out[i] = (out[parent(i)] + first[i]) + second[i]``
        with that floating-point grouping at every level. Both addends
        are node-major, shape ``(n, ...)``.
        """
        first = np.asarray(first, dtype=float)
        second = np.asarray(second, dtype=float)
        n = self.size
        out = np.zeros((n + 1,) + first.shape[1:])
        for group in self.levels:
            idx = group.nodes
            out[idx] = (out[self.parent[idx]] + first[idx]) + second[idx]
        return out[:n]

    def second_order_sums(
        self, resistance: np.ndarray, inductance: np.ndarray, capacitance: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(T_RC, T_LC)`` at every node (eqs. 26-27) for node-major
        value arrays of shape ``(n, ...)``: one tree's vectors or an
        ``(n, S)`` scenario block, through the same two passes."""
        loads = self.accumulate(capacitance)
        t_rc = self.descend(np.asarray(resistance, dtype=float) * loads)
        t_lc = self.descend(np.asarray(inductance, dtype=float) * loads)
        return t_rc, t_lc

    # -- structural queries ------------------------------------------------

    def children(self, slot: int) -> np.ndarray:
        """Child slots of node ``slot`` (pass ``size`` for the root)."""
        return self.child_indices[self.child_offsets[slot]:self.child_ends[slot]]

    def preorder_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, position, end)``: preorder permutation + subtree spans.

        ``order[k]`` is the k-th slot of a root-first DFS with children
        visited in insertion order; ``position``/``end`` delimit each
        subtree inside it, so ``order[position[i]:end[i]]`` lists
        subtree(i) as one *contiguous* range. That contiguity is what
        lets the incremental engine apply a subtree-constant offset as a
        single slice operation instead of a tree walk. Built lazily on
        first use and cached on the topology (the batch engine never
        needs it).
        """
        layout = self._preorder
        if layout is None:
            global _preorder_builds
            n = self.size
            order = np.empty(n, dtype=np.intp)
            position = np.empty(n, dtype=np.intp)
            end = np.empty(n, dtype=np.intp)
            cursor = 0
            stack = [(int(slot), False) for slot in self.children(n)[::-1]]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    end[node] = cursor
                    continue
                order[cursor] = node
                position[node] = cursor
                cursor += 1
                stack.append((node, True))
                kids = self.child_indices[
                    self.child_offsets[node]:self.child_ends[node]
                ]
                stack.extend((int(k), False) for k in kids[::-1])
            layout = (order, position, end)
            self._preorder = layout
            with _cache_lock:
                _preorder_builds += 1
        return layout

    def parent_list(self) -> List[int]:
        """The parent slots as a plain python list (cached).

        Walking a root path with python-int list indexing is an order of
        magnitude faster than indexing the numpy ``parent`` array one
        scalar at a time — the difference between O(depth) walks that
        beat a full sweep and ones that do not.
        """
        parents = self._parent_pylist
        if parents is None:
            parents = self.parent.tolist()
            self._parent_pylist = parents
        return parents

    def root_path(self, slot: int) -> Tuple[np.ndarray, List[int]]:
        """The slots from ``slot`` up to its level-1 ancestor, cached.

        Returns ``(array, list)`` of the same path — the array form for
        fancy-indexed vector updates, the list form for python-loop
        composition. Paths are structural, so the per-slot cache lives
        on the topology; worst case it holds O(n * depth) entries, the
        same order as the level tables of a degenerate chain.
        """
        cached = self._root_paths.get(slot)
        if cached is None:
            parents = self.parent_list()
            n = self.size
            path: List[int] = []
            s = slot
            while s != n:
                path.append(s)
                s = parents[s]
            cached = (np.array(path, dtype=np.intp), path)
            self._root_paths[slot] = cached
        return cached

    def node_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"CompiledTopology(root={self.root!r}, sections={self.size}, "
            f"depth={self.depth})"
        )


@dataclass(frozen=True)
class CompiledTree:
    """A compiled topology plus one set of R/L/C value vectors.

    The value vectors are indexed by the topology's node order
    (``topology.names``). :meth:`with_values` swaps values without
    touching the structure arrays — the cheap operation design sweeps
    repeat thousands of times.
    """

    topology: CompiledTopology
    resistance: np.ndarray
    inductance: np.ndarray
    capacitance: np.ndarray

    @classmethod
    def from_tree(
        cls, tree: RLCTree, topology: Optional[CompiledTopology] = None
    ) -> "CompiledTree":
        if topology is None:
            topology = CompiledTopology.from_tree(tree)
        n = topology.size
        sections = [tree.section(name) for name in topology.names]
        r = np.fromiter((s.resistance for s in sections), dtype=float, count=n)
        l = np.fromiter((s.inductance for s in sections), dtype=float, count=n)
        c = np.fromiter((s.capacitance for s in sections), dtype=float, count=n)
        return cls(topology, r, l, c)

    def with_values(
        self,
        resistance: np.ndarray,
        inductance: np.ndarray,
        capacitance: np.ndarray,
    ) -> "CompiledTree":
        """The same structure with new per-section value vectors."""
        n = self.topology.size
        arrays = []
        for label, values in (
            ("resistance", resistance),
            ("inductance", inductance),
            ("capacitance", capacitance),
        ):
            values = np.asarray(values, dtype=float)
            if values.shape != (n,):
                raise ReductionError(
                    f"{label} vector must have shape ({n},), got {values.shape}"
                )
            arrays.append(values)
        return CompiledTree(self.topology, *arrays)

    @property
    def size(self) -> int:
        return self.topology.size

    @property
    def names(self) -> Tuple[str, ...]:
        return self.topology.names

    # -- the Appendix sweeps, vectorized -----------------------------------

    def second_order_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(T_RC, T_LC)`` arrays at every node (eqs. 26-27), O(n)."""
        return self.topology.second_order_sums(
            self.resistance, self.inductance, self.capacitance
        )

    def weighted_path_sums(
        self, resistance_weights: np.ndarray, inductance_weights: np.ndarray
    ) -> np.ndarray:
        """Evaluate ``sum_k R_ki w_r(k) + sum_k L_ki w_l(k)`` at every node.

        The generalized ``Cal_Summations`` kernel: subtree totals of
        both weight sets, then one downward pass with two
        multiplications per section. The classic sums are the special
        case ``w_r = w_l = C_k``; :meth:`exact_moments` applies it once
        per order.
        """
        sub_r = self.topology.accumulate(resistance_weights)
        sub_l = self.topology.accumulate(inductance_weights)
        return self.topology.descend2(
            np.asarray(self.resistance, dtype=float) * sub_r,
            np.asarray(self.inductance, dtype=float) * sub_l,
        )

    def exact_moments(self, order: int) -> np.ndarray:
        """Exact moments ``m_0..m_order`` at every node, shape
        ``(order + 1, n)``.

        ``m_0 = 1`` and ``m_j = -(weighted path sums with w_r = C m_{j-1},
        w_l = C m_{j-2})`` (the recursion in :mod:`repro.analysis.moments`),
        one O(n) sweep per order. The only exact-moment engine:
        :func:`repro.analysis.exact_moments` is its per-name view.
        """
        if order < 0:
            raise ReductionError("moment order must be non-negative")
        n = self.size
        rows = [np.ones(n)]
        previous = rows[0]
        before_previous = np.zeros(n)
        for _ in range(order):
            current = -self.weighted_path_sums(
                self.capacitance * previous,
                self.capacitance * before_previous,
            )
            rows.append(current)
            before_previous, previous = previous, current
        return np.stack(rows, axis=0)


# -- the topology cache ----------------------------------------------------
#
# A process-global LRU keyed on topology fingerprints. Every mutation —
# lookup + move_to_end, insert + evict, counter bumps — happens under
# ``_cache_lock``: compile_tree is called from threaded design loops and
# from the sharded dispatch workers' task threads, and an unsynchronized
# OrderedDict corrupts under concurrent move_to_end/popitem (and loses
# counter updates). The structural compile itself runs outside the lock,
# so concurrent misses may compile the same topology twice; the first
# insert wins and the duplicate is discarded — wasted work, never a
# wrong result.

_CACHE_MAXSIZE = 128
_cache: "OrderedDict[Tuple, CompiledTopology]" = OrderedDict()
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0
_preorder_builds = 0


def compile_tree(tree: RLCTree, *, cache: bool = True) -> CompiledTree:
    """Flatten ``tree`` into a :class:`CompiledTree`.

    With ``cache=True`` (the default) the structural compile is keyed on
    :func:`topology_fingerprint`, so repeated calls for value-perturbed
    copies of one net pay only the O(n) value extraction. Element values
    are always read fresh from ``tree``. Cache operations are
    thread-safe.
    """
    global _cache_hits, _cache_misses
    if not cache:
        return CompiledTree.from_tree(tree)
    key = topology_fingerprint(tree)
    with _cache_lock:
        topology = _cache.get(key)
        if topology is not None:
            _cache_hits += 1
            _cache.move_to_end(key)
    if topology is None:
        compiled = CompiledTopology.from_tree(tree)
        with _cache_lock:
            _cache_misses += 1
            topology = _cache.get(key)
            if topology is None:
                topology = compiled
                _cache[key] = topology
            else:
                _cache.move_to_end(key)
            while len(_cache) > _CACHE_MAXSIZE:
                _cache.popitem(last=False)
    return CompiledTree.from_tree(tree, topology)


def lookup_topology(key: Tuple) -> Optional[CompiledTopology]:
    """The cached topology under ``key``, counting a hit or a miss.

    The dispatch layer's per-process lookup: a worker that receives a
    work unit consults its own cache by key before unpickling the
    shipped payload, so the hit/miss counters aggregated by
    :func:`repro.engine.sharded.topology_cache_info` reflect how often
    the payload actually had to be decoded.
    """
    global _cache_hits, _cache_misses
    with _cache_lock:
        topology = _cache.get(key)
        if topology is not None:
            _cache_hits += 1
            _cache.move_to_end(key)
        else:
            _cache_misses += 1
    return topology


def seed_topology_cache(
    topology: CompiledTopology, key: Optional[Tuple] = None
) -> Tuple:
    """Insert an already-compiled ``topology`` into the cache.

    Used by the sharded dispatch workers to seed their per-process
    caches from pickled :class:`CompiledTopology` payloads shipped with
    the work units. Counts neither a hit nor a miss; returns the key the
    topology was stored under.
    """
    if key is None:
        key = topology_key(topology)
    with _cache_lock:
        if key in _cache:
            _cache.move_to_end(key)
        else:
            _cache[key] = topology
            while len(_cache) > _CACHE_MAXSIZE:
                _cache.popitem(last=False)
    return key


def clear_topology_cache() -> None:
    """Empty the topology cache and reset its counters."""
    global _cache_hits, _cache_misses, _preorder_builds
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
        _preorder_builds = 0


def topology_cache_info() -> Dict[str, int]:
    """``{"hits", "misses", "size", "maxsize"}`` of the topology cache.

    Counts this process only; the sharded dispatch layer exposes
    :func:`repro.engine.sharded.topology_cache_info`, which aggregates
    this over every worker in the pool.
    """
    with _cache_lock:
        return {
            "hits": _cache_hits,
            "misses": _cache_misses,
            "size": len(_cache),
            "maxsize": _CACHE_MAXSIZE,
            "preorder_builds": _preorder_builds,
        }
