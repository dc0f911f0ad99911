"""SPICE-subset netlist import/export for RLC trees.

The library's native representation is :class:`~repro.circuit.tree.RLCTree`,
but interconnect extractors and circuit simulators speak netlists. This
module handles the subset a linear RLC tree needs:

* ``R<name> a b value`` — series resistor,
* ``L<name> a b value`` — series inductor,
* ``C<name> a 0 value`` — grounded capacitor,
* ``V<name> a 0 ...`` — marks ``a`` as the driving-point (root) node,
* ``*`` comments, ``.end``, and blank lines.

Values use SPICE suffixes (``10n``, ``0.5p``, ``1meg`` ...).

The reader is deliberately forgiving about *how* the tree was drawn: a
branch made of several series resistors and inductors through unnamed
internal nodes is collapsed into a single section, because electrically a
series chain with no capacitance and no branching is one section. The
writer emits one R (and, when L is nonzero, one L through an internal
``<node>__m`` midpoint) per section, with full-precision ``repr`` values,
so ``loads(dumps(tree))`` round-trips bit-exactly.
"""

from __future__ import annotations

import io
from collections import deque
from typing import Dict, List, Optional, TextIO, Tuple

from ..errors import NetlistError
from ..units import parse_value
from .elements import Section
from .tree import RLCTree

__all__ = ["dumps", "dump", "loads", "load"]

_GROUND_NAMES = {"0", "gnd", "GND"}


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def dumps(tree: RLCTree, title: str = "RLC tree") -> str:
    """Serialize a tree to netlist text."""
    buffer = io.StringIO()
    dump(tree, buffer, title=title)
    return buffer.getvalue()


def dump(tree: RLCTree, stream: TextIO, title: str = "RLC tree") -> None:
    """Write a tree as a netlist to ``stream``."""
    stream.write(f"* {title}\n")
    stream.write(f"* root node: {tree.root}\n")
    stream.write(f"Vin {tree.root} 0 PWL\n")
    for name, section in tree.sections():
        parent = tree.parent(name)
        if section.inductance > 0.0 and section.resistance > 0.0:
            mid = f"{name}__m"
            stream.write(f"R{name} {parent} {mid} {section.resistance!r}\n")
            stream.write(f"L{name} {mid} {name} {section.inductance!r}\n")
        elif section.inductance > 0.0:
            stream.write(f"L{name} {parent} {name} {section.inductance!r}\n")
        else:
            stream.write(f"R{name} {parent} {name} {section.resistance!r}\n")
        if section.capacitance > 0.0:
            stream.write(f"C{name} {name} 0 {section.capacitance!r}\n")
    stream.write(".end\n")


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def load(stream: TextIO, root: Optional[str] = None) -> RLCTree:
    """Parse a netlist from a stream; see :func:`loads`."""
    return loads(stream.read(), root=root)


def loads(text: str, root: Optional[str] = None) -> RLCTree:
    """Parse netlist text into an :class:`RLCTree`.

    The root node is taken from (in priority order) the ``root`` argument,
    a ``V`` source's positive node, or a ``.input <node>`` directive.
    Raises :class:`NetlistError` for anything that is not a grounded-
    capacitor RLC tree (floating capacitors, loops, multiple sources,
    disconnected elements).
    """
    branches: List[Tuple[str, str, str, float, int]] = []  # kind, a, b, value, line
    capacitance: Dict[str, float] = {}
    source_node: Optional[str] = None

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        lowered = line.lower()
        if lowered == ".end":
            break
        tokens = line.split()
        if lowered.startswith(".input"):
            if len(tokens) < 2:
                raise NetlistError(".input needs a node name", line_number)
            if source_node is None:
                source_node = tokens[1]
            continue
        if lowered.startswith("."):
            continue  # other directives are ignored
        kind = line[0].upper()
        if kind == "V":
            if len(tokens) < 3:
                raise NetlistError("source line needs two nodes", line_number)
            if tokens[2] not in _GROUND_NAMES:
                raise NetlistError(
                    "the source must be referenced to ground", line_number
                )
            if source_node is not None and source_node != tokens[1]:
                raise NetlistError("multiple input sources", line_number)
            source_node = tokens[1]
            continue
        if kind not in ("R", "L", "C"):
            raise NetlistError(f"unsupported element {tokens[0]!r}", line_number)
        if len(tokens) < 4:
            raise NetlistError(
                f"element {tokens[0]!r} needs two nodes and a value", line_number
            )
        node_a, node_b = tokens[1], tokens[2]
        try:
            value = parse_value(tokens[3])
        except Exception as exc:
            raise NetlistError(
                f"bad value {tokens[3]!r} for {tokens[0]!r}: {exc}", line_number
            ) from None
        if value < 0.0:
            raise NetlistError(
                f"negative value for {tokens[0]!r}", line_number
            )
        if kind == "C":
            grounded_a = node_a in _GROUND_NAMES
            grounded_b = node_b in _GROUND_NAMES
            if grounded_a == grounded_b:
                raise NetlistError(
                    "capacitors must connect a node to ground", line_number
                )
            node = node_b if grounded_a else node_a
            capacitance[node] = capacitance.get(node, 0.0) + value
        else:
            if node_a in _GROUND_NAMES or node_b in _GROUND_NAMES:
                raise NetlistError(
                    "series R/L elements cannot touch ground in a tree",
                    line_number,
                )
            branches.append((kind, node_a, node_b, value, line_number))

    if root is not None:
        source_node = root
    if source_node is None:
        raise NetlistError(
            "no root node: add a V source, a .input directive, or pass root="
        )
    if not branches:
        raise NetlistError("netlist contains no series R/L elements")

    return _graph_to_tree(branches, capacitance, source_node)


def _graph_to_tree(
    branches: List[Tuple[str, str, str, float, int]],
    capacitance: Dict[str, float],
    root: str,
) -> RLCTree:
    """Collapse the R/L element graph into a tree of sections."""
    # Edges are identified by their branch index, so two identical
    # elements between the same nodes stay two edges (a loop).
    adjacency: Dict[str, List[Tuple[str, str, float, int]]] = {}
    for edge, (kind, a, b, value, _line) in enumerate(branches):
        adjacency.setdefault(a, []).append((b, kind, value, edge))
        adjacency.setdefault(b, []).append((a, kind, value, edge))
    if root not in adjacency:
        raise NetlistError(f"root node {root!r} touches no R/L element")

    def is_junction(node: str) -> bool:
        """A node that must appear in the tree (not collapsible)."""
        return (
            node == root
            or node in capacitance
            or len(adjacency[node]) != 2
        )

    tree = RLCTree(root)
    visited_nodes = {root}
    used_edges: set = set()
    # BFS over junctions keeps node order close to the source text.
    frontier = deque([root])
    expanded = set()
    while frontier:
        junction = frontier.popleft()
        if junction in expanded:
            continue
        expanded.add(junction)
        for neighbor, kind, value, edge in adjacency[junction]:
            if edge in used_edges:
                continue
            # Walk the chain until the next junction.
            r_total = value if kind == "R" else 0.0
            l_total = value if kind == "L" else 0.0
            used_edges.add(edge)
            current = neighbor
            while not is_junction(current):
                onward = [
                    step for step in adjacency[current]
                    if step[3] not in used_edges
                ]
                if len(onward) != 1:
                    raise NetlistError(
                        f"internal node {current!r} is not a simple series point"
                    )
                nxt, k, v, step_edge = onward[0]
                used_edges.add(step_edge)
                if k == "R":
                    r_total += v
                else:
                    l_total += v
                current = nxt
            if current in visited_nodes:
                raise NetlistError(
                    f"netlist contains a loop through node {current!r}; "
                    "only trees are supported"
                )
            visited_nodes.add(current)
            tree.add_section(
                current,
                junction,
                section=Section(r_total, l_total, capacitance.get(current, 0.0)),
            )
            frontier.append(current)

    dangling = set(capacitance) - visited_nodes
    if dangling:
        raise NetlistError(
            f"capacitors on nodes not reachable from the root: {sorted(dangling)}"
        )
    if len(used_edges) != len(branches):
        raise NetlistError(
            "some R/L elements are not reachable from the root"
        )
    return tree
