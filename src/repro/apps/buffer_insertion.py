"""Buffer insertion with the RLC equivalent Elmore delay.

The paper's motivation for a *continuous, closed-form* delay: design
methodologies like van Ginneken buffer insertion evaluate the delay model
inside an optimization loop thousands of times, which rules out
simulation and rules in Elmore-style formulas. This module implements the
classic van Ginneken dynamic program [27] with a pluggable wire-delay
model so the same optimizer runs with

* ``"rc"`` — the traditional RC Elmore delay (inductance ignored), or
* ``"rlc"`` — the paper's equivalent Elmore delay (eq. 35), which sees
  the inductive part of each wire segment.

Per-segment delays are treated as additive along a path — the standard
industrial retrofit of fancier delay models into the van Ginneken
recursion; the segment's own closed-form delay uses the segment R/L
against all downstream capacitance. Benchmarks compare the two models'
chosen buffer placements and the exact simulated delay of each result.

The dynamic program is textbook: a postorder sweep maintains, per node,
the Pareto frontier of ``(downstream capacitance, required arrival
time)`` candidates; each candidate optionally inserts a buffer; sibling
frontiers merge by capacitance-sorted pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from ..analysis.delay import delay_50_from_sums, elmore_delay
from ..circuit.tree import RLCTree
from ..errors import ReproError
from ..robustness.guarded import shielded
from ..runtime import ExecutionContext, resolve_context

__all__ = [
    "Buffer",
    "InsertionResult",
    "insert_buffers",
    "wire_segment_delay",
    "plan_stages",
    "simulated_plan_delay",
]

DelayModel = Literal["rc", "rlc"]


@dataclass(frozen=True)
class Buffer:
    """One buffer type from the cell library.

    ``output_resistance`` drives the downstream net; ``input_capacitance``
    is what the upstream net sees; ``intrinsic_delay`` is added per
    insertion.
    """

    output_resistance: float
    input_capacitance: float
    intrinsic_delay: float = 0.0

    def __post_init__(self):
        if self.output_resistance <= 0.0:
            raise ReproError("buffer output resistance must be positive")
        if self.input_capacitance < 0.0 or self.intrinsic_delay < 0.0:
            raise ReproError("buffer parameters must be non-negative")

    def driving_delay(self, load_capacitance: float) -> float:
        """Delay of this buffer driving ``load_capacitance``."""
        return self.intrinsic_delay + elmore_delay(
            self.output_resistance * load_capacitance
        )


@shielded
def wire_segment_delay(
    resistance: float,
    inductance: float,
    capacitance: float,
    load_capacitance: float,
    model: DelayModel,
) -> float:
    """Closed-form delay of one wire segment driving a downstream load.

    The segment's shunt capacitance plus everything downstream loads the
    segment's series impedance, so ``T_RC = R (C + C_load)`` and
    ``T_LC = L (C + C_load)``. Under the ``"rc"`` model the inductance is
    discarded (traditional Elmore); under ``"rlc"`` the paper's eq. 35
    applies.
    """
    total_load = capacitance + load_capacitance
    if total_load <= 0.0:
        return 0.0
    t_rc = resistance * total_load
    if model == "rc" or inductance == 0.0:
        return elmore_delay(t_rc)
    return delay_50_from_sums(t_rc, inductance * total_load)


@dataclass(frozen=True)
class _Candidate:
    """One Pareto point of the DP: (capacitance seen upstream, required
    time at the candidate's cut, buffers placed downstream)."""

    capacitance: float
    required: float
    placements: Tuple[str, ...]


@dataclass(frozen=True)
class InsertionResult:
    """Outcome of the buffer-insertion optimization."""

    buffer_nodes: Tuple[str, ...]
    required_at_root: float
    root_capacitance: float
    model: DelayModel

    @property
    def buffer_count(self) -> int:
        return len(self.buffer_nodes)


@shielded
def insert_buffers(
    tree: RLCTree,
    buffer: Buffer,
    sink_required: Optional[Dict[str, float]] = None,
    sink_capacitance: Optional[Dict[str, float]] = None,
    model: DelayModel = "rlc",
    candidate_nodes: Optional[Sequence[str]] = None,
    driver_resistance: float = 0.0,
    *,
    context: Optional[ExecutionContext] = None,
) -> InsertionResult:
    """Van Ginneken buffer insertion maximizing required time at the root.

    Parameters
    ----------
    tree:
        The routing tree; each section is a wire segment.
    buffer:
        The (single-type) buffer library.
    sink_required:
        Required arrival time per sink (default 0.0 — maximize the
        worst slack, the usual formulation).
    sink_capacitance:
        Extra receiver pin capacitance per sink (default 0.0).
    model:
        ``"rc"`` or ``"rlc"`` wire delay (see module docstring).
    candidate_nodes:
        Nodes where a buffer may be placed (default: every node).
    driver_resistance:
        Source driver resistance; when positive, the driver's own delay
        into the chosen root capacitance is charged against the result.

    Every candidate is scored with the scalar closed forms
    (:func:`wire_segment_delay`, :meth:`Buffer.driving_delay`), which
    beat one array call per frontier at every measured tree size.
    ``context`` picks the runtime whose ``stats()`` counts the run.

    Returns the candidate with the best required time at the root.
    """
    if model not in ("rc", "rlc"):
        raise ReproError(f"unknown delay model {model!r}; use 'rc' or 'rlc'")
    if tree.size == 0:
        raise ReproError("cannot buffer an empty tree")
    sink_required = sink_required or {}
    sink_capacitance = sink_capacitance or {}
    allowed = set(tree.nodes if candidate_nodes is None else candidate_nodes)
    unknown = allowed - set(tree.nodes)
    if unknown:
        raise ReproError(f"candidate nodes not in tree: {sorted(unknown)}")

    runtime = resolve_context(context)
    frontiers: Dict[str, List[_Candidate]] = {}
    # Closed-form point evaluations, counted where the point route runs.
    with runtime.track("compiled", "point"):
        for node in tree.postorder():
            children = tree.children(node)
            if not children:
                base = [
                    _Candidate(
                        capacitance=sink_capacitance.get(node, 0.0),
                        required=sink_required.get(node, 0.0),
                        placements=(),
                    )
                ]
            else:
                base = _merge_children([frontiers.pop(c) for c in children])
            # Option: insert a buffer at this node (driving `base`).
            options = list(base)
            if node in allowed:
                for candidate in base:
                    options.append(
                        _Candidate(
                            capacitance=buffer.input_capacitance,
                            required=candidate.required
                            - buffer.driving_delay(candidate.capacitance),
                            placements=candidate.placements + (node,),
                        )
                    )
            # Walk the wire segment up toward the parent.
            section = tree.section(node)
            walked = [
                _Candidate(
                    capacitance=candidate.capacitance + section.capacitance,
                    required=candidate.required
                    - wire_segment_delay(
                        section.resistance,
                        section.inductance,
                        section.capacitance,
                        candidate.capacitance,
                        model,
                    ),
                    placements=candidate.placements,
                )
                for candidate in _prune(options)
            ]
            frontiers[node] = _prune(walked)

        root_options = _merge_children(
            [frontiers.pop(c) for c in tree.children(tree.root)]
        )
        if driver_resistance > 0.0:
            root_options = [
                _Candidate(
                    capacitance=c.capacitance,
                    required=c.required
                    - elmore_delay(driver_resistance * c.capacitance),
                    placements=c.placements,
                )
                for c in root_options
            ]
    best = max(root_options, key=lambda c: c.required)
    return InsertionResult(
        buffer_nodes=best.placements,
        required_at_root=best.required,
        root_capacitance=best.capacitance,
        model=model,
    )


@shielded
def plan_stages(
    line: RLCTree, placements: Sequence[str]
) -> List[List[str]]:
    """Split a single-line net into stages at the buffer nodes.

    Each returned list is the run of line nodes belonging to one stage,
    root-side stage first; every stage except the last ends at a buffer
    input. Only defined for chain topologies (each node one child).
    """
    for node in line.nodes:
        if len(line.children(node)) > 1:
            raise ReproError("plan_stages is defined for line nets only")
    chosen = set(placements)
    stages: List[List[str]] = []
    current: List[str] = []
    for node in line.nodes:  # insertion order = root to sink on a line
        current.append(node)
        if node in chosen:
            stages.append(current)
            current = []
    if current:
        stages.append(current)
    return stages


@shielded
def simulated_plan_delay(
    line: RLCTree,
    result: "InsertionResult",
    buffer: Buffer,
    source_resistance: float,
    points: int = 8001,
) -> float:
    """Exact-simulation score of a buffering plan on a line net.

    Each stage (driver resistance + wire run + next buffer's input load)
    is simulated with the modal solver and its measured 50% delay summed,
    plus one intrinsic delay per buffer. This is the honest yardstick the
    benchmarks use to compare RC- and RLC-steered plans: it shares no
    code with either delay model.
    """
    from ..circuit.elements import Section as _Section
    from ..simulation.exact import ExactSimulator
    from ..simulation.measures import measure

    stages = plan_stages(line, result.buffer_nodes)
    total = 0.0
    for index, nodes in enumerate(stages):
        driver = source_resistance if index == 0 else buffer.output_resistance
        is_last = index == len(stages) - 1
        load = 0.0 if is_last else buffer.input_capacitance
        stage = RLCTree("src")
        stage.add_section("drv", "src", section=_Section(driver, 0.0, 1e-18))
        parent = "drv"
        for node in nodes:
            section = line.section(node)
            extra = load if node == nodes[-1] else 0.0
            stage.add_section(
                node,
                parent,
                section=_Section(
                    section.resistance,
                    section.inductance,
                    section.capacitance + extra,
                ),
            )
            parent = node
        simulator = ExactSimulator(stage)
        t = simulator.time_grid(points=points, span_factor=14.0)
        metrics = measure(t, simulator.step_response(nodes[-1], t))
        total += metrics.delay_50
        if not is_last:
            total += buffer.intrinsic_delay
    return total


def _merge_children(frontiers: List[List[_Candidate]]) -> List[_Candidate]:
    """Cross-combine sibling frontiers: capacitances add, requireds min."""
    merged = frontiers[0]
    for other in frontiers[1:]:
        combined = [
            _Candidate(
                capacitance=a.capacitance + b.capacitance,
                required=min(a.required, b.required),
                placements=a.placements + b.placements,
            )
            for a in merged
            for b in other
        ]
        merged = _prune(combined)
    return merged


def _prune(candidates: List[_Candidate]) -> List[_Candidate]:
    """Keep the Pareto frontier: increasing capacitance must buy
    strictly increasing required time."""
    ordered = sorted(candidates, key=lambda c: (c.capacitance, -c.required))
    kept: List[_Candidate] = []
    best_required = -float("inf")
    for candidate in ordered:
        if candidate.required > best_required:
            kept.append(candidate)
            best_required = candidate.required
    return kept
