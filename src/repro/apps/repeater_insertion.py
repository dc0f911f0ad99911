"""Optimal uniform repeater insertion for RLC lines.

The best-known application of the equivalent Elmore delay is the
authors' own follow-on result (Ismail & Friedman, "Effects of inductance
on the propagation delay and repeater insertion in VLSI circuits"): the
classic Bakoglu RC recipe

    k_rc = sqrt(0.4 R_t C_t / (0.7 R_0 C_0))      (number of repeaters)
    h_rc = sqrt(R_0 C_t / (R_t C_0))              (size, x minimum)

over-inserts on inductive lines, because an underdamped wire segment is
*faster* to 50% than its RC skeleton predicts, so breaking it into many
stages wastes repeater delay. With the paper's closed-form RLC delay in
the stage-cost function, the optimum shifts to fewer, larger repeaters —
approaching *zero* repeaters as the line goes inductance-dominated.

This module implements both:

* :func:`bakoglu_rc` — the classic closed-form RC answer,
* :func:`optimize_repeaters` — numeric minimization of the total path
  delay where each of the ``k+1`` identical stages (driver of size
  ``h`` -> wire segment of length ``len/(k+1)`` -> next repeater's input
  load) is costed by the equivalent Elmore delay on a lumped RLC stage
  tree (so the optimization exercises the real library end to end).

A repeater of size ``h`` has output resistance ``r0/h``, input
capacitance ``c0*h`` and intrinsic delay ``t0`` (size-independent to
first order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Tuple

from ..circuit.builders import distributed_line
from ..circuit.elements import Section
from ..circuit.tree import RLCTree
from ..errors import ReproError
from ..robustness.guarded import shielded
from ..runtime import ExecutionContext, RuntimeConfig, resolve_context

__all__ = [
    "RepeaterLibrary",
    "LineParameters",
    "RepeaterPlan",
    "bakoglu_rc",
    "stage_delay",
    "optimize_repeaters",
]

DelayModel = Literal["rc", "rlc"]


@dataclass(frozen=True)
class RepeaterLibrary:
    """Minimum-size repeater characterization.

    ``unit_resistance`` and ``unit_capacitance`` are the minimum-size
    device's output resistance and input capacitance; a size-``h``
    repeater has ``r0/h`` and ``c0*h``.
    """

    unit_resistance: float = 1000.0
    unit_capacitance: float = 2e-15
    #: ~R0*C0 keeps the library consistent with Bakoglu's derivation,
    #: which folds the self-loading delay into the stage cost.
    intrinsic_delay: float = 2e-12
    max_size: float = 400.0

    def __post_init__(self):
        if self.unit_resistance <= 0.0 or self.unit_capacitance <= 0.0:
            raise ReproError("repeater unit R and C must be positive")
        if self.intrinsic_delay < 0.0 or self.max_size < 1.0:
            raise ReproError("bad repeater intrinsic delay or max size")

    def output_resistance(self, size: float) -> float:
        return self.unit_resistance / size

    def input_capacitance(self, size: float) -> float:
        return self.unit_capacitance * size


@dataclass(frozen=True)
class LineParameters:
    """Total R/L/C of the line to be repeated."""

    resistance: float
    inductance: float
    capacitance: float

    def __post_init__(self):
        if self.resistance <= 0.0 or self.capacitance <= 0.0:
            raise ReproError("line total R and C must be positive")
        if self.inductance < 0.0:
            raise ReproError("line inductance must be non-negative")


@dataclass(frozen=True)
class RepeaterPlan:
    """One (count, size) repeater solution and its estimated delay."""

    count: int
    size: float
    total_delay: float
    model: DelayModel

    @property
    def stage_count(self) -> int:
        return self.count + 1


@shielded
def bakoglu_rc(line: LineParameters, library: RepeaterLibrary) -> RepeaterPlan:
    """The classic closed-form RC optimum (Bakoglu 1990).

    Returns the k/h rounded into the feasible region, with the RC-model
    delay of that choice (so it can be compared on equal terms with
    :func:`optimize_repeaters`).
    """
    k = math.sqrt(
        0.4 * line.resistance * line.capacitance
        / (0.7 * library.unit_resistance * library.unit_capacitance)
    )
    h = math.sqrt(
        library.unit_resistance * line.capacitance
        / (line.resistance * library.unit_capacitance)
    )
    count = max(int(round(k)) - 1, 0)  # k stages -> k-1 internal repeaters
    size = min(max(h, 1.0), library.max_size)
    delay = total_path_delay(line, library, count, size, "rc")
    return RepeaterPlan(count=count, size=size, total_delay=delay, model="rc")


@shielded
def stage_delay(
    line: LineParameters,
    library: RepeaterLibrary,
    stages: int,
    size: float,
    model: DelayModel,
    wire_sections: int = 8,
    last: bool = False,
    *,
    config: Optional[RuntimeConfig] = None,
    context: Optional[ExecutionContext] = None,
) -> float:
    """Closed-form 50% delay of one repeated stage.

    The stage is an RLC tree: driver resistance ``r0/h``, a lumped wire
    segment carrying ``1/stages`` of the line totals, and (unless it is
    the final stage) the next repeater's input capacitance at the end.
    One point query on a ~10-node tree, so the runtime planner routes
    it to the scalar reference sweep.
    """
    if stages < 1:
        raise ReproError("a line has at least one stage")
    segment = distributed_line(
        line.resistance / stages,
        (line.inductance / stages) if model == "rlc" else 0.0,
        line.capacitance / stages,
        num_sections=wire_sections,
        load_capacitance=0.0 if last else library.input_capacitance(size),
    )
    tree = RLCTree(segment.root)
    tree.add_section(
        "drv",
        segment.root,
        section=Section(library.output_resistance(size), 0.0, 1e-18),
    )
    for name in segment.nodes:
        parent = segment.parent(name)
        tree.add_section(
            name,
            "drv" if parent == segment.root else parent,
            section=segment.section(name),
        )
    session = resolve_context(context, config).session(tree, kind="point")
    return session.value("delay_50", f"n{wire_sections}")


@shielded
def total_path_delay(
    line: LineParameters,
    library: RepeaterLibrary,
    count: int,
    size: float,
    model: DelayModel,
    *,
    config: Optional[RuntimeConfig] = None,
    context: Optional[ExecutionContext] = None,
) -> float:
    """Delay of the whole repeated line: stage delays + intrinsics.

    With ``count`` internal repeaters the line splits into ``count + 1``
    identical stages; every stage but the last drives the next
    repeater's input.
    """
    runtime = resolve_context(context, config)
    stages = count + 1
    inner = stage_delay(
        line, library, stages, size, model, last=False, context=runtime
    )
    final = stage_delay(
        line, library, stages, size, model, last=True, context=runtime
    )
    return count * (inner + library.intrinsic_delay) + final


@shielded
def optimize_repeaters(
    line: LineParameters,
    library: RepeaterLibrary,
    model: DelayModel = "rlc",
    max_count: int = 60,
    *,
    config: Optional[RuntimeConfig] = None,
    context: Optional[ExecutionContext] = None,
) -> RepeaterPlan:
    """Jointly optimize repeater count and size under the chosen model.

    The count is discrete (exhaustive over 0..max_count with early
    stopping once the delay has risen for three consecutive counts); the
    size is continuous (bounded Brent per count). Every stage cost is
    the closed-form equivalent Elmore delay, so the whole optimization
    is simulation-free — the methodology the paper's conclusion calls
    for.
    """
    if model not in ("rc", "rlc"):
        raise ReproError(f"unknown delay model {model!r}; use 'rc' or 'rlc'")
    runtime = resolve_context(context, config)
    from scipy.optimize import minimize_scalar

    best: Tuple[float, int, float] | None = None
    rising_streak = 0
    previous = math.inf
    for count in range(max_count + 1):
        result = minimize_scalar(
            lambda h: total_path_delay(
                line, library, count, h, model, context=runtime
            ),
            bounds=(1.0, library.max_size),
            method="bounded",
            options={"xatol": 1e-3},
        )
        delay = float(result.fun)
        size = float(result.x)
        if best is None or delay < best[0]:
            best = (delay, count, size)
        rising_streak = rising_streak + 1 if delay > previous else 0
        previous = delay
        if rising_streak >= 3:
            break
    assert best is not None
    delay, count, size = best
    return RepeaterPlan(count=count, size=size, total_delay=delay, model=model)
