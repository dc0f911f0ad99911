"""Continuous wire sizing under the RLC equivalent Elmore delay.

The second design methodology the paper's conclusion targets: choose a
wire width minimizing delay. Because the paper's delay expression is one
*continuous* function of the tree sums, it can sit directly inside a
numeric optimizer — no case dispatch at damping boundaries, no
simulation in the loop.

Physical model (standard first-order interconnect scaling): a wire of
length ``length`` and width ``w`` has

* resistance ``r_sheet * length / w``          (thins with width),
* area + fringe capacitance ``(c_area * w + c_fringe) * length``,
* inductance ``l0 * length / (1 + l_taper * w)``  (weak width
  dependence: wider wires have slightly lower loop inductance).

The wire drives a lumped receiver load through a driver resistance. The
sized wire is lumped into ``num_sections`` identical sections and the
delay read from the engine's metric table, so the optimization
exercises the real library API end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Optional, Sequence, Tuple

import numpy as np

from ..circuit.builders import distributed_line
from ..circuit.elements import Section
from ..circuit.tree import RLCTree
from ..engine import compile_tree, timing_table
from ..engine.compiled import CompiledTree
from ..errors import ElementValueError, ReproError
from ..robustness.guarded import shielded
from ..runtime import (
    ExecutionContext,
    RuntimeConfig,
    Workload,
    resolve_context,
)
from ..sweep import (
    DEFAULT_CHUNK,
    compile_sweep,
    const,
    iter_sweep,
    scenario_space,
    values_axis,
)

__all__ = [
    "WireSizingProblem",
    "SizingResult",
    "optimize_width",
    "sweep_widths",
]

DelayModel = Literal["rc", "rlc"]


@dataclass(frozen=True)
class WireSizingProblem:
    """One wire-sizing instance.

    Units are SI with width in meters. Defaults describe a 5-mm
    upper-metal line in a late-1990s process, the regime where the
    paper's introduction says inductance matters.
    """

    length: float = 5e-3
    r_sheet: float = 0.04  # ohm/square; R/len = r_sheet / w
    c_area: float = 4e-5  # F/m^2: area capacitance per unit length per width
    c_fringe: float = 4e-11  # F/m: fringe capacitance per unit length
    l0: float = 4e-7  # H/m at w -> 0
    l_taper: float = 2e5  # 1/m: inductance reduction with width
    driver_resistance: float = 30.0
    load_capacitance: float = 50e-15
    min_width: float = 0.2e-6
    max_width: float = 10e-6
    num_sections: int = 20

    def __post_init__(self):
        if self.length <= 0.0 or self.min_width <= 0.0:
            raise ReproError("length and min_width must be positive")
        if self.max_width <= self.min_width:
            raise ReproError("max_width must exceed min_width")

    # -- per-width electrical totals -----------------------------------------

    def wire_resistance(self, width: float) -> float:
        return self.r_sheet * self.length / width

    def wire_capacitance(self, width: float) -> float:
        return (self.c_area * width + self.c_fringe) * self.length

    def wire_inductance(self, width: float) -> float:
        return self.l0 * self.length / (1.0 + self.l_taper * width)

    def tree(self, width: float, model: DelayModel = "rlc") -> RLCTree:
        """The lumped driver + sized-wire + load tree for one width."""
        self._check_width(width)
        inductance = self.wire_inductance(width) if model == "rlc" else 0.0
        line = distributed_line(
            self.wire_resistance(width),
            inductance,
            self.wire_capacitance(width),
            num_sections=self.num_sections,
            load_capacitance=self.load_capacitance,
        )
        # Prepend the driver as a resistive section with negligible C.
        tree = RLCTree(line.root)
        tree.add_section(
            "drv", line.root, section=Section(self.driver_resistance, 0.0, 1e-18)
        )
        for name in line.nodes:
            parent = line.parent(name)
            tree.add_section(
                name,
                "drv" if parent == line.root else parent,
                section=line.section(name),
            )
        return tree

    def sink(self) -> str:
        return f"n{self.num_sections}"

    def compiled_template(self, model: DelayModel = "rlc") -> CompiledTree:
        """The compiled driver+wire structure, built once per problem.

        Every width shares one topology; optimizer loops reuse this
        template and swap in :meth:`value_vectors` per probe instead of
        rebuilding a Python tree each evaluation.
        """
        return _compiled_template(self, model)

    def value_vectors(
        self, width: float, model: DelayModel = "rlc"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-section ``(R, L, C)`` vectors for one width, in the
        compiled template's slot order.

        These are exactly the value vectors ``compile_tree(self.tree(
        width, model))`` would extract — same arithmetic, same slots —
        without building the n-node Python tree, so a width probe costs
        three array fills instead of an O(n) object walk.
        """
        self._check_width(width)
        topology = _compiled_template(self, model).topology
        n = topology.size
        r_sec = self.wire_resistance(width) / self.num_sections
        l_total = self.wire_inductance(width) if model == "rlc" else 0.0
        l_sec = l_total / self.num_sections
        c_sec = self.wire_capacitance(width) / self.num_sections
        resistance = np.full(n, r_sec)
        inductance = np.full(n, l_sec)
        capacitance = np.full(n, c_sec)
        drv = topology.node_index("drv")
        resistance[drv] = self.driver_resistance
        inductance[drv] = 0.0
        capacitance[drv] = 1e-18
        capacitance[topology.node_index(self.sink())] = (
            c_sec + self.load_capacitance
        )
        return resistance, inductance, capacitance

    def delay(self, width: float, model: DelayModel = "rlc") -> float:
        """Closed-form 50% delay at the receiver for one width.

        Every width shares one topology, so the engine's compiled
        structure is reused across optimizer evaluations; only the value
        vectors are re-extracted per width.
        """
        return timing_table(self.tree(width, model)).value(
            "delay_50", self.sink()
        )

    def _check_width(self, width: float) -> None:
        if not (self.min_width <= width <= self.max_width):
            raise ReproError(
                f"width {width!r} outside [{self.min_width}, {self.max_width}]"
            )


@lru_cache(maxsize=32)
def _compiled_template(
    problem: WireSizingProblem, model: DelayModel
) -> CompiledTree:
    return compile_tree(problem.tree(problem.min_width, model))


@dataclass(frozen=True)
class SizingResult:
    """Optimal width and its delay under one model."""

    width: float
    delay: float
    model: DelayModel
    evaluations: int


def _width_sweep(problem: WireSizingProblem, widths, model: DelayModel):
    """The width grid as a compiled lazy sweep over the shared template.

    The per-section expressions replicate
    :meth:`WireSizingProblem.value_vectors` operation for operation
    (which is itself pinned bitwise against ``compile_tree(
    problem.tree(w, model))`` extraction). The driver/sink slot
    overrides are written as mask arithmetic — ``x * 1.0 + 0.0 == x``
    and ``x * 0.0 + c == c`` exactly for finite ``x`` — so every
    scenario row is bitwise the row the eager path stacks.
    """
    template = _compiled_template(problem, model)
    topology = template.topology
    n = topology.size
    drv = topology.node_index("drv")
    snk = topology.node_index(problem.sink())

    axis = values_axis("width", np.asarray(widths, dtype=float))
    w = axis.values
    sections = problem.num_sections
    r_sec = const(problem.r_sheet * problem.length) / w / sections
    if model == "rlc":
        l_sec = (
            const(problem.l0 * problem.length)
            / (1.0 + const(problem.l_taper) * w)
            / sections
        )
    else:
        l_sec = const(0.0)
    c_sec = (
        (const(problem.c_area) * w + const(problem.c_fringe))
        * problem.length
        / sections
    )
    wire = np.ones(n)
    wire[drv] = 0.0
    r_over = np.zeros(n)
    r_over[drv] = problem.driver_resistance
    c_mask = np.ones(n)
    c_mask[drv] = 0.0
    c_over = np.zeros(n)
    c_over[drv] = 1e-18
    c_over[snk] = problem.load_capacitance
    return template, compile_sweep(
        scenario_space(axis),
        resistance=r_sec * const(wire) + const(r_over),
        inductance=l_sec * const(wire),
        capacitance=c_sec * const(c_mask) + const(c_over),
    )


@shielded
def sweep_widths(
    problem: WireSizingProblem,
    widths: Sequence[float],
    model: DelayModel = "rlc",
    *,
    chunk_size: Optional[int] = None,
    eager: bool = False,
    config: Optional[RuntimeConfig] = None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Receiver delay at every width of a grid, shape ``(len(widths),)``.

    The presweep companion to :func:`optimize_width`: design-space
    exploration evaluates the delay on a whole width grid (sensitivity
    maps, pareto plots, seeding the scalar search), and every width
    shares one topology — exactly the scenario-sweep shape.

    The grid is built as a *lazy sweep* (:mod:`repro.sweep`) over the
    problem's compiled template: the width axis and the per-section
    ``R/L/C`` expressions replicate the tree-extraction arithmetic, the
    executor stages bounded ``(chunk, 3, n)`` blocks, and each chunk
    dispatches through the execution runtime's calibrated
    serial/sharded crossover. The staged rows are the identical value
    vectors every path extracts and the sharded kernels replicate the
    serial arithmetic operation for operation, so the returned delays
    are **bitwise identical** whichever backend the planner picks, for
    any ``chunk_size``.

    ``eager=True`` is the escape hatch onto the materialized path: one
    compiled tree per width, one stacked ``(S, 3, n)`` block, one batch
    dispatch. Same bits, eager memory profile.
    """
    if model not in ("rc", "rlc"):
        raise ReproError(f"unknown delay model {model!r}; use 'rc' or 'rlc'")
    runtime = resolve_context(context, config)
    widths = [float(w) for w in widths]
    if not widths:
        return np.empty(0)
    for width in widths:
        problem._check_width(width)

    if eager:
        compiled = [compile_tree(problem.tree(w, model)) for w in widths]
        block = np.stack(
            [
                np.stack([ct.resistance, ct.inductance, ct.capacitance])
                for ct in compiled
            ]
        )
        batch = runtime.batch(compiled[0], block, metrics=("delay_50",))
        delays = batch.column("delay_50", problem.sink())
    else:
        template, sweep = _width_sweep(problem, widths, model)
        chunk = DEFAULT_CHUNK if chunk_size is None else int(chunk_size)
        delays = np.empty(len(widths))
        sink = problem.sink()
        for lo, batch in iter_sweep(
            sweep,
            template,
            chunk_size=chunk,
            metrics=("delay_50",),
            context=runtime,
        ):
            delays[lo : lo + batch.scenarios] = batch.column(
                "delay_50", sink
            )
    if not np.all(np.isfinite(delays)):
        raise ElementValueError(
            "width sweep produced non-finite delays; the sized wire left "
            "the closed forms' domain"
        )
    return delays


@shielded
def optimize_width(
    problem: WireSizingProblem,
    model: DelayModel = "rlc",
    tolerance: float = 1e-9,
    *,
    config: Optional[RuntimeConfig] = None,
    context: Optional[ExecutionContext] = None,
) -> SizingResult:
    """Minimize receiver delay over wire width (bounded scalar search).

    The delay is unimodal in width for this physical model (narrow wires
    are resistance-limited, wide wires capacitance-limited), so bounded
    Brent search is appropriate and cheap — each evaluation is two O(n)
    tree sweeps, the property the paper's closed forms exist to provide.

    The probe loop is an edit-stream workload, so the runtime planner
    routes it to the delta-update backend: every width probe is three
    array fills (:meth:`WireSizingProblem.value_vectors`), a bulk value
    load, and a point query at the sink on one
    :class:`~repro.engine.incremental.IncrementalAnalyzer` over the
    problem's compiled template — no per-probe tree construction or
    full-table evaluation. Forcing any other backend (``config=
    RuntimeConfig(backend="compiled")``) probes through
    :meth:`WireSizingProblem.delay` instead; both paths evaluate the
    same kernel arithmetic on the same value vectors.
    """
    if model not in ("rc", "rlc"):
        raise ReproError(f"unknown delay model {model!r}; use 'rc' or 'rlc'")
    runtime = resolve_context(context, config)
    decision = runtime.plan(
        Workload(
            kind="edit",
            tree_size=problem.num_sections + 2,
            edit_count=problem.num_sections,
        )
    )
    evaluations = 0

    if decision.backend == "incremental":
        session = runtime.session(
            problem.compiled_template(model), backend="incremental", kind="edit"
        )
        analyzer = session.editor()
        sink = problem.sink()

        def objective(width: float) -> float:
            nonlocal evaluations
            evaluations += 1
            resistance, inductance, capacitance = problem.value_vectors(
                width, model
            )
            analyzer.set_values(
                resistance=resistance,
                inductance=inductance,
                capacitance=capacitance,
            )
            return analyzer.value("delay_50", sink)

    else:

        def objective(width: float) -> float:
            nonlocal evaluations
            evaluations += 1
            with runtime.track(decision.backend, "edit"):
                return problem.delay(width, model)

    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        objective,
        bounds=(problem.min_width, problem.max_width),
        method="bounded",
        options={"xatol": tolerance * (problem.max_width - problem.min_width)},
    )
    if not result.success:
        raise ReproError(f"width optimization failed: {result.message}")
    width = float(result.x)
    if math.isnan(width):
        raise ReproError("width optimization returned NaN")
    return SizingResult(
        width=width,
        delay=float(result.fun),
        model=model,
        evaluations=evaluations,
    )
