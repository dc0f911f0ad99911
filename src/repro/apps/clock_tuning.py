"""Gradient-based clock-tree skew tuning.

The sensitivity module turns the paper's closed forms into a real
optimizer: this app equalizes the sink delays of a mismatched clock tree
by adjusting per-section wire widths, steered entirely by the analytic
O(n) delay gradient — no simulation inside the loop, exactly the
methodology the paper's conclusion advertises.

Width model (per section, nominal values at width 1):

    R(w) = R0 / w        C(w) = C0 * w        L(w) = L0

(L's width dependence is an order of magnitude weaker than R's and C's;
keeping it fixed is the standard first-order sizing model.) The
objective is the skew variance ``J = sum_sinks (D_i - mean)^2``, whose
gradient with respect to the widths comes from per-sink
:func:`~repro.analysis.sensitivity.delay_sensitivities` by the chain
rule. Descent uses a normalized step with backtracking, projected onto
``[min_width, max_width]``.

The result is verified the honest way: the tuned tree's *exact
simulated* skew is reported next to the model's claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.sensitivity import delay_sensitivities
from ..circuit.elements import Section
from ..circuit.tree import RLCTree
from ..engine import compile_tree
from ..errors import ReproError
from ..robustness.guarded import shielded
from ..runtime import ExecutionContext, Workload, resolve_context
from ..sweep import clip, compile_sweep, const, run_sweep, scenario_space, values_axis

__all__ = ["TuningResult", "tune_clock_tree", "apply_widths", "model_skew"]


@shielded
def apply_widths(tree: RLCTree, widths: Dict[str, float]) -> RLCTree:
    """The tree with each section resized to its width factor."""
    def resize(name: str, section: Section) -> Section:
        width = widths.get(name, 1.0)
        return Section(
            section.resistance / width,
            section.inductance,
            section.capacitance * width,
        )

    return tree.map_sections(resize)


@shielded
def model_skew(
    tree: RLCTree,
    *,
    context: Optional[ExecutionContext] = None,
) -> float:
    """Closed-form skew: max - min sink delay.

    The sink delays come through one runtime session — a full-table
    workload, so the planner lands on the compiled engine: one pair of
    vectorized tree sweeps rather than per-sink queries, and descent
    iterations over resized copies of one tree reuse the compiled
    topology.
    """
    session = resolve_context(context).session(tree)
    delays = [session.value("delay_50", sink) for sink in tree.leaves()]
    return max(delays) - min(delays)


def _objective_and_gradient(
    nominal: RLCTree, widths: Dict[str, float]
) -> Tuple[float, Dict[str, float]]:
    """Skew variance and its width gradient at the current point."""
    sized = apply_widths(nominal, widths)
    sinks = sized.leaves()
    reports = {sink: delay_sensitivities(sized, sink) for sink in sinks}
    delays = np.array([reports[s].value for s in sinks])
    mean = float(delays.mean())
    objective = float(((delays - mean) ** 2).sum())

    gradient = {name: 0.0 for name in nominal.nodes}
    for sink, deviation in zip(sinks, delays - mean):
        report = reports[sink]
        for name in nominal.nodes:
            base = nominal.section(name)
            width = widths.get(name, 1.0)
            sens = report.sensitivities[name]
            # dD/dw = dD/dR * dR/dw + dD/dC * dC/dw
            d_width = (
                sens.d_resistance * (-base.resistance / width**2)
                + sens.d_capacitance * base.capacitance
            )
            gradient[name] += 2.0 * deviation * d_width
    return objective, gradient


class _CascadeObjective:
    """Backtracking cascades scored as one lazy sweep per iteration.

    The per-proposal descent evaluates backtracking candidates one at a
    time — propose with ``step``, reject, halve, repeat. But given the
    current point and gradient, the whole halving cascade is known up
    front, so all candidates can be scored in *one* chunked batch pass
    over the compiled nominal structure: the candidate width factors
    are a clipped expression over a step axis, and accept/reject is a
    scan over the returned objectives. The factor arithmetic replicates
    the per-name proposal operation for operation (and all four
    backends answer with bitwise-identical metrics), so the accepted
    widths, objective trace and iteration counts are identical to the
    one-at-a-time loop.
    """

    def __init__(self, nominal: RLCTree, runtime: ExecutionContext):
        compiled = compile_tree(nominal)
        self._runtime = runtime
        self._compiled = compiled
        self.names = compiled.names
        self._r0 = const(compiled.resistance)
        self._l0 = const(compiled.inductance)
        self._c0 = const(compiled.capacitance)
        self._sinks = nominal.leaves()

    def __call__(
        self,
        width_vec: np.ndarray,
        grad_vec: np.ndarray,
        largest: float,
        steps: List[float],
        min_width: float,
        max_width: float,
    ) -> List[float]:
        axis = values_axis("step", np.asarray(steps, dtype=float))
        factors = clip(
            const(width_vec)
            * (1.0 - axis.values * const(grad_vec) / largest),
            min_width,
            max_width,
        )
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=self._r0 / factors,
            inductance=self._l0,
            capacitance=self._c0 * factors,
        )
        result = run_sweep(
            sweep,
            self._compiled,
            nodes=self._sinks,
            metrics=("delay_50",),
            chunk_size=len(steps),
            context=self._runtime,
        )
        delays = np.stack(
            [result.column("delay_50", sink) for sink in self._sinks]
        )
        objectives = []
        for k in range(len(steps)):
            column = delays[:, k]
            objectives.append(float(((column - column.mean()) ** 2).sum()))
        return objectives


def _tune_lazy(
    tree: RLCTree,
    runtime: ExecutionContext,
    skew_before: float,
    iterations: int,
    initial_step: float,
    min_width: float,
    max_width: float,
    tolerance: float,
) -> "TuningResult":
    """Descent with each backtracking cascade scored as one lazy sweep.

    Candidate accounting matches the per-proposal loop exactly: the
    cascade for one descent point is the halving sequence that loop
    would probe one at a time, capped by the remaining iteration
    budget, and ``performed`` advances by the number of candidates it
    would have burned before accepting (or exhausting) the cascade.
    """
    widths: Dict[str, float] = {name: 1.0 for name in tree.nodes}
    cascade = _CascadeObjective(tree, runtime)
    names = cascade.names
    count = len(names)
    objective = cascade(
        np.ones(count), np.zeros(count), 1.0, [0.0], min_width, max_width
    )[0]
    gradient = _objective_and_gradient(tree, widths)[1]
    trace: List[float] = [objective]
    step = initial_step
    performed = 0

    while performed < iterations:
        largest = max(abs(g) for g in gradient.values())
        if largest == 0.0:
            break
        steps = [step]
        while steps[-1] * 0.5 >= 1e-4 and len(steps) < iterations - performed:
            steps.append(steps[-1] * 0.5)
        width_vec = np.array([widths.get(name, 1.0) for name in names])
        grad_vec = np.array([gradient.get(name, 0.0) for name in names])
        scores = cascade(
            width_vec, grad_vec, largest, steps, min_width, max_width
        )
        accept = next(
            (k for k, score in enumerate(scores) if score < objective), None
        )
        if accept is None:
            performed += len(steps)
            step = steps[-1] * 0.5
            if step < 1e-4:
                break
            continue
        performed += accept + 1
        step = steps[accept]
        proposal = {
            name: float(
                np.clip(
                    widths[name] * (1.0 - step * gradient[name] / largest),
                    min_width,
                    max_width,
                )
            )
            for name in widths
        }
        improvement = (objective - scores[accept]) / objective
        widths, objective = proposal, scores[accept]
        trace.append(objective)
        if improvement < tolerance:
            break
        gradient = _objective_and_gradient(tree, widths)[1]

    tuned = apply_widths(tree, widths)
    return TuningResult(
        widths=widths,
        tuned_tree=tuned,
        skew_before=skew_before,
        skew_after=model_skew(tuned, context=runtime),
        objective_trace=tuple(trace),
        iterations=performed,
    )


@dataclass(frozen=True)
class TuningResult:
    """Outcome of the width-tuning descent."""

    widths: Dict[str, float]
    tuned_tree: RLCTree
    skew_before: float
    skew_after: float
    objective_trace: Tuple[float, ...]
    iterations: int

    @property
    def improvement(self) -> float:
        """Fractional skew reduction (0.9 = 90% of the skew removed)."""
        if self.skew_before == 0.0:
            return 0.0
        return 1.0 - self.skew_after / self.skew_before


@shielded
def tune_clock_tree(
    tree: RLCTree,
    iterations: int = 40,
    initial_step: float = 0.05,
    min_width: float = 0.25,
    max_width: float = 4.0,
    tolerance: float = 1e-4,
    *,
    context: Optional[ExecutionContext] = None,
) -> TuningResult:
    """Equalize sink delays by per-section width descent.

    ``initial_step`` is the largest fractional width change per
    iteration; backtracking halves it whenever a step fails to improve
    the objective. Stops early once the skew variance improves by less
    than ``tolerance`` (relative) over an iteration.

    The descent is an edit-stream workload. On the default planner
    path the whole backtracking cascade of each iteration is scored as
    *one* lazy sweep (:class:`_CascadeObjective`): the halving sequence
    the loop would otherwise probe one proposal at a time becomes a
    step axis, the candidate widths a clipped expression over it, and
    one chunked batch pass returns every candidate objective — same
    accepted widths, objective trace and iteration count as the
    one-at-a-time loop. A context forcing any non-incremental backend
    (``RuntimeConfig(backend="compiled")``) runs that loop instead,
    scoring each proposal with :func:`delay_sensitivities`; it is the
    reference the cascade is pinned against.
    """
    if tree.size == 0 or len(tree.leaves()) < 2:
        raise ReproError("tuning needs a tree with at least two sinks")
    if not 0.0 < min_width < 1.0 <= max_width:
        raise ReproError("need 0 < min_width < 1 <= max_width")
    if iterations < 1:
        raise ReproError("need at least one iteration")

    runtime = resolve_context(context)
    decision = runtime.plan(
        Workload(kind="edit", tree_size=tree.size, edit_count=iterations)
    )
    skew_before = model_skew(tree, context=runtime)
    if decision.backend == "incremental":
        return _tune_lazy(
            tree,
            runtime,
            skew_before,
            iterations,
            initial_step,
            min_width,
            max_width,
            tolerance,
        )

    widths: Dict[str, float] = {name: 1.0 for name in tree.nodes}
    objective, gradient = _objective_and_gradient(tree, widths)
    trace: List[float] = [objective]
    step = initial_step
    performed = 0

    for _ in range(iterations):
        largest = max(abs(g) for g in gradient.values())
        if largest == 0.0:
            break
        proposal = {
            name: float(
                np.clip(
                    widths[name] * (1.0 - step * gradient[name] / largest),
                    min_width,
                    max_width,
                )
            )
            for name in widths
        }
        new_objective, new_gradient = _objective_and_gradient(
            tree, proposal
        )
        performed += 1
        if new_objective < objective:
            improvement = (objective - new_objective) / objective
            widths, objective = proposal, new_objective
            trace.append(objective)
            if improvement < tolerance:
                break
            gradient = new_gradient
        else:
            step *= 0.5
            if step < 1e-4:
                break

    tuned = apply_widths(tree, widths)
    return TuningResult(
        widths=widths,
        tuned_tree=tuned,
        skew_before=skew_before,
        skew_after=model_skew(tuned, context=runtime),
        objective_trace=tuple(trace),
        iterations=performed,
    )
