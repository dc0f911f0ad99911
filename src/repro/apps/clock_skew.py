"""Clock-tree skew analysis: RC Elmore vs the RLC equivalent delay.

Clock distribution networks are the paper's canonical habitat for
on-chip inductance — wide, low-resistance upper-metal wires. This module
builds parameterized H-tree-style clock networks and compares, sink by
sink, the delay under three models:

* the classic RC Elmore (Wyatt) delay,
* the paper's RLC equivalent Elmore delay,
* exact simulation (the ground truth).

The figures of merit mirror the clock-skew fidelity studies the paper
cites [26]: worst skew under each model and the rank correlation between
each model's sink ordering and the exact ordering. A model can be
numerically off while still ranking paths correctly — that fidelity is
what makes Elmore-style metrics usable inside optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.builders import balanced_tree
from ..circuit.elements import Section
from ..circuit.tree import RLCTree
from ..errors import ReproError
from ..robustness.guarded import shielded
from ..runtime import ExecutionContext, resolve_context
from ..simulation.exact import ExactSimulator
from ..simulation.measures import delay_50 as measure_delay_50

__all__ = ["h_tree", "SkewReport", "skew_report", "perturbed_clock_tree"]


@shielded
def h_tree(
    levels: int = 4,
    trunk: Optional[Section] = None,
    taper: float = 2.0,
    root: str = "in",
) -> RLCTree:
    """A binary clock tree with per-level impedance tapering.

    Models the H-tree idiom: each level halves the wire width, so R and L
    double per level while C halves (narrower, shorter branches). The
    ``taper`` factor controls that progression; ``taper=1`` gives a
    uniform balanced tree. Trunk defaults to a wide, inductance-heavy
    top-level wire (10 ohm, 8 nH, 1 pF).
    """
    if levels < 1:
        raise ReproError("an H-tree needs at least one level")
    if taper <= 0.0 or not math.isfinite(taper):
        raise ReproError(f"taper must be positive and finite, got {taper!r}")
    if trunk is None:
        trunk = Section(10.0, 8e-9, 1e-12)
    level_sections = [
        Section(
            trunk.resistance * taper**level,
            trunk.inductance * taper**level,
            trunk.capacitance / taper**level,
        )
        for level in range(levels)
    ]
    return balanced_tree(levels, 2, level_sections=level_sections, root=root)


@shielded
def perturbed_clock_tree(
    base: RLCTree,
    relative_spread: float = 0.1,
    seed: int = 0,
) -> RLCTree:
    """A process-variation copy: each section's R/L/C jittered log-normally.

    A perfectly balanced tree has zero skew under *every* model, which
    makes comparisons degenerate; realistic skew studies perturb the
    branches (process variation, load mismatch). The perturbation is
    deterministic per seed.
    """
    if relative_spread < 0.0:
        raise ReproError("relative_spread must be non-negative")
    rng = np.random.default_rng(seed)
    sigma = math.log1p(relative_spread)

    def jitter(name: str, section: Section) -> Section:
        factors = np.exp(rng.normal(0.0, sigma, size=3))
        return Section(
            section.resistance * factors[0],
            section.inductance * factors[1],
            section.capacitance * factors[2],
        )

    return base.map_sections(jitter)


@dataclass(frozen=True)
class SkewReport:
    """Per-model clock skew and fidelity versus exact simulation."""

    sinks: Tuple[str, ...]
    exact_delays: Dict[str, float]
    rlc_delays: Dict[str, float]
    rc_delays: Dict[str, float]

    @staticmethod
    def _skew(delays: Dict[str, float]) -> float:
        values = list(delays.values())
        return max(values) - min(values)

    @property
    def exact_skew(self) -> float:
        return self._skew(self.exact_delays)

    @property
    def rlc_skew(self) -> float:
        return self._skew(self.rlc_delays)

    @property
    def rc_skew(self) -> float:
        return self._skew(self.rc_delays)

    def _correlation(self, delays: Dict[str, float]) -> float:
        exact = [self.exact_delays[s] for s in self.sinks]
        model = [delays[s] for s in self.sinks]
        if len(self.sinks) < 3:
            raise ReproError("rank correlation needs at least 3 sinks")
        from scipy.stats import spearmanr

        rho = spearmanr(exact, model).statistic
        return float(rho)

    @property
    def rlc_rank_correlation(self) -> float:
        """Spearman rho of RLC-model sink ordering vs exact."""
        return self._correlation(self.rlc_delays)

    @property
    def rc_rank_correlation(self) -> float:
        """Spearman rho of RC-Elmore sink ordering vs exact."""
        return self._correlation(self.rc_delays)

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(sink, exact, rlc, rc) delay rows for reporting."""
        return [
            (
                sink,
                self.exact_delays[sink],
                self.rlc_delays[sink],
                self.rc_delays[sink],
            )
            for sink in self.sinks
        ]


@shielded
def skew_report(
    tree: RLCTree,
    points: int = 4001,
    span_factor: float = 10.0,
    *,
    context: Optional[ExecutionContext] = None,
) -> SkewReport:
    """Compute the three-model skew comparison for one clock tree.

    Both closed-form columns come out of one runtime session — a
    full-table workload, so every sink's RLC and RC delay is read from
    the same planner-chosen backend state.
    """
    sinks = tree.leaves()
    if not sinks:
        raise ReproError("tree has no sinks")
    session = resolve_context(context).session(tree)
    rlc = {s: session.value("delay_50", s) for s in sinks}
    rc = {s: session.value("elmore_delay", s) for s in sinks}

    simulator = ExactSimulator(tree)
    t = simulator.time_grid(span_factor=span_factor, points=points)
    waveforms = simulator.step_response(list(sinks), t)
    exact = {
        sink: measure_delay_50(t, waveforms[i]) for i, sink in enumerate(sinks)
    }
    return SkewReport(
        sinks=tuple(sinks), exact_delays=exact, rlc_delays=rlc, rc_delays=rc
    )
