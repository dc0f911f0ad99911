"""Asymptotic Waveform Evaluation (AWE) for RLC trees.

The higher-order baseline of the paper's Section II: match ``2q`` exact
moments of a node's transfer function with a q-pole Pade model
[Pillage & Rohrer 1990, RICE 1991]. Arbitrary accuracy is available by
raising ``q`` — at the price of the numerical and stability issues the
paper cites as the reason the Elmore-style closed forms stay in use.

Moments come from the O(n)-per-order exact engine on the compiled
topology (:meth:`repro.engine.CompiledTree.exact_moments`, the recursion
of :mod:`repro.analysis.moments`), so AWE here is exactly the
"RICE-style" flow: tree -> moments -> Pade -> poles/residues ->
waveform/metrics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuit.tree import RLCTree
from ..engine.compiled import compile_tree
from ..errors import ReductionError
from ..simulation import measures
from .pade import PoleResidueModel, pade_poles_residues

__all__ = ["awe_model", "awe_step_metrics", "awe_delay_50"]


def awe_model(
    tree: RLCTree,
    node: str,
    order: int = 2,
    stable_only: bool = False,
    min_stable_ratio: float = 0.0,
) -> PoleResidueModel:
    """The q-pole AWE model of ``node``'s transfer function.

    ``order=2`` reproduces the moment content the paper's second-order
    model starts from, but with the *exact* second moment and no
    guarantee of stability; higher orders approach the exact response.
    ``min_stable_ratio`` rejects reductions whose Pade table is mostly
    unstable (see :func:`~repro.reduction.pade.pade_poles_residues`).
    """
    compiled = compile_tree(tree)
    slot = compiled.topology.index.get(node)
    if slot is None:
        raise ReductionError(f"unknown node {node!r}")
    moments = compiled.exact_moments(2 * order - 1)[:, slot].tolist()
    return pade_poles_residues(
        moments, order, stable_only=stable_only,
        min_stable_ratio=min_stable_ratio,
    )


def awe_step_metrics(
    tree: RLCTree,
    node: str,
    order: int = 2,
    stable_only: bool = True,
    final_value: float = 1.0,
    points: int = 4001,
    span_factor: float = 10.0,
    t_end: Optional[float] = None,
    min_stable_ratio: float = 0.0,
    settle_band: float = 0.1,
) -> measures.WaveformMetrics:
    """Step-response metrics of the AWE model, measured off its waveform.

    Unlike the paper's model, AWE has no closed-form delay: the reduced
    waveform must be generated and measured, which is what every AWE
    timing flow does. ``stable_only`` defaults to True because an
    unstable reduced model has no measurable 50% delay at all.
    """
    model = awe_model(
        tree, node, order, stable_only=stable_only,
        min_stable_ratio=min_stable_ratio,
    )
    if t_end is None:
        t_end = span_factor * model.dominant_time_constant()
    t = np.linspace(0.0, t_end, points)
    v = model.step_response(t, amplitude=final_value)
    return measures.measure(
        t, v, final_value=final_value, settle_band=settle_band
    )


def awe_delay_50(
    tree: RLCTree,
    node: str,
    order: int = 2,
    stable_only: bool = True,
) -> float:
    """Convenience: the 50% delay of the AWE reduced model."""
    return awe_step_metrics(tree, node, order, stable_only=stable_only).delay_50
