"""Analytic sensitivities of the closed-form delay — O(n) gradients.

The paper's conclusion argues its expressions are "useful for
optimization and synthesis" because they are continuous. This module
completes that argument: the closed forms are also *differentiable in
closed form*, so a gradient-based optimizer (wire sizing, spacing,
shielding) gets the exact derivative of the 50% delay at a node with
respect to every section's R, L and C — computed for the whole tree in
O(n), the same cost as the delay itself.

The math, for target node ``i``:

* ``T_RC(i) = sum_{s in path(i)} R_s C_load(s)`` gives
  ``dT_RC/dR_s = C_load(s)`` for path sections (0 otherwise), and
  ``dT_RC/dC_k = R_ki`` — the common-path resistance — for every node
  ``k``. ``R_ki`` for all ``k`` at once is one preorder pass: it is the
  path prefix sum at the deepest path-of-``i`` ancestor of ``k``. The
  ``T_LC`` derivatives are the same shapes with L in place of R.
* With ``w_n = T_LC^(-1/2)`` and ``zeta = T_RC w_n / 2`` (eqs. 29-30),
  the chain rule through the fitted scaled delay ``g(zeta)`` (eq. 33)
  gives ``t_50 = g(zeta)/w_n`` and::

      dt/dx = g'(zeta)/w_n * dzeta/dx - g(zeta)/w_n^2 * dw_n/dx

  with ``g'`` analytic. RC-limit nodes (``T_LC = 0``) use the Elmore
  form ``t = ln 2 * T_RC`` whose gradient is ``ln 2 * dT_RC/dx``.

Every derivative is validated against central finite differences in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Literal, Tuple

from ..circuit.tree import RLCTree
from ..errors import ConfigurationError, TopologyError
from .fitting import DELAY_FIT_COEFFICIENTS, RISE_FIT_COEFFICIENTS

__all__ = [
    "SectionSensitivity",
    "SensitivityReport",
    "delay_sensitivities",
    "scaled_delay_derivative",
    "scaled_rise_derivative",
]

_LN2 = math.log(2.0)
_LN9 = math.log(9.0)

Metric = Literal["delay", "rise"]


def scaled_delay_derivative(zeta: float) -> float:
    """d/dzeta of the eq. 33 fit: ``-(a/b) e^(-zeta/b) + c``."""
    a, b, c = DELAY_FIT_COEFFICIENTS
    return -(a / b) * math.exp(-zeta / b) + c


def scaled_rise_derivative(zeta: float) -> float:
    """d/dzeta of the rise-time rational fit (quotient rule)."""
    n0, n1, n2, n3, d1, d2 = RISE_FIT_COEFFICIENTS
    num = n0 + zeta * (n1 + zeta * (n2 + zeta * n3))
    num_d = n1 + zeta * (2.0 * n2 + zeta * 3.0 * n3)
    den = 1.0 + zeta * (d1 + zeta * d2)
    den_d = d1 + 2.0 * d2 * zeta
    return (num_d * den - num * den_d) / (den * den)


def _scaled_metric(zeta: float, metric: Metric) -> Tuple[float, float]:
    """(g(zeta), g'(zeta)) for the chosen metric."""
    if metric == "delay":
        a, b, c = DELAY_FIT_COEFFICIENTS
        return a * math.exp(-zeta / b) + c * zeta, scaled_delay_derivative(zeta)
    n0, n1, n2, n3, d1, d2 = RISE_FIT_COEFFICIENTS
    num = n0 + zeta * (n1 + zeta * (n2 + zeta * n3))
    den = 1.0 + zeta * (d1 + zeta * d2)
    return num / den, scaled_rise_derivative(zeta)


@dataclass(frozen=True)
class SectionSensitivity:
    """Derivatives of one node's metric w.r.t. one section's values.

    Units: seconds per ohm / per henry / per farad respectively. The
    section's own values are carried along so relative (percent-change)
    impacts can be ranked without the tree at hand.
    """

    section: str
    d_resistance: float
    d_inductance: float
    d_capacitance: float
    resistance: float
    inductance: float
    capacitance: float

    @property
    def relative_impact(self) -> float:
        """|x * dmetric/dx| summed over R, L, C: the metric shift per
        unit *fractional* change of this section."""
        return (
            abs(self.resistance * self.d_resistance)
            + abs(self.inductance * self.d_inductance)
            + abs(self.capacitance * self.d_capacitance)
        )


@dataclass(frozen=True)
class SensitivityReport:
    """Gradient of one node's closed-form metric over the whole tree."""

    node: str
    metric: Metric
    value: float
    sensitivities: Dict[str, SectionSensitivity]

    def wrt_resistance(self, section: str) -> float:
        return self.sensitivities[section].d_resistance

    def wrt_inductance(self, section: str) -> float:
        return self.sensitivities[section].d_inductance

    def wrt_capacitance(self, section: str) -> float:
        return self.sensitivities[section].d_capacitance

    def steepest_sections(self, count: int = 5) -> Tuple[str, ...]:
        """Sections whose *relative* knobs move the metric most:
        ranked by |x * dmetric/dx| summed over R, L, C — the first
        places a sizing optimizer should look."""
        ranked = sorted(
            self.sensitivities.values(),
            key=lambda s: s.relative_impact,
            reverse=True,
        )
        return tuple(s.section for s in ranked[:count])


def delay_sensitivities(
    tree: RLCTree,
    node: str,
    metric: Metric = "delay",
) -> SensitivityReport:
    """Exact gradient of the closed-form metric at ``node``.

    Returns the metric value and, for every section in the tree, its
    partial derivatives. Total cost: three O(n) passes.
    """
    if node not in tree or node == tree.root:
        raise TopologyError(f"unknown node {node!r}")
    if metric not in ("delay", "rise"):
        raise ConfigurationError(
            f"unknown metric {metric!r}; use 'delay' or 'rise'"
        )

    # Imported here: the engine's kernels import repro.analysis at load.
    from ..engine.compiled import compile_tree
    from ..engine.kernels import scalar_metrics

    # The sums, the loads and the metric value come from the engine's
    # compiled passes and O(1) kernel, so ``value`` is bitwise the
    # table's; the chain-rule factors below only add the derivatives.
    compiled = compile_tree(tree)
    i = compiled.topology.index[node]
    all_rc, all_lc = compiled.second_order_sums()
    t_rc, t_lc = float(all_rc[i]), float(all_lc[i])
    loads = dict(zip(
        compiled.names,
        compiled.topology.accumulate(compiled.capacitance).tolist(),
    ))
    # Any settle band will do: only the settling time reads it.
    value = scalar_metrics(t_rc, t_lc, 0.1)[
        "delay_50" if metric == "delay" else "rise_time"
    ]
    path = set(tree.path_to(node))

    # Common-path prefix sums R_ki / L_ki for every k, one preorder pass:
    # carry the prefix at the deepest path-of-node ancestor seen so far.
    prefix_r: Dict[str, float] = {}
    prefix_l: Dict[str, float] = {}
    running_r: Dict[str, float] = {tree.root: 0.0}
    running_l: Dict[str, float] = {tree.root: 0.0}
    common_r: Dict[str, float] = {}
    common_l: Dict[str, float] = {}
    carry_r: Dict[str, float] = {tree.root: 0.0}
    carry_l: Dict[str, float] = {tree.root: 0.0}
    for name in tree.preorder():
        parent = tree.parent(name)
        section = tree.section(name)
        if name in path:
            prefix_r[name] = running_r[parent] + section.resistance
            prefix_l[name] = running_l[parent] + section.inductance
            running_r[name] = prefix_r[name]
            running_l[name] = prefix_l[name]
            carry_r[name] = prefix_r[name]
            carry_l[name] = prefix_l[name]
        else:
            running_r[name] = running_r[parent]
            running_l[name] = running_l[parent]
            carry_r[name] = carry_r[parent]
            carry_l[name] = carry_l[parent]
        common_r[name] = carry_r[name]
        common_l[name] = carry_l[name]

    # Chain rule factors.
    if t_lc > 0.0:
        omega = t_lc ** -0.5
        zeta = 0.5 * t_rc * omega
        g, g_prime = _scaled_metric(zeta, metric)
        # value = g(zeta) * sqrt(T_LC); zeta = T_RC / (2 sqrt(T_LC))
        sqrt_lc = math.sqrt(t_lc)
        dvalue_d_trc = g_prime * 0.5  # dzeta/dT_RC = 1/(2 sqrt) ; * sqrt
        dvalue_d_tlc = (
            g / (2.0 * sqrt_lc)
            - g_prime * t_rc / (4.0 * t_lc)
        )
    else:
        dvalue_d_trc = _LN2 if metric == "delay" else _LN9
        dvalue_d_tlc = 0.0

    sensitivities: Dict[str, SectionSensitivity] = {}
    for name in tree.nodes:
        on_path = name in path
        d_r = dvalue_d_trc * loads[name] if on_path else 0.0
        d_l = dvalue_d_tlc * loads[name] if on_path else 0.0
        d_c = (
            dvalue_d_trc * common_r[name] + dvalue_d_tlc * common_l[name]
        )
        section = tree.section(name)
        sensitivities[name] = SectionSensitivity(
            section=name,
            d_resistance=d_r,
            d_inductance=d_l,
            d_capacitance=d_c,
            resistance=section.resistance,
            inductance=section.inductance,
            capacitance=section.capacitance,
        )

    return SensitivityReport(
        node=node, metric=metric, value=value, sensitivities=sensitivities
    )
