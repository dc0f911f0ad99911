"""Trapezoidal transient integration.

A second, independent solver: fixed-step trapezoidal integration of the
same state-space model the exact solver uses. Trapezoidal is the
workhorse companion-model method of SPICE-class simulators — A-stable, no
numerical damping — so it is both a realistic "circuit simulator"
reference and a cross-check that the eigendecomposition path in
:mod:`repro.simulation.exact` was assembled correctly (the two agree to
integration tolerance on every supported input, which the test suite
asserts).

Unlike the exact solver it accepts *any* callable input waveform.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple, Union

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import SimulationError
from .sources import Source
from .state_space import StateSpace, build_state_space

__all__ = ["TrapezoidalSimulator", "simulate_transient"]


class TrapezoidalSimulator:
    """Fixed-step trapezoidal integrator for one RLC tree.

    The step update for ``dx/dt = A x + b u`` is::

        (I - h/2 A) x[k+1] = (I + h/2 A) x[k] + h/2 b (u[k] + u[k+1])

    The left-hand matrix is LU-factorized once per step size, so a full
    transient costs one factorization plus one triangular solve per step.
    """

    def __init__(self, tree: RLCTree):
        self._tree = tree
        self._space: StateSpace = build_state_space(tree)
        self._cached_h: float | None = None
        self._cached_lu = None
        self._cached_rhs: np.ndarray | None = None

    @property
    def state_space(self) -> StateSpace:
        return self._space

    def _factor(self, h: float) -> None:
        if self._cached_h == h:
            return
        from scipy.linalg import lu_factor

        n = self._space.order
        identity = np.eye(n)
        self._cached_lu = lu_factor(identity - 0.5 * h * self._space.a)
        self._cached_rhs = identity + 0.5 * h * self._space.a
        self._cached_h = h

    def run(
        self,
        source: Union[Source, Callable[[float], float]],
        nodes: Union[str, Sequence[str]],
        t: np.ndarray,
    ) -> np.ndarray:
        """Integrate over the uniform grid ``t`` and sample node voltages.

        ``source`` may be any callable mapping time to source voltage.
        Returns an array shaped like ``t`` for a single node name, or
        ``(len(nodes), len(t))`` for a sequence.
        """
        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise SimulationError("time grid needs at least two points")
        steps = np.diff(t)
        h = float(steps[0])
        if h <= 0.0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
            raise SimulationError("trapezoidal integration needs a uniform grid")
        self._factor(h)
        from scipy.linalg import lu_solve

        single = isinstance(nodes, str)
        names = [nodes] if single else list(nodes)
        c = self._space.output_matrix(names)

        u = np.asarray([float(source(time)) for time in t])
        x = np.zeros(self._space.order)
        out = np.empty((len(names), t.size))
        out[:, 0] = c @ x
        b = self._space.b
        for k in range(t.size - 1):
            rhs = self._cached_rhs @ x + 0.5 * h * b * (u[k] + u[k + 1])
            x = lu_solve(self._cached_lu, rhs)
            out[:, k + 1] = c @ x
        return out[0] if single else out


def simulate_transient(
    tree: RLCTree,
    source: Union[Source, Callable[[float], float]],
    nodes: Union[str, Sequence[str]],
    t_end: float,
    steps: int = 4000,
) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot helper: build a grid, run the integrator, return (t, v)."""
    if t_end <= 0.0:
        raise SimulationError("t_end must be positive")
    if steps < 2:
        raise SimulationError("need at least two steps")
    t = np.linspace(0.0, t_end, steps + 1)
    return t, TrapezoidalSimulator(tree).run(source, nodes, t)
