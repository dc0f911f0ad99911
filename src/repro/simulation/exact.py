"""Exact LTI solver for RLC trees — the library's AS/X stand-in.

The paper validates its closed forms against AS/X, IBM's internal circuit
simulator. An RLC tree driven by an ideal source is a linear
time-invariant network, so its response can be computed to machine
precision from the eigendecomposition of the state matrix: every node
voltage is a sum of modal terms ``gamma_i * z_i(t)`` whose time functions
are known analytically for step, exponential, ramp and piecewise-linear
inputs. That analytic modal solution — not a time-stepping approximation —
is what this module provides, and it is the accuracy oracle for every
benchmark in the repository. The independent trapezoidal integrator in
:mod:`repro.simulation.transient` cross-checks it in the test suite.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.tree import RLCTree
from ..errors import SimulationError
from .sources import ExponentialSource, PWLSource, RampSource, Source, StepSource
from .state_space import StateSpace, build_state_space

__all__ = ["ExactSimulator"]

#: Relative threshold below which ``w + 1/tau`` counts as resonant and the
#: limiting form ``t * exp(w t)`` is used instead of the difference quotient.
_RESONANCE_RTOL = 1e-9

#: Complex entries in one (modes x time columns) block of a response:
#: responses are evaluated a block of time columns at a time, so memory
#: stays bounded however long the grid is (4 MB per temporary).
_CHUNK_ENTRIES = 1 << 18


class ExactSimulator:
    """Analytic modal solution of one RLC tree.

    Parameters
    ----------
    tree:
        The tree to solve. Every node must have positive capacitance
        (see :func:`repro.simulation.state_space.build_state_space`).

    Notes
    -----
    The eigendecomposition is computed once, lazily, and shared by all
    queries. For a tree with m inductive and n total sections the state
    order is n + m and a dense eigensolve costs O((n + m)^3) — entirely
    practical for the tree sizes of timing analysis, and the point of the
    paper is precisely that its O(n) closed forms avoid this cost.
    """

    def __init__(self, tree: RLCTree):
        self._tree = tree
        self._space: StateSpace = build_state_space(tree)

    # -- modal decomposition -------------------------------------------------

    @property
    def tree(self) -> RLCTree:
        return self._tree

    @property
    def state_space(self) -> StateSpace:
        return self._space

    @property
    def order(self) -> int:
        """System order (number of states)."""
        return self._space.order

    @cached_property
    def _modal(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eigenvalues w, eigenvector matrix V, modal input beta)."""
        if not np.all(np.isfinite(self._space.a)):
            raise SimulationError(
                "state matrix contains non-finite entries; the tree's "
                "element values overflow the 1/(RC) and R/L rates in "
                "double precision — rescale to normalized units first"
            )
        w, v = np.linalg.eig(self._space.a)
        condition = np.linalg.cond(v)
        if not np.isfinite(condition) or condition > 1e13:
            raise SimulationError(
                "state matrix is too close to defective for a modal "
                f"solution (eigenvector condition {condition:.2e}); perturb "
                "element values slightly"
            )
        beta = np.linalg.solve(v, self._space.b.astype(complex))
        return w, v, beta

    def poles(self) -> np.ndarray:
        """Exact natural frequencies (eigenvalues of A), unsorted."""
        return self._modal[0].copy()

    def is_stable(self) -> bool:
        """True when every pole lies strictly in the left half plane."""
        return bool(np.all(self._modal[0].real < 0.0))

    def _gamma(self, node: str) -> np.ndarray:
        """Modal output weights for one node voltage."""
        _, v, _ = self._modal
        return self._space.output_row(node).astype(complex) @ v

    def residues(self, node: str) -> Tuple[np.ndarray, np.ndarray]:
        """Poles and residues of the exact transfer function at ``node``.

        ``H(s) = sum_i  r_i / (s - p_i)`` with ``r_i = gamma_i * beta_i``.
        """
        w, _, beta = self._modal
        return w.copy(), self._gamma(node) * beta

    def transfer_function(
        self, node: str, s: Union[complex, np.ndarray]
    ) -> np.ndarray:
        """Exact ``H(s)`` at ``node`` for scalar or array ``s``."""
        poles, residues = self.residues(node)
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        h = (residues[None, :] / (s[:, None] - poles[None, :])).sum(axis=1)
        return h if h.size > 1 else h.reshape(())

    def dc_gain(self, node: str) -> float:
        """H(0); equals 1 for every node of a source-driven tree."""
        return float(np.real(self.transfer_function(node, 0.0)))

    # -- time grids -----------------------------------------------------------

    def time_grid(
        self,
        span_factor: float = 8.0,
        points: int = 2001,
        t_end: Optional[float] = None,
    ) -> np.ndarray:
        """A uniform grid long enough to capture settling.

        The horizon defaults to ``span_factor`` times the slowest modal
        decay constant, which comfortably covers the 50% delay, ringing
        and settling of every node.
        """
        if t_end is None:
            w = self._modal[0]
            decay = np.abs(w.real)
            decay = decay[decay > 0.0]
            if decay.size == 0:
                raise SimulationError(
                    "every mode is undamped (all eigenvalues on the "
                    "imaginary axis); pass t_end explicitly"
                )
            slowest = float(np.max(1.0 / decay))
            t_end = span_factor * slowest
        if t_end <= 0.0:
            raise SimulationError("time horizon must be positive")
        return np.linspace(0.0, t_end, points)

    # -- modal time functions --------------------------------------------------

    @staticmethod
    def _step_modal(w: np.ndarray, t: np.ndarray) -> np.ndarray:
        """z_i(t)/beta_i for a unit step: (exp(w t) - 1)/w."""
        wt = np.outer(w, t)
        return (np.exp(wt) - 1.0) / w[:, None]

    @staticmethod
    def _ramp_modal(w: np.ndarray, t: np.ndarray) -> np.ndarray:
        """z_i(t)/beta_i for a unit-slope ramp: (exp(wt) - 1 - wt)/w^2."""
        wt = np.outer(w, t)
        return (np.exp(wt) - 1.0 - wt) / (w[:, None] ** 2)

    @staticmethod
    def _exp_decay_modal(w: np.ndarray, t: np.ndarray, tau: float) -> np.ndarray:
        """z_i(t)/beta_i for input exp(-t/tau):
        (exp(w t) - exp(-t/tau)) / (w + 1/tau), with the resonant limit
        t * exp(w t) when w is within tolerance of -1/tau."""
        shift = w + 1.0 / tau
        resonant = np.abs(shift) <= _RESONANCE_RTOL * (np.abs(w) + 1.0 / tau)
        safe_shift = np.where(resonant, 1.0, shift)
        wt = np.outer(w, t)
        generic = (np.exp(wt) - np.exp(-t[None, :] / tau)) / safe_shift[:, None]
        limit = t[None, :] * np.exp(wt)
        return np.where(resonant[:, None], limit, generic)

    # -- responses ---------------------------------------------------------------

    def _combine(
        self,
        nodes: Sequence[str],
        t: np.ndarray,
        modal_time: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Map modal trajectories to node voltages; verify realness.

        ``modal_time(chunk)`` gives the (modes, len(chunk)) modal block
        for a slice of ``t``; the blocks are evaluated
        ``_CHUNK_ENTRIES // modes`` time columns at a time. The realness
        check is over the whole grid: the largest imaginary part of any
        chunk against the largest magnitude of any chunk.
        """
        w, _, beta = self._modal
        rows = np.vstack([self._gamma(n) for n in nodes])
        out = np.empty((rows.shape[0], t.size))
        width = max(1, _CHUNK_ENTRIES // w.size)
        peaks, imag_peaks = [], []
        for lo in range(0, t.size, width):
            signal = rows @ (beta[:, None] * modal_time(t[lo:lo + width]))
            peaks.append(np.max(np.abs(signal)))
            imag_peaks.append(np.max(np.abs(signal.imag)))
            out[:, lo:lo + width] = signal.real
        max_signal = float(np.max(peaks)) or 1.0
        max_imag = float(np.max(imag_peaks))
        if max_imag > 1e-6 * max_signal:
            raise SimulationError(
                f"modal recombination left imaginary residue {max_imag:.3e}"
            )
        return out

    def step_response(
        self,
        nodes: Union[str, Sequence[str]],
        t: np.ndarray,
        amplitude: float = 1.0,
        delay: float = 0.0,
    ) -> np.ndarray:
        """Node voltages for a step input.

        Returns an array shaped like ``t`` for a single node name, or
        ``(len(nodes), len(t))`` for a sequence of names.
        """
        single = isinstance(nodes, str)
        names = [nodes] if single else list(nodes)
        w, _, _ = self._modal
        t = np.asarray(t, dtype=float)
        shifted = np.maximum(t - delay, 0.0)
        out = amplitude * self._combine(
            names, shifted, lambda chunk: self._step_modal(w, chunk)
        )
        out[:, t < delay] = 0.0
        return out[0] if single else out

    def response(
        self,
        source: Source,
        nodes: Union[str, Sequence[str]],
        t: np.ndarray,
    ) -> np.ndarray:
        """Node voltages for any supported source.

        Steps and exponentials are solved in closed modal form; ramps and
        PWL waveforms by superposing analytic ramp responses. All are
        exact (no time-stepping error).
        """
        single = isinstance(nodes, str)
        names = [nodes] if single else list(nodes)
        t = np.asarray(t, dtype=float)
        w, _, _ = self._modal

        if isinstance(source, StepSource):
            out = self.step_response(names, t, source.amplitude, source.delay)
        elif isinstance(source, ExponentialSource):
            shifted = np.maximum(t - source.delay, 0.0)
            out = source.amplitude * self._combine(
                names,
                shifted,
                lambda chunk: self._step_modal(w, chunk)
                - self._exp_decay_modal(w, chunk, source.tau),
            )
            out[:, t < source.delay] = 0.0
        elif isinstance(source, (RampSource, PWLSource)):
            segments = source.ramp_segments()

            def ramps(chunk: np.ndarray) -> np.ndarray:
                modal = np.zeros((w.size, chunk.size), dtype=complex)
                for start, slope_change in segments:
                    shifted = np.maximum(chunk - start, 0.0)
                    modal += slope_change * self._ramp_modal(w, shifted)
                return modal

            out = self._combine(names, t, ramps)
        else:
            raise SimulationError(
                f"unsupported source type {type(source).__name__}; use the "
                "trapezoidal simulator for arbitrary waveforms"
            )
        return out[0] if single else out

    # -- convenience ---------------------------------------------------------

    def settle_time_estimate(self) -> float:
        """Crude upper bound on when all modes have decayed to < 0.03%."""
        w = self._modal[0]
        fastest_decay = float(np.min(np.abs(w.real)))
        if fastest_decay == 0.0:
            raise SimulationError(
                "an undamped mode never settles; no settle-time estimate"
            )
        return float(8.0 / fastest_decay)

    def health_report(self) -> list:
        """Numerical-health probes of the modal decomposition.

        Runs the eigensolve (if not already cached) and returns the
        :class:`~repro.robustness.health.HealthProbe` list for it:
        finiteness, eigenvector conditioning, and the backward residual
        of the decomposition. Raises :class:`SimulationError` only when
        the decomposition itself cannot be produced at all.
        """
        from ..robustness.health import eigensystem_probes

        w, v, _ = self._modal
        return eigensystem_probes(self._space.a, w, v)

    def node_names(self) -> Tuple[str, ...]:
        return self._tree.nodes

    def frequency_response(
        self, node: str, frequencies: np.ndarray
    ) -> np.ndarray:
        """H(j 2 pi f) at ``node`` over an array of frequencies in hertz."""
        s = 2j * math.pi * np.asarray(frequencies, dtype=float)
        return np.atleast_1d(self.transfer_function(node, s))

    def modal_summary(self) -> Dict[str, np.ndarray]:
        """Poles split into real and complex-pair groups, for reporting."""
        w = self._modal[0]
        complex_mask = np.abs(w.imag) > 1e-9 * np.abs(w.real)
        return {
            "real": np.sort(w[~complex_mask].real),
            "complex": w[complex_mask],
        }
