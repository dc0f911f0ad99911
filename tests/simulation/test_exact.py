"""Unit tests for the exact (modal) simulator.

The key oracle here is the single RLC section, whose step response has a
textbook closed form; deeper trees are cross-checked against the
independent trapezoidal integrator in test_transient.py.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.circuit import random_tree, single_line
from repro.errors import SimulationError
from repro.simulation import (
    ExactSimulator,
    ExponentialSource,
    PWLSource,
    RampSource,
    StepSource,
)
from repro.simulation import exact as exact_module


def analytic_underdamped_step(t, r, l, c):
    """Textbook series-RLC capacitor voltage for a unit step."""
    zeta = 0.5 * r * math.sqrt(c / l)
    wn = 1.0 / math.sqrt(l * c)
    wd = wn * math.sqrt(1 - zeta**2)
    phase = math.acos(zeta)
    return 1.0 - np.exp(-zeta * wn * t) * np.sin(wd * t + phase) / math.sqrt(
        1 - zeta**2
    )


class TestSingleSection:
    R, L, C = 10.0, 2e-9, 1e-12  # zeta ~ 0.11: strongly underdamped

    @pytest.fixture
    def simulator(self):
        return ExactSimulator(
            single_line(1, resistance=self.R, inductance=self.L, capacitance=self.C)
        )

    def test_poles_match_formula(self, simulator):
        # eq. 16 with zeta < 1: -zeta wn +/- j wn sqrt(1 - zeta^2)
        zeta = 0.5 * self.R * math.sqrt(self.C / self.L)
        wn = 1.0 / math.sqrt(self.L * self.C)
        poles = sorted(simulator.poles(), key=lambda p: p.imag)
        assert poles[0].real == pytest.approx(-zeta * wn)
        assert abs(poles[0].imag) == pytest.approx(wn * math.sqrt(1 - zeta**2))

    def test_step_response_matches_textbook(self, simulator):
        t = np.linspace(0, 2e-9, 500)
        expected = analytic_underdamped_step(t, self.R, self.L, self.C)
        np.testing.assert_allclose(
            simulator.step_response("n1", t), expected, atol=1e-10
        )

    def test_transfer_function_formula(self, simulator):
        # H(s) = 1/(1 + RCs + LCs^2)  (eq. 12)
        s = 1j * 2 * math.pi * 1e9
        expected = 1.0 / (1.0 + self.R * self.C * s + self.L * self.C * s * s)
        assert complex(simulator.transfer_function("n1", s)) == pytest.approx(expected)

    def test_dc_gain_unity(self, simulator):
        assert simulator.dc_gain("n1") == pytest.approx(1.0)

    def test_stability(self, simulator):
        assert simulator.is_stable()

    def test_dc_gain_of_critically_damped_section(self):
        # zeta = 1 exactly: A is defective and has no modal basis, but
        # the DC operating point still exists.
        sim = ExactSimulator(
            single_line(1, resistance=2.0, inductance=1e-12, capacitance=1e-12)
        )
        with pytest.raises(SimulationError, match="defective"):
            sim.poles()
        assert sim.dc_gain("n1") == pytest.approx(1.0)


class TestMultiNode:
    def test_response_shapes(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid(points=101)
        single = sim.step_response("n7", t)
        multi = sim.step_response(["n1", "n7"], t)
        assert single.shape == (101,)
        assert multi.shape == (2, 101)
        np.testing.assert_allclose(multi[1], single)

    def test_balanced_siblings_identical(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid(points=301)
        v = sim.step_response(["n4", "n5", "n6", "n7"], t)
        for i in range(1, 4):
            np.testing.assert_allclose(v[i], v[0], atol=1e-12)

    def test_final_values_reach_supply(self, fig8):
        sim = ExactSimulator(fig8)
        t = sim.time_grid(span_factor=20.0, points=501)
        v = sim.step_response(list(fig8.nodes), t, amplitude=2.5)
        np.testing.assert_allclose(v[:, -1], 2.5, rtol=1e-5)

    def test_step_delay_shifts_response(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid(points=2001)
        dt = float(t[1] - t[0])
        shift = 50 * dt
        base = sim.step_response("n7", t)
        delayed = sim.step_response("n7", t, delay=shift)
        np.testing.assert_allclose(delayed[50:], base[:-50], atol=1e-9)
        assert np.all(delayed[t < shift] == 0.0)

    def test_amplitude_scales_linearly(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid(points=101)
        np.testing.assert_allclose(
            sim.step_response("n7", t, amplitude=3.0),
            3.0 * sim.step_response("n7", t),
            atol=1e-12,
        )


class TestSources:
    def test_step_source_equals_step_response(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid(points=201)
        np.testing.assert_allclose(
            sim.response(StepSource(amplitude=1.8), "n7", t),
            sim.step_response("n7", t, amplitude=1.8),
            atol=1e-12,
        )

    def test_slow_exponential_tracks_input(self, fig5):
        # An input much slower than the tree is followed quasi-statically.
        sim = ExactSimulator(fig5)
        slow_tau = 1000.0 * sim.settle_time_estimate()
        src = ExponentialSource(tau=slow_tau)
        t = np.linspace(0, 3 * slow_tau, 300)
        v = sim.response(src, "n7", t)
        np.testing.assert_allclose(v[10:], src(t[10:]), rtol=2e-3)

    def test_fast_exponential_approaches_step(self, fig5):
        sim = ExactSimulator(fig5)
        fast_tau = sim.settle_time_estimate() * 1e-5
        t = sim.time_grid(points=401)
        v_exp = sim.response(ExponentialSource(tau=fast_tau), "n7", t)
        v_step = sim.step_response("n7", t)
        np.testing.assert_allclose(v_exp[5:], v_step[5:], atol=2e-3)

    def test_ramp_final_value(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid(span_factor=20.0, points=501)
        v = sim.response(RampSource(amplitude=1.0, rise_time=t[-1] / 10), "n7", t)
        assert v[-1] == pytest.approx(1.0, rel=1e-5)

    def test_pwl_pulse_returns_to_zero(self, fig5):
        sim = ExactSimulator(fig5)
        settle = sim.settle_time_estimate()
        width = settle / 4
        src = PWLSource.from_points(
            [(0.0, 0.0), (width / 10, 1.0), (width, 1.0), (width * 1.1, 0.0)]
        )
        t = np.linspace(0, 6 * settle, 600)
        v = sim.response(src, "n7", t)
        assert abs(v[-1]) < 1e-4
        assert v.max() > 0.5

    def test_unsupported_source_rejected(self, fig5):
        sim = ExactSimulator(fig5)
        with pytest.raises(SimulationError, match="unsupported"):
            sim.response(lambda t: t, "n7", np.linspace(0, 1e-9, 10))


class TestFrequencyDomain:
    def test_residues_reconstruct_tf(self, fig8):
        sim = ExactSimulator(fig8)
        poles, residues = sim.residues("out")
        s = 1j * 2 * math.pi * np.logspace(7, 10, 20)
        by_residues = (residues[None, :] / (s[:, None] - poles[None, :])).sum(axis=1)
        np.testing.assert_allclose(
            by_residues, np.atleast_1d(sim.transfer_function("out", s)), rtol=1e-9
        )

    def test_frequency_response_low_f_is_unity(self, fig5):
        sim = ExactSimulator(fig5)
        h = sim.frequency_response("n7", np.array([1.0]))  # 1 Hz
        assert abs(complex(h[0])) == pytest.approx(1.0, rel=1e-9)

    def test_modal_summary_partitions_poles(self, fig5):
        sim = ExactSimulator(fig5)
        summary = sim.modal_summary()
        assert len(summary["real"]) + len(summary["complex"]) == sim.order


class TestTimeGrid:
    def test_grid_spans_settling(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid()
        v = sim.step_response("n7", t)
        assert abs(v[-1] - 1.0) < 1e-2

    def test_explicit_end(self, fig5):
        t = ExactSimulator(fig5).time_grid(t_end=5e-9, points=11)
        assert t[-1] == pytest.approx(5e-9)
        assert t.size == 11

    def test_bad_end_rejected(self, fig5):
        with pytest.raises(SimulationError):
            ExactSimulator(fig5).time_grid(t_end=-1.0)


class TestChunkedGrid:
    """Responses are evaluated a block of time columns at a time; the
    block width is a memory bound only, never a change of answer."""

    SOURCES = {
        "step": StepSource(amplitude=1.3, delay=2e-10),
        "exponential": ExponentialSource(tau=3e-10, delay=1e-10),
        "ramp": RampSource(amplitude=1.0, rise_time=4e-10),
        "pwl": PWLSource.from_points(
            [(0.0, 0.0), (1e-10, 1.0), (6e-10, 1.0), (7e-10, 0.0)]
        ),
    }

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_chunk_width_does_not_change_the_response(
        self, name, fig8, monkeypatch
    ):
        sim = ExactSimulator(fig8)
        t = sim.time_grid(points=3001)
        nodes = list(fig8.nodes)
        monkeypatch.setattr(exact_module, "_CHUNK_ENTRIES", 1 << 40)
        whole = sim.response(self.SOURCES[name], nodes, t)
        for entries in (1, 7 * sim.order, 100 * sim.order):
            monkeypatch.setattr(exact_module, "_CHUNK_ENTRIES", entries)
            chunked = sim.response(self.SOURCES[name], nodes, t)
            np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-15)

    def test_realness_check_spans_every_chunk(self, fig5, monkeypatch):
        # One time column per chunk: column 0 carries the peak, column 1
        # an imaginary part that is small only against that peak.
        sim = ExactSimulator(fig5)
        _, _, beta = sim._modal
        weight = sim._gamma("n7") * beta
        k = int(np.argmax(np.abs(weight)))
        monkeypatch.setattr(exact_module, "_CHUNK_ENTRIES", 1)

        def modal_time(values):
            def block(chunk):
                out = np.zeros((beta.size, chunk.size), dtype=complex)
                out[k] = values[chunk.astype(int)] / weight[k]
                return out
            return block

        t = np.array([0.0, 1.0])
        out = sim._combine(["n7"], t, modal_time(np.array([10.0, 0.9e-5j])))
        np.testing.assert_allclose(out, [[10.0, 0.0]], atol=1e-12)
        with pytest.raises(SimulationError, match="imaginary residue"):
            sim._combine(["n7"], t, modal_time(np.array([10.0, 1.1e-5j])))

    def test_long_grid_memory_is_bounded(self):
        # ~200 states over the exact tier's finest grid: whole
        # (modes x grid) complex blocks would need hundreds of MB.
        tree = random_tree(100, np.random.default_rng(0))
        sim = ExactSimulator(tree)
        sim.poles()
        t = sim.time_grid(points=36009)
        node = tree.nodes[-1]
        tracemalloc.start()
        try:
            sim.step_response(node, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
