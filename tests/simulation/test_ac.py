"""Unit tests for frequency-domain helpers."""

import math

import numpy as np
import pytest

from repro.circuit import scale_tree_to_zeta, single_line
from repro.errors import SimulationError
from repro.simulation import (
    ExactSimulator,
    bandwidth_3db,
    resonant_peak_db,
    sweep,
)


class TestSweep:
    def test_accepts_tree_or_simulator(self, fig5):
        by_tree = sweep(fig5, "n7", points=50)
        by_sim = sweep(ExactSimulator(fig5), "n7", points=50)
        np.testing.assert_allclose(by_tree.response, by_sim.response)

    def test_default_limits_bracket_poles(self, fig5):
        result = sweep(fig5, "n7")
        poles = ExactSimulator(fig5).poles()
        pole_freqs = np.abs(poles) / (2 * math.pi)
        assert result.frequency[0] <= pole_freqs.min()
        assert result.frequency[-1] >= pole_freqs.max()

    def test_dc_magnitude_unity(self, fig5):
        result = sweep(fig5, "n7", f_start=1.0, f_stop=1e12, points=100)
        assert result.magnitude[0] == pytest.approx(1.0, rel=1e-6)
        assert result.magnitude_db[0] == pytest.approx(0.0, abs=1e-4)

    def test_highband_rolloff(self, fig5):
        result = sweep(fig5, "n7")
        assert result.magnitude[-1] < 1e-2

    def test_bad_limits_rejected(self, fig5):
        with pytest.raises(SimulationError):
            sweep(fig5, "n7", f_start=1e9, f_stop=1e6)
        with pytest.raises(SimulationError):
            sweep(fig5, "n7", f_start=0.0, f_stop=1e9)

    def test_phase_monotone_decreasing_overall(self, fig5):
        result = sweep(fig5, "n7")
        assert result.phase_degrees[-1] < result.phase_degrees[0]


class TestBandwidth:
    def test_single_pole_rc_bandwidth(self):
        # One RC section: f_3dB = 1/(2 pi R C).
        r, c = 1000.0, 1e-12
        line = single_line(1, resistance=r, inductance=0.0, capacitance=c)
        result = sweep(line, "n1", points=2000)
        expected = 1.0 / (2 * math.pi * r * c)
        assert bandwidth_3db(result) == pytest.approx(expected, rel=1e-2)

    def test_none_when_sweep_too_narrow(self, fig5):
        result = sweep(fig5, "n7", f_start=1.0, f_stop=10.0, points=20)
        assert bandwidth_3db(result) is None


class TestResonantPeak:
    def test_underdamped_peaks(self, fig5):
        ringing = scale_tree_to_zeta(fig5, "n7", 0.3)
        assert resonant_peak_db(sweep(ringing, "n7")) > 3.0

    def test_overdamped_flat(self, fig5):
        damped = scale_tree_to_zeta(fig5, "n7", 3.0)
        assert resonant_peak_db(sweep(damped, "n7")) < 0.5

    def test_more_damping_less_peak(self, fig5):
        peaks = [
            resonant_peak_db(sweep(scale_tree_to_zeta(fig5, "n7", z), "n7"))
            for z in (0.2, 0.4, 0.8)
        ]
        assert peaks[0] > peaks[1] > peaks[2]
