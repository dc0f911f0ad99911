"""Unit tests for the Section-IV iterative method (shaped-input metrics)."""

import math

import pytest

from repro.analysis import (
    SecondOrderModel,
    TreeAnalyzer,
    input_crossing,
    response_metrics,
    scaled_delay_exact,
    scaled_rise_exact,
)
from repro.circuit import fig5_tree, scale_tree_to_zeta
from repro.errors import ElementValueError, SimulationError
from repro.simulation import (
    ExactSimulator,
    ExponentialSource,
    PWLSource,
    RampSource,
    StepSource,
    measures,
)

WN = 1e10


class TestInputCrossing:
    def test_step(self):
        assert input_crossing(StepSource(delay=2e-9), 0.5) == 2e-9

    def test_ramp(self):
        src = RampSource(rise_time=4e-9, delay=1e-9)
        assert input_crossing(src, 0.5) == pytest.approx(3e-9)
        assert input_crossing(src, 0.25) == pytest.approx(2e-9)

    def test_exponential(self):
        src = ExponentialSource(tau=1e-9)
        assert input_crossing(src, 0.5) == pytest.approx(math.log(2) * 1e-9)
        assert input_crossing(src, 0.9) == pytest.approx(src.rise_time_90)

    def test_pwl(self):
        src = PWLSource.from_points([(0.0, 0.0), (2e-9, 1.0)])
        assert input_crossing(src, 0.5) == pytest.approx(1e-9)

    def test_crossing_is_on_waveform(self):
        for src in (
            RampSource(rise_time=3e-9),
            ExponentialSource(tau=0.7e-9),
            PWLSource.from_points([(0.0, 0.0), (1e-9, 0.4), (3e-9, 1.0)]),
        ):
            t = input_crossing(src, 0.5)
            assert float(src(t)) == pytest.approx(0.5 * src.final_value,
                                                  rel=1e-6)

    def test_level_validation(self):
        with pytest.raises(SimulationError):
            input_crossing(StepSource(), 1.5)


class TestStepConsistency:
    """With a step input the iterative method must land on the exact
    scaled crossings (not the fit — the true values)."""

    @pytest.mark.parametrize("zeta", [0.3, 0.8, 1.0, 2.0])
    def test_matches_exact_scaled_metrics(self, zeta):
        model = SecondOrderModel(zeta=zeta, omega_n=WN)
        metrics = response_metrics(model)
        assert metrics.delay_50 == pytest.approx(
            scaled_delay_exact(zeta) / WN, rel=1e-6
        )
        assert metrics.rise_time == pytest.approx(
            scaled_rise_exact(zeta) / WN, rel=1e-6
        )

    def test_step_overshoot_matches_eq39(self):
        from repro.analysis import overshoot_fraction

        model = SecondOrderModel(zeta=0.4, omega_n=WN)
        metrics = response_metrics(model)
        assert metrics.overshoot == pytest.approx(
            overshoot_fraction(model, 1), rel=1e-3
        )

    def test_step_input_crossing_zero(self):
        model = SecondOrderModel(zeta=1.0, omega_n=WN)
        metrics = response_metrics(model)
        assert metrics.input_t50 == 0.0
        assert metrics.t50_absolute == metrics.delay_50


class TestShapedInputs:
    def test_slow_ramp_delay_is_first_moment(self):
        """For an input much slower than the node, the output is the
        input delayed by the transfer function's group delay at DC —
        i.e. the first moment ``2 zeta / w_n`` (Elmore's original time
        constant), *not* the 50%-crossing step delay."""
        model = SecondOrderModel(zeta=0.3, omega_n=WN)
        slow = response_metrics(
            model, RampSource(rise_time=2e4 / WN)
        ).delay_50
        assert slow == pytest.approx(2 * 0.3 / WN, rel=1e-3)
        # and that is clearly different from the step delay at low zeta
        assert slow < 0.7 * response_metrics(model).delay_50

    def test_fast_exponential_approaches_step_metrics(self):
        model = SecondOrderModel(zeta=0.7, omega_n=WN)
        step = response_metrics(model)
        fast = response_metrics(model, ExponentialSource(tau=1e-5 / WN))
        assert fast.delay_50 == pytest.approx(step.delay_50, rel=1e-3)
        assert fast.rise_time == pytest.approx(step.rise_time, rel=1e-3)

    def test_overshoot_shrinks_with_slower_input(self):
        model = SecondOrderModel(zeta=0.3, omega_n=WN)
        overshoots = [
            response_metrics(model, ExponentialSource(tau=tau / WN)).overshoot
            for tau in (0.01, 1.0, 10.0)
        ]
        assert overshoots[0] > overshoots[1] > overshoots[2]

    def test_amplitude_invariance(self):
        model = SecondOrderModel(zeta=0.8, omega_n=WN)
        unit = response_metrics(model, ExponentialSource(tau=2 / WN))
        scaled = response_metrics(
            model, ExponentialSource(tau=2 / WN, amplitude=3.3)
        )
        assert scaled.delay_50 == pytest.approx(unit.delay_50, rel=1e-9)
        assert scaled.rise_time == pytest.approx(unit.rise_time, rel=1e-9)

    def test_against_simulated_crossings(self):
        """End to end: iterative-method crossings vs the exact simulator
        under the same exponential input."""
        tree = scale_tree_to_zeta(fig5_tree(), "n7", 0.6)
        analyzer = TreeAnalyzer(tree)
        simulator = ExactSimulator(tree)
        source = ExponentialSource(tau=3e-11)
        t = simulator.time_grid(points=20001, span_factor=16.0)
        waveform = simulator.response(source, "n7", t)
        simulated_t50 = measures.threshold_crossing(t, waveform, 0.5)
        predicted = analyzer.metrics_for("n7", source)
        assert predicted.t50_absolute == pytest.approx(simulated_t50,
                                                       rel=0.08)


class TestAnalyzerIntegration:
    def test_metrics_for_default_consistency(self):
        tree = scale_tree_to_zeta(fig5_tree(), "n7", 0.7)
        analyzer = TreeAnalyzer(tree)
        iterative = analyzer.metrics_for("n7", StepSource())
        fitted = analyzer.delay_50("n7")
        # Fit error only (the fit is within ~3% of the true crossing).
        assert iterative.delay_50 == pytest.approx(fitted, rel=0.04)

    def test_rc_node_rejected(self, rc_line):
        with pytest.raises(ElementValueError, match="RC limit"):
            TreeAnalyzer(rc_line).metrics_for("n5", StepSource())

    def test_zero_final_value_rejected(self):
        model = SecondOrderModel(zeta=1.0, omega_n=WN)
        with pytest.raises(SimulationError, match="zero"):
            response_metrics(model, StepSource(amplitude=0.0))
