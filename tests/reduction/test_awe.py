"""Unit tests for the AWE baseline against the exact simulator."""

import numpy as np
import pytest

from repro.circuit import balanced_tree, scale_tree_to_zeta
from repro.errors import ReductionError
from repro.reduction import awe_delay_50, awe_model, awe_step_metrics
from repro.simulation import ExactSimulator, measure


@pytest.fixture
def exact_fig8_metrics(fig8):
    sim = ExactSimulator(fig8)
    t = sim.time_grid(points=8001, span_factor=14.0)
    return measure(t, sim.step_response("out", t))


class TestAccuracyLadder:
    def test_delay_error_decreases_with_order(self, fig8, exact_fig8_metrics):
        """AWE's selling point: accuracy improves with q."""
        reference = exact_fig8_metrics.delay_50
        errors = []
        for order in (2, 6, 8):
            delay = awe_delay_50(fig8, "out", order)
            errors.append(abs(delay - reference) / reference)
        # AWE converges non-monotonically, but high order must win.
        assert errors[2] < errors[0]
        assert errors[2] < 0.01

    def test_high_order_matches_waveform(self, fig8):
        sim = ExactSimulator(fig8)
        t = sim.time_grid(points=2001)
        reference = sim.step_response("out", t)
        model = awe_model(fig8, "out", 8)
        np.testing.assert_allclose(
            model.step_response(t), reference, atol=2e-2
        )

    def test_model_matches_exact_moments(self, fig8):
        from repro.analysis import exact_moments

        model = awe_model(fig8, "out", 3)
        expected = exact_moments(fig8, 5)["out"]
        np.testing.assert_allclose(model.moments(5), expected, rtol=1e-6)


class TestBalancedTreeCancellation:
    """Section V-B: a balanced tree's sinks see only n effective poles
    (one per level), so AWE saturates exactly there."""

    def test_exact_at_level_count(self, fig5):
        sim = ExactSimulator(fig5)
        t = sim.time_grid(points=2001)
        reference = sim.step_response("n7", t)
        model = awe_model(fig5, "n7", 6)  # 3 levels -> 6 poles (L + C each)
        np.testing.assert_allclose(model.step_response(t), reference, atol=1e-6)

    def test_moment_matrix_singular_beyond(self, fig5):
        with pytest.raises(ReductionError, match="fewer|singular"):
            awe_model(fig5, "n7", 8)


class TestInterface:
    def test_unknown_node(self, fig8):
        with pytest.raises(ReductionError):
            awe_model(fig8, "nope", 2)

    def test_step_metrics_bundle(self, fig8, exact_fig8_metrics):
        metrics = awe_step_metrics(fig8, "out", order=5)
        assert metrics.delay_50 == pytest.approx(
            exact_fig8_metrics.delay_50, rel=0.10
        )
        assert metrics.rise_time == pytest.approx(
            exact_fig8_metrics.rise_time, rel=0.20
        )

    def test_order_two_on_underdamped_tree(self, fig5):
        ringing = scale_tree_to_zeta(fig5, "n7", 0.5)
        model = awe_model(ringing, "n7", 2)
        assert model.order == 2
        assert model.dc_gain() == pytest.approx(1.0, rel=1e-9)

    def test_larger_tree(self):
        tree = balanced_tree(4, 2, resistance=20.0, inductance=2e-9,
                             capacitance=0.2e-12)
        sink = tree.leaves()[0]
        sim = ExactSimulator(tree)
        t = sim.time_grid(points=8001, span_factor=14.0)
        reference = measure(t, sim.step_response(sink, t)).delay_50
        assert awe_delay_50(tree, sink, 6) == pytest.approx(reference, rel=0.02)
