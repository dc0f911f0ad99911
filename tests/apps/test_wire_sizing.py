"""Unit tests for continuous wire sizing."""

import numpy as np
import pytest

from repro.apps import WireSizingProblem, optimize_width, sweep_widths
from repro.errors import ReproError
from repro.runtime import ExecutionContext, RuntimeConfig


@pytest.fixture(scope="module")
def problem():
    return WireSizingProblem()


@pytest.fixture(scope="module")
def parallel():
    with ExecutionContext(RuntimeConfig(workers=2)) as context:
        yield context


class TestPhysicalModel:
    def test_resistance_thins_with_width(self, problem):
        assert problem.wire_resistance(1e-6) > problem.wire_resistance(2e-6)

    def test_capacitance_grows_with_width(self, problem):
        assert problem.wire_capacitance(2e-6) > problem.wire_capacitance(1e-6)

    def test_inductance_shrinks_with_width(self, problem):
        assert problem.wire_inductance(2e-6) < problem.wire_inductance(1e-6)

    def test_tree_totals(self, problem):
        width = 1e-6
        tree = problem.tree(width)
        # Driver section + wire sections; wire totals match the model.
        wire_r = tree.total_resistance() - problem.driver_resistance
        assert wire_r == pytest.approx(problem.wire_resistance(width))
        wire_c = tree.total_capacitance() - problem.load_capacitance - 1e-18
        assert wire_c == pytest.approx(problem.wire_capacitance(width), rel=1e-6)

    def test_rc_variant_tree_has_no_inductance(self, problem):
        assert problem.tree(1e-6, model="rc").is_rc()

    def test_width_bounds_enforced(self, problem):
        with pytest.raises(ReproError):
            problem.delay(problem.max_width * 2)

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            WireSizingProblem(length=-1.0)
        with pytest.raises(ReproError):
            WireSizingProblem(min_width=2e-6, max_width=1e-6)


class TestOptimization:
    def test_interior_optimum(self, problem):
        result = optimize_width(problem)
        assert problem.min_width * 1.5 < result.width < problem.max_width * 0.9

    def test_optimum_beats_bounds(self, problem):
        result = optimize_width(problem)
        assert result.delay < problem.delay(problem.min_width)
        assert result.delay < problem.delay(problem.max_width)

    def test_optimum_is_local_minimum(self, problem):
        result = optimize_width(problem)
        for factor in (0.9, 1.1):
            assert problem.delay(result.width * factor) >= result.delay - 1e-18

    def test_rc_and_rlc_choose_different_widths(self, problem):
        rc = optimize_width(problem, "rc")
        rlc = optimize_width(problem, "rlc")
        assert rc.width != pytest.approx(rlc.width, rel=1e-3)

    def test_result_delay_matches_problem(self, problem):
        result = optimize_width(problem)
        assert problem.delay(result.width, result.model) == pytest.approx(
            result.delay
        )

    def test_evaluation_count_reported(self, problem):
        result = optimize_width(problem)
        assert result.evaluations > 5

    def test_unknown_model_rejected(self, problem):
        with pytest.raises(ReproError):
            optimize_width(problem, "hspice")


class TestDelayCurveShape:
    def test_unimodal_over_width(self, problem):
        """The delay-vs-width curve should fall then rise (one minimum)."""
        widths = np.geomspace(problem.min_width, problem.max_width, 25)
        delays = [problem.delay(w) for w in widths]
        diffs = np.sign(np.diff(delays))
        # Sign changes from -1 to +1 at most once.
        transitions = sum(
            1 for a, b in zip(diffs, diffs[1:]) if a < 0 <= b
        )
        assert transitions <= 1


class TestSweepWidths:
    WIDTHS = np.geomspace(0.3e-6, 8e-6, 9)

    def test_serial_matches_per_width_delay(self, problem):
        delays = sweep_widths(problem, self.WIDTHS)
        expected = [problem.delay(w) for w in self.WIDTHS]
        np.testing.assert_array_equal(delays, expected)

    @pytest.mark.parametrize("model", ["rc", "rlc"])
    def test_workers_bitwise_identical(self, problem, model, parallel):
        serial = sweep_widths(problem, self.WIDTHS, model=model)
        sharded = sweep_widths(
            problem, self.WIDTHS, model=model, context=parallel
        )
        np.testing.assert_array_equal(serial, sharded)

    def test_sweep_brackets_the_optimum(self, problem, parallel):
        result = optimize_width(problem)
        delays = sweep_widths(problem, self.WIDTHS, context=parallel)
        assert delays.min() >= result.delay - 1e-18
        assert delays.min() <= 1.2 * result.delay

    def test_empty_grid(self, problem):
        assert sweep_widths(problem, []).shape == (0,)

    def test_unknown_model_rejected(self, problem):
        with pytest.raises(ReproError):
            sweep_widths(problem, self.WIDTHS, model="hspice")

    def test_out_of_range_width_rejected(self, problem, parallel):
        with pytest.raises(ReproError):
            sweep_widths(problem, [problem.max_width * 2], context=parallel)
