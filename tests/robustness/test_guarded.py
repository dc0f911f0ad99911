"""The guarded fallback-chain analyzer."""

import math

import numpy as np
import pytest

from repro import GuardedAnalyzer, TreeAnalyzer
from repro.circuit import RLCTree, single_line
from repro.errors import (
    ConfigurationError,
    FallbackExhaustedError,
    NumericalHealthError,
    ReproError,
    SimulationError,
    TopologyError,
    ValidationError,
)
from repro.robustness import RepairPolicy
from repro.robustness.faults import _bypass
from repro.robustness.guarded import shielded
from repro.robustness.health import characteristic_scales, rescale_tree
from repro.simulation import measures
from repro.simulation.exact import ExactSimulator

pytestmark = pytest.mark.robustness

METRICS = ("delay_50", "rise_time", "overshoot", "settling_time")


def stiff_tree():
    """Fast path plus a nearly lossless slow branch; R spans 1e12.

    The slow branch's decay time (2L/R ~ 2e6 s) dominates the global
    modal grid, leaving the fast node's crossings unresolved there.
    """
    tree = RLCTree()
    tree.add_section("a", "in", resistance=1e3, inductance=1e-9,
                     capacitance=1e-12)
    tree.add_section("b", "a", resistance=1e3, inductance=1e-9,
                     capacitance=1e-12)
    tree.add_section("slow", "a", resistance=1e-10, inductance=1e-3,
                     capacitance=1e-15)
    return tree


def overflow_tree():
    """Subnormal capacitances: 1/(RC) overflows the state matrix."""
    tree = RLCTree()
    tree.add_section("x", "in", resistance=1.0, inductance=0.0,
                     capacitance=1e-310)
    tree.add_section("y", "x", resistance=1.0, inductance=1e-319,
                     capacitance=1e-310)
    return tree


class TestConfiguration:
    def test_default_chain(self, fig5):
        guarded = GuardedAnalyzer(fig5)
        assert guarded.chain == ("closed-form", "awe", "exact")

    def test_unknown_tier_rejected(self, fig5):
        with pytest.raises(ConfigurationError):
            GuardedAnalyzer(fig5, chain=("closed-form", "spice"))

    def test_empty_chain_rejected(self, fig5):
        with pytest.raises(ConfigurationError):
            GuardedAnalyzer(fig5, chain=())

    def test_bad_awe_order_rejected(self, fig5):
        with pytest.raises(ConfigurationError):
            GuardedAnalyzer(fig5, awe_order=0)

    def test_unknown_metric_rejected(self, fig5):
        with pytest.raises(ConfigurationError):
            GuardedAnalyzer(fig5).query("slew", "n7")

    def test_unknown_node_rejected(self, fig5):
        with pytest.raises(TopologyError):
            GuardedAnalyzer(fig5).query("delay_50", "zzz")

    def test_invalid_tree_rejected_up_front(self, fig5):
        bad = fig5.map_sections(
            lambda name, s:
            _bypass(s, resistance=float("nan")) if name == "n3" else s
        )
        with pytest.raises(ValidationError):
            GuardedAnalyzer(bad)

    def test_repair_policy_rescues_invalid_tree(self, fig5):
        bad = fig5.map_sections(
            lambda name, s:
            _bypass(s, resistance=float("nan")) if name == "n3" else s
        )
        guarded = GuardedAnalyzer(bad, policy=RepairPolicy.repair_all())
        assert math.isfinite(guarded.delay_50("n7"))


class TestAgreementOnFriendlyTrees:
    """On well-behaved input the guard must be invisible."""

    def test_matches_closed_form(self, fig5):
        guarded = GuardedAnalyzer(fig5)
        plain = TreeAnalyzer(fig5)
        for node in fig5.nodes:
            for metric in METRICS:
                report = guarded.query(metric, node)
                assert report.tier == "closed-form"
                assert not report.degraded
                assert report.value == getattr(plain, metric)(node)

    def test_timing_carries_reports(self, fig5):
        timing = GuardedAnalyzer(fig5).timing("n7")
        assert len(timing.reports) == len(METRICS)
        assert not timing.degraded
        assert timing.delay_50 == TreeAnalyzer(fig5).delay_50("n7")
        assert math.isfinite(timing.elmore_delay)

    def test_report_covers_all_nodes(self, fig5):
        rows = GuardedAnalyzer(fig5).report()
        assert [r.node for r in rows] == list(fig5.nodes)


class TestFallbackChain:
    def test_awe_tier_answers_when_closed_form_excluded(self, fig5):
        guarded = GuardedAnalyzer(fig5, chain=("awe",))
        report = guarded.query("delay_50", "n7")
        assert report.tier == "awe"
        # AWE order 3 matches the closed form to a few percent here.
        reference = TreeAnalyzer(fig5).delay_50("n7")
        assert report.value == pytest.approx(reference, rel=0.1)

    def test_exact_tier_answers_when_others_excluded(self, fig5):
        guarded = GuardedAnalyzer(fig5, chain=("exact",))
        report = guarded.query("delay_50", "n7")
        assert report.tier == "exact"
        reference = TreeAnalyzer(fig5).delay_50("n7")
        assert report.value == pytest.approx(reference, rel=0.05)

    def test_attempts_record_every_tier(self, fig5):
        report = GuardedAnalyzer(fig5).query("delay_50", "n7")
        assert [a.tier for a in report.attempts] == ["closed-form"]
        assert report.attempts[0].status == "ok"

    def test_degraded_chain_records_the_failed_tier(self):
        # Zero capacitance everywhere: AWE's moments are degenerate and
        # the reduction fails, but the exact tier runs on the
        # epsilon-capacitance floor and still answers.
        tree = single_line(3, resistance=10.0, inductance=0.0,
                           capacitance=0.0)
        guarded = GuardedAnalyzer(tree, chain=("awe", "exact"))
        report = guarded.query("delay_50", tree.nodes[-1])
        assert report.tier == "exact"
        assert report.degraded
        assert [a.tier for a in report.attempts] == ["awe", "exact"]
        assert report.attempts[0].status == "failed"
        assert "ReductionError" in report.attempts[0].detail

    def test_fallback_exhausted_is_typed(self):
        # With only the AWE tier available the same tree has nowhere
        # left to go; the failure must surface as the typed chain error.
        tree = single_line(3, resistance=10.0, inductance=0.0,
                           capacitance=0.0)
        guarded = GuardedAnalyzer(tree, chain=("awe",))
        with pytest.raises(FallbackExhaustedError) as excinfo:
            guarded.query("delay_50", tree.nodes[-1])
        attempts = excinfo.value.attempts
        assert [a.tier for a in attempts] == ["awe"]
        assert attempts[0].status == "failed"
        assert isinstance(excinfo.value, ReproError)


class TestEscalationCost:
    """An escalated row builds one AWE model and the exact tier has a
    state budget; neither changes what the reports record."""

    @pytest.fixture
    def awe_calls(self, monkeypatch):
        from repro.reduction import awe

        calls = []
        original = awe.awe_step_metrics

        def counting(tree, node, **kwargs):
            calls.append(node)
            return original(tree, node, **kwargs)

        monkeypatch.setattr(awe, "awe_step_metrics", counting)
        return calls

    @pytest.mark.parametrize("tree_name", ["fig5", "zero-capacitance"])
    def test_awe_model_built_once_per_node(self, fig5, awe_calls, tree_name):
        # fig5: AWE answers; the zero-capacitance line: AWE fails, and the
        # memoized failure is what every metric's attempt records.
        if tree_name == "fig5":
            tree, chain = fig5, ("awe",)
        else:
            tree = single_line(3, resistance=10.0, inductance=0.0,
                               capacitance=0.0)
            chain = ("awe", "exact")
        rows = GuardedAnalyzer(tree, chain=chain).report()
        assert sorted(awe_calls) == sorted(tree.nodes)
        for row in rows:
            for report in row.reports:
                # One analyzer per query builds the model afresh.
                alone = GuardedAnalyzer(tree, chain=chain).query(
                    report.metric, row.node
                )
                assert report == alone
                assert str(report) == str(alone)

    def test_exact_tier_declines_a_tree_over_budget(self, monkeypatch):
        from repro.robustness import guarded as module

        tree = single_line(3, resistance=10.0, inductance=1e-9,
                           capacitance=1e-12)  # 6 states
        monkeypatch.setattr(module, "EXACT_STATE_BUDGET", 5)
        built = []
        monkeypatch.setattr(
            GuardedAnalyzer, "_exact_backend",
            lambda self, attempt: built.append(attempt),
        )
        guarded = GuardedAnalyzer(tree, chain=("exact",))
        with pytest.raises(FallbackExhaustedError) as excinfo:
            guarded.query("delay_50", tree.nodes[-1])
        (attempt,) = excinfo.value.attempts
        assert attempt.status == "failed"
        assert attempt.detail.startswith("SimulationError: over budget: 6")
        assert built == []

    def test_exact_tier_simulates_at_the_budget(self, monkeypatch):
        from repro.robustness import guarded as module

        tree = single_line(3, resistance=10.0, inductance=1e-9,
                           capacitance=1e-12)
        monkeypatch.setattr(module, "EXACT_STATE_BUDGET", 6)
        report = GuardedAnalyzer(tree, chain=("exact",)).query(
            "delay_50", tree.nodes[-1]
        )
        assert report.tier == "exact"
        assert report.attempts[0].status == "ok"


class TestStiffTreeAcceptance:
    """ISSUE acceptance: >= 1e12 element spread, 1% agreement."""

    def test_element_spread_exceeds_1e12(self):
        values = [s.resistance for _, s in stiff_tree().sections()]
        assert max(values) / min(values) >= 1e12

    def test_unguarded_grid_degrades(self):
        # The global modal grid spans the slow branch's ~1e6 s decay;
        # the fast node's 50% crossing lands in its first bin and the
        # measured delay is off by > 100%.
        tree = stiff_tree()
        simulator = ExactSimulator(tree)
        t = simulator.time_grid(points=4001)
        degraded = measures.delay_50(t, simulator.step_response("b", t))
        reference = self._reference_delay(tree)
        assert abs(degraded - reference) / reference > 1.0

    def test_guarded_agrees_within_1_percent(self):
        tree = stiff_tree()
        guarded = GuardedAnalyzer(tree, chain=("exact",))
        report = guarded.query("delay_50", "b")
        assert report.tier == "exact"
        reference = self._reference_delay(tree)
        assert report.value == pytest.approx(reference, rel=0.01)

    @staticmethod
    def _reference_delay(tree):
        """Exact delay measured on a deliberately well-chosen grid."""
        simulator = ExactSimulator(tree)
        t = np.linspace(0.0, 2e-8, 40001)
        return measures.delay_50(t, simulator.step_response("b", t))


class TestOverflowTreeAcceptance:
    """ISSUE acceptance: rescaling-retry rescues a failing exact solve."""

    def test_unguarded_path_fails(self):
        with pytest.raises(SimulationError):
            simulator = ExactSimulator(overflow_tree())
            simulator.time_grid(points=101)

    def test_guarded_rescaling_retry_agrees_within_1_percent(self):
        tree = overflow_tree()
        guarded = GuardedAnalyzer(tree, chain=("exact",))
        report = guarded.query("delay_50", "y")
        assert report.tier == "exact"
        assert report.attempts[-1].rescaled

        # Reference: solve in normalized units by hand and scale back
        # (delay(tree) = tau * delay(rescaled) exactly).
        tau, z = characteristic_scales(tree)
        scaled = rescale_tree(tree, tau, z)
        simulator = ExactSimulator(scaled)
        t = np.linspace(0.0, 50.0, 40001)
        reference = tau * measures.delay_50(
            t, simulator.step_response("y", t)
        )
        assert report.value == pytest.approx(reference, rel=0.01)


class TestShielded:
    def test_converts_raw_numerical_failures(self):
        @shielded
        def explode():
            return np.linalg.solve(np.zeros((2, 2)), np.ones(2))

        with pytest.raises(NumericalHealthError) as excinfo:
            explode()
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    def test_passes_repro_errors_through(self):
        @shielded
        def typed():
            raise SimulationError("already typed")

        with pytest.raises(SimulationError):
            typed()

    def test_converts_zero_division(self):
        @shielded
        def divide():
            return 1.0 / 0.0

        with pytest.raises(NumericalHealthError):
            divide()

    def test_transparent_on_success(self):
        @shielded
        def fine():
            return 42

        assert fine() == 42
        assert fine.__name__ == "fine"

    def test_apps_entry_points_are_shielded(self):
        from repro.apps import buffer_insertion, clock_skew, wire_sizing

        for fn in (buffer_insertion.insert_buffers,
                   clock_skew.skew_report,
                   wire_sizing.optimize_width):
            assert hasattr(fn, "__wrapped__")
