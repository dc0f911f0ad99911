"""Unit tests for the TreeAnalyzer front end."""

import math

import numpy as np
import pytest

from repro.analysis import TreeAnalyzer, elmore_sums
from repro.circuit import scale_tree_to_zeta, single_line
from repro.errors import ConfigurationError, ElementValueError, TopologyError
from repro.circuit import RLCTree, Section


class TestPrimitives:
    def test_sums_match_moments_module(self, fig8):
        analyzer = TreeAnalyzer(fig8)
        reference = elmore_sums(fig8)
        for node in fig8.nodes:
            t_rc, _ = analyzer.sums(node)
            assert t_rc == pytest.approx(reference[node])

    def test_zeta_definition(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        t_rc, t_lc = analyzer.sums("n7")
        assert analyzer.zeta("n7") == pytest.approx(
            t_rc / (2 * math.sqrt(t_lc))
        )

    def test_scaled_tree_hits_zeta(self, fig5):
        tree = scale_tree_to_zeta(fig5, "n7", 0.42)
        assert TreeAnalyzer(tree).zeta("n7") == pytest.approx(0.42)

    def test_unknown_node(self, fig5):
        with pytest.raises(TopologyError):
            TreeAnalyzer(fig5).sums("zzz")

    def test_empty_tree_rejected(self):
        with pytest.raises(TopologyError):
            TreeAnalyzer(RLCTree())

    def test_bad_band_rejected(self, fig5):
        with pytest.raises(ConfigurationError):
            TreeAnalyzer(fig5, settle_band=0.0)


class TestRCLimit:
    def test_rc_tree_reports_infinite_zeta(self, rc_line):
        analyzer = TreeAnalyzer(rc_line)
        assert analyzer.zeta("n5") == math.inf
        assert analyzer.omega_n("n5") == math.inf
        assert analyzer.model("n5") is None

    def test_rc_delay_is_elmore(self, rc_line):
        analyzer = TreeAnalyzer(rc_line)
        t_rc, _ = analyzer.sums("n5")
        assert analyzer.delay_50("n5") == pytest.approx(math.log(2) * t_rc)
        assert analyzer.rise_time("n5") == pytest.approx(math.log(9) * t_rc)

    def test_rc_overshoot_zero(self, rc_line):
        analyzer = TreeAnalyzer(rc_line)
        assert analyzer.overshoot("n5") == 0.0
        assert analyzer.overshoots("n5") == []

    def test_rc_step_waveform_single_pole(self, rc_line):
        analyzer = TreeAnalyzer(rc_line)
        t_rc, _ = analyzer.sums("n5")
        t = np.linspace(0, 10 * t_rc, 200)
        v = analyzer.step_waveform("n5", t)
        np.testing.assert_allclose(v, 1.0 - np.exp(-t / t_rc), atol=1e-12)

    def test_rc_waveform_rejects_shaped_source(self, rc_line):
        from repro.simulation import StepSource

        with pytest.raises(ElementValueError, match="RC limit"):
            TreeAnalyzer(rc_line).waveform("n5", StepSource(), np.zeros(4))

    def test_rlc_delay_approaches_elmore_for_tiny_l(self):
        heavy = single_line(4, resistance=100.0, inductance=1e-15,
                            capacitance=1e-12)
        analyzer = TreeAnalyzer(heavy)
        assert analyzer.delay_50("n4") == pytest.approx(
            analyzer.elmore_delay("n4"), rel=0.01
        )


class TestMetrics:
    def test_timing_bundle_consistent(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        timing = analyzer.timing("n7")
        assert timing.delay_50 == pytest.approx(analyzer.delay_50("n7"))
        assert timing.rise_time == pytest.approx(analyzer.rise_time("n7"))
        assert timing.zeta == pytest.approx(analyzer.zeta("n7"))
        assert timing.overshoot == pytest.approx(analyzer.overshoot("n7"))
        assert timing.settling == pytest.approx(analyzer.settling_time("n7"))
        assert timing.elmore_delay == pytest.approx(analyzer.elmore_delay("n7"))

    def test_delay_monotone_along_path(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        assert (
            analyzer.delay_50("n1")
            < analyzer.delay_50("n3")
            < analyzer.delay_50("n7")
        )

    def test_report_covers_all_nodes(self, fig8):
        report = TreeAnalyzer(fig8).report()
        assert {t.node for t in report} == set(fig8.nodes)

    def test_report_subset(self, fig5):
        report = TreeAnalyzer(fig5).report(["n1", "n7"])
        assert [t.node for t in report] == ["n1", "n7"]

    def test_critical_sink_is_a_leaf(self, fig8):
        analyzer = TreeAnalyzer(fig8)
        critical = analyzer.critical_sink()
        assert critical.node in fig8.leaves()
        assert critical.delay_50 == max(
            analyzer.delay_50(s) for s in fig8.leaves()
        )

    def test_underdamped_flags(self, fig5):
        ringing = scale_tree_to_zeta(fig5, "n7", 0.4)
        timing = TreeAnalyzer(ringing).timing("n7")
        assert timing.is_underdamped
        assert timing.overshoot > 0.1

    def test_balanced_sinks_identical(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        delays = {analyzer.delay_50(s) for s in fig5.leaves()}
        assert max(delays) == pytest.approx(min(delays))


class TestWaveforms:
    def test_step_waveform_matches_model(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        model = analyzer.model("n7")
        t = analyzer.time_grid("n7", points=301)
        np.testing.assert_allclose(
            analyzer.step_waveform("n7", t), model.step_response(t)
        )

    def test_time_grid_covers_settling(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        t = analyzer.time_grid("n7")
        assert t[-1] > analyzer.settling_time("n7")
        v = analyzer.step_waveform("n7", t)
        assert v[-1] == pytest.approx(1.0, abs=2e-2)

    def test_waveform_with_source(self, fig5):
        from repro.simulation import ExponentialSource

        analyzer = TreeAnalyzer(fig5)
        t = analyzer.time_grid("n7", points=501)
        v = analyzer.waveform("n7", ExponentialSource(tau=t[-1] / 30), t)
        assert v[-1] == pytest.approx(1.0, rel=5e-2)


class TestMixedTree:
    def test_mixed_rc_rlc_nodes(self):
        """A tree where one path has inductance and the other does not:
        T_LC can be zero at some nodes and positive at others."""
        tree = RLCTree()
        tree.add_section("a", "in", section=Section(10.0, 0.0, 1e-12))
        tree.add_section("rc", "a", section=Section(10.0, 0.0, 1e-12))
        tree.add_section("rl", "a", section=Section(10.0, 5e-9, 1e-12))
        analyzer = TreeAnalyzer(tree)
        assert analyzer.zeta("rc") == math.inf
        assert analyzer.zeta("rl") < math.inf
        assert analyzer.delay_50("rc") > 0
        assert analyzer.delay_50("rl") > 0


class TestScalarTimingBuildsModelOnce:
    def test_scalar_timing_matches_individual_accessors(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        for node in fig5.nodes:
            timing = analyzer.timing(node)
            assert timing.zeta == analyzer.zeta(node)
            assert timing.omega_n == analyzer.omega_n(node)
            assert timing.delay_50 == analyzer.delay_50(node)
            assert timing.rise_time == analyzer.rise_time(node)
            assert timing.overshoot == analyzer.overshoot(node)
            assert timing.settling == analyzer.settling_time(node)
