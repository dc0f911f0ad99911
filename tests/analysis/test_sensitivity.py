"""Unit tests for the analytic delay/rise gradients, validated against
central finite differences on the closed forms themselves."""

import math

import numpy as np
import pytest

from repro.analysis import (
    TreeAnalyzer,
    delay_sensitivities,
    scaled_delay,
    scaled_delay_derivative,
    scaled_rise,
    scaled_rise_derivative,
)
from repro.circuit import Section, random_tree
from repro.errors import ConfigurationError, TopologyError


def finite_difference(tree, node, section, attribute, metric, h_rel=1e-6):
    """Central difference of the closed-form metric."""
    base = tree.section(section)
    values = {
        "resistance": base.resistance,
        "inductance": base.inductance,
        "capacitance": base.capacitance,
    }
    h = values[attribute] * h_rel if values[attribute] else 1e-16

    def metric_with(delta):
        bumped = dict(values)
        bumped[attribute] += delta
        patched = tree.map_sections(
            lambda name, s: Section(**bumped) if name == section else s
        )
        analyzer = TreeAnalyzer(patched)
        return (
            analyzer.delay_50(node) if metric == "delay"
            else analyzer.rise_time(node)
        )

    return (metric_with(h) - metric_with(-h)) / (2.0 * h)


class TestScaledDerivatives:
    @pytest.mark.parametrize("zeta", [0.2, 0.7, 1.0, 2.0, 4.0])
    def test_delay_derivative_matches_fd(self, zeta):
        h = 1e-7
        numeric = (scaled_delay(zeta + h) - scaled_delay(zeta - h)) / (2 * h)
        assert scaled_delay_derivative(zeta) == pytest.approx(numeric, rel=1e-5)

    @pytest.mark.parametrize("zeta", [0.2, 0.7, 1.0, 2.0, 4.0])
    def test_rise_derivative_matches_fd(self, zeta):
        h = 1e-7
        numeric = (scaled_rise(zeta + h) - scaled_rise(zeta - h)) / (2 * h)
        assert scaled_rise_derivative(zeta) == pytest.approx(numeric, rel=1e-5)

    def test_delay_derivative_positive(self):
        for zeta in np.linspace(0.05, 8.0, 50):
            assert scaled_delay_derivative(zeta) > 0


class TestGradientCorrectness:
    @pytest.mark.parametrize("metric", ["delay", "rise"])
    @pytest.mark.parametrize(
        "section,attribute",
        [
            ("n1", "resistance"),
            ("n1", "inductance"),
            ("n1", "capacitance"),
            ("out", "resistance"),
            ("out", "capacitance"),
            ("n7", "capacitance"),  # off-path node: only C matters
            ("n6", "inductance"),  # off-path node: dL must be zero
        ],
    )
    def test_matches_finite_difference(self, fig8, metric, section, attribute):
        report = delay_sensitivities(fig8, "out", metric=metric)
        analytic = getattr(
            report.sensitivities[section], f"d_{attribute}"
        )
        numeric = finite_difference(fig8, "out", section, attribute, metric)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-18)

    def test_value_matches_analyzer(self, fig8):
        analyzer = TreeAnalyzer(fig8)
        assert delay_sensitivities(fig8, "out").value == pytest.approx(
            analyzer.delay_50("out")
        )
        assert delay_sensitivities(fig8, "out", "rise").value == pytest.approx(
            analyzer.rise_time("out")
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_tree_full_gradient(self, seed):
        tree = random_tree(12, np.random.default_rng(seed))
        sink = tree.leaves()[-1]
        report = delay_sensitivities(tree, sink)
        for section in tree.nodes:
            for attribute in ("resistance", "inductance", "capacitance"):
                analytic = getattr(
                    report.sensitivities[section], f"d_{attribute}"
                )
                numeric = finite_difference(tree, sink, section, attribute,
                                            "delay")
                scale = max(abs(numeric), abs(analytic), 1e-30)
                assert abs(analytic - numeric) <= 1e-3 * scale


class TestGradientStructure:
    def test_off_path_r_l_zero(self, fig5):
        report = delay_sensitivities(fig5, "n7")
        for off_path in ("n2", "n4", "n5", "n6"):
            assert report.wrt_resistance(off_path) == 0.0
            assert report.wrt_inductance(off_path) == 0.0

    def test_every_capacitance_matters(self, fig5):
        report = delay_sensitivities(fig5, "n7")
        for node in fig5.nodes:
            assert report.wrt_capacitance(node) > 0.0

    def test_resistance_derivative_positive_on_path(self, fig5):
        report = delay_sensitivities(fig5, "n7")
        for on_path in ("n1", "n3", "n7"):
            assert report.wrt_resistance(on_path) > 0.0

    def test_upstream_capacitance_weighs_more(self, fig5):
        # dT_RC/dC_k = R_ki grows with shared path, so deeper-on-path
        # capacitances matter more for the sink delay.
        report = delay_sensitivities(fig5, "n7")
        assert report.wrt_capacitance("n7") > report.wrt_capacitance("n3")
        assert report.wrt_capacitance("n3") > report.wrt_capacitance("n2")

    def test_rc_tree_gradient(self, rc_line):
        report = delay_sensitivities(rc_line, "n5")
        # Elmore limit: dD/dR_s = ln2 * C_load(s), dD/dL = 0.
        assert report.wrt_inductance("n3") == 0.0
        expected = math.log(2) * 3 * 0.1e-12  # 3 downstream caps of n3
        assert report.wrt_resistance("n3") == pytest.approx(expected)

    def test_steepest_sections_ranked(self, fig8):
        report = delay_sensitivities(fig8, "out")
        ranked = report.steepest_sections(len(fig8.nodes))
        impacts = [report.sensitivities[s].relative_impact for s in ranked]
        assert impacts == sorted(impacts, reverse=True)
        assert len(report.steepest_sections(3)) == 3

    def test_validation(self, fig5):
        with pytest.raises(TopologyError):
            delay_sensitivities(fig5, "zzz")
        with pytest.raises(ConfigurationError):
            delay_sensitivities(fig5, "n7", metric="slew")
