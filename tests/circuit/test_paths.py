"""Unit tests for the naive common-path reference sums."""

import pytest

from repro.circuit import single_line
from repro.circuit.paths import (
    all_elmore_inductance_sums,
    all_elmore_resistance_sums,
    common_path_inductance,
    common_path_resistance,
    elmore_inductance_sum,
    elmore_resistance_sum,
)


class TestCommonPath:
    def test_siblings_share_upstream_only(self, fig5):
        # n4 and n7 share only the level-1 section n1.
        assert common_path_resistance(fig5, "n4", "n7") == pytest.approx(25.0)
        assert common_path_inductance(fig5, "n4", "n7") == pytest.approx(5e-9)

    def test_node_with_itself_is_full_path(self, fig5):
        assert common_path_resistance(fig5, "n7", "n7") == pytest.approx(75.0)

    def test_ancestor_descendant(self, fig5):
        # common path of n1 and n7 is just n1's section
        assert common_path_resistance(fig5, "n1", "n7") == pytest.approx(25.0)

    def test_symmetry(self, fig8):
        for a in fig8.nodes:
            for b in fig8.nodes:
                assert common_path_resistance(fig8, a, b) == pytest.approx(
                    common_path_resistance(fig8, b, a)
                )


class TestElmoreSums:
    def test_single_section_closed_form(self):
        line = single_line(1, resistance=10.0, inductance=2e-9, capacitance=1e-12)
        assert elmore_resistance_sum(line, "n1") == pytest.approx(10.0 * 1e-12)
        assert elmore_inductance_sum(line, "n1") == pytest.approx(2e-9 * 1e-12)

    def test_uniform_line_closed_form(self):
        # For a uniform n-section line, T_RC at the sink is
        # R C n (n + 1) / 2 (the classic distributed Elmore sum).
        n = 6
        line = single_line(n, resistance=10.0, inductance=1e-9, capacitance=1e-12)
        expected = 10.0 * 1e-12 * n * (n + 1) / 2
        assert elmore_resistance_sum(line, f"n{n}") == pytest.approx(expected)
        expected_l = 1e-9 * 1e-12 * n * (n + 1) / 2
        assert elmore_inductance_sum(line, f"n{n}") == pytest.approx(expected_l)

    def test_fig5_hand_computation(self, fig5):
        # At n1 (level 1): every capacitor sees only the n1 section in
        # common -> T_RC = R1 * C_total = 25 * 7 * 0.5p.
        assert elmore_resistance_sum(fig5, "n1") == pytest.approx(25.0 * 7 * 0.5e-12)

    def test_sink_value_exceeds_upstream(self, fig5):
        assert elmore_resistance_sum(fig5, "n7") > elmore_resistance_sum(fig5, "n3")
        assert elmore_resistance_sum(fig5, "n3") > elmore_resistance_sum(fig5, "n1")

    def test_all_nodes_helpers(self, fig5):
        t_rc = all_elmore_resistance_sums(fig5)
        t_lc = all_elmore_inductance_sums(fig5)
        assert set(t_rc) == set(fig5.nodes)
        assert set(t_lc) == set(fig5.nodes)
        assert t_rc["n7"] == pytest.approx(elmore_resistance_sum(fig5, "n7"))
