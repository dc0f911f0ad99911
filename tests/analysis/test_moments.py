"""Unit tests for the O(n) moment machinery, cross-checked against the
naive O(n^2) path oracle and the exact simulator."""

import numpy as np
import pytest

from repro.analysis import (
    capacitive_loads,
    elmore_sums,
    exact_moments,
    inductance_sums,
    moment_summary,
    multiplication_count,
    second_order_sums,
)
from repro.circuit import random_tree, single_line
from repro.circuit.paths import (
    all_elmore_inductance_sums,
    all_elmore_resistance_sums,
)
from repro.errors import ReductionError
from repro.simulation import ExactSimulator
from tests.conftest import weighted_path_sums


class TestCapacitiveLoads:
    def test_line_loads_accumulate(self):
        line = single_line(3, resistance=1.0, inductance=1e-9, capacitance=1e-12)
        loads = capacitive_loads(line)
        assert loads["n3"] == pytest.approx(1e-12)
        assert loads["n2"] == pytest.approx(2e-12)
        assert loads["n1"] == pytest.approx(3e-12)

    def test_fig5_loads(self, fig5):
        loads = capacitive_loads(fig5)
        assert loads["n1"] == pytest.approx(7 * 0.5e-12)
        assert loads["n3"] == pytest.approx(3 * 0.5e-12)
        assert loads["n7"] == pytest.approx(0.5e-12)


class TestRecursiveSumsMatchOracle:
    """The Appendix O(n) algorithm must equal direct path intersection."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_trees(self, seed):
        tree = random_tree(30, np.random.default_rng(seed))
        t_rc, t_lc = second_order_sums(tree)
        oracle_rc = all_elmore_resistance_sums(tree)
        oracle_lc = all_elmore_inductance_sums(tree)
        for node in tree.nodes:
            assert t_rc[node] == pytest.approx(oracle_rc[node], rel=1e-12)
            assert t_lc[node] == pytest.approx(oracle_lc[node], rel=1e-12)

    def test_fig5(self, fig5):
        assert elmore_sums(fig5) == pytest.approx(all_elmore_resistance_sums(fig5))
        assert inductance_sums(fig5) == pytest.approx(
            all_elmore_inductance_sums(fig5)
        )

    def test_fig8(self, fig8):
        assert elmore_sums(fig8) == pytest.approx(all_elmore_resistance_sums(fig8))


class TestWeightedPathSums:
    def test_unit_weights_recover_path_totals(self, fig5):
        w = {n: 1.0 for n in fig5.nodes}
        zeros = {n: 0.0 for n in fig5.nodes}
        sums = weighted_path_sums(fig5, w, zeros)
        # With w_r = 1 at every node: sum over k of R_k,i where each
        # section on path(i) counts once per node in its subtree.
        for node in fig5.nodes:
            expected = sum(
                fig5.section(s).resistance * len(fig5.subtree(s))
                for s in fig5.path_to(node)
            )
            assert sums[node] == pytest.approx(expected)

    def test_capacitance_weights_equal_elmore(self, fig8):
        w = {n: fig8.section(n).capacitance for n in fig8.nodes}
        zeros = {n: 0.0 for n in fig8.nodes}
        sums = weighted_path_sums(fig8, w, zeros)
        assert sums == pytest.approx(elmore_sums(fig8))


class TestExactMoments:
    def test_single_section_closed_form(self):
        r, l, c = 10.0, 2e-9, 1e-12
        line = single_line(1, resistance=r, inductance=l, capacitance=c)
        m = exact_moments(line, 3)["n1"]
        # 1/(1 + RCs + LCs^2) = 1 - RCs + ((RC)^2 - LC)s^2
        #                         - ((RC)^3 - 2 RC LC)s^3 ...
        rc, lc = r * c, l * c
        assert m[0] == 1.0
        assert m[1] == pytest.approx(-rc)
        assert m[2] == pytest.approx(rc * rc - lc)
        assert m[3] == pytest.approx(-(rc**3) + 2 * rc * lc)

    def test_m1_is_minus_elmore_sum(self, fig8):
        m = exact_moments(fig8, 1)
        t_rc = elmore_sums(fig8)
        for node in fig8.nodes:
            assert m[node][1] == pytest.approx(-t_rc[node])

    def test_against_exact_transfer_function(self, fig8):
        """Moments must match a Taylor fit of the simulator's exact H(s)."""
        sim = ExactSimulator(fig8)
        m = exact_moments(fig8, 2)
        poles, residues = sim.residues("out")
        for j in range(3):
            from_poles = float(np.real((-residues / poles ** (j + 1)).sum()))
            assert m["out"][j] == pytest.approx(from_poles, rel=1e-9)

    def test_order_zero(self, fig5):
        m = exact_moments(fig5, 0)
        assert all(v == [1.0] for v in m.values())

    def test_negative_order_rejected(self, fig5):
        with pytest.raises(ReductionError):
            exact_moments(fig5, -1)

    def test_rc_tree_moment_signs_alternate(self, rc_line):
        # An RC tree's moments alternate in sign (all-real-pole system).
        m = exact_moments(rc_line, 5)["n5"]
        for j in range(1, 6):
            assert (m[j] > 0) == (j % 2 == 0)


class TestMomentSummary:
    def test_m2_approx_formula(self, fig8):
        summary = moment_summary(fig8)
        t_rc, t_lc = second_order_sums(fig8)
        for node, info in summary.items():
            assert info.m2_approx == pytest.approx(
                t_rc[node] ** 2 - t_lc[node]
            )

    def test_m2_gap_is_modest_at_sinks(self, fig5):
        # eq. 28 is an Elmore-style approximation: right order of
        # magnitude, not exact.
        info = moment_summary(fig5, ["n7"])["n7"]
        # Strong inductance makes m2 negative (complex poles); eq. 28
        # must still land within tens of percent, not orders of magnitude.
        assert info.m2_exact != 0
        assert info.m2_relative_gap < 0.5

    def test_subset_selection(self, fig5):
        assert set(moment_summary(fig5, ["n1", "n7"])) == {"n1", "n7"}


class TestComplexity:
    def test_multiplication_count_linear(self):
        for n in (4, 16, 64):
            line = single_line(n, resistance=1.0, inductance=1e-9,
                               capacitance=1e-12)
            assert multiplication_count(line) == 2 * n


class TestSelectiveMoments:
    def test_nodes_subset_matches_full_run(self, fig8):
        full = exact_moments(fig8, 3)
        subset = exact_moments(fig8, 3, ["out"])
        assert set(subset) == {"out"}
        assert subset["out"] == full["out"]

    def test_unknown_node_rejected(self, fig8):
        with pytest.raises(ReductionError):
            exact_moments(fig8, 2, ["zzz"])

    def test_single_quantity_sums_match_pair(self, fig8):
        t_rc, t_lc = second_order_sums(fig8)
        assert elmore_sums(fig8) == pytest.approx(t_rc, rel=1e-15)
        assert inductance_sums(fig8) == pytest.approx(t_lc, rel=1e-15)
