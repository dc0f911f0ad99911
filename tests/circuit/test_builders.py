"""Unit tests for the tree factory functions."""

import math

import numpy as np
import pytest

from repro.circuit import (
    Section,
    asymmetric_tree,
    balanced_to_ladder,
    balanced_tree,
    distributed_line,
    fig5_tree,
    ladder,
    random_tree,
    scale_tree_to_zeta,
    single_line,
)
from repro.circuit.paths import elmore_inductance_sum, elmore_resistance_sum
from repro.errors import ElementValueError, TopologyError


class TestSingleLine:
    def test_topology_is_a_chain(self):
        line = single_line(4)
        assert line.size == 4
        assert line.depth == 4
        assert line.leaves() == ("n4",)
        assert line.path_to("n4") == ("n1", "n2", "n3", "n4")

    def test_one_section_is_fig4(self):
        line = single_line(1, resistance=10.0, inductance=1e-9, capacitance=1e-12)
        assert line.size == 1
        assert line.section("n1").damping_factor == pytest.approx(
            0.5 * 10.0 * math.sqrt(1e-12 / 1e-9)
        )

    def test_zero_sections_rejected(self):
        with pytest.raises(TopologyError):
            single_line(0)

    def test_string_values(self):
        line = single_line(2, resistance="25ohm", inductance="5n", capacitance="0.5p")
        assert line.section("n1").inductance == pytest.approx(5e-9)


class TestDistributedLine:
    def test_totals_are_preserved(self):
        line = distributed_line("100ohm", "10n", "2p", num_sections=25)
        assert line.total_resistance() == pytest.approx(100.0)
        assert line.total_inductance() == pytest.approx(1e-8)
        assert line.total_capacitance() == pytest.approx(2e-12)

    def test_load_added_at_sink_only(self):
        line = distributed_line(100.0, 1e-8, 2e-12, 10, load_capacitance="50f")
        assert line.section("n10").capacitance == pytest.approx(2e-13 + 50e-15)
        assert line.section("n1").capacitance == pytest.approx(2e-13)


class TestBalancedTree:
    def test_section_count(self):
        # b-ary, n levels -> b + b^2 + ... + b^n sections
        tree = balanced_tree(3, 2)
        assert tree.size == 2 + 4 + 8
        assert len(tree.leaves()) == 8

    def test_branching_factor_16(self):
        tree = balanced_tree(2, 16)
        assert tree.size == 16 + 256
        assert len(tree.leaves()) == 256

    def test_level_sections_taper(self):
        sections = [Section(1.0, 1e-9, 1e-12), Section(2.0, 2e-9, 0.5e-12)]
        tree = balanced_tree(2, 2, level_sections=sections)
        assert tree.section("n1") == sections[0]
        assert tree.section("n3") == sections[1]  # first level-2 node

    def test_level_sections_length_mismatch(self):
        with pytest.raises(TopologyError):
            balanced_tree(3, 2, level_sections=[Section(1.0)] * 2)

    def test_all_levels_uniform(self):
        tree = balanced_tree(3, 2)
        for level_nodes in tree.levels():
            assert len({tree.section(n) for n in level_nodes}) == 1


class TestAsymmetricTree:
    def test_asym_one_is_balanced(self):
        tree = asymmetric_tree(2, 1.0)
        sections = {s for _, s in tree.sections()}
        assert len(sections) == 1

    def test_left_branch_is_heavier(self):
        tree = asymmetric_tree(1, 3.0, resistance=10.0, inductance=1e-9,
                               capacitance=1e-12)
        left, right = tree.children("in")
        assert tree.section(left).resistance == pytest.approx(30.0)
        assert tree.section(right).resistance == pytest.approx(10.0)
        assert tree.section(left).capacitance == pytest.approx(1e-12 / 3.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf")])
    def test_invalid_asym_rejected(self, bad):
        with pytest.raises(ElementValueError):
            asymmetric_tree(2, bad)


class TestFig5Tree:
    def test_paper_numbering(self):
        tree = fig5_tree()
        assert tree.size == 7
        assert tree.children("in") == ("n1",)
        assert tree.children("n1") == ("n2", "n3")
        assert tree.children("n3") == ("n6", "n7")
        assert set(tree.leaves()) == {"n4", "n5", "n6", "n7"}

    def test_balanced_by_default(self):
        tree = fig5_tree()
        assert len({s for _, s in tree.sections()}) == 1

    def test_asymmetric_variant(self):
        tree = fig5_tree(asym=2.0)
        # left subtree (n2 side) heavier than right (n3 side)
        assert tree.section("n2").resistance == pytest.approx(
            2.0 * tree.section("n3").resistance
        )


class TestFig8Tree:
    def test_has_named_output(self, fig8):
        assert "out" in fig8
        assert fig8.is_leaf("out")

    def test_is_irregular(self, fig8):
        sections = {s for _, s in fig8.sections()}
        assert len(sections) > 3


class TestRandomTree:
    def test_reproducible_with_seed(self):
        a = random_tree(20, np.random.default_rng(7))
        b = random_tree(20, np.random.default_rng(7))
        assert a.nodes == b.nodes
        assert all(a.section(n) == b.section(n) for n in a.nodes)

    def test_respects_max_children(self, rng):
        tree = random_tree(50, rng, max_children=2)
        assert all(len(tree.children(n)) <= 2 for n in tree.nodes)

    def test_rc_only(self, rng):
        assert random_tree(10, rng, rc_only=True).is_rc()

    def test_values_within_ranges(self, rng):
        tree = random_tree(
            30, rng, resistance_range=(5.0, 6.0), capacitance_range=(1e-13, 2e-13)
        )
        for _, section in tree.sections():
            assert 5.0 <= section.resistance <= 6.0
            assert 1e-13 <= section.capacitance <= 2e-13


class TestBalancedToLadder:
    def test_ladder_shape(self):
        tree = balanced_tree(3, 2, resistance=8.0, inductance=2e-9,
                             capacitance=0.25e-12)
        lad = balanced_to_ladder(tree)
        assert lad.size == 3
        assert lad.leaves() == ("n3",)

    def test_parallel_merge_values(self):
        # Level l has 2^l identical sections -> R/2^(l-1)... level 1 has
        # 2 sections in parallel, level 2 has 4, level 3 has 8.
        tree = balanced_tree(3, 2, resistance=8.0, inductance=2e-9,
                             capacitance=0.25e-12)
        lad = balanced_to_ladder(tree)
        assert lad.section("n1").resistance == pytest.approx(8.0 / 2)
        assert lad.section("n2").resistance == pytest.approx(8.0 / 4)
        assert lad.section("n3").resistance == pytest.approx(8.0 / 8)
        assert lad.section("n3").capacitance == pytest.approx(0.25e-12 * 8)
        assert lad.section("n2").inductance == pytest.approx(2e-9 / 4)

    def test_unbalanced_rejected(self):
        tree = asymmetric_tree(2, 2.0)
        with pytest.raises(TopologyError, match="not balanced"):
            balanced_to_ladder(tree)

    def test_ladder_of_ladder_is_identity(self):
        lad = ladder([Section(1.0, 1e-9, 1e-12), Section(2.0, 2e-9, 2e-12)])
        again = balanced_to_ladder(lad)
        assert [again.section(n) for n in again.nodes] == [
            lad.section(n) for n in lad.nodes
        ]


class TestScaleToZeta:
    @pytest.mark.parametrize("target", [0.3, 0.5, 1.0, 2.0])
    def test_hits_target_zeta(self, fig5, target):
        scaled = scale_tree_to_zeta(fig5, "n7", target)
        t_rc = elmore_resistance_sum(scaled, "n7")
        t_lc = elmore_inductance_sum(scaled, "n7")
        assert t_rc / (2 * math.sqrt(t_lc)) == pytest.approx(target)

    def test_elmore_sum_unchanged(self, fig5):
        scaled = scale_tree_to_zeta(fig5, "n7", 0.4)
        assert elmore_resistance_sum(scaled, "n7") == pytest.approx(
            elmore_resistance_sum(fig5, "n7")
        )

    def test_rc_tree_rejected(self, rc_line):
        with pytest.raises(ElementValueError):
            scale_tree_to_zeta(rc_line, "n5", 0.5)

    def test_bad_target_rejected(self, fig5):
        with pytest.raises(ElementValueError):
            scale_tree_to_zeta(fig5, "n7", 0.0)
