"""Unit tests for the SPICE-subset netlist reader/writer."""

import io

import pytest

from repro.circuit import RLCTree, Section, dump, dumps, fig5_tree, fig8_tree, load, loads
from repro.errors import NetlistError


def same_electrical_tree(a: RLCTree, b: RLCTree) -> bool:
    """Equal topology and values, ignoring node insertion order."""
    if set(a.nodes) != set(b.nodes):
        return False
    for name in a.nodes:
        if a.section(name) != b.section(name):
            return False
        pa = a.parent(name)
        pb = b.parent(name)
        if (pa == a.root) != (pb == b.root):
            return False
        if pa != a.root and pa != pb:
            return False
    return True


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [fig5_tree, fig8_tree])
    def test_round_trips_exactly(self, factory):
        tree = factory()
        assert same_electrical_tree(tree, loads(dumps(tree)))

    def test_rc_tree_round_trips(self, rc_line):
        assert same_electrical_tree(rc_line, loads(dumps(rc_line)))

    def test_pure_inductive_section_round_trips(self):
        tree = RLCTree().add_section("a", "in", section=Section(0.0, 1e-9, 1e-12))
        assert same_electrical_tree(tree, loads(dumps(tree)))

    def test_stream_api(self, fig5):
        buffer = io.StringIO()
        dump(fig5, buffer)
        buffer.seek(0)
        assert same_electrical_tree(fig5, load(buffer))

    def test_title_in_output(self, fig5):
        assert "my clock net" in dumps(fig5, title="my clock net")


class TestReader:
    def test_series_chain_collapses(self):
        text = """
        Vin in 0 PWL
        R1 in x1 5
        R2 x1 x2 7
        L1 x2 a 3n
        C1 a 0 1p
        """
        tree = loads(text)
        assert tree.nodes == ("a",)
        assert tree.section("a").resistance == pytest.approx(12.0)
        assert tree.section("a").inductance == pytest.approx(3e-9)
        assert tree.section("a").capacitance == pytest.approx(1e-12)

    def test_root_from_input_directive(self):
        text = """
        .input clk
        R1 clk a 10
        C1 a 0 1p
        """
        tree = loads(text)
        assert tree.root == "clk"

    def test_root_argument_overrides(self):
        text = "R1 clk a 10\nC1 a 0 1p\n"
        assert loads(text, root="clk").root == "clk"

    def test_comments_and_blank_lines_ignored(self):
        text = "* hello\n\nVin in 0 PWL\nR1 in a 10\nC1 a 0 1p\n.end\n"
        assert loads(text).size == 1

    def test_content_after_end_ignored(self):
        text = "Vin in 0\nR1 in a 10\nC1 a 0 1p\n.end\ngarbage line\n"
        assert loads(text).size == 1

    def test_parallel_capacitors_sum(self):
        text = "Vin in 0\nR1 in a 10\nC1 a 0 1p\nC2 0 a 2p\n"
        assert loads(text).section("a").capacitance == pytest.approx(3e-12)

    def test_branching_node_without_capacitor(self):
        text = """
        Vin in 0
        R1 in j 10
        R2 j a 20
        R3 j b 30
        C1 a 0 1p
        C2 b 0 2p
        """
        tree = loads(text)
        assert set(tree.nodes) == {"j", "a", "b"}
        assert tree.section("j").capacitance == 0.0


class TestReaderErrors:
    def test_no_root(self):
        with pytest.raises(NetlistError, match="no root"):
            loads("R1 a b 10\nC1 b 0 1p\n")

    def test_no_elements(self):
        with pytest.raises(NetlistError, match="no series"):
            loads("Vin in 0\nC1 in 0 1p\n")

    def test_floating_capacitor(self):
        with pytest.raises(NetlistError, match="ground"):
            loads("Vin in 0\nR1 in a 10\nC1 a b 1p\n")

    def test_grounded_resistor(self):
        with pytest.raises(NetlistError, match="ground"):
            loads("Vin in 0\nR1 in 0 10\n")

    def test_loop_rejected(self):
        text = """
        Vin in 0
        R1 in a 10
        R2 in b 10
        R3 a b 10
        C1 a 0 1p
        C2 b 0 1p
        """
        with pytest.raises(NetlistError, match="loop|series"):
            loads(text)

    @pytest.mark.parametrize("second", ["10", "20"])
    def test_parallel_elements_are_a_loop(self, second):
        # Two resistors between the same nodes form a loop whether or
        # not their values match; equal values must not merge them.
        text = f"V1 in 0 1\nR1 in a 10\nR2 in a {second}\nC1 a 0 1p\n.end"
        with pytest.raises(NetlistError, match="loop through node 'a'"):
            loads(text)

    def test_disconnected_element(self):
        text = "Vin in 0\nR1 in a 10\nC1 a 0 1p\nR9 x y 5\n"
        with pytest.raises(NetlistError, match="reachable"):
            loads(text)

    def test_dangling_capacitor(self):
        text = "Vin in 0\nR1 in a 10\nC1 a 0 1p\nC9 zz 0 1p\n"
        with pytest.raises(NetlistError, match="reachable"):
            loads(text)

    def test_bad_value(self):
        with pytest.raises(NetlistError, match="bad value"):
            loads("Vin in 0\nR1 in a tenohms\nC1 a 0 1p\n")

    def test_negative_value(self):
        with pytest.raises(NetlistError, match="negative"):
            loads("Vin in 0\nR1 in a -10\nC1 a 0 1p\n")

    def test_unsupported_element(self):
        with pytest.raises(NetlistError, match="unsupported"):
            loads("Vin in 0\nD1 in a model\n")

    def test_multiple_sources(self):
        with pytest.raises(NetlistError, match="multiple"):
            loads("Vin in 0\nV2 other 0\nR1 in a 10\nC1 a 0 1p\n")

    def test_source_not_grounded(self):
        with pytest.raises(NetlistError, match="ground"):
            loads("Vin in x\nR1 in a 10\nC1 a 0 1p\n")

    def test_error_carries_line_number(self):
        try:
            loads("Vin in 0\nR1 in a -10\nC1 a 0 1p\n")
        except NetlistError as exc:
            assert exc.line_number == 2
        else:
            pytest.fail("expected NetlistError")
