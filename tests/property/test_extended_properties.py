"""Property-based tests for the extension modules.

Same philosophy as test_properties.py: the invariants here are the
facts the extensions lean on — passivity of coupled pairs, causality
and unit DC gain of the distributed line, gradient consistency, and
structural tree invariants.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import TreeAnalyzer, delay_sensitivities
from repro.circuit import RLCTree, Section
from repro.simulation import (
    CoupledLines,
    TransmissionLine,
    crosstalk_noise,
)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=25,
)


@st.composite
def coupled_pairs(draw):
    section = Section(
        draw(st.floats(1.0, 100.0)),
        draw(st.floats(0.5e-9, 10e-9)),
        draw(st.floats(0.05e-12, 1e-12)),
    )
    coupling_c = draw(st.floats(0.0, 0.5e-12))
    mutual = draw(st.floats(0.0, 0.9)) * section.inductance
    sections = draw(st.integers(2, 6))
    return CoupledLines(sections, section, coupling_c, mutual)


@st.composite
def transmission_lines(draw):
    return TransmissionLine(
        resistance=draw(st.floats(10.0, 5e4)),
        inductance=draw(st.floats(0.05e-6, 1e-6)),
        capacitance=draw(st.floats(0.05e-9, 0.5e-9)),
        length=draw(st.floats(0.5e-3, 20e-3)),
        source_resistance=draw(st.floats(0.0, 200.0)),
        load_capacitance=draw(st.floats(0.0, 200e-15)),
    )


@st.composite
def small_trees(draw):
    count = draw(st.integers(2, 10))
    tree = RLCTree()
    names = ["in"]
    for i in range(1, count + 1):
        parent = names[draw(st.integers(0, len(names) - 1))]
        section = Section(
            draw(st.floats(1.0, 200.0)),
            draw(st.floats(0.1e-9, 10e-9)),
            draw(st.floats(0.05e-12, 1e-12)),
        )
        tree.add_section(f"n{i}", parent, section=section)
        names.append(f"n{i}")
    return tree


class TestCoupledProperties:
    @given(pair=coupled_pairs())
    @settings(**COMMON)
    def test_passivity(self, pair):
        """Any physical coupling (|M| < L, Cc >= 0) keeps the pair stable."""
        assert pair.is_stable()

    @given(pair=coupled_pairs())
    @settings(**COMMON)
    def test_superposition(self, pair):
        """(1,0) drive = half the even drive plus half the odd drive."""
        t = pair.time_grid(points=301)
        direct_a, direct_v = pair.step_response(t, 1.0, 0.0)
        even_a, even_v = pair.step_response(t, 1.0, 1.0)
        odd_a, odd_v = pair.step_response(t, 1.0, -1.0)
        np.testing.assert_allclose(direct_a, 0.5 * (even_a + odd_a),
                                   atol=1e-9)
        np.testing.assert_allclose(direct_v, 0.5 * (even_v + odd_v),
                                   atol=1e-9)

    @given(pair=coupled_pairs())
    @settings(**COMMON)
    def test_noise_bounded_by_mode_overshoots(self, pair):
        """The victim is (even - odd)/2 and each mode's step response
        stays below 2 V (second-order overshoot ceiling), so the noise
        can exceed the swing at resonant coupling but never 2x it."""
        noise = crosstalk_noise(pair, points=2001)
        assert noise.peak_fraction <= 2.0


class TestTransmissionLineProperties:
    @given(line=transmission_lines())
    @settings(**COMMON)
    def test_dc_gain_unity(self, line):
        assert abs(complex(line.transfer_function(1e-3))) == pytest.approx(
            1.0, rel=1e-4
        )

    @given(line=transmission_lines())
    @settings(**COMMON)
    def test_resonant_peak_bounded_by_damping(self, line):
        """An open line resonates with Q set by the total series loss:
        the peak magnitude is at most ~Z0 / (Rs + R_t/2) (a nearly
        lossless open line legitimately reaches thousands). Guard that
        the computed response respects that physical ceiling."""
        f = np.geomspace(1e6, 2.0 / line.time_of_flight, 60)
        magnitude = np.abs(line.frequency_response(f))
        assert np.all(np.isfinite(magnitude))
        damping = line.source_resistance + 0.5 * line.total_resistance
        ceiling = 2.0 + 2.0 * line.characteristic_impedance / max(
            damping, 1e-9
        )
        assert magnitude.max() < ceiling

    @given(line=transmission_lines())
    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.too_slow])
    def test_step_response_settles_to_one(self, line):
        # Horizon must cover all three decay mechanisms: the RC charging
        # of an overdamped draw, the reflections of a low-loss line
        # (which decay with the series L/R time constant when the source
        # is soft), and a few flights.
        total_c = line.capacitance * line.length + line.load_capacitance
        total_l = line.inductance * line.length
        total_r = line.total_resistance + line.source_resistance
        tau_rc = total_r * total_c
        tau_ring = 2.0 * total_l / total_r
        end = max(
            30.0 * line.time_of_flight, 12.0 * tau_rc, 12.0 * tau_ring
        )
        t = np.array([end])
        assert float(line.step_response(t)[0]) == pytest.approx(1.0, abs=2e-2)


class TestSensitivityProperties:
    @given(tree=small_trees(), bump=st.floats(0.01, 0.2))
    @settings(**COMMON)
    def test_gradient_predicts_small_perturbations(self, tree, bump):
        """First-order prediction: bumping one section's R by a small
        fraction moves the delay by ~ dD/dR * delta."""
        sink = tree.leaves()[-1]
        report = delay_sensitivities(tree, sink)
        target = tree.path_to(sink)[0]  # a section surely on the path
        section = tree.section(target)
        delta = section.resistance * bump * 0.01  # keep it truly small
        bumped = tree.map_sections(
            lambda n, s: Section(
                s.resistance + delta, s.inductance, s.capacitance
            )
            if n == target
            else s
        )
        predicted = report.value + report.wrt_resistance(target) * delta
        actual = TreeAnalyzer(bumped).delay_50(sink)
        assert actual == pytest.approx(predicted, rel=1e-3)

    @given(tree=small_trees())
    @settings(**COMMON)
    def test_gradient_value_matches_analyzer(self, tree):
        sink = tree.leaves()[0]
        assert delay_sensitivities(tree, sink).value == pytest.approx(
            TreeAnalyzer(tree).delay_50(sink)
        )


class TestTreeStructureProperties:
    @given(tree=small_trees())
    @settings(**COMMON)
    def test_traversals_are_permutations(self, tree):
        assert sorted(tree.preorder()) == sorted(tree.nodes)
        assert sorted(tree.postorder()) == sorted(tree.nodes)

    @given(tree=small_trees())
    @settings(**COMMON)
    def test_subtree_sizes_sum(self, tree):
        """sum over nodes of |subtree| = sum over nodes of depth —
        both count (ancestor, descendant) pairs including self."""
        by_subtree = sum(len(tree.subtree(n)) for n in tree.nodes)
        by_depth = sum(tree.level(n) for n in tree.nodes)
        assert by_subtree == by_depth

    @given(tree=small_trees())
    @settings(**COMMON)
    def test_downstream_capacitance_consistent(self, tree):
        total = sum(
            tree.section(c).capacitance for c in tree.children(tree.root)
            for _ in [0]
        )
        del total
        for node in tree.nodes:
            expected = tree.section(node).capacitance + sum(
                tree.downstream_capacitance(c) for c in tree.children(node)
            )
            assert tree.downstream_capacitance(node) == pytest.approx(expected)
