"""Integration cross-checks between independent subsystems.

Each test wires together at least two subsystems that were implemented
and unit-tested separately, so agreement here means the interfaces, unit
conventions and math all line up end to end.
"""

import numpy as np
import pytest

from repro.analysis import SecondOrderModel, TreeAnalyzer, exact_moments
from repro.circuit import balanced_to_ladder, balanced_tree, dumps, loads, random_tree
from repro.reduction import arnoldi_model, awe_model, kahng_muddu_model
from repro.simulation import (
    ExactSimulator,
    StepSource,
    TrapezoidalSimulator,
    measure,
    rms_error,
)


class TestMomentsAgainstSimulator:
    """The O(n) tree recursion and the dense eigendecomposition are
    completely independent paths to the same transfer function."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_tree_m1_m2(self, seed):
        tree = random_tree(18, np.random.default_rng(seed))
        moments = exact_moments(tree, 2)
        sim = ExactSimulator(tree)
        for node in tree.nodes:
            poles, residues = sim.residues(node)
            for j in (1, 2):
                from_sim = float(np.real((-residues / poles ** (j + 1)).sum()))
                assert moments[node][j] == pytest.approx(from_sim, rel=1e-6)


class TestReductionHierarchy:
    """The two-pole models form a consistent family. KM and the paper's
    model (built from *exact* moments) are the same zero-free two-pole
    fit, so their poles coincide exactly. AWE(2) is the [1/2] Pade — it
    carries a numerator zero and matches two extra moments — so its
    poles legitimately differ, but its low-order moments agree with
    everyone's."""

    def test_km_equals_paper_model_with_exact_m2(self, fig8):
        m = exact_moments(fig8, 2)["out"]
        paper_with_exact_m2 = SecondOrderModel.from_moments(m[1], m[2])
        km = kahng_muddu_model(fig8, "out")
        assert sorted(
            paper_with_exact_m2.poles(), key=lambda p: (p.real, p.imag)
        ) == pytest.approx(
            sorted(km.poles(), key=lambda p: (p.real, p.imag)), rel=1e-9
        )

    def test_awe2_matches_four_moments_km_three(self, fig8):
        m = exact_moments(fig8, 3)["out"]
        awe2 = awe_model(fig8, "out", 2)
        np.testing.assert_allclose(awe2.moments(3), m, rtol=1e-6)
        km = kahng_muddu_model(fig8, "out")
        # KM matches m1 and m2 by construction ...
        km_m1 = -km.b1
        km_m2 = km.b1**2 - km.b2
        assert km_m1 == pytest.approx(m[1], rel=1e-9)
        assert km_m2 == pytest.approx(m[2], rel=1e-9)
        # ... but not m3 (no numerator zero to spend).
        km_m3 = -km.b1**3 + 2 * km.b1 * km.b2
        assert km_m3 != pytest.approx(m[3], rel=1e-3, abs=0.0)

    def test_arnoldi_full_order_equals_exact(self, fig8):
        sim = ExactSimulator(fig8)
        reduction = arnoldi_model(fig8, "out", sim.order)
        np.testing.assert_allclose(
            sorted(np.asarray(reduction.model.poles).real),
            sorted(sim.poles().real),
            rtol=1e-6,
        )


class TestNetlistPipeline:
    def test_netlist_round_trip_preserves_timing(self, fig8):
        """Serialize, parse, re-analyze: every metric must survive."""
        original = TreeAnalyzer(fig8)
        recovered = TreeAnalyzer(loads(dumps(fig8)))
        for node in fig8.nodes:
            assert recovered.delay_50(node) == pytest.approx(
                original.delay_50(node)
            )
            assert recovered.zeta(node) == pytest.approx(original.zeta(node))

    def test_netlist_round_trip_preserves_simulation(self, fig5):
        sim_a = ExactSimulator(fig5)
        sim_b = ExactSimulator(loads(dumps(fig5)))
        t = sim_a.time_grid(points=801)
        np.testing.assert_allclose(
            sim_a.step_response("n7", t), sim_b.step_response("n7", t),
            atol=1e-12,
        )


class TestScalingInvariance:
    """Impedance scaling: multiplying all R and L by k and dividing all C
    by k leaves every voltage transfer function unchanged."""

    def test_impedance_scaling_preserves_waveforms(self, fig8):
        k = 7.3
        scaled = fig8.scaled(
            resistance_factor=k, inductance_factor=k, capacitance_factor=1 / k
        )
        sim_a = ExactSimulator(fig8)
        sim_b = ExactSimulator(scaled)
        t = sim_a.time_grid(points=801)
        np.testing.assert_allclose(
            sim_a.step_response("out", t),
            sim_b.step_response("out", t),
            atol=1e-9,
        )

    def test_impedance_scaling_preserves_model_metrics(self, fig8):
        k = 7.3
        scaled = fig8.scaled(
            resistance_factor=k, inductance_factor=k, capacitance_factor=1 / k
        )
        a = TreeAnalyzer(fig8)
        b = TreeAnalyzer(scaled)
        for node in fig8.nodes:
            assert a.delay_50(node) == pytest.approx(b.delay_50(node))
            assert a.zeta(node) == pytest.approx(b.zeta(node))

    def test_time_scaling(self, fig8):
        """Multiplying L and C by k^2 scales all delays by k."""
        k2 = 4.0
        slowed = fig8.scaled(inductance_factor=k2, capacitance_factor=1.0)
        # L*C scales by k2 -> omega_n by 1/k... verify via the analyzer:
        a = TreeAnalyzer(fig8)
        b = TreeAnalyzer(slowed)
        for node in fig8.nodes:
            assert b.omega_n(node) == pytest.approx(
                a.omega_n(node) / np.sqrt(k2)
            )


class TestBigTreePipeline:
    def test_512_sink_tree_end_to_end(self):
        """A 1022-section tree: analyzer is instant; spot-check one sink
        against the trapezoidal simulator (the dense eigensolver on 2044
        states is what the paper's O(n) formulas let you avoid)."""
        tree = balanced_tree(9, 2, resistance=15.0, inductance=1e-9,
                             capacitance=0.1e-12)
        analyzer = TreeAnalyzer(tree)
        sink = tree.leaves()[0]
        timing = analyzer.timing(sink)
        assert timing.delay_50 > 0

        # Exact response of the equivalent 9-section ladder (Section V-B)
        # instead of the 2044-state monster.
        ladder = balanced_to_ladder(tree)
        sim = ExactSimulator(ladder)
        t = sim.time_grid(points=8001, span_factor=14.0)
        metrics = measure(t, sim.step_response("n9", t))
        assert timing.delay_50 == pytest.approx(metrics.delay_50, rel=0.15)

    def test_trapezoidal_handles_moderate_tree(self):
        tree = balanced_tree(5, 2, resistance=20.0, inductance=2e-9,
                             capacitance=0.2e-12)
        sink = tree.leaves()[0]
        exact = ExactSimulator(tree)
        t = exact.time_grid(points=4001)
        reference = exact.step_response(sink, t)
        candidate = TrapezoidalSimulator(tree).run(StepSource(), sink, t)
        assert rms_error(reference, candidate) < 1e-3


class TestAnalyzerVsSimulatorOnRandomTrees:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delay_within_thirty_percent(self, seed):
        """Random irregular trees are the worst case for a 2-pole model;
        the paper's asymmetric-tree ceiling (~20%) plus margin applies."""
        tree = random_tree(
            15,
            np.random.default_rng(seed),
            resistance_range=(5.0, 50.0),
            inductance_range=(0.5e-9, 5e-9),
            capacitance_range=(0.1e-12, 0.5e-12),
        )
        analyzer = TreeAnalyzer(tree)
        sim = ExactSimulator(tree)
        t = sim.time_grid(points=8001, span_factor=14.0)
        sink = analyzer.critical_sink().node
        exact = measure(t, sim.step_response(sink, t)).delay_50
        model = analyzer.delay_50(sink)
        assert model == pytest.approx(exact, rel=0.30)
