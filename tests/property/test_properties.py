"""Property-based tests (hypothesis) on the library's core invariants.

These are the load-bearing mathematical facts the paper relies on:
Elmore-sum monotonicity, impedance/time scaling laws, unconditional
stability of positive-element trees, continuity of the closed-form delay,
and agreement between the O(n) recursion and the O(n^2) oracle on
arbitrary topologies.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    SecondOrderModel,
    delay_50_from_sums,
    scaled_delay,
    scaled_delay_exact,
    scaled_rise,
    second_order_sums,
)
from repro.circuit import RLCTree, Section, dumps, loads
from repro.circuit.paths import (
    all_elmore_inductance_sums,
    all_elmore_resistance_sums,
)
from repro.simulation import ExactSimulator

# -- strategies -------------------------------------------------------------

positive_resistance = st.floats(0.1, 1e4)
positive_inductance = st.floats(1e-12, 1e-7)
positive_capacitance = st.floats(1e-16, 1e-10)


@st.composite
def sections(draw):
    return Section(
        draw(positive_resistance),
        draw(positive_inductance),
        draw(positive_capacitance),
    )


@st.composite
def rlc_trees(draw, min_sections=1, max_sections=12):
    """Random topology: node i attaches to a uniformly chosen earlier node."""
    count = draw(st.integers(min_sections, max_sections))
    tree = RLCTree()
    names = ["in"]
    for i in range(1, count + 1):
        parent = names[draw(st.integers(0, len(names) - 1))]
        name = f"n{i}"
        tree.add_section(name, parent, section=draw(sections()))
        names.append(name)
    return tree


zetas = st.floats(0.02, 8.0)

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40
)


# -- recursion vs oracle ------------------------------------------------------


class TestRecursionEqualsOracle:
    @given(tree=rlc_trees())
    @settings(**COMMON)
    def test_sums_match_naive_path_intersection(self, tree):
        t_rc, t_lc = second_order_sums(tree)
        oracle_rc = all_elmore_resistance_sums(tree)
        oracle_lc = all_elmore_inductance_sums(tree)
        for node in tree.nodes:
            assert math.isclose(t_rc[node], oracle_rc[node], rel_tol=1e-10)
            assert math.isclose(t_lc[node], oracle_lc[node], rel_tol=1e-10)


class TestElmoreSumProperties:
    @given(tree=rlc_trees(min_sections=2))
    @settings(**COMMON)
    def test_sums_grow_along_paths(self, tree):
        """T_RC and T_LC are non-decreasing from root to sink."""
        t_rc, t_lc = second_order_sums(tree)
        for node in tree.nodes:
            parent = tree.parent(node)
            if parent == tree.root:
                continue
            assert t_rc[node] >= t_rc[parent] - 1e-30
            assert t_lc[node] >= t_lc[parent] - 1e-30

    @given(tree=rlc_trees(), factor=st.floats(1.1, 10.0))
    @settings(**COMMON)
    def test_monotone_in_resistance(self, tree, factor):
        """Growing any resistance never decreases any T_RC."""
        t_rc_before, _ = second_order_sums(tree)
        grown = tree.scaled(resistance_factor=factor)
        t_rc_after, _ = second_order_sums(grown)
        for node in tree.nodes:
            assert t_rc_after[node] >= t_rc_before[node]

    @given(tree=rlc_trees(), factor=st.floats(0.1, 10.0))
    @settings(**COMMON)
    def test_scaling_laws(self, tree, factor):
        """T_RC scales linearly with R and C; T_LC with L and C."""
        t_rc, t_lc = second_order_sums(tree)
        scaled_tree = tree.scaled(resistance_factor=factor,
                                  inductance_factor=factor)
        s_rc, s_lc = second_order_sums(scaled_tree)
        for node in tree.nodes:
            assert math.isclose(s_rc[node], factor * t_rc[node], rel_tol=1e-9)
            assert math.isclose(s_lc[node], factor * t_lc[node], rel_tol=1e-9)


class TestStability:
    @given(tree=rlc_trees(max_sections=8))
    @settings(**COMMON)
    def test_every_positive_tree_is_stable(self, tree):
        """All exact poles of a positive-element RLC tree lie strictly in
        the left half plane (passivity)."""
        simulator = ExactSimulator(tree)
        assert simulator.is_stable()

    @given(tree=rlc_trees(max_sections=8))
    @settings(**COMMON)
    def test_dc_gain_is_one_everywhere(self, tree):
        # rel_tol reflects eigensolver rounding when element values span
        # many decades, not a modeling error; drawn trees have been
        # observed past 1e-4.
        simulator = ExactSimulator(tree)
        for node in tree.nodes:
            assert math.isclose(simulator.dc_gain(node), 1.0, rel_tol=1e-3)

    @given(tree=rlc_trees(max_sections=8))
    @settings(**COMMON)
    def test_closed_form_model_always_stable(self, tree):
        """The paper's headline: the second-order model is stable for any
        tree (unlike AWE)."""
        t_rc, t_lc = second_order_sums(tree)
        for node in tree.nodes:
            model = SecondOrderModel.from_sums(t_rc[node], t_lc[node])
            for pole in model.poles():
                assert pole.real < 0.0


class TestClosedFormDelay:
    @given(zeta=zetas)
    @settings(**COMMON)
    def test_fit_tracks_exact_within_4_percent(self, zeta):
        assert abs(scaled_delay(zeta) - scaled_delay_exact(zeta)) <= (
            0.04 * scaled_delay_exact(zeta)
        )

    @given(zeta=zetas)
    @settings(**COMMON)
    def test_rise_exceeds_delay_gap(self, zeta):
        """10-90% rise is always longer than 0-50% minus 0-10% window; in
        particular both metrics are positive and rise > 0.4 * delay."""
        delay = scaled_delay(zeta)
        rise = scaled_rise(zeta)
        assert delay > 0 and rise > 0
        assert rise > 0.4 * delay

    @given(
        t_rc=st.floats(1e-12, 1e-8),
        ratio=st.floats(1e-4, 0.49),
    )
    @settings(**COMMON)
    def test_delay_continuous_in_t_lc(self, t_rc, ratio):
        """Small changes in T_LC produce small changes in delay — the
        continuity that makes the formula optimizer-friendly."""
        t_lc = (ratio * t_rc) ** 2  # zeta = 1/(2 ratio): spans both regimes
        base = delay_50_from_sums(t_rc, t_lc)
        nearby = delay_50_from_sums(t_rc, t_lc * 1.001)
        assert abs(nearby - base) < 0.01 * base

    @given(t_rc=st.floats(1e-12, 1e-8))
    @settings(**COMMON)
    def test_rc_limit_recovers_elmore(self, t_rc):
        tiny = (t_rc * 1e-4) ** 2
        rlc = delay_50_from_sums(t_rc, tiny)
        rc = delay_50_from_sums(t_rc, 0.0)
        assert math.isclose(rlc, rc, rel_tol=0.02)


class TestScaledResponse:
    @given(zeta=zetas, wn=st.floats(1e8, 1e12))
    @settings(**COMMON)
    def test_time_scaling_identity(self, zeta, wn):
        """Eq. 32: responses at different wn are pure time scalings."""
        model = SecondOrderModel(zeta=zeta, omega_n=wn)
        tau = np.linspace(0.0, 10.0, 50)
        direct = model.step_response(tau / wn)
        scaled = model.scaled_step_response(tau)
        np.testing.assert_allclose(direct, scaled, atol=1e-12)

    @given(zeta=zetas)
    @settings(**COMMON)
    def test_response_bounded(self, zeta):
        """Step response stays within [0, 2): max overshoot < 100%."""
        model = SecondOrderModel(zeta=zeta, omega_n=1.0)
        tau = np.linspace(0.0, 100.0, 2000)
        v = model.scaled_step_response(tau)
        assert np.all(v >= -1e-12)
        assert np.all(v < 2.0)


class TestNetlistRoundTrip:
    @given(tree=rlc_trees())
    @settings(**COMMON)
    def test_dumps_loads_identity(self, tree):
        again = loads(dumps(tree))
        assert set(again.nodes) == set(tree.nodes)
        for node in tree.nodes:
            assert again.section(node) == tree.section(node)


@st.composite
def narrow_range_trees(draw, max_sections=6):
    """Trees whose element values span at most ~2 decades, so a uniform
    fixed-step grid can resolve every mode (the wild-range case is the
    exact solver's job, not the fixed-step integrator's)."""
    count = draw(st.integers(1, max_sections))
    tree = RLCTree()
    names = ["in"]
    for i in range(1, count + 1):
        parent = names[draw(st.integers(0, len(names) - 1))]
        section = Section(
            draw(st.floats(5.0, 200.0)),
            draw(st.floats(0.5e-9, 10e-9)),
            draw(st.floats(0.05e-12, 1e-12)),
        )
        tree.add_section(f"n{i}", parent, section=section)
        names.append(f"n{i}")
    return tree


class TestSimulatorAgreement:
    @given(tree=narrow_range_trees())
    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exact_equals_trapezoidal(self, tree):
        from repro.simulation import StepSource, TrapezoidalSimulator, rms_error

        simulator = ExactSimulator(tree)
        sink = tree.leaves()[0]
        horizon = simulator.time_grid(points=2)[-1]
        assume(np.isfinite(horizon) and horizon > 0)
        # Size the step to the fastest mode: ~100 points per ringing
        # cycle keeps accumulated trapezoidal phase error negligible
        # even for high-Q (low-zeta) examples (at 60/cycle the worst
        # draws land right on the bound below).
        fastest = float(np.max(np.abs(simulator.poles())))
        cycles = horizon * fastest / (2 * math.pi)
        points = int(min(max(4001, 100 * cycles), 200001))
        t = np.linspace(0.0, horizon, points)
        reference = simulator.step_response(sink, t)
        candidate = TrapezoidalSimulator(tree).run(StepSource(), sink, t)
        # Phase error still accumulates linearly with cycle count for the
        # highest-Q draws, so the bound is looser than the fixed-tree
        # cross-checks in tests/simulation/test_transient.py.
        assert rms_error(reference, candidate) < 2e-2
