"""Property tests pinning the vectorized engine to its references.

Three implementations of the same mathematics must agree on arbitrary
topologies: the engine's level-vectorized sweeps and kernels, the
dict-based O(n) sweep and scalar closed forms of ``tests/conftest.py``,
and the O(n^2) path-tracing oracle of :mod:`repro.circuit.paths`. The tolerance is 1e-12 relative —
the engine's segmented ``cumsum`` may associate sums differently than
the sequential dict loop, but only at the few-ulp level.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import TreeAnalyzer
from repro.circuit import RLCTree, Section
from repro.circuit.paths import (
    all_elmore_inductance_sums,
    all_elmore_resistance_sums,
)
from repro.engine import compile_tree, timing_table

from tests.conftest import dict_second_order_sums, scalar_timing

RELTOL = 1e-12

positive_resistance = st.floats(0.1, 1e4)
positive_inductance = st.floats(1e-12, 1e-7)
positive_capacitance = st.floats(1e-16, 1e-10)


@st.composite
def sections(draw, rc_limit_fraction=0.0):
    inductance = draw(positive_inductance)
    if rc_limit_fraction and draw(st.floats(0.0, 1.0)) < rc_limit_fraction:
        inductance = 0.0
    return Section(
        draw(positive_resistance),
        inductance,
        draw(positive_capacitance),
    )


@st.composite
def rlc_trees(draw, min_sections=1, max_sections=16, shape="random",
              rc_limit_fraction=0.0):
    """Random, chain, or star topologies with optional RC-limit sections."""
    count = draw(st.integers(min_sections, max_sections))
    tree = RLCTree()
    names = ["in"]
    for i in range(1, count + 1):
        if shape == "chain":
            parent = names[-1]
        elif shape == "star":
            parent = names[min(1, len(names) - 1)]
        else:
            parent = names[draw(st.integers(0, len(names) - 1))]
        name = f"n{i}"
        tree.add_section(
            name, parent, section=draw(sections(rc_limit_fraction))
        )
        names.append(name)
    return tree


def assert_close(got, want, context):
    if math.isinf(want):
        assert math.isinf(got), context
        return
    scale = max(abs(got), abs(want))
    assert abs(got - want) <= RELTOL * scale, (context, got, want)


def check_tree(tree):
    compiled = compile_tree(tree, cache=False)
    t_rc_vec, t_lc_vec = compiled.second_order_sums()

    t_rc_dict, t_lc_dict = dict_second_order_sums(tree)
    oracle_rc = all_elmore_resistance_sums(tree)
    oracle_lc = all_elmore_inductance_sums(tree)

    fast = TreeAnalyzer(tree)
    table = timing_table(tree, cache=False)

    for i, node in enumerate(compiled.names):
        assert_close(float(t_rc_vec[i]), t_rc_dict[node], ("t_rc/dict", node))
        assert_close(float(t_lc_vec[i]), t_lc_dict[node], ("t_lc/dict", node))
        assert_close(float(t_rc_vec[i]), oracle_rc[node], ("t_rc/oracle", node))
        assert_close(float(t_lc_vec[i]), oracle_lc[node], ("t_lc/oracle", node))

        a = fast.timing(node)
        b = scalar_timing(node, t_rc_dict[node], t_lc_dict[node])
        assert a == table.timing(node), node
        for metric in (
            "zeta",
            "omega_n",
            "delay_50",
            "rise_time",
            "overshoot",
            "settling",
        ):
            assert_close(
                getattr(a, metric), getattr(b, metric), (metric, node)
            )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=rlc_trees())
def test_engine_matches_dicts_and_oracle_random(tree):
    check_tree(tree)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=rlc_trees(min_sections=8, max_sections=24, shape="chain"))
def test_engine_matches_on_deep_chains(tree):
    check_tree(tree)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=rlc_trees(min_sections=8, max_sections=24, shape="star"))
def test_engine_matches_on_wide_stars(tree):
    check_tree(tree)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=rlc_trees(rc_limit_fraction=0.5))
def test_engine_matches_with_rc_limit_nodes(tree):
    check_tree(tree)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=rlc_trees(min_sections=1, max_sections=1))
def test_engine_matches_on_single_section(tree):
    check_tree(tree)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=rlc_trees(), scale=st.floats(0.5, 2.0))
def test_cache_never_serves_stale_values(tree, scale):
    """A topology-cache hit must re-read every element value."""
    first = compile_tree(tree)
    perturbed = tree.map_sections(
        lambda name, s: Section(
            s.resistance * scale, s.inductance * scale, s.capacitance * scale
        )
    )
    second = compile_tree(perturbed)
    assert second.topology is first.topology
    for i, name in enumerate(second.names):
        section = perturbed.section(name)
        assert second.resistance[i] == section.resistance
        assert second.inductance[i] == section.inductance
        assert second.capacitance[i] == section.capacitance

    t_rc_dict, t_lc_dict = dict_second_order_sums(perturbed)
    t_rc_vec, t_lc_vec = second.second_order_sums()
    for i, name in enumerate(second.names):
        assert_close(float(t_rc_vec[i]), t_rc_dict[name], ("t_rc", name))
        assert_close(float(t_lc_vec[i]), t_lc_dict[name], ("t_lc", name))
