"""Shared fixtures for the repro test suite."""

import numpy as np
import pytest

from repro.circuit import (
    RLCTree,
    Section,
    balanced_tree,
    fig5_tree,
    fig8_tree,
    random_tree,
    single_line,
)


@pytest.fixture
def section():
    """A generic moderately inductive section."""
    return Section(resistance=25.0, inductance=5e-9, capacitance=0.5e-12)


@pytest.fixture
def fig5():
    """The paper's Fig. 5 balanced 7-section binary tree."""
    return fig5_tree()


@pytest.fixture
def fig8():
    """The irregular Fig. 8 stand-in tree."""
    return fig8_tree()


@pytest.fixture
def line3():
    """A short uniform 3-section line."""
    return single_line(3, resistance=10.0, inductance=2e-9, capacitance=0.2e-12)


@pytest.fixture
def rc_line():
    """An inductance-free 5-section line (RC limit)."""
    return single_line(5, resistance=100.0, inductance=0.0, capacitance=0.1e-12)


@pytest.fixture
def deep_balanced():
    """A 4-level binary balanced tree (30 sections)."""
    return balanced_tree(4, 2, resistance=20.0, inductance=3e-9, capacitance=0.3e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def random_rlc(rng):
    """A reproducible random 25-section RLC tree."""
    return random_tree(25, rng)


def star_tree(fan_out: int) -> RLCTree:
    """``in -> hub`` with ``fan_out`` leaves under the hub.

    The hub's children are one reduceat segment of ``fan_out`` nodes, so
    fan-outs either side of numpy's 8-wide and 128-wide pairwise-sum
    blocks pin the batch subtree sums' association.
    """
    tree = RLCTree("in")
    tree.add_section("hub", "in", 20.0, 2e-9, 0.1e-12)
    for leaf in range(fan_out):
        tree.add_section(f"l{leaf}", "hub", 5.0, 0.5e-9, 0.02e-12)
    return tree


# -- the dict moment oracle -------------------------------------------------
#
# A name-keyed, one-node-at-a-time evaluation of the weighted path sums
# and the exact moment recursion, kept independent of the level-grouped
# kernel in ``repro.engine.compiled`` so the two can be compared.


def weighted_path_sums(tree, resistance_weights, inductance_weights):
    """``sum_k R_ki w_r(k) + sum_k L_ki w_l(k)`` at every node, by dict.

    One postorder pass accumulates subtree weight totals and one
    preorder pass propagates the path sums down from the root. The
    classic sums are the special case ``w_r = w_l = C_k``; the moment
    recursion uses ``w_r(k) = C_k m_{j-1}(k)``, ``w_l(k) = C_k m_{j-2}(k)``.
    """
    subtree_r = {}
    subtree_l = {}
    for name in tree.postorder():
        total_r = resistance_weights.get(name, 0.0)
        total_l = inductance_weights.get(name, 0.0)
        for child in tree.children(name):
            total_r += subtree_r[child]
            total_l += subtree_l[child]
        subtree_r[name] = total_r
        subtree_l[name] = total_l

    sums = {}
    for name in tree.preorder():
        section = tree.section(name)
        parent = tree.parent(name)
        upstream = sums[parent] if parent != tree.root else 0.0
        sums[name] = (
            upstream
            + section.resistance * subtree_r[name]
            + section.inductance * subtree_l[name]
        )
    return sums


def dict_exact_moments(tree, order):
    """Exact moments ``m_0 .. m_order`` per node name, by dict recursion.

    ``m_j(i) = -sum_k [R_ki C_k m_{j-1}(k) + L_ki C_k m_{j-2}(k)]``, one
    :func:`weighted_path_sums` sweep per order.
    """
    moments = {name: [1.0] for name in tree.nodes}
    previous = {name: 1.0 for name in tree.nodes}
    before_previous = {name: 0.0 for name in tree.nodes}
    for _ in range(order):
        w_r = {
            name: tree.section(name).capacitance * previous[name]
            for name in tree.nodes
        }
        w_l = {
            name: tree.section(name).capacitance * before_previous[name]
            for name in tree.nodes
        }
        sums = weighted_path_sums(tree, w_r, w_l)
        current = {name: -sums[name] for name in tree.nodes}
        for name in tree.nodes:
            moments[name].append(current[name])
        before_previous = previous
        previous = current
    return moments


# -- the dict closed-form oracle --------------------------------------------
#
# The Appendix's two passes as a name-keyed dict sweep, and the per-node
# closed forms as ``math``/``SecondOrderModel`` scalar code, kept
# independent of the engine's compiled passes and kernels so the two can
# be compared (they agree to ~1e-14 relative, not bitwise: the passes
# associate the subtree additions differently).


def dict_capacitive_loads(tree):
    """Total capacitance driven by each section (``Cal_Cap_Loads``), by
    one postorder sweep with additions only."""
    loads = {}
    for name in tree.postorder():
        total = tree.section(name).capacitance
        for child in tree.children(name):
            total += loads[child]
        loads[name] = total
    return loads


def dict_second_order_sums(tree):
    """``(T_RC, T_LC)`` per node name (eqs. 26-27): ``Cal_Summations``
    as one preorder sweep over :func:`dict_capacitive_loads`."""
    loads = dict_capacitive_loads(tree)
    t_rc = {}
    t_lc = {}
    for name in tree.preorder():
        section = tree.section(name)
        parent = tree.parent(name)
        up_rc = t_rc[parent] if parent != tree.root else 0.0
        up_lc = t_lc[parent] if parent != tree.root else 0.0
        t_rc[name] = up_rc + section.resistance * loads[name]
        t_lc[name] = up_lc + section.inductance * loads[name]
    return t_rc, t_lc


def scalar_timing(node, t_rc, t_lc, settle_band=0.1):
    """Every closed-form metric of one node from its sums, scalar code."""
    import math

    from repro.analysis import NodeTiming, SecondOrderModel
    from repro.analysis.delay import elmore_delay, wyatt_rise_time
    from repro.analysis.fitting import scaled_delay, scaled_rise
    from repro.analysis.oscillation import overshoot_train, settling_time

    if t_lc == 0.0:
        return NodeTiming(
            node=node,
            t_rc=t_rc,
            t_lc=t_lc,
            zeta=math.inf,
            omega_n=math.inf,
            delay_50=elmore_delay(t_rc),
            rise_time=wyatt_rise_time(t_rc),
            overshoot=0.0,
            settling=-math.log(settle_band) * t_rc,
        )
    model = SecondOrderModel.from_sums(t_rc, t_lc)
    if model.zeta < 1.0:
        train = overshoot_train(model, max_count=1)
        overshoot = train[0].fraction if train else 0.0
    else:
        overshoot = 0.0
    return NodeTiming(
        node=node,
        t_rc=t_rc,
        t_lc=t_lc,
        zeta=0.5 * t_rc / math.sqrt(t_lc),
        omega_n=model.omega_n,
        delay_50=scaled_delay(model.zeta) / model.omega_n,
        rise_time=scaled_rise(model.zeta) / model.omega_n,
        overshoot=overshoot,
        settling=settling_time(model, settle_band),
    )


def scalar_report(tree, settle_band=0.1):
    """:func:`scalar_timing` at every node over :func:`dict_second_order_sums`."""
    t_rc, t_lc = dict_second_order_sums(tree)
    return [
        scalar_timing(node, t_rc[node], t_lc[node], settle_band)
        for node in tree.nodes
    ]


def variation_reference(tree, node, variation, samples, seed):
    """``sample_delays``'s (RLC, RC) delay samples as one batch.

    The whole ``(S, 3, n)`` value block comes from one draw of a fresh
    generator and goes through one ``analyze_batch`` call; the chunked
    sweep must reproduce it bitwise at every chunk size.
    """
    import math

    from repro.engine import compile_tree
    from repro.engine.table import analyze_batch

    compiled = compile_tree(tree)
    sig = np.asarray(variation.log_sigmas())
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    z = np.random.default_rng(seed).standard_normal(
        (samples, compiled.size, 3)
    )
    factors = np.exp(-0.5 * sig * sig + sig * z).transpose(0, 2, 1)
    batch = analyze_batch(
        compiled, factors * nominal, metrics=("delay_50", "t_rc")
    )
    return (
        batch.column("delay_50", node),
        math.log(2.0) * batch.column("t_rc", node),
    )


def width_sweep_reference(problem, widths, model):
    """``sweep_widths``'s delays as one batch: one extracted tree per
    width, stacked into one ``(S, 3, n)`` block."""
    from repro.engine import compile_tree
    from repro.engine.table import analyze_batch

    compiled = [compile_tree(problem.tree(w, model)) for w in widths]
    block = np.stack(
        [
            np.stack([ct.resistance, ct.inductance, ct.capacitance])
            for ct in compiled
        ]
    )
    batch = analyze_batch(compiled[0], block, metrics=("delay_50",))
    return batch.column("delay_50", problem.sink())
