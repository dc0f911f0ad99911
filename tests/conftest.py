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
