"""The apps' incremental fast paths against their scalar escape hatches.

Each optimization loop routed through the delta-update engine keeps an
escape hatch, a context forcing ``RuntimeConfig(backend=...)``, running
the original scalar evaluation. The two paths are the same arithmetic
on the same values, so these tests demand *identical* decisions — same
widths, same buffer placements, same evaluation counts — not merely
close objectives.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from repro.apps import (
    Buffer,
    WireSizingProblem,
    h_tree,
    insert_buffers,
    optimize_width,
    perturbed_clock_tree,
    tune_clock_tree,
)
from repro.circuit import random_tree, single_line
from repro.engine import compile_tree
from repro.runtime import ExecutionContext, RuntimeConfig


@pytest.fixture(scope="module")
def compiled_context():
    with ExecutionContext(RuntimeConfig(backend="compiled")) as context:
        yield context


@pytest.fixture(scope="module")
def scalar_context():
    with ExecutionContext(RuntimeConfig(backend="scalar")) as context:
        yield context


class TestWireSizingIncremental:
    @pytest.fixture(scope="class")
    def problem(self):
        return WireSizingProblem(num_sections=24)

    @pytest.mark.parametrize("model", ["rc", "rlc"])
    def test_matches_escape_hatch(self, problem, model, compiled_context):
        fast = optimize_width(problem, model=model)
        slow = optimize_width(problem, model=model, context=compiled_context)
        assert fast.width == pytest.approx(slow.width, rel=1e-9)
        assert fast.delay == pytest.approx(slow.delay, rel=1e-9)
        assert fast.evaluations == slow.evaluations
        assert fast.model == slow.model == model

    @pytest.mark.parametrize("model", ["rc", "rlc"])
    def test_value_vectors_match_tree_compile_bitwise(self, problem, model):
        for width in (problem.min_width, 1e-6, problem.max_width):
            r, l, c = problem.value_vectors(width, model)
            compiled = compile_tree(problem.tree(width, model))
            template = problem.compiled_template(model)
            assert template.names == compiled.names
            assert np.array_equal(r, np.asarray(compiled.resistance))
            assert np.array_equal(l, np.asarray(compiled.inductance))
            assert np.array_equal(c, np.asarray(compiled.capacitance))

    def test_template_is_reused(self, problem):
        assert problem.compiled_template("rlc") is problem.compiled_template(
            "rlc"
        )


class TestBufferInsertionIncremental:
    @pytest.fixture
    def buffer_cell(self):
        return Buffer(
            output_resistance=25.0,
            input_capacitance=15e-15,
            intrinsic_delay=15e-12,
        )

    @pytest.mark.parametrize("model", ["rc", "rlc"])
    def test_line_matches_escape_hatch(
        self, buffer_cell, model, scalar_context
    ):
        line = single_line(
            12, resistance=120.0, inductance=1e-9, capacitance=0.4e-12
        )
        fast = insert_buffers(line, buffer_cell, model=model)
        slow = insert_buffers(
            line, buffer_cell, model=model, context=scalar_context
        )
        assert fast.buffer_nodes == slow.buffer_nodes
        assert fast.required_at_root == slow.required_at_root
        assert fast.root_capacitance == slow.root_capacitance

    @pytest.mark.parametrize("model", ["rc", "rlc"])
    def test_random_trees_match_escape_hatch(
        self, buffer_cell, model, scalar_context
    ):
        rng = default_rng(11)
        for trial in range(5):
            tree = random_tree(18, rng)
            sinks = tree.leaves()
            required = {s: float(rng.uniform(0.0, 1e-9)) for s in sinks}
            pins = {s: float(rng.uniform(0.0, 5e-14)) for s in sinks}
            fast = insert_buffers(
                tree,
                buffer_cell,
                sink_required=required,
                sink_capacitance=pins,
                model=model,
                driver_resistance=30.0,
            )
            slow = insert_buffers(
                tree,
                buffer_cell,
                sink_required=required,
                sink_capacitance=pins,
                model=model,
                driver_resistance=30.0,
                context=scalar_context,
            )
            assert fast.buffer_nodes == slow.buffer_nodes, (model, trial)
            assert fast.required_at_root == slow.required_at_root
            assert fast.root_capacitance == slow.root_capacitance


class TestClockTuningIncremental:
    @pytest.fixture(scope="class")
    def mismatched(self):
        return perturbed_clock_tree(h_tree(levels=3), 0.15, seed=5)

    def test_matches_escape_hatch(self, mismatched, compiled_context):
        fast = tune_clock_tree(mismatched, iterations=8)
        slow = tune_clock_tree(
            mismatched, iterations=8, context=compiled_context
        )
        assert set(fast.widths) == set(slow.widths)
        for name in fast.widths:
            assert fast.widths[name] == pytest.approx(
                slow.widths[name], rel=1e-9
            )
        assert fast.skew_after == pytest.approx(slow.skew_after, rel=1e-9)
        assert fast.iterations == slow.iterations

    def test_still_reduces_skew(self, mismatched):
        result = tune_clock_tree(mismatched)
        assert result.skew_after < result.skew_before
