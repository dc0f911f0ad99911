"""The three application sweeps on the lazy path, pinned to references.

``sample_delays`` and ``sweep_widths`` are pinned to test-owned
one-block ``analyze_batch`` evaluations of the same values
(``tests/conftest.py``); ``tune_clock_tree``'s batched backtracking
cascade is pinned to its own per-proposal loop, which a context forcing
the compiled backend runs. The lazy DAG path must reproduce each
reference *bitwise* — same delays, same RNG streams, same accepted
descent steps — at every chunk size tried.
"""

import numpy as np
import pytest

from repro.apps import (
    WireSizingProblem,
    h_tree,
    perturbed_clock_tree,
    sweep_widths,
    tune_clock_tree,
)
from repro.apps.variation import VariationModel, sample_delays
from repro.circuit import Section, fig5_tree
from repro.engine import compile_tree
from repro.runtime import ExecutionContext, RuntimeConfig
from repro.simulation.exact import ExactSimulator
from repro.simulation.measures import delay_50
from tests.conftest import variation_reference, width_sweep_reference


@pytest.fixture(scope="module")
def tree():
    return fig5_tree()


def _per_proposal(tree, **kwargs):
    """The descent scored one proposal at a time (compiled backend)."""
    with ExecutionContext(RuntimeConfig(backend="compiled")) as context:
        return tune_clock_tree(tree, context=context, **kwargs)


class TestSampleDelaysLazy:
    @pytest.mark.parametrize("chunk_size", [1, 52, 53, 60, None])
    def test_bitwise_identical_to_eager(self, tree, chunk_size):
        variation = VariationModel(0.15, 0.1, 0.2)
        lazy = sample_delays(
            tree, "n7", variation, samples=53, exact_samples=3, seed=11,
            chunk_size=chunk_size,
        )
        rlc, rc = variation_reference(tree, "n7", variation, 53, seed=11)
        assert lazy.rlc.values.tobytes() == rlc.tobytes()
        assert lazy.rc.values.tobytes() == rc.tobytes()

    def test_exact_samples_share_the_first_draws(self, tree):
        variation = VariationModel(0.15, 0.1, 0.2)
        study = sample_delays(
            tree, "n7", variation, samples=20, exact_samples=2, seed=11
        )
        z = np.random.default_rng(11).standard_normal((2, tree.size, 3))
        sig = np.asarray(variation.log_sigmas())
        factors = np.exp(-0.5 * sig * sig + sig * z)
        index = compile_tree(tree).topology.index
        for row in range(2):
            perturbed = tree.map_sections(
                lambda name, s: Section(
                    s.resistance * factors[row, index[name], 0],
                    s.inductance * factors[row, index[name], 1],
                    s.capacitance * factors[row, index[name], 2],
                )
            )
            simulator = ExactSimulator(perturbed)
            t = simulator.time_grid(points=4001, span_factor=12.0)
            assert study.exact.values[row] == delay_50(
                t, simulator.step_response("n7", t)
            )

    def test_rng_stream_is_chunk_invariant(self, tree):
        variation = VariationModel()
        small = sample_delays(
            tree, "n7", variation, samples=40, seed=3, chunk_size=7
        )
        large = sample_delays(
            tree, "n7", variation, samples=40, seed=3, chunk_size=1000
        )
        assert small.rlc.values.tobytes() == large.rlc.values.tobytes()


class TestSweepWidthsLazy:
    @pytest.mark.parametrize("model", ["rlc", "rc"])
    def test_bitwise_identical_to_eager(self, model):
        problem = WireSizingProblem()
        widths = np.linspace(problem.min_width, problem.max_width, 37)
        lazy = sweep_widths(problem, widths, model, chunk_size=10)
        reference = width_sweep_reference(problem, widths, model)
        assert lazy.tobytes() == reference.tobytes()

    def test_empty_grid(self):
        problem = WireSizingProblem()
        assert sweep_widths(problem, []).size == 0


class TestTuneClockTreeLazy:
    def test_cascade_descent_matches_eager_probing(self):
        tree = perturbed_clock_tree(h_tree(levels=3), 0.15, seed=5)
        lazy = tune_clock_tree(tree)
        reference = _per_proposal(tree)
        assert lazy.objective_trace == reference.objective_trace
        assert lazy.iterations == reference.iterations
        assert set(lazy.widths) == set(reference.widths)
        assert all(
            lazy.widths[k] == reference.widths[k] for k in reference.widths
        )
        assert lazy.skew_after == reference.skew_after

    def test_budget_capped_cascade_matches(self):
        tree = perturbed_clock_tree(h_tree(levels=3), 0.25, seed=2)
        lazy = tune_clock_tree(tree, iterations=7, initial_step=0.2)
        reference = _per_proposal(tree, iterations=7, initial_step=0.2)
        assert lazy.iterations == reference.iterations
        assert lazy.objective_trace == reference.objective_trace
        assert all(
            lazy.widths[k] == reference.widths[k] for k in reference.widths
        )
