"""Unit tests for the Arnoldi (Krylov) reducer."""

import numpy as np
import pytest

from repro.circuit import balanced_tree
from repro.errors import ReductionError
from repro.reduction import arnoldi_model
from repro.simulation import ExactSimulator


class TestMomentMatching:
    def test_order_q_matches_q_moments(self, fig8):
        """Arnoldi on K_q(A^-1, A^-1 b) matches the first q moments."""
        from repro.analysis import exact_moments

        q = 4
        reduction = arnoldi_model(fig8, "out", q)
        expected = exact_moments(fig8, q - 1)["out"]
        np.testing.assert_allclose(
            reduction.model.moments(q - 1), expected, rtol=1e-6
        )

    def test_full_order_reproduces_exact_response(self, fig8):
        sim = ExactSimulator(fig8)
        full = sim.order
        reduction = arnoldi_model(fig8, "out", full)
        t = sim.time_grid(points=1001)
        np.testing.assert_allclose(
            reduction.model.step_response(t),
            sim.step_response("out", t),
            atol=1e-6,
        )

    def test_reduced_matrices_shapes(self, fig8):
        reduction = arnoldi_model(fig8, "out", 5)
        assert reduction.order == 5
        assert reduction.a_reduced.shape == (5, 5)
        assert reduction.b_reduced.shape == (5,)
        assert reduction.c_reduced.shape == (5,)


class TestKrylovCollapse:
    def test_balanced_tree_collapses_at_effective_order(self, fig5):
        """Section V-B pole-zero cancellation, seen through Krylov: the
        14-state balanced Fig. 5 tree has only 6 reachable/observable
        poles at a sink, so the Krylov space collapses at dimension 6."""
        assert arnoldi_model(fig5, "n7", 6).order == 6
        with pytest.raises(ReductionError, match="collapsed"):
            arnoldi_model(fig5, "n7", 7)

    def test_branching_16_collapses_even_earlier(self):
        # 2 levels of branching 16: 272 sections, but a sink sees only
        # a 2-level ladder -> 4 effective poles.
        tree = balanced_tree(2, 16, resistance=25.0, inductance=5e-9,
                             capacitance=0.5e-12)
        sink = tree.leaves()[0]
        assert arnoldi_model(tree, sink, 4).order == 4
        with pytest.raises(ReductionError, match="collapsed"):
            arnoldi_model(tree, sink, 5)


class TestValidation:
    def test_order_bounds(self, fig8):
        with pytest.raises(ReductionError):
            arnoldi_model(fig8, "out", 0)
        with pytest.raises(ReductionError, match="exceeds"):
            arnoldi_model(fig8, "out", 1000)

    def test_unknown_node(self, fig8):
        with pytest.raises(ReductionError):
            arnoldi_model(fig8, "nope", 2)
