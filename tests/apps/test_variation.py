"""Unit tests for Monte-Carlo variation analysis and linearized sigma."""

import math

import numpy as np
import pytest

from repro.apps import (
    DelaySamples,
    VariationModel,
    VariationStudy,
    linearized_sigma,
    sample_delays,
)
from repro.circuit import fig5_tree, scale_tree_to_zeta
from repro.errors import ConfigurationError, ReproError
from repro.runtime import ExecutionContext, RuntimeConfig


@pytest.fixture(scope="module")
def tree():
    return scale_tree_to_zeta(fig5_tree(), "n7", 0.7)


@pytest.fixture(scope="module")
def study(tree):
    return sample_delays(
        tree, "n7", VariationModel(), samples=300, exact_samples=25, seed=1
    )


class TestVariationModel:
    def test_validation(self):
        with pytest.raises(ReproError):
            VariationModel(sigma_resistance=-0.1)
        with pytest.raises(ReproError):
            VariationModel(sigma_capacitance=1.0)

    def test_sample_tree_positive_values(self, tree):
        rng = np.random.default_rng(0)
        perturbed = VariationModel(0.3, 0.3, 0.3).sample_tree(tree, rng)
        for _, section in perturbed.sections():
            assert section.resistance > 0
            assert section.inductance > 0
            assert section.capacitance > 0

    def test_zero_sigma_is_identity(self, tree):
        rng = np.random.default_rng(0)
        same = VariationModel(0.0, 0.0, 0.0).sample_tree(tree, rng)
        for name in tree.nodes:
            assert same.section(name).resistance == pytest.approx(
                tree.section(name).resistance
            )

    def test_lognormal_mean_preserving(self, tree):
        """The -sigma^2/2 shift keeps E[factor] = 1, so the mean sampled
        value stays near nominal."""
        rng = np.random.default_rng(7)
        model = VariationModel(0.2, 0.2, 0.2)
        total = 0.0
        draws = 400
        for _ in range(draws):
            perturbed = model.sample_tree(tree, rng)
            total += perturbed.section("n1").resistance
        nominal = tree.section("n1").resistance
        assert total / draws == pytest.approx(nominal, rel=0.03)


class TestSampleDelays:
    def test_shapes(self, study):
        assert study.rlc.values.shape == (300,)
        assert study.exact.values.shape == (25,)

    def test_distribution_sane(self, study):
        assert study.rlc.sigma > 0
        assert study.rlc.quantile(0.01) < study.rlc.mean < study.rlc.p99

    def test_rlc_mean_tracks_exact(self, study):
        assert study.rlc.mean == pytest.approx(study.exact.mean, rel=0.10)

    def test_rc_mean_is_biased_low(self, study):
        # Elmore ignores inductance: on this underdamped tree its whole
        # distribution sits ~30% below reality.
        assert study.rc.mean < 0.85 * study.exact.mean

    def test_rlc_ranks_samples_better(self, study):
        assert study.rank_correlation("rlc") > 0.85
        assert study.rank_correlation("rlc") > study.rank_correlation("rc")

    def test_deterministic_per_seed(self, tree):
        a = sample_delays(tree, "n7", VariationModel(), samples=50, seed=3)
        b = sample_delays(tree, "n7", VariationModel(), samples=50, seed=3)
        np.testing.assert_array_equal(a.rlc.values, b.rlc.values)

    def test_validation(self, tree):
        with pytest.raises(ReproError):
            sample_delays(tree, "n7", VariationModel(), samples=1)
        with pytest.raises(ReproError):
            sample_delays(tree, "n7", VariationModel(), samples=10,
                          exact_samples=11)
        with pytest.raises(ReproError):
            sample_delays(tree, "zzz", VariationModel())

    def test_rank_correlation_needs_exact(self, tree):
        study = sample_delays(tree, "n7", VariationModel(), samples=20)
        with pytest.raises(ReproError):
            study.rank_correlation()


class TestLinearizedSigma:
    def test_matches_monte_carlo(self, tree, study):
        nominal, sigma = linearized_sigma(tree, "n7", VariationModel())
        assert nominal == pytest.approx(study.rlc.mean, rel=0.02)
        assert sigma == pytest.approx(study.rlc.sigma, rel=0.20)

    def test_scales_with_variation(self, tree):
        _, small = linearized_sigma(
            tree, "n7", VariationModel(0.05, 0.025, 0.05)
        )
        _, large = linearized_sigma(tree, "n7", VariationModel(0.2, 0.1, 0.2))
        assert large == pytest.approx(4 * small, rel=1e-6)

    def test_zero_variation_zero_sigma(self, tree):
        _, sigma = linearized_sigma(tree, "n7", VariationModel(0.0, 0.0, 0.0))
        assert sigma == 0.0


class TestDegenerateSampleCounts:
    """The ddof=1 / rank-correlation degenerate cases are rejected or NaN."""

    def test_exact_samples_of_one_rejected(self, tree):
        with pytest.raises(ConfigurationError, match=r"exact_samples"):
            sample_delays(
                tree, "n7", VariationModel(), samples=10, exact_samples=1
            )

    def test_negative_exact_samples_rejected(self, tree):
        with pytest.raises(ConfigurationError, match=r"non-negative"):
            sample_delays(
                tree, "n7", VariationModel(), samples=10, exact_samples=-1
            )

    def test_single_sample_sigma_is_nan_not_warning(self):
        # np.std(ddof=1) on one value divides by zero; under the suite's
        # promoted warnings that was a crash. It must be a quiet NaN.
        assert math.isnan(DelaySamples(values=np.array([1.0])).sigma)

    def test_empty_sigma_is_nan(self):
        assert math.isnan(DelaySamples(values=np.empty(0)).sigma)

    def test_two_samples_have_a_sigma(self):
        assert DelaySamples(values=np.array([1.0, 3.0])).sigma == (
            pytest.approx(math.sqrt(2.0))
        )

    def test_rank_correlation_needs_two_exact_samples(self):
        lone = DelaySamples(values=np.array([1.0]))
        pair = DelaySamples(values=np.array([1.0, 2.0]))
        study = VariationStudy(node="n7", rlc=pair, rc=pair, exact=lone)
        with pytest.raises(ConfigurationError, match=r"at least 2 exact"):
            study.rank_correlation()

    def test_rank_correlation_fine_with_two(self):
        pair = DelaySamples(values=np.array([1.0, 2.0]))
        study = VariationStudy(node="n7", rlc=pair, rc=pair, exact=pair)
        assert study.rank_correlation() == pytest.approx(1.0)


def _workers(count):
    return ExecutionContext(RuntimeConfig(workers=count))


class TestShardedSampling:
    """A worker budget routes through the dispatch pool with bitwise-equal
    draws."""

    def test_workers_bitwise_identical(self, tree):
        serial = sample_delays(
            tree, "n7", VariationModel(), samples=40, seed=11
        )
        with _workers(2) as context:
            sharded = sample_delays(
                tree, "n7", VariationModel(), samples=40, seed=11,
                context=context,
            )
        np.testing.assert_array_equal(serial.rlc.values, sharded.rlc.values)
        np.testing.assert_array_equal(serial.rc.values, sharded.rc.values)

    def test_workers_one_is_serial_path(self, tree):
        serial = sample_delays(
            tree, "n7", VariationModel(), samples=20, seed=4
        )
        with _workers(1) as context:
            explicit = sample_delays(
                tree, "n7", VariationModel(), samples=20, seed=4,
                context=context,
            )
        np.testing.assert_array_equal(serial.rlc.values, explicit.rlc.values)

    def test_rng_stream_unaffected_by_workers(self, tree):
        """The exact-simulation draws share the same factor rows either way."""
        serial = sample_delays(
            tree, "n7", VariationModel(), samples=12, exact_samples=3,
            seed=8,
        )
        with _workers(2) as context:
            sharded = sample_delays(
                tree, "n7", VariationModel(), samples=12, exact_samples=3,
                seed=8, context=context,
            )
        np.testing.assert_array_equal(
            serial.exact.values, sharded.exact.values
        )
        assert serial.rank_correlation() == sharded.rank_correlation()
