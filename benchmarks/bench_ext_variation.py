"""Extension — statistical timing: Monte-Carlo distributions per model.

Closed-form delays make statistical timing affordable; this bench
quantifies whether they make it *right*. For a mismatched underdamped
tree under log-normal process variation it reports, per delay model, the
distribution statistics against a simulated subset, plus the
one-gradient linearized sigma against the Monte-Carlo sigma.

Timed kernels: 500 closed-form Monte-Carlo samples; one linearized-sigma
evaluation (the O(n) alternative).
"""

from repro.apps import VariationModel, linearized_sigma, sample_delays
from repro.circuit import fig5_tree, scale_tree_to_zeta

from conftest import percent


def test_variation_distributions(report, benchmark):
    tree = scale_tree_to_zeta(fig5_tree(), "n7", 0.7)
    variation = VariationModel(
        sigma_resistance=0.1, sigma_inductance=0.05, sigma_capacitance=0.1
    )
    study = sample_delays(
        tree, "n7", variation, samples=500, exact_samples=40, seed=1
    )
    rows = [
        ("exact (40 samples)", study.exact.mean * 1e12,
         study.exact.sigma * 1e12, study.exact.p99 * 1e12, "--"),
        ("RLC closed form", study.rlc.mean * 1e12, study.rlc.sigma * 1e12,
         study.rlc.p99 * 1e12, f"{study.rank_correlation('rlc'):.3f}"),
        ("RC Elmore", study.rc.mean * 1e12, study.rc.sigma * 1e12,
         study.rc.p99 * 1e12, f"{study.rank_correlation('rc'):.3f}"),
    ]
    report.table(
        ["model", "mean (ps)", "sigma (ps)", "p99 (ps)", "rank corr"], rows
    )

    nominal, lin_sigma = linearized_sigma(tree, "n7", variation)
    report.line()
    report.line(
        f"linearized (one-gradient) sigma: {lin_sigma * 1e12:.2f} ps vs "
        f"Monte-Carlo {study.rlc.sigma * 1e12:.2f} ps "
        f"({percent(abs(lin_sigma - study.rlc.sigma) / study.rlc.sigma):.1f}% "
        "apart); nominal "
        f"{nominal * 1e12:.1f} ps"
    )
    report.line(
        "the RLC closed form lands on the exact distribution's mean and "
        "ranks the samples; RC Elmore's whole distribution is biased low "
        "(it cannot see the inductance every sample shares)."
    )

    benchmark(
        lambda: sample_delays(tree, "n7", variation, samples=100, seed=2)
    )

    assert abs(study.rlc.mean - study.exact.mean) / study.exact.mean < 0.10
    assert study.rc.mean < 0.85 * study.exact.mean
    assert study.rank_correlation("rlc") > study.rank_correlation("rc")
    assert abs(lin_sigma - study.rlc.sigma) / study.rlc.sigma < 0.25


def test_linearized_sigma_speed(report, benchmark):
    tree = scale_tree_to_zeta(fig5_tree(), "n7", 0.7)
    variation = VariationModel()
    nominal, sigma = benchmark(
        lambda: linearized_sigma(tree, "n7", variation)
    )
    report.line(
        f"one O(n) gradient gives nominal {nominal * 1e12:.1f} ps, "
        f"sigma {sigma * 1e12:.2f} ps"
    )
    assert sigma > 0
