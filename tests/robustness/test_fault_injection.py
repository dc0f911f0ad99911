"""The fault-injection harness and its central invariant.

The robustness guarantee under test: **every metric query on every node
of every generated tree either returns finite values or raises a**
:class:`repro.errors.ReproError` **subclass** — never a raw
``numpy.linalg.LinAlgError``, ``ZeroDivisionError``,
``FloatingPointError`` or any other undeclared exception.

Run standalone with ``pytest -m robustness``.
"""

import math

import pytest

from repro.errors import ReproError, ValidationError
from repro.robustness import (
    FAMILIES,
    GuardedAnalyzer,
    RepairPolicy,
    degenerate_tree,
    fault_suite,
    perturb,
    validate_tree,
)

pytestmark = pytest.mark.robustness

METRICS = ("delay_50", "rise_time", "overshoot", "settling_time")

#: ISSUE acceptance floor: at least 200 seeded degenerate/perturbed trees.
SUITE_SIZE = 216  # a multiple of len(FAMILIES): every family 24 times


def _assert_finite_or_typed(guarded, node):
    """The invariant, for all metrics of one node."""
    for metric in METRICS:
        try:
            report = guarded.query(metric, node)
        except ReproError:
            continue  # a typed failure satisfies the guarantee
        assert isinstance(report.value, float)
        assert math.isfinite(report.value), (
            f"{metric}@{node}: non-finite {report.value!r} via {report.tier}"
        )


class TestGenerators:
    def test_deterministic(self):
        a = degenerate_tree(7)
        b = degenerate_tree(7)
        assert a.family == b.family
        assert list(a.tree.nodes) == list(b.tree.nodes)
        for name, section in a.tree.sections():
            other = b.tree.section(name)
            for field in ("resistance", "inductance", "capacitance"):
                x = getattr(section, field)
                y = getattr(other, field)
                assert (x == y) or (math.isnan(x) and math.isnan(y))

    def test_seed_sweep_covers_every_family(self):
        seen = {degenerate_tree(s).family for s in range(len(FAMILIES))}
        assert seen == set(FAMILIES)

    def test_explicit_family_selection(self):
        case = degenerate_tree(123, family="deep-chain")
        assert case.family == "deep-chain"
        assert case.tree.depth >= 100

    def test_perturb_reports_mutations(self, fig5, rng):
        mutated, mutations = perturb(fig5, rng, count=4)
        assert 1 <= len(mutations) <= 4  # node collisions coalesce
        assert all("@" in m for m in mutations)
        # The original tree is untouched.
        for name, section in fig5.sections():
            assert math.isfinite(section.resistance)

    def test_suite_size_and_reproducibility(self):
        cases = list(fault_suite(20, seed=5))
        again = list(fault_suite(20, seed=5))
        assert len(cases) == 20
        assert [c.family for c in cases] == [c.family for c in again]


class TestValidatorSeesEveryInjection:
    def test_invalid_cases_are_flagged(self):
        flagged_invalid = 0
        for case in fault_suite(SUITE_SIZE):
            report = validate_tree(case.tree)
            if case.expect_invalid:
                flagged_invalid += 1
                assert not report.ok, (
                    f"seed {case.seed} ({case.family}, {case.mutations}) "
                    "contains constructor-invalid values but validated ok"
                )
        assert flagged_invalid > 0  # the sweep does exercise this path


class TestInvariantStrict:
    """No repair policy: hopeless trees must fail as ValidationError."""

    def test_finite_or_typed_everywhere(self):
        checked_queries = 0
        rejected = 0
        for case in fault_suite(SUITE_SIZE):
            try:
                guarded = GuardedAnalyzer(case.tree)
            except ValidationError:
                rejected += 1
                continue
            for node in guarded.tree.nodes:
                _assert_finite_or_typed(guarded, node)
                checked_queries += len(METRICS)
        assert checked_queries > 1000
        assert rejected > 0  # injected NaN/inf/negative cases exist

    def test_invalid_cases_raise_validation_error(self):
        for case in fault_suite(SUITE_SIZE):
            if not case.expect_invalid:
                continue
            with pytest.raises(ValidationError):
                GuardedAnalyzer(case.tree)


class TestInvariantWithRepair:
    """repair_all: every generated tree must be answerable or typed."""

    def test_finite_or_typed_everywhere(self):
        policy = RepairPolicy.repair_all()
        for case in fault_suite(SUITE_SIZE):
            try:
                guarded = GuardedAnalyzer(case.tree, policy=policy)
            except ReproError:
                continue
            for node in guarded.tree.nodes:
                _assert_finite_or_typed(guarded, node)


class TestInvariantWithoutClosedForm:
    """The dense tiers alone must also honor the guarantee.

    The closed-form tier absorbs nearly everything in the default
    chain; excluding it drives the AWE and exact backends — where the
    raw numerical failures actually live — against the hostile suite.
    A smaller sweep keeps the eigensolves affordable.
    """

    def test_dense_tiers_finite_or_typed(self):
        policy = RepairPolicy.repair_all()
        for case in fault_suite(45, seed=1000):
            try:
                guarded = GuardedAnalyzer(
                    case.tree, chain=("awe", "exact"), policy=policy
                )
            except ReproError:
                continue
            nodes = guarded.tree.nodes
            probe_nodes = {nodes[0], nodes[len(nodes) // 2], nodes[-1]}
            for node in probe_nodes:
                _assert_finite_or_typed(guarded, node)
