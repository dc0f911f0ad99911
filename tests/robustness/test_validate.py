"""Validation and policy-gated sanitization."""

import math

import pytest

from repro.circuit import RLCTree, single_line
from repro.errors import ConfigurationError, ValidationError
from repro.robustness import (
    Diagnostic,
    RepairPolicy,
    Severity,
    ValidationReport,
    sanitize,
    validate_tree,
)
from repro.robustness.faults import _bypass

pytestmark = pytest.mark.robustness


def _inject(tree, node, **overrides):
    """Force invalid element values past the Section constructor."""
    return tree.map_sections(
        lambda name, s: _bypass(s, **overrides) if name == node else s
    )


class TestSeverity:
    def test_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO

    def test_str_is_lowercase(self):
        assert str(Severity.ERROR) == "error"


class TestValidateTree:
    def test_clean_tree_passes(self, fig5):
        report = validate_tree(fig5)
        assert report.ok
        assert not report.errors()

    def test_empty_tree_is_error(self):
        report = validate_tree(RLCTree())
        assert not report.ok
        assert report.codes() == ("empty-tree",)

    def test_nan_element_flagged(self, fig5):
        bad = _inject(fig5, "n3", resistance=float("nan"))
        report = validate_tree(bad)
        assert not report.ok
        findings = report.by_code("non-finite-element")
        assert findings and findings[0].node == "n3"
        assert findings[0].severity == Severity.ERROR

    def test_negative_element_flagged(self, fig5):
        bad = _inject(fig5, "n5", capacitance=-1e-12)
        report = validate_tree(bad)
        assert report.by_code("negative-element")
        assert not report.ok

    def test_zero_impedance_flagged(self, fig5):
        bad = _inject(fig5, "n2", resistance=0.0, inductance=0.0)
        report = validate_tree(bad)
        assert report.by_code("zero-impedance")

    def test_zero_capacitance_is_warning_only(self, fig5):
        bad = _inject(fig5, "n4", capacitance=0.0)
        report = validate_tree(bad)
        assert report.ok  # warnings don't fail validation
        assert report.by_code("zero-capacitance")

    def test_dynamic_range_flagged(self):
        tree = RLCTree()
        tree.add_section("a", "in", resistance=1e-6, inductance=0.0,
                         capacitance=1e-12)
        tree.add_section("b", "a", resistance=1e7, inductance=0.0,
                         capacitance=1e-12)
        report = validate_tree(tree)
        assert any(
            d.code == "dynamic-range" and "R" in d.message for d in report
        )

    def test_huge_fanout_flagged(self):
        tree = RLCTree()
        for i in range(70):
            tree.add_section(f"n{i}", "in", resistance=1.0, inductance=0.0,
                             capacitance=1e-13)
        report = validate_tree(tree)
        assert report.by_code("huge-fanout")
        assert report.ok  # pathological but usable

    def test_deep_chain_flagged(self):
        tree = single_line(40, resistance=1.0, inductance=0.0,
                           capacitance=1e-13)
        report = validate_tree(tree, depth_limit=30)
        assert report.by_code("deep-chain")

    def test_rc_only_is_info(self, rc_line):
        report = validate_tree(rc_line)
        assert report.by_code("rc-only")[0].severity == Severity.INFO

    def test_never_raises_on_garbage(self, fig5):
        bad = _inject(fig5, "n1", resistance=float("nan"),
                      inductance=float("inf"), capacitance=-1.0)
        validate_tree(bad)  # must not raise


class TestValidationReport:
    def test_raise_if_errors(self, fig5):
        bad = _inject(fig5, "n3", capacitance=float("inf"))
        report = validate_tree(bad)
        with pytest.raises(ValidationError) as excinfo:
            report.raise_if_errors()
        assert excinfo.value.diagnostics
        assert all(isinstance(d, Diagnostic) for d in excinfo.value.diagnostics)

    def test_clean_report_does_not_raise(self, fig5):
        validate_tree(fig5).raise_if_errors()

    def test_bool_and_summary(self, fig5):
        report = validate_tree(fig5)
        assert bool(report)
        assert isinstance(report.summary(), str)

    def test_merged(self):
        a = ValidationReport((Diagnostic(Severity.INFO, "x", "m"),))
        b = ValidationReport((Diagnostic(Severity.ERROR, "y", "m"),))
        merged = a.merged(b)
        assert merged.codes() == ("x", "y")
        assert not merged.ok


class TestRepairPolicy:
    def test_default_repairs_nothing(self):
        policy = RepairPolicy.none()
        assert not policy.clamp
        assert policy.epsilon_capacitance == 0.0
        assert not policy.merge_zero_impedance

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            RepairPolicy(epsilon_capacitance=float("nan"))
        with pytest.raises(ConfigurationError):
            RepairPolicy(epsilon_capacitance=-1.0)


class TestSanitize:
    def test_clean_tree_returned_unchanged(self, fig5):
        repaired, report = sanitize(fig5, RepairPolicy.repair_all())
        assert repaired is fig5
        assert report.ok

    def test_no_policy_no_repair(self, fig5):
        bad = _inject(fig5, "n3", resistance=float("nan"))
        repaired, report = sanitize(bad)
        assert repaired is bad
        assert not report.ok

    def test_clamp_nan(self, fig5):
        bad = _inject(fig5, "n3", resistance=float("nan"))
        repaired, report = sanitize(bad, RepairPolicy.repair_all())
        assert report.ok
        assert math.isfinite(repaired.section("n3").resistance)
        assert any(d.repaired for d in report.by_code("non-finite-element"))

    def test_clamp_inf(self, fig5):
        bad = _inject(fig5, "n2", capacitance=float("inf"))
        repaired, report = sanitize(bad, RepairPolicy.repair_all())
        assert report.ok
        assert math.isfinite(repaired.section("n2").capacitance)

    def test_epsilon_capacitance(self, fig5):
        bad = _inject(fig5, "n6", capacitance=0.0)
        repaired, report = sanitize(
            bad, RepairPolicy(epsilon_capacitance=1e-18)
        )
        assert repaired.section("n6").capacitance == 1e-18
        assert any(d.repaired for d in report.by_code("zero-capacitance"))

    def test_merge_zero_impedance(self, fig5):
        bad = _inject(fig5, "n3", resistance=0.0, inductance=0.0)
        c_before = bad.section("n3").capacitance
        parent = bad.parent("n3")
        c_parent = bad.section(parent).capacitance
        repaired, report = sanitize(
            bad, RepairPolicy(merge_zero_impedance=True)
        )
        assert "n3" not in repaired
        # The shunt capacitance folds into the parent node.
        assert repaired.section(parent).capacitance == pytest.approx(
            c_parent + c_before
        )
        # Children of the merged node re-attach to the parent.
        for child in bad.children("n3"):
            assert repaired.parent(child) == parent

    def test_repaired_tree_is_constructible_and_guardable(self, fig5):
        from repro import GuardedAnalyzer
        from repro.errors import ReproError

        bad = _inject(fig5, "n1", resistance=float("nan"))
        bad = _inject(bad, "n4", capacitance=-2e-12)
        repaired, report = sanitize(bad, RepairPolicy.repair_all())
        assert report.ok
        assert set(repaired.nodes) == set(fig5.nodes)
        # The clamp can zero out an element (NaN R -> 0), pushing some
        # nodes outside the closed form's domain — the guarded chain
        # must still deliver finite numbers or a typed error.
        guarded = GuardedAnalyzer(repaired)
        for node in repaired.nodes:
            try:
                value = guarded.delay_50(node)
            except ReproError:
                continue
            assert math.isfinite(value)
