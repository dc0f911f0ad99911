"""Property-based fuzz of the validation layer (ISSUE satellite).

Two directions:

* **soundness** — everything the honest builders in
  ``repro.circuit.builders`` produce passes :func:`validate_tree`
  (no false positives on legitimate circuits);
* **completeness** — every constructor-invalid mutation the fault
  injector applies is flagged at error severity (no false negatives on
  corrupted circuits).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import Section
from repro.circuit.builders import (
    asymmetric_tree,
    balanced_tree,
    fig5_tree,
    fig8_tree,
    ladder,
    random_tree,
    single_line,
)
from repro.errors import ReproError
from repro.robustness import (
    GuardedAnalyzer,
    RepairPolicy,
    perturb,
    sanitize,
    validate_tree,
)

pytestmark = pytest.mark.robustness

positive_resistance = st.floats(0.1, 1e4)
positive_inductance = st.floats(1e-12, 1e-7)
positive_capacitance = st.floats(1e-16, 1e-10)


@st.composite
def sections(draw):
    return Section(
        draw(positive_resistance),
        draw(positive_inductance),
        draw(positive_capacitance),
    )


@st.composite
def built_trees(draw):
    """A tree from one of the public builders, with drawn parameters."""
    builder = draw(st.sampled_from(
        ["single_line", "balanced", "asymmetric", "ladder", "random",
         "fig5", "fig8"]
    ))
    if builder == "single_line":
        return single_line(draw(st.integers(1, 20)),
                           section=draw(sections()))
    if builder == "balanced":
        return balanced_tree(draw(st.integers(1, 4)),
                             draw(st.integers(1, 3)),
                             section=draw(sections()))
    if builder == "asymmetric":
        return asymmetric_tree(draw(st.integers(1, 4)),
                               draw(st.floats(0.2, 0.9)),
                               section=draw(sections()))
    if builder == "ladder":
        count = draw(st.integers(1, 8))
        return ladder([draw(sections()) for _ in range(count)])
    if builder == "random":
        seed = draw(st.integers(0, 2**31))
        return random_tree(draw(st.integers(1, 25)),
                           np.random.default_rng(seed))
    if builder == "fig5":
        return fig5_tree(section=draw(sections()))
    return fig8_tree()


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)


class TestBuildersAlwaysValidate:
    @given(tree=built_trees())
    @settings(**COMMON)
    def test_no_error_diagnostics(self, tree):
        report = validate_tree(tree)
        assert report.ok, report.summary()
        # Builders construct through Section, so constructor-invalid
        # codes can never appear.
        for code in ("non-finite-element", "negative-element",
                     "zero-impedance"):
            assert not report.by_code(code)

    @given(tree=built_trees())
    @settings(**COMMON)
    def test_sanitize_is_identity(self, tree):
        repaired, _ = sanitize(tree, RepairPolicy.repair_all())
        assert repaired is tree


class TestInjectorAlwaysFlagged:
    @given(
        tree=built_trees(),
        seed=st.integers(0, 2**31),
        count=st.integers(1, 5),
    )
    @settings(**COMMON)
    def test_invalid_mutations_are_error_severity(self, tree, seed, count):
        rng = np.random.default_rng(seed)
        mutated, mutations = perturb(tree, rng, count=count)
        report = validate_tree(mutated)
        invalid = [m for m in mutations
                   if m.startswith(("nan-", "inf-", "negative-",
                                    "zero-impedance"))]
        if invalid:
            assert not report.ok, (
                f"mutations {mutations} escaped validation: "
                f"{report.summary()}"
            )
            flagged = {d.node for d in report.errors()}
            for mutation in invalid:
                node = mutation.split("@", 1)[1]
                assert node in flagged, (
                    f"{mutation} not attributed to its node "
                    f"({report.summary()})"
                )

    @given(
        tree=built_trees(),
        seed=st.integers(0, 2**31),
    )
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              max_examples=25)
    def test_guarded_invariant_on_mutated_trees(self, tree, seed):
        rng = np.random.default_rng(seed)
        mutated, _ = perturb(tree, rng, count=3)
        try:
            guarded = GuardedAnalyzer(
                mutated, policy=RepairPolicy.repair_all()
            )
        except ReproError:
            return
        node = guarded.tree.nodes[-1]
        try:
            value = guarded.delay_50(node)
        except ReproError:
            return
        assert math.isfinite(value)
