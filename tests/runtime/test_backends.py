"""The backend registry and cross-backend result equivalence.

The acceptance bar for routing: every backend answers every metric with
**bitwise-identical** values on in-domain trees, so the planner's choice
is purely a cost decision. These tests pin that equivalence on the
paper's Fig. 5 tree, for sessions and for batches; the differential
oracle (``tests/integration/test_differential.py``) pins every field's
bits across every route on larger trees.
"""

import numpy as np
import pytest

from repro.analysis import TreeAnalyzer
from repro.engine import compile_tree
from repro.errors import ConfigurationError, TopologyError
from repro.runtime import (
    BACKEND_NAMES,
    BackendRegistry,
    ExecutionContext,
    ScalarBackend,
    default_registry,
)

METRICS = (
    "delay_50",
    "rise_time",
    "overshoot",
    "settling",
    "t_rc",
    "t_lc",
    "zeta",
    "omega_n",
    "elmore_delay",
)


class TestRegistry:
    def test_default_registry_holds_the_four(self):
        registry = default_registry()
        assert registry.names() == BACKEND_NAMES
        for name in BACKEND_NAMES:
            assert name in registry
            assert registry.get(name).name == name

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            default_registry().get("turbo")

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry.with_defaults()
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(ScalarBackend())
        registry.register(ScalarBackend(), replace=True)  # explicit wins

    def test_capability_surface(self):
        registry = default_registry()
        assert registry.get("scalar").supports("point")
        assert not registry.get("scalar").supports("batch")
        assert registry.get("incremental").supports("edit")
        assert not registry.get("incremental").supports("many")
        with pytest.raises(ConfigurationError, match="does not support"):
            registry.get("scalar").require("batch")

    def test_plan_surfaces_capability_mismatch(self, fig5):
        context = ExecutionContext()
        compiled = compile_tree(fig5)
        block = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )[None]
        with pytest.raises(ConfigurationError, match="does not support"):
            context.batch(compiled, block, backend="scalar")


class TestSessionEquivalence:
    """Auto-routed == every forced backend, bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self):
        """Node -> metric -> value from a forced scalar session."""
        from repro.circuit import fig5_tree

        tree = fig5_tree()
        session = ExecutionContext().session(tree, backend="scalar")
        return {
            node: {m: session.value(m, node) for m in METRICS}
            for node in tree.nodes
        }

    @pytest.mark.parametrize("backend", [None, *BACKEND_NAMES])
    def test_bitwise_identical_metrics(self, fig5, reference, backend):
        session = ExecutionContext().session(fig5, backend=backend)
        for node, expected in reference.items():
            for metric, want in expected.items():
                got = session.value(metric, node)
                assert got == want, (backend, node, metric)

    def test_compiled_tree_source(self, fig5, reference):
        compiled = compile_tree(fig5)
        for backend in ("compiled", "incremental"):
            session = ExecutionContext().session(compiled, backend=backend)
            for node, expected in reference.items():
                got = session.value("delay_50", node)
                assert got == expected["delay_50"], backend

    @pytest.fixture(scope="class")
    def one_source_trees(self):
        from repro.circuit import fig5_tree, random_tree

        return {
            "fig5": fig5_tree(),
            "random3000": random_tree(3000, np.random.default_rng(0)),
        }

    @pytest.mark.parametrize("tree_name", ["fig5", "random3000"])
    @pytest.mark.parametrize(
        "source", ["compiled", "compiled-tree", "incremental", "analyzer"]
    )
    def test_sums_and_metrics_share_one_source(
        self, one_source_trees, tree_name, source
    ):
        # Every accessor reads the same T_RC/T_LC arrays, bit for bit.
        tree = one_source_trees[tree_name]
        context = ExecutionContext()
        reader = {
            "compiled": lambda: context.session(tree, backend="compiled"),
            "compiled-tree": lambda: context.session(
                compile_tree(tree), backend="compiled"
            ),
            "incremental": lambda: context.session(tree, backend="incremental"),
            "analyzer": lambda: TreeAnalyzer(tree),
        }[source]()
        for node in tree.nodes:
            timing = reader.timing(node)
            want = (timing.t_rc, timing.t_lc)
            assert reader.sums(node) == want, node
            if source == "analyzer":
                assert reader.elmore_delay(node) == timing.elmore_delay, node
            else:
                got = (reader.value("t_rc", node), reader.value("t_lc", node))
                assert got == want, node
                assert reader.value("elmore_delay", node) == timing.elmore_delay
        with pytest.raises(TopologyError):
            reader.sums(tree.root)

    def test_scalar_needs_a_tree(self, fig5):
        with pytest.raises(ConfigurationError, match="RLCTree"):
            ExecutionContext().session(
                compile_tree(fig5), backend="scalar"
            )

    @pytest.mark.parametrize("backend", [None, "scalar", "compiled"])
    def test_empty_tree_rejected_at_open(self, backend):
        from repro.circuit import RLCTree

        with pytest.raises(TopologyError, match="empty tree"):
            ExecutionContext().session(RLCTree(), backend=backend)

    def test_timing_and_report_agree(self, fig5):
        context = ExecutionContext()
        rows = {
            backend: context.session(fig5, backend=backend).report()
            for backend in ("scalar", "compiled", "incremental")
        }
        for a, b in zip(rows["scalar"], rows["compiled"]):
            assert a == b
        for a, b in zip(rows["scalar"], rows["incremental"]):
            assert a == b

    @pytest.mark.parametrize("backend", ["scalar", "compiled", "incremental"])
    def test_report_raises_where_timing_raises(self, backend):
        # T_RC = 0 with T_LC > 0 is outside the closed forms' domain: a
        # whole-tree report must fail with the per-node typed error, not
        # tabulate the out-of-domain row.
        from repro.circuit import RLCTree
        from repro.errors import ElementValueError

        tree = RLCTree()
        tree.add_section("a", "in", resistance=0.0, inductance=1e-9,
                         capacitance=1e-12)
        with ExecutionContext() as context:
            session = context.session(tree, backend=backend)
            with pytest.raises(ElementValueError):
                session.timing("a")
            with pytest.raises(ElementValueError):
                session.report()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_out_of_domain_row_raises_alone(self, backend):
        # R = 0 on one branch: T_RC = 0 < T_LC at "a" only. Every route
        # opens the session, raises the row's typed error, and answers
        # the healthy row.
        from repro.circuit import RLCTree
        from repro.errors import ElementValueError

        tree = RLCTree()
        tree.add_section("a", "in", resistance=0.0, inductance=1e-9,
                         capacitance=1e-12)
        tree.add_section("b", "in", resistance=1.0, inductance=1e-9,
                         capacitance=1e-12)
        with ExecutionContext() as context:
            session = context.session(tree, backend=backend)
            with pytest.raises(ElementValueError, match="'a'"):
                session.value("delay_50", "a")
            assert session.value("delay_50", "b") == (
                context.session(tree).timing("b").delay_50
            )
            assert session.sums("a")[0] == 0.0

    @pytest.mark.parametrize("backend", ["scalar", "compiled"])
    def test_point_reads_skip_the_vector_kernel(
        self, fig5, monkeypatch, backend
    ):
        from repro.runtime import backends

        calls = []
        original = backends.metrics_from_sums

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(backends, "metrics_from_sums", counting)
        session = ExecutionContext().session(fig5, backend=backend,
                                             kind="point")
        session.value("delay_50", "n7")
        session.timing("n7")
        assert calls == []  # the O(1) twin served both reads
        session.report()
        session.report()
        assert len(calls) == 1  # the table is evaluated once

    def test_editor_only_on_incremental(self, fig5):
        context = ExecutionContext()
        session = context.session(fig5, backend="incremental")
        session.editor()  # live analyzer, no error
        with pytest.raises(ConfigurationError, match="edit streams"):
            context.session(fig5, backend="compiled").editor()


class TestBatchEquivalence:
    def test_forced_backends_match_bitwise(self, fig5, rng):
        compiled = compile_tree(fig5)
        nominal = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )
        factors = rng.uniform(0.5, 2.0, size=(20, 3, compiled.size))
        block = factors * nominal

        context = ExecutionContext()
        auto = context.batch(compiled, block, metrics=("delay_50", "t_rc"))
        for backend in ("compiled", "sharded"):
            forced = context.batch(
                compiled, block, metrics=("delay_50", "t_rc"), backend=backend
            )
            for metric in ("delay_50", "t_rc"):
                for node in compiled.names:
                    assert np.array_equal(
                        forced.column(metric, node),
                        auto.column(metric, node),
                    ), (backend, metric, node)

    def test_analyze_many_matches_per_tree_sessions(self, fig5, line3):
        context = ExecutionContext()
        tables = context.analyze_many([fig5, line3])
        for tree, table in zip((fig5, line3), tables):
            session = context.session(tree)
            for node in tree.nodes:
                assert table.value("delay_50", node) == session.value(
                    "delay_50", node
                )
