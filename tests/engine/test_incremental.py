"""The incremental delta-update engine: edits, flushes, and structure.

Every assertion here has the same shape: apply edits through
:class:`IncrementalAnalyzer`, then compare against a full recompute of
the analyzer's own :meth:`snapshot` — the oracle the module docstring
promises agreement with. Point queries are additionally pinned to the
vectorized table *bitwise* (``==``, not approx): ``scalar_metrics``
runs the same ``np.float64`` scalar-ufunc operations as
``metrics_from_sums``, so any drift between the two paths is a bug.
"""

import math

import numpy as np
import pytest

from repro.circuit import RLCTree, Section, fig5_tree, random_tree
from repro.engine import (
    EditSession,
    IncrementalAnalyzer,
    cache_info,
    clear_incremental_counters,
    clear_topology_cache,
    compile_tree,
    evaluate,
    incremental_cache_info,
)
from repro.errors import (
    ConfigurationError,
    ElementValueError,
    ReductionError,
    TopologyError,
)

METRICS = ("t_rc", "t_lc", "zeta", "omega_n", "delay_50", "rise_time",
           "overshoot", "settling_time")


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_topology_cache()
    clear_incremental_counters()
    yield
    clear_topology_cache()
    clear_incremental_counters()


def oracle(analyzer):
    """Full recompute of the analyzer's current values."""
    return evaluate(analyzer.snapshot(), analyzer.settle_band)


def assert_matches_oracle(analyzer, rel=1e-12):
    table = oracle(analyzer)
    for node in analyzer.names:
        t_rc, t_lc = analyzer.sums(node)
        assert t_rc == pytest.approx(table.value("t_rc", node), rel=rel)
        assert t_lc == pytest.approx(table.value("t_lc", node), rel=rel)
        assert analyzer.value("delay_50", node) == pytest.approx(
            table.value("delay_50", node), rel=rel
        )


def chain_tree(n, r=100.0, l=1e-9, c=1e-13):
    tree = RLCTree()
    parent = "in"
    for i in range(n):
        tree.add_section(f"n{i}", parent, section=Section(r, l, c))
        parent = f"n{i}"
    return tree


class TestConstruction:
    def test_accepts_rlc_tree_and_compiled(self, fig5):
        from_tree = IncrementalAnalyzer(fig5)
        from_compiled = IncrementalAnalyzer(compile_tree(fig5))
        for node in fig5.nodes:
            assert from_tree.sums(node) == from_compiled.sums(node)

    def test_initial_state_matches_evaluate(self, fig5, random_rlc):
        for tree in (fig5, random_rlc):
            analyzer = IncrementalAnalyzer(tree)
            table = evaluate(compile_tree(tree))
            for node in tree.nodes:
                t_rc, t_lc = analyzer.sums(node)
                assert t_rc == table.value("t_rc", node)
                assert t_lc == table.value("t_lc", node)

    def test_identity_properties(self, fig5):
        analyzer = IncrementalAnalyzer(
            fig5, settle_band=0.05, flush_threshold=0.5
        )
        compiled = compile_tree(fig5)
        assert analyzer.names == compiled.names
        assert analyzer.size == compiled.topology.size
        assert analyzer.settle_band == 0.05
        assert analyzer.flush_threshold == 0.5
        assert analyzer.pending_edits == 0
        assert analyzer.dirty_fraction == 0.0

    def test_bad_settle_band_raises(self, fig5):
        with pytest.raises(ConfigurationError):
            IncrementalAnalyzer(fig5, settle_band=0.0)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
    def test_bad_flush_threshold_raises(self, fig5, threshold):
        with pytest.raises(ConfigurationError):
            IncrementalAnalyzer(fig5, flush_threshold=threshold)

    def test_wrong_tree_type_raises(self):
        with pytest.raises(ConfigurationError):
            IncrementalAnalyzer({"not": "a tree"})

    def test_section_accessor_round_trips(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        for node in fig5.nodes:
            assert analyzer.section(node) == fig5.section(node)

    def test_tree_materializes_current_state(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        analyzer.set_resistance("n2", 123.0)
        rebuilt = analyzer.tree()
        assert rebuilt.section("n2").resistance == 123.0
        assert set(rebuilt.nodes) == set(fig5.nodes)


class TestValueEdits:
    @pytest.mark.parametrize("method,value", [
        ("set_resistance", 777.0),
        ("set_inductance", 3e-9),
        ("set_capacitance", 4e-13),
    ])
    def test_single_edit_matches_oracle(self, fig5, method, value):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        getattr(analyzer, method)("n3", value)
        assert_matches_oracle(analyzer)

    def test_edit_updates_section_view(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        analyzer.set_capacitance("n1", 9e-13)
        assert analyzer.section("n1").capacitance == 9e-13

    def test_set_section_replaces_all_three(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        target = Section(55.0, 2e-9, 6e-13)
        analyzer.set_section("n2", target)
        assert analyzer.section("n2") == target
        assert_matches_oracle(analyzer)

    def test_set_section_into_rc_limit(self, fig5):
        """L -> 0 passes through the not-both-zero invariant."""
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_section("n4", Section(10.0, 0.0, 1e-13))
        assert analyzer.section("n4").inductance == 0.0
        assert_matches_oracle(analyzer)

    def test_scale_segment_per_element(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        before = analyzer.section("n3")
        analyzer.scale_segment(
            "n3", resistance_factor=2.0, capacitance_factor=0.5
        )
        after = analyzer.section("n3")
        assert after.resistance == before.resistance * 2.0
        assert after.inductance == before.inductance
        assert after.capacitance == before.capacitance * 0.5
        assert_matches_oracle(analyzer)

    def test_noop_edit_adds_no_pending(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_resistance("n1", fig5.section("n1").resistance)
        assert analyzer.pending_edits == 0
        assert incremental_cache_info()["edits"] == 0

    def test_long_edit_sequence_matches_oracle(self, rng):
        tree = random_tree(30, rng)
        analyzer = IncrementalAnalyzer(tree, flush_threshold=0.25)
        names = analyzer.names
        for k in range(100):
            node = names[int(rng.integers(len(names)))]
            which = k % 3
            if which == 0:
                analyzer.set_resistance(node, float(rng.uniform(1.0, 1e3)))
            elif which == 1:
                analyzer.set_inductance(node, float(rng.uniform(1e-11, 1e-8)))
            else:
                analyzer.set_capacitance(node, float(rng.uniform(1e-15, 1e-12)))
        assert_matches_oracle(analyzer)

    def test_recompute_rezeros_state(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_capacitance("n5", 8e-13)
        assert analyzer.pending_edits > 0
        analyzer.recompute()
        assert analyzer.pending_edits == 0
        assert_matches_oracle(analyzer)


class TestPointQueriesPinTable:
    """The O(1) scalar kernel must match the vectorized table bit for bit."""

    def test_value_equals_table_bitwise(self, fig5, random_rlc, rc_line):
        for tree in (fig5, random_rlc, rc_line):
            analyzer = IncrementalAnalyzer(tree)
            table = analyzer.timing_table()
            for node in analyzer.names:
                for metric in METRICS:
                    assert analyzer.value(metric, node) == table.value(
                        metric, node
                    ), (node, metric)

    def test_value_after_edits_equals_fresh_table_bitwise(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_resistance("n2", 250.0)
        analyzer.set_capacitance("n4", 2e-13)
        analyzer.flush()
        table = analyzer.timing_table()
        for node in analyzer.names:
            for metric in METRICS:
                assert analyzer.value(metric, node) == table.value(
                    metric, node
                )

    def test_timing_matches_value_fields(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        for node in analyzer.names:
            timing = analyzer.timing(node)
            assert timing.node == node
            assert timing.delay_50 == analyzer.value("delay_50", node)
            assert timing.rise_time == analyzer.value("rise_time", node)
            assert timing.zeta == analyzer.value("zeta", node)

    def test_metric_at_matches_point_queries(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_capacitance("n3", 5e-13)
        nodes = list(analyzer.names)
        vector = analyzer.metric_at("delay_50", nodes)
        for k, node in enumerate(nodes):
            assert vector[k] == analyzer.value("delay_50", node)

    def test_rc_limit_zeta_is_inf(self, rc_line):
        analyzer = IncrementalAnalyzer(rc_line)
        sink = rc_line.leaves()[0]
        assert math.isinf(analyzer.value("zeta", sink))
        assert analyzer.value("t_lc", sink) == 0.0


class TestFlushStrategies:
    def test_threshold_zero_flushes_every_edit(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=0.0)
        analyzer.set_resistance("n1", 500.0)
        assert analyzer.pending_edits == 0
        assert incremental_cache_info()["auto_flushes"] == 1
        assert_matches_oracle(analyzer)

    def test_threshold_one_defers_to_bulk_query(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        for node in analyzer.names:
            analyzer.set_resistance(node, 321.0)
        assert incremental_cache_info()["auto_flushes"] == 0
        assert analyzer.pending_edits > 0
        analyzer.timing_table()  # flushes
        assert analyzer.pending_edits == 0
        assert_matches_oracle(analyzer)

    def test_dirty_fraction_tracks_pending(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_resistance("n1", 500.0)
        assert analyzer.dirty_fraction == pytest.approx(1 / analyzer.size)

    def test_leaf_resistance_edit_flushes_targeted(self):
        tree = chain_tree(10)
        analyzer = IncrementalAnalyzer(tree, flush_threshold=1.0)
        analyzer.set_resistance("n9", 200.0)  # single-slot offset, weight 1
        analyzer.flush()
        counters = incremental_cache_info()
        assert counters["targeted_flushes"] == 1
        assert counters["bulk_flushes"] == 0
        assert_matches_oracle(analyzer)

    def test_leaf_capacitance_edit_flushes_bulk(self):
        tree = chain_tree(10)
        analyzer = IncrementalAnalyzer(tree, flush_threshold=1.0)
        # C edit at the leaf leaves an offset at every ancestor; the
        # aggregate subtree weight (10+9+...+1) exceeds n, so the flush
        # takes the one-pass descend strategy.
        analyzer.set_capacitance("n9", 5e-13)
        analyzer.flush()
        counters = incremental_cache_info()
        assert counters["bulk_flushes"] == 1
        assert counters["targeted_flushes"] == 0
        assert_matches_oracle(analyzer)

    def test_both_strategies_agree(self):
        """Targeted and bulk flushes differ only in summation order."""
        tree = chain_tree(12)
        targeted = IncrementalAnalyzer(tree, flush_threshold=1.0)
        bulk = IncrementalAnalyzer(tree, flush_threshold=1.0)
        targeted.set_resistance("n11", 404.0)
        bulk.set_resistance("n11", 404.0)
        bulk.set_capacitance("n11", 7e-13)  # pushes weight past n
        bulk.set_capacitance("n11", tree.section("n11").capacitance)
        targeted.flush()
        bulk.flush()
        for node in targeted.names:
            t, b = targeted.sums(node), bulk.sums(node)
            assert t[0] == pytest.approx(b[0], rel=1e-12)
            assert t[1] == pytest.approx(b[1], rel=1e-12)

    def test_flush_without_pending_is_noop(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        analyzer.flush()
        counters = incremental_cache_info()
        assert counters["targeted_flushes"] == 0
        assert counters["bulk_flushes"] == 0


class TestValidation:
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_bad_values_raise(self, fig5, value):
        analyzer = IncrementalAnalyzer(fig5)
        with pytest.raises(ElementValueError):
            analyzer.set_resistance("n1", value)
        with pytest.raises(ElementValueError):
            analyzer.set_capacitance("n1", value)

    def test_zero_impedance_branch_rejected(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        analyzer.set_inductance("n1", 0.0)
        with pytest.raises(ElementValueError):
            analyzer.set_resistance("n1", 0.0)

    def test_rejected_edit_leaves_state_unchanged(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        before = analyzer.section("n1")
        with pytest.raises(ElementValueError):
            analyzer.set_capacitance("n1", -1e-12)
        assert analyzer.section("n1") == before
        assert analyzer.pending_edits == 0

    def test_set_section_needs_section(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        with pytest.raises(ElementValueError):
            analyzer.set_section("n1", (1.0, 2.0, 3.0))

    def test_unknown_node_raises(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        with pytest.raises(TopologyError):
            analyzer.set_resistance("zzz", 1.0)
        with pytest.raises(TopologyError):
            analyzer.sums("zzz")

    def test_set_values_shape_checked(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        with pytest.raises(ReductionError):
            analyzer.set_values(resistance=np.ones(3))

    def test_out_of_domain_sums_raise_on_query(self, fig5):
        """set_values trusts vectors; the query re-checks the domain."""
        analyzer = IncrementalAnalyzer(fig5)
        n = analyzer.size
        analyzer.set_values(resistance=np.full(n, -1.0))
        sink = fig5_tree().leaves()[0]
        with pytest.raises(ElementValueError):
            analyzer.value("delay_50", sink)
        with pytest.raises(ElementValueError):
            analyzer.metric_at("delay_50", [sink])


class TestBulkValues:
    def test_set_values_matches_with_values(self, fig5, rng):
        analyzer = IncrementalAnalyzer(fig5)
        compiled = compile_tree(fig5)
        n = analyzer.size
        r = rng.uniform(1.0, 1e3, n)
        l = rng.uniform(1e-11, 1e-8, n)
        c = rng.uniform(1e-15, 1e-12, n)
        analyzer.set_values(resistance=r, inductance=l, capacitance=c)
        table = evaluate(compiled.with_values(r, l, c))
        for node in analyzer.names:
            t_rc, t_lc = analyzer.sums(node)
            assert t_rc == pytest.approx(table.value("t_rc", node), rel=1e-12)
            assert t_lc == pytest.approx(table.value("t_lc", node), rel=1e-12)

    def test_none_elements_keep_current_values(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        before_r = [analyzer.section(n).resistance for n in analyzer.names]
        analyzer.set_values(capacitance=np.full(analyzer.size, 2e-13))
        after_r = [analyzer.section(n).resistance for n in analyzer.names]
        assert after_r == before_r
        assert analyzer.section(analyzer.names[0]).capacitance == 2e-13

    def test_set_values_clears_pending(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_resistance("n1", 999.0)
        assert analyzer.pending_edits > 0
        analyzer.set_values(capacitance=np.full(analyzer.size, 1e-13))
        assert analyzer.pending_edits == 0
        assert incremental_cache_info()["bulk_value_loads"] == 1
        assert_matches_oracle(analyzer)


class TestEditSession:
    def test_defers_autoflush_until_close(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=0.0)
        with analyzer.session() as session:
            session.set_resistance("n1", 111.0)
            session.set_resistance("n2", 222.0)
            assert analyzer.pending_edits > 0  # no mid-burst flush
            assert incremental_cache_info()["auto_flushes"] == 0
        assert analyzer.pending_edits == 0
        assert incremental_cache_info()["auto_flushes"] == 1
        assert_matches_oracle(analyzer)

    def test_mid_session_queries_are_exact(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=0.0)
        with analyzer.session() as session:
            session.set_capacitance("n3", 6e-13)
            assert_matches_oracle(analyzer)

    def test_counts_edits(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        session = analyzer.session()
        session.set_resistance("n1", 50.0)
        session.set_section("n2", Section(10.0, 1e-9, 1e-13))
        session.scale_segment("n3", capacitance_factor=2.0)
        assert session.edits == 3

    def test_close_is_idempotent(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=0.0)
        session = analyzer.session()
        session.set_resistance("n1", 42.0)
        session.close()
        session.close()
        assert incremental_cache_info()["auto_flushes"] == 1

    def test_session_type(self, fig5):
        assert isinstance(IncrementalAnalyzer(fig5).session(), EditSession)


class TestStructuralEdits:
    def branch(self, prefix="x", count=3):
        subtree = RLCTree("handle")
        parent = "handle"
        for i in range(count):
            subtree.add_section(
                f"{prefix}{i}", parent, section=Section(50.0, 1e-9, 2e-13)
            )
            parent = f"{prefix}{i}"
        return subtree

    def test_attach_matches_fresh_evaluate(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        analyzer.attach_subtree("n4", self.branch())
        assert "x0" in analyzer.names
        assert_matches_oracle(analyzer)
        table = evaluate(compile_tree(analyzer.tree()))
        assert analyzer.value("delay_50", "x2") == pytest.approx(
            table.value("delay_50", "x2"), rel=1e-12
        )

    def test_attach_empty_subtree_is_noop(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        before = incremental_cache_info()["structural_recompiles"]
        analyzer.attach_subtree("n1", RLCTree("empty"))
        assert incremental_cache_info()["structural_recompiles"] == before
        assert analyzer.names == compile_tree(fig5).names

    def test_attach_name_clash_raises_before_mutation(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        clash = RLCTree("h")
        clash.add_section("n2", "h", section=Section(1.0, 1e-9, 1e-13))
        with pytest.raises(TopologyError):
            analyzer.attach_subtree("n1", clash)
        assert analyzer.names == compile_tree(fig5).names

    def test_attach_to_unknown_parent_raises(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        with pytest.raises(TopologyError):
            analyzer.attach_subtree("nope", self.branch())

    def test_detach_returns_subtree_and_shrinks(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        full_size = analyzer.size
        detached = analyzer.detach_subtree("n2")
        assert set(detached.nodes) == {"n2", "n4", "n5"}
        assert analyzer.size == full_size - 3
        assert_matches_oracle(analyzer)

    def test_detach_attach_round_trips(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        reference = {
            node: analyzer.sums(node) for node in analyzer.names
        }
        parent = fig5.parent("n2")
        detached = analyzer.detach_subtree("n2")
        analyzer.attach_subtree(parent, detached)
        assert set(analyzer.names) == set(reference)
        for node, (t_rc, t_lc) in reference.items():
            got_rc, got_lc = analyzer.sums(node)
            assert got_rc == pytest.approx(t_rc, rel=1e-12)
            assert got_lc == pytest.approx(t_lc, rel=1e-12)

    def test_structural_edit_after_value_edits(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_resistance("n1", 640.0)
        analyzer.attach_subtree("n2", self.branch("y", 2))
        assert analyzer.section("n1").resistance == 640.0
        assert_matches_oracle(analyzer)

    def test_session_structural_edits(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        with analyzer.session() as session:
            session.attach_subtree("n3", self.branch("z", 2))
            detached = session.detach_subtree("z0")
            assert session.edits == 2
        assert set(detached.nodes) == {"z0", "z1"}
        assert_matches_oracle(analyzer)


class TestTimingTableLifecycle:
    def test_tables_are_immutable_across_edits(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        first = analyzer.timing_table()
        stash = np.array(first.metrics.delay_50, copy=True)
        analyzer.set_resistance("n1", 5e3)
        second = analyzer.timing_table()
        assert np.array_equal(np.asarray(first.metrics.delay_50), stash)
        assert not np.array_equal(
            np.asarray(second.metrics.delay_50), stash
        )

    def test_small_edit_triggers_partial_refresh(self):
        tree = chain_tree(20)
        analyzer = IncrementalAnalyzer(tree, flush_threshold=0.25)
        analyzer.timing_table()
        assert incremental_cache_info()["full_metric_refreshes"] == 1
        analyzer.set_resistance("n19", 333.0)  # stale region: one leaf
        analyzer.timing_table()
        counters = incremental_cache_info()
        assert counters["partial_metric_refreshes"] == 1
        assert counters["full_metric_refreshes"] == 1

    def test_partial_refresh_matches_full(self):
        tree = chain_tree(20)
        analyzer = IncrementalAnalyzer(tree, flush_threshold=0.25)
        analyzer.timing_table()
        analyzer.set_resistance("n19", 333.0)
        partial = analyzer.timing_table()
        full = oracle(analyzer)
        for node in analyzer.names:
            for metric in METRICS:
                got = partial.value(metric, node)
                want = full.value(metric, node)
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, rel=1e-12)

    def test_clean_table_rebuild_is_free(self, fig5):
        analyzer = IncrementalAnalyzer(fig5)
        analyzer.timing_table()
        analyzer.timing_table()
        assert incremental_cache_info()["full_metric_refreshes"] == 1

    def test_generation_moves_only_when_the_table_can_change(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        seen = [analyzer.generation]

        def moved():
            seen.append(analyzer.generation)
            return seen[-1] != seen[-2]

        analyzer.timing_table()
        analyzer.sums("n5")
        analyzer.flush()
        assert not moved()
        analyzer.set_resistance("n1", fig5.section("n1").resistance)
        assert not moved()  # a no-op edit
        for edit in (
            lambda: analyzer.set_resistance("n1", 77.0),
            lambda: analyzer.set_inductance("n1", 3e-9),
            lambda: analyzer.set_capacitance("n5", 8e-13),
            lambda: analyzer.scale_segment("n2", resistance_factor=2.0),
            lambda: analyzer.set_values(resistance=analyzer.snapshot().resistance),
            analyzer.recompute,
            lambda: analyzer.detach_subtree("n7"),
        ):
            edit()
            assert moved()


class TestCounters:
    def test_keys_are_stable(self):
        assert set(incremental_cache_info()) == {
            "analyzers", "edits", "lazy_queries", "auto_flushes",
            "targeted_flushes", "bulk_flushes", "full_metric_refreshes",
            "partial_metric_refreshes", "bulk_value_loads",
            "full_recomputes", "structural_recompiles",
        }

    def test_lifecycle_bumps(self, fig5):
        analyzer = IncrementalAnalyzer(fig5, flush_threshold=1.0)
        analyzer.set_resistance("n1", 77.0)
        analyzer.sums("n5")
        counters = incremental_cache_info()
        assert counters["analyzers"] == 1
        assert counters["edits"] == 1
        assert counters["lazy_queries"] >= 1
        assert counters["full_recomputes"] == 1  # construction sweep

    def test_clear_resets_everything(self, fig5):
        IncrementalAnalyzer(fig5)
        clear_incremental_counters()
        assert all(v == 0 for v in incremental_cache_info().values())

    def test_engine_cache_info_aggregates_groups(self, fig5):
        IncrementalAnalyzer(fig5)
        info = cache_info()
        assert set(info) == {"topology", "incremental"}
        assert info["incremental"]["analyzers"] == 1
        assert "preorder_builds" in info["topology"]
