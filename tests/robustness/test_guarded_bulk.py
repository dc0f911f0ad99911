"""The table-backed closed-form tier of GuardedAnalyzer.

``report()`` answers every node whose four closed-form metrics are
finite from one read of the session's table; only the remaining
(masked) rows walk the fallback chain. These tests pin that the bulk
path is indistinguishable from walking the chain one query at a time.
"""

import math

import numpy as np
import pytest

from repro import GuardedAnalyzer
from repro.circuit import RLCTree, fig5_tree, random_tree
from repro.errors import FallbackExhaustedError, TopologyError
from repro.robustness.guarded import RobustnessReport, TierAttempt
from repro.runtime import ExecutionContext, RuntimeConfig, Session

pytestmark = pytest.mark.robustness

METRICS = ("delay_50", "rise_time", "overshoot", "settling_time")
FIELDS = (
    "node", "t_rc", "t_lc", "zeta", "omega_n",
    "delay_50", "rise_time", "overshoot", "settling",
)


def _trees():
    yield "fig5", fig5_tree()
    for seed in (0, 1, 2):
        yield f"random{seed}", random_tree(
            120, np.random.default_rng(seed)
        )
    yield "rc_only", random_tree(
        80, np.random.default_rng(7), rc_only=True
    )


TREES = dict(_trees())


def bits(row):
    """Every NodeTiming field, floats as exact hex strings."""
    return tuple(
        v if isinstance(v, str) else float(v).hex()
        for v in (getattr(row, name) for name in FIELDS)
    )


def hostile_tree():
    """Eligible sums whose closed forms overflow at node ``x``.

    ``delay_50``/``settling`` come out infinite and ``rise_time`` NaN,
    and neither AWE nor the exact solver copes either.
    """
    tree = RLCTree()
    tree.add_section("x", "in", resistance=1e200, inductance=1e-300,
                     capacitance=1e100)
    tree.add_section("y", "x", resistance=1.0, inductance=1e-9,
                     capacitance=1e-12)
    return tree


@pytest.fixture
def ctx():
    with ExecutionContext() as context:
        yield context


def forced(backend):
    """A context that forces every session onto ``backend``."""
    return ExecutionContext(RuntimeConfig(backend=backend))


def poison(guarded, metric_column, node):
    """Make one table entry non-finite in the analyzer's own table."""
    table = guarded._session.table()
    getattr(table.metrics, metric_column)[table.index(node)] = np.nan


class TestBulkEqualsPerNode:
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_report_equals_per_node_timing(self, name, ctx):
        tree = TREES[name]
        rows = GuardedAnalyzer(tree, context=ctx).report()
        single = GuardedAnalyzer(tree, context=ctx)
        per_node = [single.timing(node) for node in tree.nodes]
        assert [bits(r) for r in rows] == [bits(r) for r in per_node]
        assert [type(r) for r in rows] == [type(r) for r in per_node]
        assert [r.reports for r in rows] == [r.reports for r in per_node]

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_reports_match_a_chain_walk(self, name, ctx):
        tree = TREES[name]
        guarded = GuardedAnalyzer(tree, context=ctx)
        for row in guarded.report():
            assert len(row.reports) == 4
            walked = tuple(
                guarded._resolve(metric, row.node) for metric in METRICS
            )
            assert row.reports == walked
            for report in row.reports:
                assert report.tier == "closed-form"
                assert report.attempts == (TierAttempt("closed-form", "ok"),)
                assert isinstance(report, RobustnessReport)
            assert not row.degraded

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_query_equals_the_row(self, name, ctx):
        tree = TREES[name]
        guarded = GuardedAnalyzer(tree, context=ctx)
        for row in guarded.report()[:10]:
            assert tuple(
                guarded.query(metric, row.node) for metric in METRICS
            ) == row.reports

    def test_subset_report_equals_the_whole_report_rows(self, ctx):
        # Shuffled, with a repeat and an escalated (poisoned) row.
        tree = TREES["random1"]
        guarded = GuardedAnalyzer(tree, context=ctx)
        rng = np.random.default_rng(11)
        poisoned = tree.nodes[7]
        poison(guarded, "delay_50", poisoned)
        others = [n for n in tree.nodes if n != poisoned]
        subset = [str(n) for n in rng.choice(others, 10, replace=False)]
        subset += [poisoned, subset[0]]
        rng.shuffle(subset)
        whole = {row.node: row for row in guarded.report()}
        rows = guarded.report(subset)
        expected = [whole[node] for node in subset]
        assert [bits(r) for r in rows] == [bits(r) for r in expected]
        assert [type(r) for r in rows] == [type(r) for r in expected]
        assert [r.reports for r in rows] == [r.reports for r in expected]
        assert rows[subset.index(poisoned)].degraded

    def test_one_dispatch_per_subset_report(self, ctx):
        tree = TREES["random1"]
        guarded = GuardedAnalyzer(tree, context=ctx)
        subset = [tree.nodes[40], tree.nodes[3], tree.nodes[40]]
        before = sum(ctx.stats()["dispatch"].values())
        assert [r.node for r in guarded.report(subset)] == subset
        assert sum(ctx.stats()["dispatch"].values()) == before + 1
        for bad in ("zzz", tree.root):
            with pytest.raises(TopologyError):
                guarded.report([tree.nodes[0], bad])

    def test_unmasked_reports_share_one_attempts_tuple(self, ctx):
        rows = GuardedAnalyzer(fig5_tree(), context=ctx).report()
        shared = {id(r.attempts) for row in rows for r in row.reports}
        assert len(shared) == 1


class TestUnmaskedRowsAreTheSessionTable:
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_bitwise_equal_to_session_report(self, name, ctx):
        tree = TREES[name]
        guarded = GuardedAnalyzer(tree, context=ctx).report()
        plain = ctx.session(tree).report()
        assert [bits(r) for r in guarded] == [bits(r) for r in plain]

    def test_sums_come_from_the_table(self, ctx):
        tree = TREES["random0"]
        guarded = GuardedAnalyzer(tree, context=ctx)
        session = ctx.session(tree)
        for node in tree.nodes:
            row = guarded.timing(node)
            reference = session.timing(node)
            assert float(row.t_rc).hex() == float(reference.t_rc).hex()
            assert float(row.t_lc).hex() == float(reference.t_lc).hex()

    def test_one_dispatch_per_bulk_report(self, ctx):
        guarded = GuardedAnalyzer(TREES["random1"], context=ctx)
        before = sum(ctx.stats()["dispatch"].values())
        guarded.report()
        assert sum(ctx.stats()["dispatch"].values()) == before + 1


class TestOneTableResolvePerGeneration:
    """Per-node reads resolve the session's table once per analyzer (per
    edit generation) and still count one dispatch per call."""

    @pytest.fixture
    def resolves(self, monkeypatch):
        calls = []
        original = Session.table

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Session, "table", counting)
        return calls

    def test_per_node_reads_resolve_once(self, resolves, ctx):
        tree = TREES["random0"]
        guarded = GuardedAnalyzer(tree, context=ctx)
        before = sum(ctx.stats()["dispatch"].values())
        for node in tree.nodes:
            guarded.timing(node)
            guarded.query("delay_50", node)
        guarded.report()
        assert len(resolves) == 1
        dispatches = sum(ctx.stats()["dispatch"].values()) - before
        assert dispatches == 2 * len(tree.nodes) + 1

    def test_incremental_edits_show(self, resolves):
        tree = TREES["random1"]
        guarded = GuardedAnalyzer(tree, context=forced("incremental"))
        node = tree.nodes[-1]
        before = guarded.timing(node)
        guarded._session.editor().set_resistance(
            tree.nodes[0], 3.0 * tree.section(tree.nodes[0]).resistance
        )
        after = guarded.timing(node)
        assert len(resolves) == 2
        assert after.delay_50 > before.delay_50
        edited = guarded._session.editor().tree()
        fresh = GuardedAnalyzer(edited).timing(node)
        assert after.delay_50 == pytest.approx(fresh.delay_50, rel=1e-12)
        assert guarded.query("delay_50", node).value == after.delay_50
        assert resolves.count(guarded._session) == 2


class TestMaskedRowsEscalate:
    def test_injected_nan_walks_the_chain(self, ctx):
        tree = fig5_tree()
        guarded = GuardedAnalyzer(tree, context=ctx)
        node = tree.nodes[3]
        poison(guarded, "delay_50", node)
        rows = {row.node: row for row in guarded.report()}
        row = rows[node]
        delay = row.reports[0]
        assert delay.tier == "awe"
        assert delay.attempts[0] == TierAttempt(
            "closed-form", "failed", "non-finite result nan"
        )
        assert [a.tier for a in delay.attempts] == ["closed-form", "awe"]
        assert delay.attempts[1].status == "ok"
        assert row.delay_50 == delay.value and math.isfinite(row.delay_50)
        assert row.degraded
        # The node's finite metrics still come from the closed form.
        for report in row.reports[1:]:
            assert report.tier == "closed-form"
            assert report.attempts == (TierAttempt("closed-form", "ok"),)
        # The same record a single query walks, on every entry point.
        assert delay == guarded.query("delay_50", node)
        assert row.reports == guarded.timing(node).reports
        # Every other row stays on the closed form.
        assert not any(r.degraded for n, r in rows.items() if n != node)

    @pytest.mark.parametrize("column, metric", [
        ("rise_time", "rise_time"),
        ("overshoot", "overshoot"),
        ("settling", "settling_time"),
    ])
    def test_every_guarded_column_is_in_the_mask(self, column, metric, ctx):
        tree = fig5_tree()
        guarded = GuardedAnalyzer(tree, context=ctx)
        node = tree.nodes[-1]
        poison(guarded, column, node)
        row = guarded.timing(node)
        report = row.reports[METRICS.index(metric)]
        assert report.tier != "closed-form"
        assert report.attempts[0].status == "failed"
        assert math.isfinite(getattr(row, column))

    def test_exhausted_chain_still_raises(self, ctx):
        guarded = GuardedAnalyzer(hostile_tree(), context=ctx)
        with pytest.raises(FallbackExhaustedError) as bulk:
            guarded.report()
        with pytest.raises(FallbackExhaustedError) as single:
            guarded._resolve("delay_50", "x")
        assert bulk.value.attempts == single.value.attempts
        assert bulk.value.attempts[0] == TierAttempt(
            "closed-form", "failed", "non-finite result inf"
        )

    def test_out_of_domain_row_of_an_incremental_table(self):
        # T_RC = 0 < T_LC: the incremental session tabulates the row
        # (infinite settling time) while its per-node query raises; the
        # row must walk the chain and record that typed error.
        tree = RLCTree()
        tree.add_section("a", "in", resistance=0.0, inductance=1e-9,
                         capacitance=1e-12)
        guarded = GuardedAnalyzer(tree, context=forced("incremental"))
        with pytest.raises(FallbackExhaustedError) as excinfo:
            guarded.report()
        first = excinfo.value.attempts[0]
        assert first.tier == "closed-form" and first.status == "failed"
        assert first.detail.startswith("ElementValueError")

    def test_closed_form_only_chain_exhausts_on_a_masked_row(self, ctx):
        tree = fig5_tree()
        guarded = GuardedAnalyzer(tree, chain=("closed-form",), context=ctx)
        poison(guarded, "overshoot", tree.nodes[0])
        with pytest.raises(FallbackExhaustedError):
            guarded.report()


class TestFallbackCasesWalkPerQuery:
    """Every route's session holds the table; only a chain that does not
    open with ``closed-form`` walks every metric."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        original = GuardedAnalyzer._resolve

        def counting(self, metric, node):
            calls.append((metric, node))
            return original(self, metric, node)

        monkeypatch.setattr(GuardedAnalyzer, "_resolve", counting)
        return calls

    def test_table_path_walks_nothing(self, walks, ctx):
        GuardedAnalyzer(fig5_tree(), context=ctx).report()
        assert walks == []

    def test_scalar_session_reads_the_table(self, walks):
        tree = fig5_tree()
        rows = GuardedAnalyzer(tree, context=forced("scalar")).report()
        assert walks == []
        assert rows == GuardedAnalyzer(tree).report()

    @pytest.mark.parametrize("options", [
        {"chain": ("awe", "exact")},
    ], ids=["no-closed-form"])
    def test_fallback_walks_every_query(self, walks, options):
        tree = fig5_tree()
        guarded = GuardedAnalyzer(tree, **options)
        rows = guarded.report()
        assert len(walks) == len(METRICS) * len(tree.nodes)
        assert [r.node for r in rows] == list(tree.nodes)
        for row in rows:
            assert len(row.reports) == 4
            assert all(math.isfinite(r.value) for r in row.reports)
