"""TimingTable vs the dict closed-form oracle, and the domain check."""

import math

import numpy as np
import pytest

from repro.analysis import TreeAnalyzer
from repro.circuit import single_line
from repro.engine import (
    check_domain,
    clear_topology_cache,
    compile_tree,
    evaluate,
    fast_path_eligible,
    timing_table,
)
from repro.errors import ElementValueError, ReductionError, TopologyError
from repro.robustness.faults import _bypass

from ..conftest import dict_second_order_sums, scalar_report

METRICS = (
    "t_rc",
    "t_lc",
    "zeta",
    "omega_n",
    "delay_50",
    "rise_time",
    "overshoot",
    "settling",
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def rel_err(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class TestTableMatchesScalar:
    def test_every_metric_every_node(self, fig5, random_rlc, rc_line, line3):
        for tree in (fig5, random_rlc, rc_line, line3):
            table = timing_table(tree)
            for timing in scalar_report(tree):
                node = timing.node
                for metric in METRICS:
                    got = table.value(metric, node)
                    want = getattr(timing, metric)
                    if math.isinf(want):
                        assert math.isinf(got)
                    else:
                        assert rel_err(got, want) <= 1e-12, (node, metric)

    def test_settling_time_alias(self, fig5):
        table = timing_table(fig5)
        assert table.value("settling_time", "n7") == table.value(
            "settling", "n7"
        )

    def test_column_attribute_access(self, fig5):
        table = timing_table(fig5)
        assert np.array_equal(table.delay_50, table.column("delay_50"))
        assert table.delay_50.shape == (fig5.size,)

    def test_elmore_delay_column(self, fig5):
        table = timing_table(fig5)
        t_rc, _ = dict_second_order_sums(fig5)
        for i, node in enumerate(table.names):
            assert rel_err(
                float(table.metrics.elmore_delay[i]), math.log(2.0) * t_rc[node]
            ) <= 1e-12

    def test_unknown_metric_rejected(self, fig5):
        with pytest.raises(ReductionError):
            timing_table(fig5).column("slew")

    def test_unknown_node_rejected(self, fig5):
        with pytest.raises(TopologyError):
            timing_table(fig5).value("delay_50", "zzz")

    def test_timings_match_report(self, fig5):
        table = timing_table(fig5)
        rows = table.timings()
        assert [row.node for row in rows] == list(fig5.nodes)
        for row, want in zip(rows, scalar_report(fig5)):
            assert rel_err(row.delay_50, want.delay_50) <= 1e-12

    def test_settle_band_respected(self, fig5):
        loose = timing_table(fig5, settle_band=0.4)
        tight = timing_table(fig5, settle_band=0.02)
        assert np.all(loose.settling <= tight.settling)


class TestEligibility:
    def test_nan_resistance_disables_fast_path(self, fig5):
        bad = fig5.map_sections(
            lambda name, s: _bypass(s, resistance=float("nan"))
            if name == "n3"
            else s
        )
        table = timing_table(bad)
        assert not fast_path_eligible(table.t_rc, table.t_lc)
        # The row stays in the table as NaN; reading it raises.
        assert math.isnan(table.column("delay_50")[table.index("n3")])
        with pytest.raises(ElementValueError, match="'n3'"):
            table.value("delay_50", "n3")
        with pytest.raises(ElementValueError):
            table.timings()

    def test_eligibility_predicate(self):
        assert fast_path_eligible(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        assert not fast_path_eligible(np.array([1.0]), np.array([-1.0]))
        assert not fast_path_eligible(np.array([0.0]), np.array([1.0]))
        assert not fast_path_eligible(np.array([np.nan]), np.array([1.0]))

    def test_check_domain_per_row(self):
        for t_rc, t_lc in ((1.0, 0.0), (0.0, 0.0), (1.0, 1.0)):
            check_domain(t_rc, t_lc, "a")
        for t_rc, t_lc in (
            (0.0, 1.0),
            (-1.0, 0.0),
            (1.0, -1.0),
            (float("nan"), 1.0),
            (1.0, float("inf")),
        ):
            with pytest.raises(ElementValueError, match="'a'"):
                check_domain(t_rc, t_lc, "a")

    def test_evaluate_skips_domain_checks(self, fig5):
        table = evaluate(compile_tree(fig5))
        assert np.all(np.isfinite(table.delay_50))


class TestAnalyzerIntegration:
    def test_fast_path_engaged_on_clean_tree(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        assert analyzer.timing_table() is not None

    def test_accessors_read_the_table(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        table = analyzer.timing_table()
        for node in fig5.nodes:
            assert analyzer.delay_50(node) == table.value("delay_50", node)
            assert analyzer.zeta(node) == table.value("zeta", node)
            assert analyzer.settling_time(node) == table.value(
                "settling", node
            )

    def test_engine_vs_scalar_analyzer(self, random_rlc):
        fast = TreeAnalyzer(random_rlc)
        for b in scalar_report(random_rlc):
            a = fast.timing(b.node)
            for metric in METRICS:
                assert rel_err(getattr(a, metric), getattr(b, metric)) <= 1e-12

    def test_report_all_matches_report(self, fig5):
        analyzer = TreeAnalyzer(fig5)
        assert analyzer.report_all() == analyzer.report()

    def test_rc_limit_semantics_preserved(self, rc_line):
        analyzer = TreeAnalyzer(rc_line)
        assert analyzer.timing_table() is not None
        timing = analyzer.timing("n5")
        assert timing.zeta == math.inf
        assert timing.omega_n == math.inf
        assert timing.overshoot == 0.0
        assert timing.delay_50 == pytest.approx(
            math.log(2.0) * timing.t_rc, rel=1e-12
        )

    def test_unknown_node_raises_on_fast_path(self, fig5):
        with pytest.raises(TopologyError):
            TreeAnalyzer(fig5).timing("zzz")

    def test_single_section_tree(self):
        tree = single_line(
            1, resistance=10.0, inductance=2e-9, capacitance=0.2e-12
        )
        fast = TreeAnalyzer(tree)
        (slow,) = scalar_report(tree)
        assert fast.timing("n1").delay_50 == pytest.approx(
            slow.delay_50, rel=1e-12
        )
