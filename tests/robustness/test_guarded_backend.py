"""The guarded analyzer's pluggable closed-form backend.

``closed_form_backend="incremental"`` puts the delta-update engine in
front of the fallback chain: queries answer from the live
:class:`IncrementalAnalyzer`, edits made through it are visible to later
guarded queries. Any other value than ``None`` or ``"incremental"`` is
rejected.
"""

import pytest

from repro import GuardedAnalyzer
from repro.engine import IncrementalAnalyzer
from repro.errors import ConfigurationError
from repro.robustness.guarded import _METRICS

pytestmark = pytest.mark.robustness


class TestBackendConfiguration:
    def test_default_is_none(self, fig5):
        assert GuardedAnalyzer(fig5).closed_form_backend is None

    def test_incremental_string_builds_analyzer(self, fig5):
        guarded = GuardedAnalyzer(fig5, closed_form_backend="incremental")
        backend = guarded.closed_form_backend
        assert isinstance(backend, IncrementalAnalyzer)
        assert backend.settle_band == guarded._settle_band

    def test_invalid_backend_rejected(self, fig5):
        with pytest.raises(ConfigurationError):
            GuardedAnalyzer(fig5, closed_form_backend="turbo")
        with pytest.raises(ConfigurationError):
            GuardedAnalyzer(fig5, closed_form_backend=object())


class TestIncrementalBackendAnswers:
    def test_matches_default_tier(self, fig5):
        plain = GuardedAnalyzer(fig5)
        backed = GuardedAnalyzer(fig5, closed_form_backend="incremental")
        for node in ("n1", "n4", "n7"):
            for metric in _METRICS:
                want = plain.query(metric, node).value
                got = backed.query(metric, node).value
                assert got == pytest.approx(want, rel=1e-12), (node, metric)

    def test_timing_reads_backend_sums(self, fig5):
        plain = GuardedAnalyzer(fig5)
        backed = GuardedAnalyzer(fig5, closed_form_backend="incremental")
        a, b = plain.timing("n7"), backed.timing("n7")
        assert b.t_rc == pytest.approx(a.t_rc, rel=1e-12)
        assert b.t_lc == pytest.approx(a.t_lc, rel=1e-12)
        assert b.zeta == pytest.approx(a.zeta, rel=1e-12)
        assert b.omega_n == pytest.approx(a.omega_n, rel=1e-12)

    def test_edits_visible_to_later_queries(self, fig5):
        guarded = GuardedAnalyzer(fig5, closed_form_backend="incremental")
        before = guarded.delay_50("n7")
        guarded.closed_form_backend.set_resistance("n1", 10 *
            fig5.section("n1").resistance)
        after = guarded.delay_50("n7")
        assert after > before
        # The delta-updated answer equals a fresh analysis of the
        # edited tree.
        fresh = GuardedAnalyzer(guarded.closed_form_backend.tree())
        assert after == pytest.approx(fresh.delay_50("n7"), rel=1e-12)

    def test_edited_timing_is_consistent(self, fig5):
        guarded = GuardedAnalyzer(fig5, closed_form_backend="incremental")
        guarded.closed_form_backend.set_capacitance("n3", 5e-13)
        timing = guarded.timing("n7")
        backend = guarded.closed_form_backend
        t_rc, t_lc = backend.sums("n7")
        assert timing.t_rc == t_rc
        assert timing.t_lc == t_lc
        assert timing.delay_50 == pytest.approx(
            backend.value("delay_50", "n7"), rel=1e-12
        )
