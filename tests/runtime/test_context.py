"""ExecutionContext: sessions, stats, lifecycle, default resolution."""

import pytest

from repro.engine import compile_tree
from repro.engine.dispatch import pool_size
from repro.errors import ConfigurationError, ReproError
from repro.runtime import (
    ExecutionContext,
    RuntimeConfig,
    Workload,
    default_context,
    reset_default_context,
    resolve_context,
    set_default_context,
)


class TestSessions:
    def test_kind_inference(self, fig5):
        context = ExecutionContext()
        assert context.session(fig5).backend == "compiled"  # table
        assert context.session(fig5, kind="point").backend == "compiled"
        assert context.session(fig5, edits_expected=5).backend == "incremental"

    def test_forced_backend_beats_inference(self, fig5):
        context = ExecutionContext()
        session = context.session(fig5, kind="point", backend="compiled")
        assert session.backend == "compiled"
        assert session.plan.forced is True

    def test_config_backend_applies_to_every_session(self, fig5):
        context = ExecutionContext(RuntimeConfig(backend="scalar"))
        session = context.session(fig5)
        assert session.backend == "scalar"

    def test_plan_provenance_reaches_caller(self, fig5):
        session = ExecutionContext().session(fig5, kind="point")
        assert "point query" in session.plan.reasons[0]


class TestStats:
    def test_mixed_workload_counters(self, fig5):
        context = ExecutionContext()
        context.session(fig5, kind="point").value("delay_50", "n7")
        context.session(fig5).report()
        editor = context.session(fig5, edits_expected=2).editor()
        editor.set_resistance("n1", 20.0)
        editor.value("delay_50", "n7")

        stats = context.stats()
        # point open + one value, table open + report
        assert stats["dispatch"]["compiled"] == 4
        assert "scalar" not in stats["dispatch"]
        assert stats["dispatch"]["incremental"] == 1  # open (direct edits)
        assert stats["workloads"]["point"] == 2
        assert stats["workloads"]["table"] == 2
        assert stats["workloads"]["edit"] == 1
        assert stats["plans"]["auto"] == 3
        assert stats["plans"]["forced"] == 0
        assert set(stats["caches"]) == {"topology", "incremental"}
        assert "workers" in stats["pool"]
        for phase, seconds in stats["phases"].items():
            assert seconds >= 0.0, phase

    def test_track_counts_external_engine_work(self, fig5):
        context = ExecutionContext()
        with context.track("compiled", "batch"):
            pass
        assert context.stats()["dispatch"]["compiled"] == 1
        assert context.stats()["workloads"]["batch"] == 1
        with pytest.raises(ConfigurationError):
            context.track("turbo", "batch")

    def test_reset(self, fig5):
        context = ExecutionContext()
        context.session(fig5)
        context.reset_stats()
        assert context.stats()["dispatch"] == {}
        assert context.stats()["plans"] == {
            "auto": 0, "forced": 0, "degraded": 0
        }

    def test_forced_plans_counted(self, fig5):
        context = ExecutionContext()
        context.plan(Workload("table", tree_size=9), backend="compiled")
        assert context.stats()["plans"]["forced"] == 1

    def test_registered_stats_group_rides_along(self, fig5):
        """The seam the service layer uses: external stat providers."""
        context = ExecutionContext()
        calls = {"count": 0}

        def provider():
            calls["count"] += 1
            return {"inflight": 3}

        context.add_stats_group("service", provider)
        stats = context.stats()
        assert stats["service"] == {"inflight": 3}
        assert calls["count"] == 1

    def test_registered_group_survives_reset(self, fig5):
        """A counter reset must not unhook a live service's stats."""
        context = ExecutionContext()
        context.add_stats_group("service", lambda: {"up": True})
        context.reset_stats()
        assert context.stats()["service"] == {"up": True}


class TestLifecycle:
    def test_close_is_idempotent(self):
        context = ExecutionContext()
        assert not context.closed
        context.close()
        context.close()
        assert context.closed

    def test_exception_still_tears_down(self, fig5):
        """The context-manager bugfix: teardown must run on the error path."""
        with pytest.raises(ReproError):
            with ExecutionContext() as context:
                context.session(fig5)
                raise ConfigurationError("boom")
        assert context.closed

    def test_close_shuts_worker_pool(self, fig5, line3):
        with ExecutionContext(RuntimeConfig(workers=2)) as context:
            results = context.analyze_many([fig5, line3])
            assert all(not isinstance(r, Exception) for r in results)
            assert pool_size() > 0
        assert pool_size() == 0


class TestDefaultContext:
    def test_default_is_a_singleton_until_closed(self):
        reset_default_context()
        first = default_context()
        assert default_context() is first
        first.close()
        assert default_context() is not first
        reset_default_context()

    def test_set_default(self):
        mine = ExecutionContext(RuntimeConfig(backend="scalar"))
        set_default_context(mine)
        try:
            assert default_context() is mine
            assert resolve_context() is mine
        finally:
            reset_default_context()

    def test_resolve_precedence(self):
        context = ExecutionContext()
        assert resolve_context(context) is context
        assert resolve_context() is default_context()
        assert resolve_context(None) is default_context()

    def test_batch_workload_metadata(self, fig5):
        context = ExecutionContext()
        compiled = compile_tree(fig5)
        import numpy as np

        nominal = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )
        batch = context.batch(compiled, nominal[None].repeat(3, axis=0))
        assert batch.column("delay_50", "n7").shape == (3,)
        assert context.stats()["workloads"]["batch"] == 1
