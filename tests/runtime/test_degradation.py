"""Planner-level graceful degradation when circuit breakers are open.

The contract: a tripped sharded backend is routed around to
``compiled``, the plan records the walk in its provenance
(``degraded``/``degraded_from`` plus reasons), a forced backend is
never rerouted, and nothing degrades below the compiled kernels. Context-level behaviour
(warn-once notice, stats counters) rides the same machinery.
"""

import warnings

import pytest

from repro.runtime import (
    ExecutionContext,
    RuntimeConfig,
    Workload,
    plan,
    reset_degradation_warnings,
)


@pytest.fixture(autouse=True)
def rearm_warnings():
    reset_degradation_warnings()
    yield
    reset_degradation_warnings()


PARALLEL = RuntimeConfig(workers=4)


def big_batch():
    return Workload(kind="batch", tree_size=100, scenarios=1000)


class TestPlannerDegradation:
    def test_healthy_routing_unchanged(self):
        decision = plan(big_batch(), PARALLEL)
        assert decision.backend == "sharded"
        assert not decision.degraded
        assert decision.degraded_from is None

    def test_open_sharded_degrades_batch_to_compiled(self):
        decision = plan(big_batch(), PARALLEL, unavailable=("sharded",))
        assert decision.backend == "compiled"
        assert decision.degraded
        assert decision.degraded_from == "sharded"
        assert any("breaker open" in reason for reason in decision.reasons)
        assert "degraded from sharded" in str(decision)

    def test_open_sharded_degrades_many_to_compiled(self):
        workload = Workload(kind="many", tree_count=8)
        decision = plan(workload, PARALLEL, unavailable=("sharded",))
        assert decision.backend == "compiled"
        assert decision.degraded_from == "sharded"

    def test_batch_never_degrades_below_compiled(self):
        # Even with both parallel backends tripped, batch needs the
        # compiled kernels: the walk stops at the capability floor.
        decision = plan(
            big_batch(), PARALLEL, unavailable=("sharded", "compiled")
        )
        assert decision.backend == "compiled"
        assert decision.degraded  # it did leave sharded

    def test_forced_backend_ignores_open_breaker(self):
        decision = plan(
            big_batch(),
            PARALLEL,
            backend="sharded",
            unavailable=("sharded",),
        )
        assert decision.backend == "sharded"
        assert decision.forced
        assert not decision.degraded
        assert any("ignored" in reason for reason in decision.reasons)

    def test_unrelated_open_breaker_is_no_op(self):
        decision = plan(big_batch(), PARALLEL, unavailable=("scalar",))
        assert decision.backend == "sharded"
        assert not decision.degraded


class TestContextDegradation:
    def test_tripped_breaker_degrades_and_counts(self, fig5):
        context = ExecutionContext(RuntimeConfig(workers=4))
        context.breakers.breaker("sharded").trip("test trip")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = context.analyze_many([fig5, fig5, fig5])
        assert len(results) == 3
        stats = context.stats()
        assert stats["plans"]["degraded"] == 1
        assert stats["dispatch"] == {"compiled": 1}
        assert stats["breakers"]["sharded"]["state"] == "open"

    def test_degradation_warns_once_per_route(self, fig5):
        context = ExecutionContext(RuntimeConfig(workers=4))
        context.breakers.breaker("sharded").trip("test trip")
        with pytest.warns(RuntimeWarning, match="repro.runtime degraded"):
            context.analyze_many([fig5, fig5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            context.analyze_many([fig5, fig5])  # silent the second time

    def test_closed_breaker_keeps_sharded_route(self, fig5):
        context = ExecutionContext(RuntimeConfig(workers=4))
        decision = context.plan(Workload(kind="many", tree_count=4))
        assert decision.backend == "sharded"
        assert not decision.degraded

    def test_stats_snapshot_has_supervision_group(self):
        context = ExecutionContext()
        stats = context.stats()
        assert "supervision" in stats
        for key in ("timeouts", "retries", "rebuilds", "worker_deaths"):
            assert key in stats["supervision"]
        assert "generation" in stats["pool"]
