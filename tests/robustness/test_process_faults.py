"""Process-level fault injection and the supervised recovery path.

The acceptance contract for the fault-tolerant runtime: an injected
worker kill, hang, or slow shard must leave the call with **bitwise
identical** metrics to the serial path (after retry or serial
fallback), must never deadlock (every wait is bounded by the shard
timeout budget), and must leave its trace in the supervision telemetry
and the context's breaker board.

These spawn and kill real worker processes, so they ride the
``robustness`` marker with the rest of the fault-injection suite.
"""

import numpy as np
import pytest

from repro.circuit import fig5_tree, random_tree
from repro.engine import (
    analyze_many,
    compile_tree,
    dispatch_telemetry,
    pool_health,
    reset_dispatch_telemetry,
    shutdown_pool,
)
from repro.engine.dispatch import SupervisionPolicy, shared_memory_available
from repro.engine.sharded import ShardError, analyze_batch_sharded
from repro.robustness import (
    PROCESS_FAULT_KINDS,
    ProcessFault,
    ProcessFaultPlan,
    process_fault_plan,
)
from repro.runtime import (
    ExecutionContext,
    RuntimeConfig,
    Workload,
    reset_degradation_warnings,
)

pytestmark = [
    pytest.mark.robustness,
    pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on platform"
    ),
]

#: Tight budgets so hang-recovery stays fast in CI; generous enough
#: that a healthy shard never trips them on a loaded machine.
FAST = SupervisionPolicy(shard_timeout=5.0, max_retries=2, backoff=0.01)


@pytest.fixture(autouse=True)
def clean_dispatch_state():
    shutdown_pool()
    reset_dispatch_telemetry()
    reset_degradation_warnings()
    yield
    shutdown_pool()
    reset_dispatch_telemetry()
    reset_degradation_warnings()


@pytest.fixture
def trees():
    rng = np.random.default_rng(42)
    return [fig5_tree(), random_tree(12, rng), random_tree(20, rng)]


def assert_identical(reference, results):
    assert len(reference) == len(results)
    for ref, got in zip(reference, results):
        assert not isinstance(got, ShardError), str(got)
        for name in ("t_rc", "t_lc", "delay_50", "rise_time"):
            a = getattr(ref.metrics, name)
            b = getattr(got.metrics, name)
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert np.array_equal(a, b, equal_nan=True)


class TestProcessFaultSpec:
    def test_kinds_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProcessFault("explode")
        with pytest.raises(ConfigurationError):
            ProcessFault("crash", attempts=0)
        with pytest.raises(ConfigurationError):
            ProcessFault("delay", seconds=-1.0)

    def test_seeded_plan_is_deterministic(self):
        first = process_fault_plan(seed=7, shards=8, count=2)
        second = process_fault_plan(seed=7, shards=8, count=2)
        assert first == second
        assert len(first) == 2
        assert all(
            fault.kind in PROCESS_FAULT_KINDS
            for fault in first.faults.values()
        )
        assert process_fault_plan(seed=8, shards=8, count=2) != first

    def test_fault_inert_in_parent_process(self):
        # Applying a crash fault outside a pool worker must be a no-op:
        # the serial fallback path re-runs faulted units in-parent.
        from repro.engine.dispatch import _apply_process_fault

        _apply_process_fault(ProcessFault("crash"), attempt=0)  # no exit


class TestWorkerKillRecovery:
    def test_crash_once_retries_to_identical_results(self, trees):
        reference = analyze_many(trees, workers=1)
        plan = ProcessFaultPlan({1: ProcessFault("crash")})
        results = analyze_many(
            trees, workers=2, supervision=FAST, fault_plan=plan
        )
        assert_identical(reference, results)
        telemetry = dispatch_telemetry()
        assert telemetry["worker_deaths"] >= 1
        assert telemetry["rebuilds"] >= 1
        assert telemetry["retries"] >= 1
        assert telemetry["worker_failures"], "dead worker pid not attributed"

    def test_crash_always_degrades_to_serial_fallback(self, trees):
        reference = analyze_many(trees, workers=1)
        plan = ProcessFaultPlan({0: ProcessFault("crash", attempts=None)})
        results = analyze_many(
            trees, workers=2, supervision=FAST, fault_plan=plan
        )
        assert_identical(reference, results)
        assert dispatch_telemetry()["serial_fallbacks"] >= 1

    def test_exhaustion_without_fallback_reports_structured_error(self, trees):
        plan = ProcessFaultPlan({0: ProcessFault("crash", attempts=None)})
        policy = SupervisionPolicy(
            shard_timeout=5.0, max_retries=1, backoff=0.01,
            serial_fallback=False,
        )
        results = analyze_many(
            trees, workers=2, supervision=policy, fault_plan=plan
        )
        assert isinstance(results[0], ShardError)
        assert results[0].error_type == "ShardRetryExhausted"
        assert results[0].attempt >= 2
        assert not isinstance(results[1], ShardError)
        assert dispatch_telemetry()["exhausted"] >= 1


class TestHangAndDelayRecovery:
    def test_hung_worker_times_out_and_recovers(self, trees):
        reference = analyze_many(trees, workers=1)
        plan = ProcessFaultPlan({2: ProcessFault("hang")})
        policy = SupervisionPolicy(
            shard_timeout=0.5, max_retries=2, backoff=0.01
        )
        results = analyze_many(
            trees, workers=2, supervision=policy, fault_plan=plan
        )
        assert_identical(reference, results)
        telemetry = dispatch_telemetry()
        assert telemetry["timeouts"] >= 1
        assert telemetry["rebuilds"] >= 1

    def test_slow_shard_within_budget_needs_no_retry(self, trees):
        reference = analyze_many(trees, workers=1)
        plan = ProcessFaultPlan({1: ProcessFault("delay", seconds=0.2)})
        policy = SupervisionPolicy(
            shard_timeout=30.0, max_retries=2, backoff=0.01
        )
        results = analyze_many(
            trees, workers=2, supervision=policy, fault_plan=plan
        )
        assert_identical(reference, results)
        telemetry = dispatch_telemetry()
        assert telemetry["timeouts"] == 0
        assert telemetry["retries"] == 0
        assert telemetry["rebuilds"] == 0


class TestShardedBatchRecovery:
    @pytest.fixture
    def batch_setup(self):
        compiled = compile_tree(fig5_tree())
        rng = np.random.default_rng(7)
        scenarios, n = 64, len(compiled.names)
        rlc = np.stack(
            [
                rng.uniform(1.0, 10.0, (scenarios, n)),
                rng.uniform(0.0, 1e-9, (scenarios, n)),
                rng.uniform(1e-15, 1e-12, (scenarios, n)),
            ],
            axis=1,
        )
        return compiled, rlc

    def test_seeded_worker_kill_bitwise_identical(self, batch_setup):
        compiled, rlc = batch_setup
        reference = analyze_batch_sharded(compiled, rlc, shards=1, workers=1)
        plan = process_fault_plan(seed=3, shards=4, kinds=("crash",), count=1)
        assert len(plan) == 1
        result = analyze_batch_sharded(
            compiled, rlc, shards=4, workers=2,
            supervision=FAST, fault_plan=plan,
        )
        for name in ("t_rc", "t_lc", "delay_50"):
            assert np.array_equal(
                getattr(reference.metrics, name),
                getattr(result.metrics, name),
                equal_nan=True,
            )
        assert dispatch_telemetry()["rebuilds"] >= 1

    def test_shared_block_survives_pool_rebuild(self, batch_setup):
        # The value block is parent-owned: the kill-and-rebuild cycle
        # must re-attach, not unlink. A wrong lifetime here shows up as
        # FileNotFoundError in every retried shard.
        compiled, rlc = batch_setup
        plan = ProcessFaultPlan({0: ProcessFault("crash")})
        result = analyze_batch_sharded(
            compiled, rlc, shards=4, workers=2,
            supervision=FAST, fault_plan=plan,
        )
        assert np.all(np.isfinite(result.metrics.t_rc))

    def test_value_faults_still_reported_not_retried(self, batch_setup):
        # Deterministic evaluation errors keep their existing contract:
        # structured DispatchError with partial results, no retries.
        from repro.errors import DispatchError

        compiled, rlc = batch_setup
        with pytest.raises(DispatchError) as excinfo:
            analyze_batch_sharded(
                compiled, rlc, shards=4, workers=2,
                supervision=FAST, fault_shards=[1],
            )
        assert len(excinfo.value.shard_errors) == 1
        error = excinfo.value.shard_errors[0]
        assert error.pid is not None
        assert error.attempt == 0
        assert dispatch_telemetry()["retries"] == 0


class TestPoolHealth:
    def test_health_reports_live_workers(self, trees):
        analyze_many(trees, workers=2, supervision=FAST)
        health = pool_health(probe=True, timeout=10.0)
        assert health["running"]
        assert health["workers"] == 2
        assert len(health["alive_pids"]) == 2
        assert health["dead_pids"] == []
        assert health["responsive"] is True
        assert sorted(health["responding_pids"]) == health["alive_pids"]
        assert "telemetry" in health

    def test_health_with_no_pool(self):
        health = pool_health()
        assert not health["running"]
        assert health["workers"] == 0
        assert health["responsive"] is None


class TestContextLevelRecovery:
    def test_worker_kill_through_context_trips_breaker(self, trees):
        # One crash during a sharded dispatch: the call succeeds (retry),
        # the rebuild trips the breaker, the *next* plan degrades with
        # provenance, and stats record the whole story.
        config = RuntimeConfig(workers=2, shard_timeout=5.0, max_retries=2)
        with ExecutionContext(config) as context:
            reference = context.analyze_many(trees, backend="compiled")
            plan = ProcessFaultPlan({1: ProcessFault("crash")})
            # Drive the fault through the context's dispatch wrapper so
            # the telemetry delta reaches the sharded breaker.
            decision = context.plan(
                Workload(kind="many", tree_count=len(trees))
            )
            assert decision.backend == "sharded"
            results = context._dispatch(
                decision,
                lambda: analyze_many(
                    trees, workers=2, supervision=FAST, fault_plan=plan
                ),
            )
            assert_identical(reference, results)
            stats = context.stats()
            assert stats["breakers"]["sharded"]["state"] == "open"
            assert stats["supervision"]["rebuilds"] >= 1

            with pytest.warns(RuntimeWarning, match="repro.runtime degraded"):
                degraded = context.plan(
                    Workload(kind="many", tree_count=len(trees))
                )
            assert degraded.backend == "compiled"
            assert degraded.degraded
            assert degraded.degraded_from == "sharded"
            assert context.stats()["plans"]["degraded"] == 1
