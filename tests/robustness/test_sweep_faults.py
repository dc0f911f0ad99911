"""Mid-sweep worker faults through the chunked lazy executor.

The chunked executor dispatches every chunk through the same
supervised sharded path as one-shot batches, so a worker killed in the
middle of a sweep must be retried (or degraded to serial) without
changing a single bit of the results and without losing a chunk.
"""

import numpy as np
import pytest

from repro.circuit import fig5_tree
from repro.engine import compile_tree, shutdown_pool
from repro.engine.dispatch import SupervisionPolicy, shared_memory_available
from repro.engine.table import analyze_batch
from repro.robustness import ProcessFault, ProcessFaultPlan
from repro.runtime import (
    ExecutionContext,
    RuntimeConfig,
    planner,
    reset_degradation_warnings,
)
from repro.runtime import backends as backends_module
from repro.sweep import compile_sweep, const, linspace, run_sweep, scenario_space

pytestmark = [
    pytest.mark.robustness,
    pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on platform"
    ),
]

S = 96

#: Tight budgets so hang-recovery stays fast in CI; generous enough
#: that a healthy shard never trips them on a loaded machine.
FAST = SupervisionPolicy(shard_timeout=5.0, max_retries=2, backoff=0.01)


@pytest.fixture(autouse=True)
def clean_dispatch_state():
    shutdown_pool()
    reset_degradation_warnings()
    yield
    shutdown_pool()
    reset_degradation_warnings()


def _sweep():
    compiled = compile_tree(fig5_tree())
    axis = linspace("scale", 0.5, 2.0, S)
    sweep = compile_sweep(
        scenario_space(axis),
        resistance=axis.values * const(compiled.resistance),
        inductance=const(compiled.inductance),
        capacitance=axis.values * const(compiled.capacitance),
    )
    return compiled, sweep


def _eager_reference(compiled):
    scale = np.linspace(0.5, 2.0, S)
    rlc = np.empty((S, 3, compiled.size))
    rlc[:, 0, :] = scale[:, None] * compiled.resistance
    rlc[:, 1, :] = compiled.inductance
    rlc[:, 2, :] = scale[:, None] * compiled.capacitance
    return analyze_batch(compiled, rlc, metrics=("delay_50",))


class TestMidSweepWorkerKill:
    @pytest.mark.parametrize("kind", ["crash", "hang"])
    def test_killed_chunk_recovers_bitwise(self, monkeypatch, kind):
        """A worker fault injected into the *second* chunk of a sweep:
        supervision retries the chunk, the breaker may degrade the
        remaining chunks to the serial backend, and the full result
        stays bitwise identical to the serial eager block either way."""
        compiled, sweep = _sweep()
        reference = _eager_reference(compiled)
        real = backends_module.analyze_batch_sharded
        calls = {"count": 0}
        plan = ProcessFaultPlan({0: ProcessFault(kind, attempts=1)})

        def faulting(compiled_arg, rlc=None, **kwargs):
            calls["count"] += 1
            fault = plan if calls["count"] == 2 else None
            kwargs.setdefault("supervision", FAST)
            return real(compiled_arg, rlc, fault_plan=fault, **kwargs)

        monkeypatch.setattr(
            backends_module, "analyze_batch_sharded", faulting
        )
        monkeypatch.setattr(planner, "SHARDED_MIN_CELLS", 1)
        config = RuntimeConfig(workers=2, shard_timeout=5.0, max_retries=2)
        with ExecutionContext(config) as context:
            result = run_sweep(
                sweep,
                compiled,
                nodes=("n7",),
                chunk_size=24,
                context=context,
            )
            stats = context.stats()["sweep"]
        # The faulted chunk itself must have gone through the sharded
        # path (calls 1 and 2); whether chunks 3-4 stay sharded or
        # degrade through the breaker is the supervisor's call.
        assert calls["count"] >= 2
        assert stats["chunks"] == 4
        assert sum(stats["backends"].values()) == 4
        assert stats["backends"].get("sharded", 0) >= 2
        assert result.column("delay_50", "n7").tobytes() == reference.column(
            "delay_50", "n7"
        ).tobytes()
