"""Routing decisions: boundaries, forced overrides, provenance."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    BACKEND_NAMES,
    WORKLOAD_KINDS,
    ExecutionPlan,
    RuntimeConfig,
    Workload,
    plan,
)


class TestWorkload:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Workload(kind="stream")

    def test_cells_is_scenarios_times_nodes(self):
        assert Workload(kind="batch", tree_size=30, scenarios=100).cells == 3000
        assert Workload(kind="batch").cells == 0


class TestAutoRouting:
    """The decision table of the module docstring, edge by edge."""

    @pytest.mark.parametrize(
        "workload, config, expected",
        [
            # point: compiled at every size (one state for point and table)
            (Workload("point", tree_size=1), RuntimeConfig(), "compiled"),
            (Workload("point", tree_size=64), RuntimeConfig(), "compiled"),
            (Workload("point", tree_size=65), RuntimeConfig(), "compiled"),
            # a worker budget never shards a point query
            (
                Workload("point", tree_size=1000),
                RuntimeConfig(workers=4),
                "compiled",
            ),
            # table: always one vectorized pass
            (Workload("table", tree_size=3), RuntimeConfig(), "compiled"),
            (Workload("table", tree_size=5000), RuntimeConfig(), "compiled"),
            # batch: sharded only with workers > 1 AND enough cells
            (
                Workload("batch", tree_size=64, scenarios=64),
                RuntimeConfig(workers=4),
                "sharded",
            ),
            (
                Workload("batch", tree_size=64, scenarios=63),
                RuntimeConfig(workers=4),
                "compiled",
            ),
            (
                Workload("batch", tree_size=64, scenarios=64),
                RuntimeConfig(workers=1),
                "compiled",
            ),
            (
                Workload("batch", tree_size=64, scenarios=64),
                RuntimeConfig(),
                "compiled",
            ),
            (
                Workload("batch", tree_size=10, scenarios=410),
                RuntimeConfig(workers=2),
                "sharded",
            ),
            # edit: delta updates are the whole point
            (Workload("edit", tree_size=8), RuntimeConfig(), "incremental"),
            (
                Workload("edit", tree_size=8, edit_count=10 ** 6),
                RuntimeConfig(workers=16),
                "incremental",
            ),
            # many: pool only with workers > 1 and at least two trees
            (
                Workload("many", tree_count=2),
                RuntimeConfig(workers=2),
                "sharded",
            ),
            (
                Workload("many", tree_count=1),
                RuntimeConfig(workers=8),
                "compiled",
            ),
            (Workload("many", tree_count=50), RuntimeConfig(), "compiled"),
        ],
    )
    def test_boundary(self, workload, config, expected):
        decision = plan(workload, config)
        assert decision.backend == expected
        assert decision.forced is False
        assert decision.reasons  # provenance is never empty

    def test_reasons_are_human_readable(self):
        decision = plan(Workload("point", tree_size=65))
        assert "point query" in decision.reasons[0]
        assert "65" in decision.reasons[0]
        assert "point -> compiled [auto]" in str(decision)


class TestForcedOverride:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_forced_always_wins(self, backend, kind):
        decision = plan(Workload(kind, tree_size=8), backend=backend)
        assert decision.backend == backend
        assert decision.forced is True
        assert "forced by call" in decision.reasons[0]

    def test_config_backend_forces_too(self):
        decision = plan(
            Workload("table", tree_size=8),
            RuntimeConfig(backend="scalar"),
        )
        assert decision.backend == "scalar"
        assert "forced by config" in decision.reasons[0]

    def test_call_beats_config(self):
        decision = plan(
            Workload("table", tree_size=8),
            RuntimeConfig(backend="scalar"),
            backend="incremental",
        )
        assert decision.backend == "incremental"
        assert "forced by call" in decision.reasons[0]

    def test_unknown_forced_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            plan(Workload("table"), backend="turbo")

    def test_plan_is_a_value(self):
        decision = plan(Workload("edit"))
        assert isinstance(decision, ExecutionPlan)
        assert decision.workload.kind == "edit"
