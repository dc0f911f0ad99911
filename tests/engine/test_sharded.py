"""Sharded dispatch: multi-tree sets, scenario shards, error capture."""

import numpy as np
import pytest

from repro.circuit import random_tree, single_line
from repro.engine import (
    ShardError,
    ShardOutcome,
    analyze_batch,
    analyze_batch_sharded,
    analyze_many,
    clear_topology_cache,
    compile_tree,
    evaluate,
    shutdown_pool,
)
from repro.engine import sharded as sharded_mod
from repro.engine.kernels import METRIC_NAMES
from repro.engine.sharded import _shard_slices
from repro.errors import ConfigurationError, DispatchError

from ..conftest import star_tree

WORKERS = 2


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


@pytest.fixture(scope="module", autouse=True)
def pool_teardown():
    yield
    shutdown_pool()


def tree_set(count=6, size=12):
    return [random_tree(size, np.random.default_rng(seed)) for seed in range(count)]


def scenario_block(compiled, scenarios, seed=0):
    rng = np.random.default_rng(seed)
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    return rng.uniform(0.5, 1.5, (scenarios, 3, compiled.size)) * nominal


class TestShardSlices:
    def test_covers_everything_in_order(self):
        slices = _shard_slices(10, 3)
        assert slices == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard(self):
        assert _shard_slices(5, 1) == [(0, 5)]

    def test_more_shards_than_scenarios_never_requested(self):
        # analyze_batch_sharded clamps shards to S before slicing.
        slices = _shard_slices(4, 4)
        assert [stop - start for start, stop in slices] == [1, 1, 1, 1]


class TestAnalyzeMany:
    def test_matches_serial_evaluate_bitwise(self):
        trees = tree_set()
        results = analyze_many(trees, workers=WORKERS)
        assert len(results) == len(trees)
        for tree, table in zip(trees, results):
            assert not isinstance(table, ShardError)
            reference = evaluate(compile_tree(tree))
            assert table.names == reference.names
            for metric in ("t_rc", "delay_50", "settling", "overshoot"):
                np.testing.assert_array_equal(
                    table.column(metric), reference.column(metric)
                )

    def test_serial_fallback_is_identical(self):
        trees = tree_set(count=4)
        parallel = analyze_many(trees, workers=WORKERS)
        serial = analyze_many(trees, workers=0)
        for a, b in zip(parallel, serial):
            np.testing.assert_array_equal(a.delay_50, b.delay_50)

    def test_accepts_compiled_trees(self):
        trees = [compile_tree(t) for t in tree_set(count=3)]
        results = analyze_many(trees, workers=WORKERS)
        for ct, table in zip(trees, results):
            np.testing.assert_array_equal(
                table.delay_50, evaluate(ct).delay_50
            )

    def test_deterministic_input_ordering(self):
        trees = tree_set(count=5)
        first = analyze_many(trees, workers=WORKERS)
        second = analyze_many(trees, workers=WORKERS)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.delay_50, b.delay_50)
        # Order follows the input, not completion: sinks differ per tree.
        for tree, table in zip(trees, first):
            assert table.names == tree.nodes

    def test_poisoned_tree_fails_alone(self):
        trees = tree_set(count=3)
        good = compile_tree(trees[0])
        poisoned = good.with_values(
            np.full(good.size, np.nan), good.inductance, good.capacitance
        )
        results = analyze_many(
            [trees[1], poisoned, trees[2]], workers=WORKERS
        )
        assert isinstance(results[0], type(evaluate(good)))
        assert isinstance(results[1], ShardError)
        assert isinstance(results[2], type(evaluate(good)))
        error = results[1]
        assert error.scope == "tree"
        assert error.shard == 1
        assert error.error_type == "ElementValueError"
        diagnostic = error.diagnostic
        assert diagnostic.code == "shard-failure"
        assert "tree 1" in diagnostic.message

    def test_metric_selection(self):
        trees = tree_set(count=2)
        results = analyze_many(
            trees, metrics=("delay_50",), workers=WORKERS
        )
        full = analyze_many(trees, workers=WORKERS)
        for sel, ref in zip(results, full):
            np.testing.assert_array_equal(sel.delay_50, ref.delay_50)
            with pytest.raises(Exception):
                sel.column("overshoot")

    def test_settle_band_validated_up_front(self):
        with pytest.raises(ConfigurationError):
            analyze_many(tree_set(count=1), settle_band=0.0)

    def test_rc_limit_trees_supported(self):
        rc = single_line(4, resistance=50.0, inductance=0.0,
                         capacitance=0.1e-12)
        table = analyze_many([rc], workers=WORKERS)[0]
        np.testing.assert_array_equal(
            table.delay_50, evaluate(compile_tree(rc)).delay_50
        )


class TestAnalyzeBatchSharded:
    def test_bitwise_identical_to_serial(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 23)
        serial = analyze_batch(compiled, block)
        for shards in (1, 2, 4):
            sharded = analyze_batch_sharded(
                compiled, block, shards=shards, workers=WORKERS
            )
            for metric in ("t_rc", "t_lc", "delay_50", "rise_time",
                           "overshoot", "settling"):
                np.testing.assert_array_equal(
                    getattr(sharded, metric), getattr(serial, metric)
                )

    def test_wide_fan_out_bitwise_identical_to_serial(self):
        # One 129-child reduceat segment: the shard workers run the same
        # node-major kernel as the serial engine, pairwise blocks and all.
        compiled = compile_tree(star_tree(129))
        block = scenario_block(compiled, 37)
        serial = analyze_batch(compiled, block)
        sharded = analyze_batch_sharded(
            compiled, block, shards=2, workers=WORKERS
        )
        for metric in METRIC_NAMES:
            assert (
                np.ascontiguousarray(getattr(sharded, metric)).tobytes()
                == np.ascontiguousarray(getattr(serial, metric)).tobytes()
            ), metric

    def test_serial_fallback_when_one_shard(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 7)
        one = analyze_batch_sharded(compiled, block, shards=1)
        serial = analyze_batch(compiled, block)
        np.testing.assert_array_equal(one.delay_50, serial.delay_50)

    def test_workers_one_runs_in_process(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 9)
        sharded = analyze_batch_sharded(
            compiled, block, shards=3, workers=1
        )
        serial = analyze_batch(compiled, block)
        np.testing.assert_array_equal(sharded.delay_50, serial.delay_50)

    def test_metric_selection_matches_serial(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 11)
        sharded = analyze_batch_sharded(
            compiled, block, metrics=("delay_50",), shards=2, workers=WORKERS
        )
        serial = analyze_batch(compiled, block, metrics=("delay_50",))
        np.testing.assert_array_equal(sharded.delay_50, serial.delay_50)
        np.testing.assert_array_equal(sharded.t_rc, serial.t_rc)
        with pytest.raises(Exception):
            sharded.column("settling", "n7")

    def test_shards_clamped_to_scenarios(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 3)
        sharded = analyze_batch_sharded(
            compiled, block, shards=16, workers=WORKERS
        )
        serial = analyze_batch(compiled, block)
        np.testing.assert_array_equal(sharded.delay_50, serial.delay_50)

    def test_invalid_shards_rejected(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ConfigurationError):
            analyze_batch_sharded(
                compiled, scenario_block(compiled, 4), shards=0
            )

    def test_settle_band_validated_before_dispatch(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ConfigurationError):
            analyze_batch_sharded(
                compiled, scenario_block(compiled, 4), settle_band=1.5,
                shards=2,
            )


class TestPerShardFailure:
    def test_failed_shard_reports_survivors_keep_results(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 20)
        serial = analyze_batch(compiled, block)
        with pytest.raises(DispatchError) as excinfo:
            analyze_batch_sharded(
                compiled, block, shards=4, workers=WORKERS, fault_shards=(2,)
            )
        error = excinfo.value
        assert len(error.shard_errors) == 1
        assert len(error.partial) == 3
        failed = error.shard_errors[0]
        assert failed.shard == 2
        assert failed.scope == "scenarios"
        assert failed.diagnostic.code == "shard-failure"
        assert "scenarios 10:15" in failed.detail
        # The surviving shards' results match the serial rows exactly.
        for outcome in error.partial:
            assert isinstance(outcome, ShardOutcome)
            np.testing.assert_array_equal(
                outcome.timing.delay_50,
                serial.delay_50[outcome.start:outcome.stop],
            )

    def test_all_shards_failing_still_structured(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 8)
        with pytest.raises(DispatchError) as excinfo:
            analyze_batch_sharded(
                compiled, block, shards=2, workers=WORKERS,
                fault_shards=(0, 1),
            )
        assert len(excinfo.value.shard_errors) == 2
        assert excinfo.value.partial == ()

    def test_fault_injection_works_in_serial_fallback(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 8)
        with pytest.raises(DispatchError):
            analyze_batch_sharded(
                compiled, block, shards=2, workers=0, fault_shards=(1,)
            )


class TestPoolCacheInfo:
    def test_aggregates_parent_and_workers(self, fig5):
        compiled = compile_tree(fig5)
        block = scenario_block(compiled, 12)
        analyze_batch_sharded(compiled, block, shards=4, workers=WORKERS)
        info = sharded_mod.topology_cache_info()
        assert set(info) >= {"hits", "misses", "size", "parent", "workers"}
        assert len(info["workers"]) == WORKERS
        # Every worker that evaluated a shard decoded or reused the
        # shipped payload: pool-wide misses plus hits cover the lookups.
        pool_lookups = sum(
            w["hits"] + w["misses"] for w in info["workers"].values()
        )
        assert pool_lookups >= 1
        assert info["hits"] >= info["parent"]["hits"]

    def test_empty_without_pool(self):
        shutdown_pool()
        info = sharded_mod.topology_cache_info()
        assert info["workers"] == {}
        assert info["parent"]["size"] == info["size"]
