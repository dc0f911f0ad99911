"""Deterministic lifecycles of the dispatch layer's process resources.

The pool and the shared-memory arenas both follow the same rule: scope
them with a context manager for deterministic teardown, with the
``atexit`` hook only as a last-resort fallback. These tests exercise the
context-manager paths — creation, reuse, teardown on success and on
error, and idempotent close — without relying on interpreter exit.
"""

import numpy as np
import pytest

from repro.circuit import fig5_tree, random_tree
from repro.engine import analyze_many, dispatch_pool
from repro.engine.dispatch import (
    SupervisionPolicy,
    _arenas,
    _atexit_cleanup,
    arena_info,
    dispatch_telemetry,
    get_arena,
    get_pool,
    pool_generation,
    pool_size,
    rebuild_pool,
    release_arenas,
    shared_memory_available,
    shutdown_pool,
    worker_cache_infos,
)
from repro.errors import ConfigurationError, ReproError

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on platform"
)


@pytest.fixture(autouse=True)
def no_leaked_pool():
    shutdown_pool()
    release_arenas()
    yield
    shutdown_pool()
    release_arenas()


class TestDispatchPoolScope:
    def test_pool_lives_only_inside_block(self):
        assert pool_size() == 0
        with dispatch_pool(2):
            assert pool_size() == 2
        assert pool_size() == 0

    def test_teardown_happens_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with dispatch_pool(2):
                assert pool_size() == 2
                raise RuntimeError("boom")
        assert pool_size() == 0

    def test_too_few_workers_rejected(self):
        with pytest.raises(ReproError):
            with dispatch_pool(1):
                pass  # pragma: no cover - never entered

    def test_dispatch_inside_scope_reuses_pool(self):
        from numpy.random import default_rng

        trees = [fig5_tree(), random_tree(10, default_rng(0))]
        with dispatch_pool(2) as pool:
            outcomes = analyze_many(trees, workers=2)
            assert pool_size() == 2
            # Same pool object is still the live one after dispatching.
            from repro.engine.dispatch import get_pool

            assert get_pool(2) is pool
        assert pool_size() == 0
        from repro.engine import TimingTable

        assert len(outcomes) == len(trees)
        assert all(isinstance(o, TimingTable) for o in outcomes)


class TestSupervisionPolicy:
    @pytest.mark.parametrize("backoff", [float("nan"), -0.5])
    def test_backoff_must_be_a_non_negative_number(self, backoff):
        # A NaN backoff used to pass validation and then crash the first
        # retry round inside time.sleep with a raw ValueError.
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(backoff=backoff)


class TestSupervisedLifecycle:
    """Edge cases introduced by pool rebuilds and supervision."""

    def test_nested_dispatch_pool_reuses_and_defers_teardown(self):
        # The inner scope must not tear down the pool the outer scope
        # still owns; only the outermost exit shuts it down.
        with dispatch_pool(2) as outer:
            with dispatch_pool(2) as inner:
                assert inner is outer
                assert pool_size() == 2
            assert pool_size() == 2  # inner exit is a no-op
        assert pool_size() == 0

    def test_get_pool_after_rebuild_returns_fresh_executor(self):
        first = get_pool(2)
        generation = pool_generation()
        rebuilt = rebuild_pool()
        assert rebuilt is not None
        assert rebuilt is not first
        assert pool_generation() == generation + 1
        assert get_pool(2) is rebuilt  # cached, no second rebuild
        assert pool_size() == 2

    def test_shared_block_survives_pool_rebuild(self):
        # Shared segments are parent-owned; a rebuild must not unlink
        # them, only releasing the arena does.
        from multiprocessing import shared_memory

        arena = get_arena("test-rebuild")
        arena.begin(256)
        get_pool(2)
        rebuild_pool()
        attached = shared_memory.SharedMemory(name=arena.name)
        attached.close()
        name = arena.name
        release_arenas()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_rebuild_without_pool_is_a_no_op(self):
        assert pool_size() == 0
        generation = pool_generation()
        assert rebuild_pool() is None
        assert pool_generation() == generation

    def test_shutdown_pool_is_idempotent(self):
        get_pool(2)
        shutdown_pool()
        shutdown_pool()  # second call: nothing to do, must not raise
        assert pool_size() == 0

    def test_worker_cache_infos_on_half_dead_pool(self):
        import os
        import signal

        pool = get_pool(2)
        # Force workers to spawn, then kill one out from under the pool.
        infos = worker_cache_infos(timeout=15.0)
        assert infos  # healthy baseline: every worker answered
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        # The probe must return (possibly partial), never hang or raise.
        infos = worker_cache_infos(timeout=5.0)
        assert isinstance(infos, dict)
        assert victim.pid not in infos


class TestArenaLifecycle:
    """The persistent, parent-owned, grow-only shared-memory arenas."""

    def test_begin_within_capacity_reuses_the_segment(self):
        arena = get_arena("test-reuse")
        arena.begin(1024)
        name, generation = arena.name, arena.generation
        hits = dispatch_telemetry()["arena_hits"]
        arena.begin(512)  # fits: same segment, no re-map
        assert arena.name == name
        assert arena.generation == generation
        assert dispatch_telemetry()["arena_hits"] == hits + 1

    def test_growth_replaces_segment_and_unlinks_the_old_one(self):
        from multiprocessing import shared_memory

        arena = get_arena("test-grow")
        arena.begin(1024)
        old_name, old_generation = arena.name, arena.generation
        arena.begin(10 * arena.capacity)
        assert arena.generation == old_generation + 1
        assert arena.name != old_name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=old_name)

    def test_growth_is_at_least_geometric(self):
        # Growing by one byte at a time must not re-map per call.
        arena = get_arena("test-geometric")
        arena.begin(4096)
        first = arena.capacity
        arena.begin(first + 1)
        assert arena.capacity >= 2 * first

    def test_allocate_hands_out_disjoint_views(self):
        arena = get_arena("test-alloc")
        arena.begin(8 * (6 + 8))
        first_host, first_view = arena.allocate((2, 3))
        second_host, second_view = arena.allocate((8,))
        first_host[:] = 1.0
        second_host[:] = 2.0
        assert first_host.tolist() == [[1.0] * 3] * 2
        assert second_view.offset >= first_view.offset + first_view.nbytes

    def test_allocate_beyond_reservation_raises(self):
        arena = get_arena("test-overflow")
        arena.begin(64)
        with pytest.raises(ReproError):
            arena.allocate((1000, 1000))

    def test_release_arenas_unlinks_everything(self):
        from multiprocessing import shared_memory

        arena = get_arena("test-release")
        arena.begin(256)
        name = arena.name
        release_arenas()
        assert arena_info() == {}
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_sharded_batch_populates_and_reuses_the_batch_arena(self):
        from repro.engine import analyze_batch
        from repro.engine.compiled import compile_tree
        from repro.engine.sharded import analyze_batch_sharded

        ct = compile_tree(fig5_tree())
        rng = np.random.default_rng(7)
        rlc = rng.uniform(0.5, 2.0, size=(64, 3, ct.size))
        serial = analyze_batch(ct, rlc)
        with dispatch_pool(2):
            before = dispatch_telemetry()
            first = analyze_batch_sharded(ct, rlc, shards=2, workers=2)
            second = analyze_batch_sharded(ct, rlc, shards=2, workers=2)
            after = dispatch_telemetry()
        assert "batch" in arena_info()
        # Second call reuses the first call's segment.
        assert after["arena_hits"] > before["arena_hits"]
        # Results travel through the arena, not the pickle channel.
        assert after["bytes_returned"] == before["bytes_returned"]
        assert after["bytes_shipped"] > before["bytes_shipped"]
        for name in ("t_rc", "delay_50", "settling"):
            expected = getattr(serial.metrics, name)
            for timing in (first, second):
                got = getattr(timing.metrics, name)
                assert np.array_equal(got, expected, equal_nan=True)

    def test_arena_results_survive_pool_rebuild(self):
        # Workers attach by segment name; a fresh pool generation must
        # still read the parent's current arena and produce identical
        # results.
        from repro.engine import analyze_batch
        from repro.engine.compiled import compile_tree
        from repro.engine.sharded import analyze_batch_sharded

        ct = compile_tree(fig5_tree())
        rng = np.random.default_rng(11)
        rlc = rng.uniform(0.5, 2.0, size=(32, 3, ct.size))
        serial = analyze_batch(ct, rlc)
        with dispatch_pool(2):
            analyze_batch_sharded(ct, rlc, shards=2, workers=2)
            generation = pool_generation()
            rebuild_pool()
            assert pool_generation() == generation + 1
            again = analyze_batch_sharded(ct, rlc, shards=2, workers=2)
        assert np.array_equal(
            again.metrics.delay_50, serial.metrics.delay_50, equal_nan=True
        )

    def test_arena_grows_across_calls_without_stale_reads(self):
        # A bigger second batch forces growth (new segment name);
        # workers must follow the rename, not read the dead segment.
        from repro.engine import analyze_batch
        from repro.engine.compiled import compile_tree
        from repro.engine.sharded import analyze_batch_sharded

        ct = compile_tree(fig5_tree())
        rng = np.random.default_rng(13)
        small = rng.uniform(0.5, 2.0, size=(8, 3, ct.size))
        big = rng.uniform(0.5, 2.0, size=(512, 3, ct.size))
        with dispatch_pool(2):
            analyze_batch_sharded(ct, small, shards=2, workers=2)
            first_generation = arena_info()["batch"]["generation"]
            sharded = analyze_batch_sharded(ct, big, shards=2, workers=2)
            assert arena_info()["batch"]["generation"] > first_generation
        serial = analyze_batch(ct, big)
        assert np.array_equal(
            sharded.metrics.rise_time,
            serial.metrics.rise_time,
            equal_nan=True,
        )

    def test_atexit_cleanup_releases_arenas(self):
        from multiprocessing import shared_memory

        arena = get_arena("test-atexit")
        arena.begin(128)
        name = arena.name
        _atexit_cleanup()
        assert not _arenas
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_atexit_cleanup_survives_a_poisoned_arena(self, monkeypatch):
        # Each arena close is shielded: one that raises must stop
        # neither the unlinking of its siblings nor the pool teardown.
        from multiprocessing import shared_memory

        bad = get_arena("test-atexit-poisoned")
        bad.begin(64)
        real_close = bad.close

        def poisoned_close():
            raise OSError("poisoned close")

        monkeypatch.setattr(bad, "close", poisoned_close)
        good = get_arena("test-atexit-good")
        good.begin(64)
        name = good.name
        get_pool(2)
        try:
            _atexit_cleanup()  # must not propagate the poisoned close
            assert pool_size() == 0
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            real_close()
