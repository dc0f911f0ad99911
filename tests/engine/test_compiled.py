"""Tree flattening: structure arrays, sweeps, and the topology cache."""

import numpy as np
import pytest

from repro.circuit import RLCTree, Section
from repro.engine import (
    clear_topology_cache,
    compile_tree,
    topology_cache_info,
    topology_fingerprint,
)
from repro.errors import ReductionError, TopologyError

from ..conftest import (
    dict_capacitive_loads,
    dict_exact_moments,
    dict_second_order_sums,
    weighted_path_sums,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def as_dict(compiled, values):
    return dict(zip(compiled.names, np.asarray(values).tolist()))


class TestTopologyArrays:
    def test_names_follow_tree_order(self, fig5):
        compiled = compile_tree(fig5)
        assert compiled.names == fig5.nodes

    def test_parent_slots(self, fig5):
        compiled = compile_tree(fig5)
        topo = compiled.topology
        n = topo.size
        for i, name in enumerate(topo.names):
            parent = fig5.parent(name)
            expected = n if parent == fig5.root else topo.index[parent]
            assert topo.parent[i] == expected

    def test_children_match_tree(self, fig5):
        topo = compile_tree(fig5).topology
        for i, name in enumerate(topo.names):
            children = [topo.names[j] for j in topo.children(i)]
            assert children == list(fig5.children(name))
        roots = [topo.names[j] for j in topo.children(topo.size)]
        assert roots == list(fig5.children(fig5.root))

    def test_unknown_node_raises(self, fig5):
        topo = compile_tree(fig5).topology
        with pytest.raises(TopologyError):
            topo.node_index("zzz")

    def test_value_vector_shape_checked(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ReductionError):
            compiled.with_values(np.ones(3), np.ones(3), np.ones(3))


class TestSweepsMatchDicts:
    def test_capacitive_loads(self, fig5, random_rlc):
        for tree in (fig5, random_rlc):
            compiled = compile_tree(tree)
            expected = dict_capacitive_loads(tree)
            got = as_dict(
                compiled, compiled.topology.accumulate(compiled.capacitance)
            )
            assert got == pytest.approx(expected, rel=1e-12)

    def test_second_order_sums(self, fig5, random_rlc, rc_line):
        for tree in (fig5, random_rlc, rc_line):
            compiled = compile_tree(tree)
            t_rc, t_lc = dict_second_order_sums(tree)
            got_rc, got_lc = compiled.second_order_sums()
            assert as_dict(compiled, got_rc) == pytest.approx(t_rc, rel=1e-12)
            assert as_dict(compiled, got_lc) == pytest.approx(t_lc, rel=1e-12)

    def test_weighted_path_sums(self, random_rlc):
        compiled = compile_tree(random_rlc)
        rng = np.random.default_rng(3)
        w_r = {name: rng.uniform(0.1, 2.0) for name in random_rlc.nodes}
        w_l = {name: rng.uniform(0.1, 2.0) for name in random_rlc.nodes}
        expected = weighted_path_sums(random_rlc, w_r, w_l)
        got = compiled.weighted_path_sums(
            np.array([w_r[n] for n in compiled.names]),
            np.array([w_l[n] for n in compiled.names]),
        )
        assert as_dict(compiled, got) == pytest.approx(expected, rel=1e-12)

    def test_exact_moments(self, fig5, random_rlc):
        for tree in (fig5, random_rlc):
            compiled = compile_tree(tree)
            expected = dict_exact_moments(tree, 4)
            got = compiled.exact_moments(4)
            assert got.shape == (5, tree.size)
            for i, name in enumerate(compiled.names):
                assert got[:, i].tolist() == pytest.approx(
                    expected[name], rel=1e-12
                )

    def test_negative_moment_order_rejected(self, fig5):
        with pytest.raises(ReductionError):
            compile_tree(fig5).exact_moments(-1)

    def test_batch_dims_match_per_scenario(self, random_rlc):
        compiled = compile_tree(random_rlc)
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.5, 1.5, size=(compiled.size, 4))
        stacked = compiled.topology.accumulate(weights)
        for s in range(4):
            single = compiled.topology.accumulate(weights[:, s])
            assert np.allclose(stacked[:, s], single, rtol=1e-15, atol=0.0)


class TestTopologyCache:
    def test_hit_on_value_perturbation(self, fig5):
        compile_tree(fig5)
        perturbed = fig5.map_sections(
            lambda name, s: Section(
                s.resistance * 1.1, s.inductance * 0.9, s.capacitance * 1.2
            )
        )
        compile_tree(perturbed)
        info = topology_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1

    def test_hit_serves_fresh_values(self, fig5):
        first = compile_tree(fig5)
        perturbed = fig5.map_sections(
            lambda name, s: Section(
                s.resistance * 2.0, s.inductance, s.capacitance
            )
        )
        second = compile_tree(perturbed)
        assert second.topology is first.topology
        assert np.array_equal(second.resistance, 2.0 * first.resistance)

    def test_replace_section_values_picked_up(self, fig5):
        compile_tree(fig5)
        fig5.replace_section("n3", Section(99.0, 1e-9, 2e-12))
        compiled = compile_tree(fig5)
        i = compiled.topology.node_index("n3")
        assert compiled.resistance[i] == 99.0

    def test_different_topology_misses(self, fig5, line3):
        compile_tree(fig5)
        compile_tree(line3)
        assert topology_cache_info()["misses"] == 2

    def test_fingerprint_excludes_values(self, fig5):
        perturbed = fig5.map_sections(
            lambda name, s: Section(
                s.resistance * 3.0, s.inductance, s.capacitance
            )
        )
        assert topology_fingerprint(fig5) == topology_fingerprint(perturbed)

    def test_cache_bypass(self, fig5):
        compile_tree(fig5, cache=False)
        info = topology_cache_info()
        assert info["size"] == 0 and info["misses"] == 0

    def test_eviction_bounds_size(self):
        rng = np.random.default_rng(0)
        maxsize = topology_cache_info()["maxsize"]
        for k in range(maxsize + 5):
            tree = RLCTree()
            for i in range(k + 1):
                tree.add_section(
                    f"n{i}",
                    "in" if i == 0 else f"n{i - 1}",
                    resistance=1.0,
                    inductance=1e-9,
                    capacitance=1e-13,
                )
            compile_tree(tree)
        assert topology_cache_info()["size"] == maxsize


class TestCacheThreadSafety:
    """compile_tree's module-global LRU is hammered from many threads."""

    @staticmethod
    def _line(sections):
        tree = RLCTree()
        for i in range(sections):
            tree.add_section(
                f"n{i}",
                "in" if i == 0 else f"n{i - 1}",
                resistance=1.0 + i,
                inductance=1e-9,
                capacitance=1e-13,
            )
        return tree

    def test_concurrent_compiles_keep_counters_consistent(self):
        import threading

        trees = [self._line(k + 2) for k in range(8)]
        rounds = 30
        workers = 8
        errors = []
        barrier = threading.Barrier(workers)

        def hammer(offset):
            try:
                barrier.wait()
                for i in range(rounds):
                    compile_tree(trees[(offset + i) % len(trees)])
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        info = topology_cache_info()
        calls = workers * rounds
        # Every call either hit or missed — a lost update under a race
        # would break this invariant.
        assert info["hits"] + info["misses"] == calls
        assert len(trees) <= info["misses"] < calls
        assert info["size"] == len(trees)

    def test_concurrent_eviction_respects_maxsize(self):
        import threading

        maxsize = topology_cache_info()["maxsize"]
        trees = [self._line(k + 2) for k in range(maxsize + 10)]
        workers = 4
        barrier = threading.Barrier(workers)

        def churn(offset):
            barrier.wait()
            for i, tree in enumerate(trees):
                compile_tree(trees[(offset * 7 + i) % len(trees)])

        threads = [
            threading.Thread(target=churn, args=(k,)) for k in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = topology_cache_info()
        assert info["size"] <= maxsize
        assert info["hits"] + info["misses"] == workers * len(trees)

    def test_racing_same_topology_shares_one_entry(self, fig5):
        import threading

        results = []
        barrier = threading.Barrier(6)

        def compile_same():
            barrier.wait()
            results.append(compile_tree(fig5))

        threads = [threading.Thread(target=compile_same) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = topology_cache_info()
        assert info["size"] == 1
        assert info["hits"] + info["misses"] == 6
        # Whatever interleaving happened, callers end up on one cached
        # topology object after the race settles.
        assert len({id(r.topology) for r in results}) <= 2
        assert compile_tree(fig5).topology is results[-1].topology


class TestAccumulatePrecision:
    """Segmented sums must not cancel across sibling segments.

    A cumsum-then-subtract segmented sum carries absolute error at the
    scale of the whole level's total; a node whose subtree sum is
    epsilon-sized next to siblings carrying huge sums then fails any
    relative comparison against the dict-based reference.
    """

    def test_tiny_subtree_next_to_huge_siblings(self):
        tree = RLCTree()
        # Two level-1 parents: "big" feeds enormous weights, "small"
        # feeds the smallest representable section values.
        tree.add_section("big", "in", resistance=1e4, inductance=1e-7,
                         capacitance=1e-10)
        tree.add_section("small", "in", resistance=0.1, inductance=1e-12,
                         capacitance=1e-16)
        for k in range(6):
            tree.add_section(f"b{k}", "big", resistance=1e4,
                             inductance=1e-7, capacitance=1e-10)
        tree.add_section("s0", "small", resistance=0.1, inductance=1e-12,
                         capacitance=1e-16)
        compiled = compile_tree(tree, cache=False)
        expected = dict_capacitive_loads(tree)
        got = compiled.topology.accumulate(compiled.capacitance)
        for i, name in enumerate(compiled.names):
            assert float(got[i]) == pytest.approx(
                expected[name], rel=1e-14, abs=0.0
            ), name

    def test_second_order_sums_stay_relative(self):
        tree = RLCTree()
        tree.add_section("a", "in", resistance=1e4, inductance=1e-7,
                         capacitance=1e-10)
        tree.add_section("tiny", "a", resistance=0.1, inductance=1e-12,
                         capacitance=1e-16)
        for k in range(5):
            tree.add_section(f"fat{k}", "a", resistance=1e4,
                             inductance=1e-7, capacitance=1e-10)
        compiled = compile_tree(tree, cache=False)
        t_rc_ref, t_lc_ref = dict_second_order_sums(tree)
        t_rc, t_lc = compiled.second_order_sums()
        for i, name in enumerate(compiled.names):
            assert float(t_rc[i]) == pytest.approx(
                t_rc_ref[name], rel=1e-12
            ), name
            assert float(t_lc[i]) == pytest.approx(
                t_lc_ref[name], rel=1e-12
            ), name
