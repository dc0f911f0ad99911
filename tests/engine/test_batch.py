"""Batch evaluation: S scenarios x n nodes in one pass."""

import numpy as np
import pytest

from repro.analysis import TreeAnalyzer
from repro.circuit import Section
from repro.engine import (
    analyze_batch,
    clear_topology_cache,
    compile_tree,
    evaluate,
    metrics_from_sums,
    timing_table,
)
from repro.errors import ConfigurationError, ReductionError, TopologyError

from ..conftest import scalar_report


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


def factor_block(rng, scenarios, size):
    return rng.uniform(0.5, 1.5, size=(scenarios, 3, size))


def scenario_tree(tree, names, values):
    index = {name: i for i, name in enumerate(names)}

    def rebuild(name, _section):
        i = index[name]
        return Section(values[0, i], values[1, i], values[2, i])

    return tree.map_sections(rebuild)


class TestBatchMatchesLoop:
    def test_rlc_block_vs_per_scenario_analyzers(self, random_rlc):
        compiled = compile_tree(random_rlc)
        rng = np.random.default_rng(11)
        nominal = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )
        block = factor_block(rng, 6, compiled.size) * nominal
        batch = analyze_batch(compiled, block)
        assert batch.scenarios == 6
        for s in range(6):
            tree = scenario_tree(random_rlc, compiled.names, block[s])
            for want in scalar_report(tree):
                node = want.node
                got = batch.scenario(s)
                assert got.value("delay_50", node) == pytest.approx(
                    want.delay_50, rel=1e-12
                )
                assert got.value("settling", node) == pytest.approx(
                    want.settling, rel=1e-12
                )

    def test_column_is_per_scenario_series(self, fig5):
        compiled = compile_tree(fig5)
        rng = np.random.default_rng(2)
        nominal = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )
        block = factor_block(rng, 5, compiled.size) * nominal
        batch = analyze_batch(compiled, block)
        column = batch.column("delay_50", "n7")
        assert column.shape == (5,)
        for s in range(5):
            assert column[s] == batch.scenario(s).value("delay_50", "n7")

    def test_per_element_matrices(self, fig5):
        compiled = compile_tree(fig5)
        rng = np.random.default_rng(4)
        r = compiled.resistance * rng.uniform(0.5, 1.5, (3, compiled.size))
        batch = analyze_batch(compiled, resistance=r)
        full = analyze_batch(
            compiled,
            resistance=r,
            inductance=np.broadcast_to(
                compiled.inductance, (3, compiled.size)
            ),
            capacitance=np.broadcast_to(
                compiled.capacitance, (3, compiled.size)
            ),
        )
        assert np.array_equal(batch.delay_50, full.delay_50)

    def test_nominal_vector_broadcasts(self, fig5):
        compiled = compile_tree(fig5)
        batch = analyze_batch(compiled, capacitance=compiled.capacitance)
        assert batch.scenarios == 1
        for want in scalar_report(fig5):
            assert batch.column("delay_50", want.node)[0] == pytest.approx(
                want.delay_50, rel=1e-12
            )


class TestBatchValidation:
    def test_block_and_matrices_mutually_exclusive(self, fig5):
        compiled = compile_tree(fig5)
        block = np.ones((2, 3, compiled.size))
        with pytest.raises(ReductionError):
            analyze_batch(
                compiled, block, resistance=np.ones((2, compiled.size))
            )

    def test_block_shape_checked(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ReductionError):
            analyze_batch(compiled, np.ones((2, 2, compiled.size)))

    def test_needs_some_values(self, fig5):
        with pytest.raises(ReductionError):
            analyze_batch(compile_tree(fig5))

    def test_scenario_counts_must_agree(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ReductionError):
            analyze_batch(
                compiled,
                resistance=np.ones((2, compiled.size)),
                capacitance=np.ones((3, compiled.size)),
            )

    def test_matrix_shape_checked(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ReductionError):
            analyze_batch(compiled, resistance=np.ones((2, 3)))

    def test_unknown_node_rejected(self, fig5):
        compiled = compile_tree(fig5)
        batch = analyze_batch(
            compiled, capacitance=compiled.capacitance
        )
        with pytest.raises(TopologyError):
            batch.column("delay_50", "zzz")

    def test_metric_selection_matches_full_run(self, fig5):
        compiled = compile_tree(fig5)
        rng = np.random.default_rng(9)
        nominal = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )
        block = factor_block(rng, 4, compiled.size) * nominal
        full = analyze_batch(compiled, block)
        subset = analyze_batch(compiled, block, metrics=("delay_50",))
        assert np.array_equal(subset.delay_50, full.delay_50)
        assert np.array_equal(subset.t_rc, full.t_rc)
        with pytest.raises(ReductionError):
            subset.column("overshoot", "n7")
        with pytest.raises(ReductionError):
            subset.scenario(0).column("settling")
        assert subset.scenario(1).value("delay_50", "n7") == full.scenario(
            1
        ).value("delay_50", "n7")

    def test_unknown_metric_selection_rejected(self, fig5):
        compiled = compile_tree(fig5)
        with pytest.raises(ReductionError):
            analyze_batch(
                compiled,
                capacitance=compiled.capacitance,
                metrics=("slew",),
            )

    def test_out_of_domain_scenarios_come_out_nan(self, fig5):
        compiled = compile_tree(fig5)
        c = np.broadcast_to(compiled.capacitance, (2, compiled.size)).copy()
        c[1] = -c[1]  # negative capacitance: T_LC < 0, outside the forms
        batch = analyze_batch(compiled, capacitance=c)
        assert np.all(np.isfinite(batch.delay_50[0]))
        assert np.all(np.isnan(batch.delay_50[1]))


class TestSettleBandDomain:
    """The vectorized paths validate settle_band like the scalar analyzer."""

    BAD = (0.0, -0.5, 1.0, 1.5)

    @pytest.mark.parametrize("band", BAD)
    def test_metrics_from_sums_rejects(self, fig5, band):
        compiled = compile_tree(fig5)
        t_rc, t_lc = compiled.second_order_sums()
        with pytest.raises(ConfigurationError, match=r"settle_band"):
            metrics_from_sums(t_rc, t_lc, band)

    @pytest.mark.parametrize("band", BAD)
    def test_evaluate_rejects(self, fig5, band):
        with pytest.raises(ConfigurationError, match=r"settle_band"):
            evaluate(compile_tree(fig5), settle_band=band)

    @pytest.mark.parametrize("band", BAD)
    def test_timing_table_rejects(self, fig5, band):
        with pytest.raises(ConfigurationError, match=r"settle_band"):
            timing_table(fig5, settle_band=band)

    @pytest.mark.parametrize("band", BAD)
    def test_analyze_batch_rejects(self, fig5, band):
        compiled = compile_tree(fig5)
        block = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )[np.newaxis]
        with pytest.raises(ConfigurationError, match=r"settle_band"):
            analyze_batch(compiled, block, settle_band=band)

    def test_message_matches_scalar_analyzer(self, fig5):
        """Engine and scalar analyzer report the identical message."""
        with pytest.raises(ConfigurationError) as engine_err:
            evaluate(compile_tree(fig5), settle_band=2.0)
        with pytest.raises(ConfigurationError) as scalar_err:
            TreeAnalyzer(fig5, settle_band=2.0)
        assert str(engine_err.value) == str(scalar_err.value)

    def test_boundaries_of_valid_domain_accepted(self, fig5):
        compiled = compile_tree(fig5)
        for band in (1e-9, 0.5, 1.0 - 1e-9):
            table = evaluate(compiled, settle_band=band)
            assert np.all(np.isfinite(table.settling))


class TestColumnCopySemantics:
    """BatchTiming.column returns an owned copy, not a live view."""

    def _batch(self, fig5, scenarios=4):
        compiled = compile_tree(fig5)
        rng = np.random.default_rng(9)
        nominal = np.stack(
            [compiled.resistance, compiled.inductance, compiled.capacitance]
        )
        block = factor_block(rng, scenarios, compiled.size) * nominal
        return analyze_batch(compiled, block)

    def test_column_owns_its_data(self, fig5):
        column = self._batch(fig5).column("delay_50", "n7")
        assert column.base is None

    def test_mutating_column_leaves_batch_intact(self, fig5):
        batch = self._batch(fig5)
        before = batch.delay_50.copy()
        column = batch.column("delay_50", "n7")
        column[:] = -1.0
        np.testing.assert_array_equal(batch.delay_50, before)

    def test_column_does_not_pin_the_block(self, fig5):
        """A kept column must not keep the full (S, n) matrix alive."""
        column = self._batch(fig5).column("settling", "n3")
        assert column.nbytes == column.size * column.itemsize
        assert column.flags.owndata
