"""The chunked executor: bitwise chunk-boundary equivalence.

The acceptance contract of the lazy layer — chunking is purely an
execution strategy. Every chunk size must reproduce the eager
one-block :func:`analyze_batch` result bit for bit, on every backend
the planner can route a chunk to, and the telemetry must account for
every chunk staged.
"""

import numpy as np
import pytest

from repro.circuit import fig5_tree
from repro.engine import compile_tree
from repro.engine.table import analyze_batch
from repro.errors import ConfigurationError
from repro.runtime import ExecutionContext, RuntimeConfig, planner
from repro.sweep import (
    clip,
    compile_sweep,
    const,
    exp,
    iter_sweep,
    linspace,
    log,
    lognormal_factors,
    run_sweep,
    scenario_space,
    zip_axes,
)
from repro.sweep.execute import _ChunkContext

S = 103
METRICS = ("delay_50", "t_rc", "rise_time")


@pytest.fixture(scope="module")
def compiled():
    return compile_tree(fig5_tree())


@pytest.fixture(scope="module")
def sweep(compiled):
    axis = linspace("scale", 0.5, 2.0, S)
    return compile_sweep(
        scenario_space(axis),
        resistance=axis.values * const(compiled.resistance),
        inductance=const(compiled.inductance),
        capacitance=axis.values * const(compiled.capacitance),
    )


@pytest.fixture(scope="module")
def eager(compiled):
    scale = np.linspace(0.5, 2.0, S)
    rlc = np.empty((S, 3, compiled.size))
    rlc[:, 0, :] = scale[:, None] * compiled.resistance
    rlc[:, 1, :] = compiled.inductance
    rlc[:, 2, :] = scale[:, None] * compiled.capacitance
    return analyze_batch(compiled, rlc, metrics=METRICS)


def collect(sweep, compiled, chunk_size, **kwargs):
    columns = {metric: np.empty(S) for metric in METRICS}
    sink = "n7"
    with ExecutionContext(kwargs.pop("config", None)) as context:
        for lo, batch in iter_sweep(
            sweep,
            compiled,
            chunk_size=chunk_size,
            metrics=METRICS,
            context=context,
            **kwargs,
        ):
            hi = lo + batch.scenarios
            for metric in METRICS:
                columns[metric][lo:hi] = batch.column(metric, sink)
        stats = context.stats()["sweep"]
    return columns, stats


class TestChunkBoundaries:
    @pytest.mark.parametrize("chunk_size", [1, S - 1, S, S + 7])
    def test_bitwise_identical_to_eager(
        self, sweep, compiled, eager, chunk_size
    ):
        columns, stats = collect(sweep, compiled, chunk_size)
        for metric in METRICS:
            reference = eager.column(metric, "n7")
            assert columns[metric].tobytes() == reference.tobytes()
        assert stats["chunks"] == -(-S // chunk_size)

    def test_sharded_chunks_match_serial(
        self, sweep, compiled, eager, monkeypatch
    ):
        monkeypatch.setattr(planner, "SHARDED_MIN_CELLS", 1)
        config = RuntimeConfig(workers=2)
        columns, stats = collect(sweep, compiled, 32, config=config)
        for metric in METRICS:
            reference = eager.column(metric, "n7")
            assert columns[metric].tobytes() == reference.tobytes()
        assert stats["backends"].get("sharded", 0) > 0

    def test_forced_backend_respected(self, sweep, compiled, eager):
        columns, stats = collect(sweep, compiled, 64, backend="compiled")
        assert columns["delay_50"].tobytes() == eager.column(
            "delay_50", "n7"
        ).tobytes()
        assert stats["backends"] == {"compiled": 2}


class TestTelemetry:
    def test_sweep_group_accounts_every_chunk(self, sweep, compiled):
        _, stats = collect(sweep, compiled, 25)
        assert stats["runs"] == 1
        assert stats["chunks"] == 5
        assert stats["unique_nodes"] == sweep.unique_nodes
        assert stats["total_refs"] == sweep.total_refs
        assert stats["cse_hits"] == sweep.cse_hits
        assert stats["peak_chunk_bytes"] == 25 * 3 * compiled.size * 8


class TestRunSweep:
    def test_columns_cover_all_scenarios(self, sweep, compiled, eager):
        with ExecutionContext() as context:
            result = run_sweep(
                sweep,
                compiled,
                nodes=("n7", "n4"),
                metrics=("delay_50",),
                chunk_size=17,
                context=context,
            )
        assert result.scenarios == S
        assert result.chunks == -(-S // 17)
        for node in ("n7", "n4"):
            assert result.column("delay_50", node).tobytes() == eager.column(
                "delay_50", node
            ).tobytes()

    def test_missing_column_is_a_clear_error(self, sweep, compiled):
        with ExecutionContext() as context:
            result = run_sweep(
                sweep, compiled, nodes=("n7",), context=context
            )
        with pytest.raises(ConfigurationError):
            result.column("delay_50", "n1")


class TestMonteCarloChunks:
    def test_chunked_rng_matches_one_eager_draw(self, compiled):
        axis = lognormal_factors(
            "mc",
            sigmas=np.array([0.15, 0.1, 0.2]),
            sections=compiled.size,
            samples=S,
            seed=42,
        )
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=axis.resistance * const(compiled.resistance),
            inductance=axis.inductance * const(compiled.inductance),
            capacitance=axis.capacitance * const(compiled.capacitance),
        )
        factors = axis.draw(axis.start_stream(), S)
        rlc = factors * np.stack(
            (compiled.resistance, compiled.inductance, compiled.capacitance)
        )
        eager = analyze_batch(compiled, rlc, metrics=("delay_50",))
        for chunk_size in (1, 13, S, S + 7):
            with ExecutionContext() as context:
                result = run_sweep(
                    sweep,
                    compiled,
                    nodes=("n7",),
                    chunk_size=chunk_size,
                    context=context,
                )
            assert result.column("delay_50", "n7").tobytes() == eager.column(
                "delay_50", "n7"
            ).tobytes()


class TestZipSpaces:
    def test_two_axis_zip_matches_eager(self, compiled):
        r_axis = linspace("r", 0.8, 1.2, S)
        c_axis = linspace("c", 0.9, 1.1, S)
        sweep = compile_sweep(
            zip_axes(r_axis, c_axis),
            resistance=r_axis.values * const(compiled.resistance),
            inductance=const(compiled.inductance),
            capacitance=c_axis.values * const(compiled.capacitance),
        )
        r = np.linspace(0.8, 1.2, S)
        c = np.linspace(0.9, 1.1, S)
        rlc = np.empty((S, 3, compiled.size))
        rlc[:, 0, :] = r[:, None] * compiled.resistance
        rlc[:, 1, :] = compiled.inductance
        rlc[:, 2, :] = c[:, None] * compiled.capacitance
        eager = analyze_batch(compiled, rlc, metrics=("delay_50",))
        with ExecutionContext() as context:
            result = run_sweep(
                sweep, compiled, nodes=("n7",), chunk_size=10, context=context
            )
        assert result.column("delay_50", "n7").tobytes() == eager.column(
            "delay_50", "n7"
        ).tobytes()


class TestValidation:
    def test_chunk_size_validated_eagerly(self, sweep, compiled):
        with ExecutionContext() as context:
            with pytest.raises(ConfigurationError):
                iter_sweep(sweep, compiled, chunk_size=0, context=context)

    def test_out_of_order_sequential_chunk_rejected(self, compiled):
        axis = lognormal_factors(
            "mc",
            sigmas=np.full(3, 0.1),
            sections=compiled.size,
            samples=S,
            seed=1,
        )
        space = scenario_space(axis)
        streams = {axis: {"rng": axis.start_stream(), "next": 0}}
        context = _ChunkContext(space, 4, 8, streams)
        with pytest.raises(ConfigurationError, match="chunk order"):
            context.draw_block(axis)

    def test_wrong_size_factor_axis_fails_before_first_chunk(self, compiled):
        axis = lognormal_factors(
            "mc",
            sigmas=np.full(3, 0.1),
            sections=compiled.size - 1,
            samples=S,
            seed=1,
        )
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=axis.resistance * const(compiled.resistance),
            inductance=axis.inductance * const(compiled.inductance),
            capacitance=axis.capacitance * const(compiled.capacitance),
        )
        with ExecutionContext() as context:
            with pytest.raises(
                ConfigurationError, match="factor axis 'mc' spans 6 sections"
            ):
                iter_sweep(sweep, compiled, context=context)

    def test_wrong_length_constant_fails_before_first_chunk(self, compiled):
        axis = linspace("scale", 0.5, 2.0, S)
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=axis.values * const(compiled.resistance[:-1]),
            inductance=const(compiled.inductance),
            capacitance=axis.values * const(compiled.capacitance),
        )
        with ExecutionContext() as context:
            with pytest.raises(
                ConfigurationError, match="constant vector spans 6 sections"
            ):
                iter_sweep(sweep, compiled, context=context)


def _stage(r, l, c, compiled):
    rlc = np.empty((S, 3, compiled.size))
    rlc[:, 0, :] = r
    rlc[:, 1, :] = l
    rlc[:, 2, :] = c
    return rlc


class TestStagedRoots:
    """Every kind of root expression lands in its staging slot bitwise
    as the same numpy arithmetic staged eagerly."""

    @pytest.fixture(params=[True, False], ids=["cse", "no-cse"])
    def cse(self, request):
        return request.param

    def check(self, sweep, compiled, rlc):
        eager = analyze_batch(compiled, rlc)
        with ExecutionContext() as context:
            for lo, batch in iter_sweep(
                sweep, compiled, chunk_size=40, context=context
            ):
                hi = lo + batch.scenarios
                for metric in ("t_rc", "t_lc", "delay_50", "settling"):
                    got = np.ascontiguousarray(getattr(batch, metric))
                    want = np.ascontiguousarray(getattr(eager, metric)[lo:hi])
                    assert got.tobytes() == want.tobytes(), (lo, metric)

    def test_clip_exp_and_product_roots(self, compiled, cse):
        axis = linspace("scale", 0.5, 2.0, S)
        r, l, c = compiled.resistance, compiled.inductance, compiled.capacitance
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=clip(axis.values * const(r), 20.0, 60.0),
            inductance=exp(log(const(l)) + axis.values * 0.1),
            capacitance=axis.values / const(1.0 / c),
            cse=cse,
        )
        scale = np.linspace(0.5, 2.0, S)[:, None]
        rlc = _stage(
            np.clip(scale * r, 20.0, 60.0),
            np.exp(np.log(l) + scale * 0.1),
            scale / (1.0 / c),
            compiled,
        )
        self.check(sweep, compiled, rlc)

    def test_constant_shared_and_negated_roots(self, compiled, cse):
        axis = linspace("scale", 0.5, 2.0, S)
        c = compiled.capacitance
        shared = axis.values * const(c * 1e13)
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=shared,
            inductance=0.0,
            capacitance=-(-shared) * 1e-13,
            cse=cse,
        )
        scale = np.linspace(0.5, 2.0, S)[:, None]
        value = scale * (c * 1e13)
        rlc = _stage(value, 0.0, -(-value) * 1e-13, compiled)
        self.check(sweep, compiled, rlc)

    def test_same_root_in_two_slots(self, compiled, cse):
        axis = linspace("scale", 0.5, 2.0, S)
        value = axis.values * const(np.sqrt(compiled.resistance))
        sweep = compile_sweep(
            scenario_space(axis),
            resistance=value,
            inductance=const(compiled.inductance),
            capacitance=value,
            cse=cse,
        )
        scale = np.linspace(0.5, 2.0, S)[:, None]
        staged = scale * np.sqrt(compiled.resistance)
        rlc = _stage(staged, compiled.inductance, staged, compiled)
        self.check(sweep, compiled, rlc)
