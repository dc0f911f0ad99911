"""Node-major batch layout: every batch row is bitwise its 1-D table.

The batch engine runs the Appendix sweeps and the metric kernels on
``(n, S)`` node-major blocks and hands back ``(S, n)`` views. These
tests pin what that layout must never change: each scenario row equals,
bit for bit, the 1-D :func:`evaluate` table of that scenario's values,
on the trees whose sums exercise every association path — reduceat
segments either side of numpy's 8- and 128-wide pairwise-sum blocks,
the chain ``cumsum`` path and irregular random trees.
"""

import hashlib
import platform

import numpy as np
import pytest

from repro.circuit import random_tree, single_line
from repro.engine import analyze_batch, compile_tree, evaluate
from repro.engine.kernels import METRIC_NAMES
from repro.runtime import ExecutionContext
from repro.sweep import (
    compile_sweep,
    const,
    iter_sweep,
    lognormal_factors,
    scenario_space,
)

from ..conftest import star_tree

S = 37  # not a multiple of any SIMD width: exercises the tail lanes

TREES = {
    **{f"star{k}": (lambda k=k: star_tree(k)) for k in (8, 9, 128, 129, 1000)},
    "chain": lambda: single_line(
        40, resistance=10.0, inductance=2e-9, capacitance=0.2e-12
    ),
    **{
        f"random{seed}": (
            lambda seed=seed: random_tree(60, np.random.default_rng(seed))
        )
        for seed in (0, 1, 2)
    },
    "random_rc": lambda: random_tree(
        60, np.random.default_rng(3), rc_only=True
    ),
}


def bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def value_block(compiled, seed=0):
    """(S, 3, n) values spanning decades, so any reassociated sum shows."""
    rng = np.random.default_rng(seed)
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    spread = 10.0 ** rng.uniform(-3.0, 3.0, (S, 3, compiled.size))
    return spread * nominal


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_row_is_its_1d_table(name):
    compiled = compile_tree(TREES[name]())
    block = value_block(compiled)
    batch = analyze_batch(compiled, block)
    for s in range(S):
        table = evaluate(compiled.with_values(*block[s]))
        for metric in METRIC_NAMES:
            assert bits(getattr(batch, metric)[s]) == bits(
                table.column(metric)
            ), (name, s, metric)


@pytest.mark.parametrize("name", ["star129", "random1"])
def test_nominal_broadcast_rows_match(name):
    compiled = compile_tree(TREES[name]())
    block = value_block(compiled, seed=1)
    batch = analyze_batch(compiled, capacitance=block[:, 2, :])
    for s in range(S):
        table = evaluate(
            compiled.with_values(
                compiled.resistance, compiled.inductance, block[s, 2]
            )
        )
        assert bits(batch.t_rc[s]) == bits(table.t_rc)
        assert bits(batch.delay_50[s]) == bits(table.delay_50)


def test_metric_arrays_keep_scenario_major_shape():
    compiled = compile_tree(TREES["random0"]())
    batch = analyze_batch(compiled, value_block(compiled))
    for metric in METRIC_NAMES:
        assert getattr(batch, metric).shape == (S, compiled.size)
    assert batch.scenarios == S
    column = batch.column("delay_50", compiled.names[-1])
    assert column.shape == (S,)
    assert column.flags.c_contiguous


#: blake2b of delay_50 then t_rc of the sweep below, recorded before the
#: batch engine went node-major. The exp/log loops numpy picks depend on
#: the CPU's SIMD features, so the pin holds per platform.
PINNED_SWEEP_DIGESTS = {
    ("x86_64", True): (
        "b6a73566e9dea144ee94a7b9de4d1d416082c3b11427639c4afc6593af4589ad"
        "3ff4351ece225cc93f3c901dd5fc5f8e80e15aa3d58349f1e8e3c8180d740d94"
    ),
}


def _platform_key():
    core = getattr(np, "_core", None) or np.core
    features = core._multiarray_umath.__cpu_features__
    return platform.machine(), bool(features.get("AVX512F"))


def test_lognormal_sweep_digest_is_pinned():
    compiled = compile_tree(random_tree(200, np.random.default_rng(2024)))
    axis = lognormal_factors(
        "mc", sigmas=(0.05, 0.03, 0.08), sections=200, samples=4096, seed=7
    )
    sweep = compile_sweep(
        scenario_space(axis),
        resistance=axis.resistance * const(compiled.resistance),
        inductance=axis.inductance * const(compiled.inductance),
        capacitance=axis.capacitance * const(compiled.capacitance),
    )
    metrics = ("delay_50", "t_rc")
    with ExecutionContext() as ctx:
        ((_, batch),) = iter_sweep(
            sweep, compiled, chunk_size=4096, metrics=metrics, context=ctx
        )
    assert batch.delay_50.shape == (4096, 200)

    # The staged sweep and one eager block over the same draws agree.
    factors = axis.draw(axis.start_stream(), 4096)
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    eager = analyze_batch(compiled, factors * nominal, metrics=metrics)
    for metric in metrics:
        assert bits(getattr(batch, metric)) == bits(getattr(eager, metric))

    pinned = PINNED_SWEEP_DIGESTS.get(_platform_key())
    if pinned is None:
        pytest.skip("sweep digest not pinned for this platform")
    digest = hashlib.blake2b()
    for metric in metrics:
        digest.update(bits(getattr(batch, metric)))
    assert digest.hexdigest() == pinned
