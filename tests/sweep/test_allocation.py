"""Allocation ceiling of one warm Monte-Carlo sweep chunk.

A chunk's fill (log-normal draws staged into the reused buffer) and its
batch evaluation (sums and metric kernels) allocate full ``(chunk, n)``
blocks; how many are alive at once is the sweep's peak memory beyond
the staging buffer. ``tracemalloc`` counts numpy's data allocations
byte for byte, so the ceiling is deterministic — it does not depend on
timing or on the machine's load.
"""

import tracemalloc

import numpy as np

from repro.circuit import random_tree
from repro.engine import compile_tree
from repro.runtime import ExecutionContext
from repro.sweep import (
    compile_sweep,
    const,
    iter_sweep,
    lognormal_factors,
    scenario_space,
)

CHUNK = 4096
SECTIONS = 200

#: Peak bytes of one warm chunk, as a multiple of the staging block.
CEILING = 2.5


def test_warm_lognormal_chunk_peak_stays_under_ceiling():
    compiled = compile_tree(random_tree(SECTIONS, np.random.default_rng(11)))
    axis = lognormal_factors(
        "mc",
        sigmas=(0.05, 0.03, 0.08),
        sections=SECTIONS,
        samples=3 * CHUNK,
        seed=5,
    )
    sweep = compile_sweep(
        scenario_space(axis),
        resistance=axis.resistance * const(compiled.resistance),
        inductance=axis.inductance * const(compiled.inductance),
        capacitance=axis.capacitance * const(compiled.capacitance),
    )
    staging = CHUNK * 3 * SECTIONS * 8
    with ExecutionContext() as ctx:
        stream = iter_sweep(
            sweep,
            compiled,
            chunk_size=CHUNK,
            metrics=("delay_50", "t_rc"),
            context=ctx,
        )
        next(stream)  # warm: allocates the staging buffer, fills caches
        tracemalloc.start()
        try:
            _, batch = next(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stream.close()
    assert batch.scenarios == CHUNK
    assert peak <= CEILING * staging, (
        f"chunk peak {peak / 1e6:.1f} MB is {peak / staging:.2f}x the "
        f"{staging / 1e6:.1f} MB staging block"
    )
