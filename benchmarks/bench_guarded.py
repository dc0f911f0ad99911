"""Guarded whole-tree analysis versus the plain closed-form table.

``GuardedAnalyzer.report()`` answers every node whose closed-form
metrics are finite from one read of the session's ``TimingTable``; only
non-finite rows walk the AWE -> exact chain. On a friendly tree it
should therefore cost about what materializing the table's rows costs.
A loop of per-node ``timing(node)`` calls resolves that table once per
analyzer, so it should cost a small multiple of the same. The gates are
ratios — guarded ``report()`` and the per-node loop over
``TimingTable.timings()`` on the same 3000-section tree, median of five
runs each — so they hold on any runner speed::

    pytest benchmarks/bench_guarded.py -m perf -s
"""

import statistics
import time

import numpy as np
import pytest

from repro import GuardedAnalyzer
from repro.circuit import random_tree
from repro.runtime import ExecutionContext

SECTIONS = 3000
RUNS = 5
MAX_RATIO = 4.0
MAX_LOOP_RATIO = 3.0
LOOP_ROUNDS = 9


def _times_ms(fn, runs=RUNS):
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - started))
    return times


@pytest.mark.perf
def test_guarded_report_costs_about_a_table_read():
    tree = random_tree(SECTIONS, np.random.default_rng(0))
    with ExecutionContext() as ctx:
        guarded = GuardedAnalyzer(tree, context=ctx)
        table = ctx.session(tree).table()
        guarded.report()  # warm: builds the session's table once
        table_ms = statistics.median(_times_ms(table.timings))
        report_ms = statistics.median(_times_ms(guarded.report))
        ratio = report_ms / table_ms
        # Interleaved rounds, fastest of each side: a loop run makes
        # 3000 calls that build 3000 objects, so a collector pass or a
        # busy neighbour lands in some runs and not in others.
        table_times, loop_times = [], []
        for _ in range(LOOP_ROUNDS):
            table_times += _times_ms(table.timings, runs=1)
            loop_times += _times_ms(
                lambda: [guarded.timing(node) for node in tree.nodes], runs=1
            )
        per_node_ms = min(loop_times)
        loop_ratio = per_node_ms / min(table_times)
        print(
            f"\n{SECTIONS} sections: TimingTable.timings {table_ms:.2f} ms, "
            f"guarded report {report_ms:.2f} ms ({ratio:.2f}x), "
            f"guarded per-node loop {per_node_ms:.2f} ms ({loop_ratio:.2f}x)"
        )
    assert ratio <= MAX_RATIO, (
        f"guarded report() took {ratio:.2f}x TimingTable.timings() "
        f"(limit {MAX_RATIO}x)"
    )
    assert loop_ratio <= MAX_LOOP_RATIO, (
        f"guarded per-node loop took {loop_ratio:.2f}x "
        f"TimingTable.timings() (limit {MAX_LOOP_RATIO}x)"
    )
