"""Guarded whole-tree analysis versus the plain closed-form table.

``GuardedAnalyzer.report()`` answers every node whose closed-form
metrics are finite from one read of the session's ``TimingTable``; only
non-finite rows walk the AWE -> exact chain. On a friendly tree it
should therefore cost about what materializing the table's rows costs.
The gate is a ratio — guarded ``report()`` over ``TimingTable.timings()``
on the same 3000-section tree, median of five runs each — so it holds
on any runner speed::

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


def _median_ms(fn, runs=RUNS):
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


@pytest.mark.perf
def test_guarded_report_costs_about_a_table_read():
    tree = random_tree(SECTIONS, np.random.default_rng(0))
    with ExecutionContext() as ctx:
        guarded = GuardedAnalyzer(tree, context=ctx)
        table = ctx.session(tree).table()
        guarded.report()  # warm: builds the session's table once
        table_ms = _median_ms(table.timings)
        report_ms = _median_ms(guarded.report)
        per_node_ms = _median_ms(
            lambda: [guarded.timing(node) for node in tree.nodes]
        )
        ratio = report_ms / table_ms
        print(
            f"\n{SECTIONS} sections: TimingTable.timings {table_ms:.2f} ms, "
            f"guarded report {report_ms:.2f} ms ({ratio:.2f}x), "
            f"guarded per-node loop {per_node_ms:.2f} ms"
        )
    assert ratio <= MAX_RATIO, (
        f"guarded report() took {ratio:.2f}x TimingTable.timings() "
        f"(limit {MAX_RATIO}x)"
    )
