"""One answer from every entry point: the differential oracle.

Every per-tree route reads the same compiled sums and one of two
closed-form kernels (the vector ``metrics_from_sums`` and its O(1) twin
``scalar_metrics``), so all of them must agree in every bit of every
``NodeTiming`` field — runtime sessions on each backend and source type,
point reads and bulk reports, ``TreeAnalyzer``, the guarded analyzer's
closed-form rows and the CLI's CSV. A second case pins what an
out-of-domain node does: it alone escalates, and every other row keeps
the table's bits.
"""

import math
import time

import numpy as np
import pytest

from repro.analysis import NodeTiming, TreeAnalyzer
from repro.circuit import Section, dumps, fig5_tree, random_tree
from repro.circuit.netlist import loads
from repro.cli import main
from repro.engine import compile_tree
from repro.errors import ElementValueError
from repro.robustness import GuardedAnalyzer
from repro.robustness.guarded import _CLOSED_FORM_OK
from repro.runtime import ExecutionContext

FIELDS = (
    "t_rc",
    "t_lc",
    "zeta",
    "omega_n",
    "delay_50",
    "rise_time",
    "overshoot",
    "settling",
)


def bits(timing):
    """The node name and the exact bits of all eight metric fields."""
    return (timing.node,) + tuple(
        float.hex(float(getattr(timing, name))) for name in FIELDS
    )


def csv_text(rows):
    """What ``repro analyze --csv`` prints for ``rows``."""
    lines = ["node,zeta,omega_n,delay_50,rise_time,overshoot,settling,"
             "elmore_delay"]
    for t in rows:
        lines.append(
            f"{t.node},{t.zeta:.6g},{t.omega_n:.6g},{t.delay_50:.6g},"
            f"{t.rise_time:.6g},{t.overshoot:.6g},{t.settling:.6g},"
            f"{t.elmore_delay:.6g}"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", params=[
    "fig5", "random64", "random65", "random3000",
])
def tree(request):
    if request.param == "fig5":
        built = fig5_tree()
    else:
        size = int(request.param[len("random"):])
        built = random_tree(size, np.random.default_rng(size))
    # Netlist round trip, so the CLI reads exactly these element values.
    return loads(dumps(built))


def session_routes(tree, context):
    """``(route name, rows)`` for every runtime session route."""
    sources = [
        ("scalar", tree, "scalar"),
        ("compiled", tree, "compiled"),
        ("compiled-tree", compile_tree(tree), "compiled"),
        ("incremental", tree, "incremental"),
        ("auto-point", tree, None),
    ]
    for name, source, backend in sources:
        # Point reads first, on a fresh session, before any table exists.
        session = context.session(source, backend=backend, kind="point")
        yield f"{name}/timing", [session.timing(n) for n in tree.nodes]
        yield f"{name}/report", session.report()
        fresh = context.session(source, backend=backend, kind="point")
        yield f"{name}/value", [
            NodeTiming(n, *(fresh.value(field, n) for field in FIELDS))
            for n in tree.nodes
        ]


def test_every_route_gives_the_same_bits(tree, tmp_path, capsys):
    with ExecutionContext() as context:
        reference = context.session(tree).report()
        want = [bits(t) for t in reference]
        routes = list(session_routes(tree, context))

        analyzer = TreeAnalyzer(tree)
        routes.append(("analyzer/report", analyzer.report()))
        routes.append(
            ("analyzer/timing", [analyzer.timing(n) for n in tree.nodes])
        )

        guarded = GuardedAnalyzer(tree, context=context).report()
        assert all(row.reports[0].attempts == _CLOSED_FORM_OK
                   for row in guarded)
        routes.append(("guarded/report", guarded))

        for name, rows in routes:
            assert [bits(t) for t in rows] == want, name

    path = tmp_path / "net.sp"
    path.write_text(dumps(tree))
    expected = csv_text(reference)
    for mode in ([], ["--unguarded"], ["--backend", "scalar"]):
        assert main(["analyze", str(path), "--csv", *mode]) == 0
        assert capsys.readouterr().out == expected, mode


def out_of_domain(size):
    """``random_tree(size)`` seed 0 with R = 0 on the root's first child:
    ``T_RC = 0 < T_LC`` at that one node."""
    tree = random_tree(size, np.random.default_rng(0))
    bad = tree.children(tree.root)[0]
    return tree.map_sections(
        lambda name, s: Section(0.0, s.inductance, s.capacitance)
        if name == bad else s
    ), bad


def test_out_of_domain_row_escalates_alone():
    tree, bad = out_of_domain(100)
    guarded = GuardedAnalyzer(tree)
    rows = guarded.report()
    table = guarded._session.table()
    # The row stays in the table (its settling time is infinite) and
    # reading it raises the typed error the first tier records.
    assert math.isinf(table.column("settling")[table.index(bad)])
    with pytest.raises(ElementValueError, match=repr(bad)):
        table.value("delay_50", bad)
    for row in rows:
        if row.node == bad:
            assert row.degraded
            for report in row.reports:
                first = report.attempts[0]
                assert (first.tier, first.status) == ("closed-form", "failed")
                assert first.detail.startswith("ElementValueError")
                assert math.isfinite(report.value)
            continue
        assert not row.degraded, row.node
        assert all(r.attempts is _CLOSED_FORM_OK for r in row.reports)
        assert bits(row) == bits(table.timing(row.node)), row.node


def test_out_of_domain_cli_exits_within_a_deadline(tmp_path, capsys):
    tree, bad = out_of_domain(3000)
    path = tmp_path / "ood.sp"
    path.write_text(dumps(tree))
    started = time.perf_counter()
    code = main(["analyze", str(path), "--csv"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert elapsed < 10.0
    if code == 0:
        assert len(captured.out.splitlines()) == 1 + tree.size
    else:
        assert code == 2
        assert f"{bad!r}" in captured.err
        assert "over budget" in captured.err
