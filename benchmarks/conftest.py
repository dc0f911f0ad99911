"""Shared infrastructure for the reproduction benchmarks.

Every ``bench_figNN_*.py`` file regenerates the data behind one paper
figure (or text claim) and times the library code that produces it. Each
bench prints its rows/series to stdout *and* appends them to
``benchmarks/reports/<bench>.txt``, so the numbers recorded in
EXPERIMENTS.md can be regenerated with::

    pytest benchmarks/ --benchmark-only -s
"""

import io
import pathlib

import pytest

from repro.circuit import RLCTree, Section, balanced_tree
from repro.simulation import ExactSimulator, measure

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


class Report:
    """Collects formatted rows for one experiment and persists them."""

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self._buffer = io.StringIO()
        self.line("=" * 72)
        self.line(title)
        self.line("=" * 72)

    def line(self, text: str = "") -> None:
        self._buffer.write(text + "\n")

    def table(self, headers, rows, fmt="{:>14}"):
        self.line(" | ".join(fmt.format(h) for h in headers))
        self.line("-+-".join("-" * 14 for _ in headers))
        for row in rows:
            cells = []
            for value in row:
                if isinstance(value, float):
                    cells.append(fmt.format(f"{value:.4g}"))
                else:
                    cells.append(fmt.format(str(value)))
            self.line(" | ".join(cells))

    def finish(self) -> str:
        text = self._buffer.getvalue()
        REPORT_DIR.mkdir(exist_ok=True)
        (REPORT_DIR / f"{self.name}.txt").write_text(text)
        print("\n" + text)
        return text


@pytest.fixture
def report(request):
    """A Report named after the requesting bench test."""
    name = f"{request.module.__name__}.{request.function.__name__}"
    title = (request.module.__doc__ or name).strip().splitlines()[0]
    rep = Report(name, f"{title}  [{request.function.__name__}]")
    yield rep
    rep.finish()


def trunked_tree(
    branching: int,
    sink_count: int,
    section: Section,
) -> RLCTree:
    """A single trunk section feeding a balanced ``branching``-ary tree
    with exactly ``sink_count`` sinks — the Fig. 13 topology (the paper
    counts the trunk as a level: binary/16 sinks -> 5 levels -> a
    5-section equivalent ladder)."""
    levels = 0
    sinks = 1
    while sinks < sink_count:
        sinks *= branching
        levels += 1
    if sinks != sink_count:
        raise ValueError(f"{sink_count} sinks unreachable with branching {branching}")
    tree = RLCTree()
    tree.add_section("trunk", "in", section=section)
    below = balanced_tree(levels, branching, section, root="x")
    for name in below.nodes:
        parent = below.parent(name)
        tree.add_section(name, "trunk" if parent == "x" else parent,
                         section=section)
    return tree


def simulated_step_metrics(tree, node, points=12001, span=14.0):
    """(t, waveform, metrics) of the exact step response at ``node``."""
    sim = ExactSimulator(tree)
    t = sim.time_grid(points=points, span_factor=span)
    v = sim.step_response(node, t)
    return t, v, measure(t, v)


def relative_error(estimate: float, reference: float) -> float:
    return abs(estimate - reference) / abs(reference)


def percent(x: float) -> float:
    return 100.0 * x
