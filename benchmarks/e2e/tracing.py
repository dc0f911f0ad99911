"""Span recording for the traced run, installed from outside the program.

The benchmark opens spans around its own calls into each layer's public
functions. Layers it cannot call directly are reached through two public
seams only: a :class:`~repro.runtime.BackendRegistry` whose compiled
adapter times ``batch``, and an :class:`~repro.runtime.ExecutionContext`
subclass, passed as ``context=``, that times ``session``, ``batch`` and
the ``fill`` callback of ``sweep_chunks``. No program file changes.

Spans live in memory as ``[op, name, parent, start_ns, end_ns]`` rows and
are written out once the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

from repro.runtime import (
    BackendRegistry,
    CompiledBackend,
    ExecutionContext,
    IncrementalBackend,
    ScalarBackend,
    ShardedBackend,
)

_now = time.perf_counter_ns


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_row")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        self._row = [
            tracer.op,
            self._name,
            stack[-1] if stack else -1,
            _now(),
            0,
        ]
        stack.append(len(tracer.spans))
        tracer.spans.append(self._row)
        return self

    def __exit__(self, *exc):
        self._row[4] = _now()
        self._tracer._stack.pop()
        return False


class Tracer:
    """One span per layer call; disabled spans cost one attribute test.

    ``begin_op()`` starts a new operation id; every span opened until
    the next ``begin_op()`` carries it.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.enabled = False
        self.op = -1
        self._stack: List[int] = []

    def begin_op(self) -> None:
        self.op += 1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for op, name, parent, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "op": op,
                            "name": name,
                            "parent": parent,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


@dataclass
class Summary:
    """Per-name totals (ns) and call counts, plus the root-span durations."""

    total_ns: Dict[str, int]
    self_ns: Dict[str, int]
    calls: Dict[str, int]
    roots_ns: List[int]
    root_self_ns: int

    def per_call_ms(self, name: str, self_time: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        table = self.self_ns if self_time else self.total_ns
        return table[name] / calls / 1e6

    @property
    def ops(self) -> int:
        return len(self.roots_ns)

    @property
    def coverage(self) -> float:
        """Self time attributed to a layer span over traced op time."""
        total = sum(self.roots_ns)
        return (total - self.root_self_ns) / total if total else 0.0


def summarize(spans: List[list]) -> Summary:
    child_ns = [0] * len(spans)
    for op, name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total_ns: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    roots: List[int] = []
    root_self = 0
    for index, (op, name, parent, start, end) in enumerate(spans):
        duration = end - start
        total_ns[name] += duration
        self_ns[name] += duration - child_ns[index]
        calls[name] += 1
        if parent < 0:
            roots.append(duration)
            root_self += duration - child_ns[index]
    return Summary(dict(total_ns), dict(self_ns), dict(calls), roots, root_self)


class _TracedCompiledBackend(CompiledBackend):
    """The stock compiled adapter with its ``batch`` call timed."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def batch(self, compiled, rlc, settle_band, metrics, config):
        with self._tracer.span("engine.batch"):
            return super().batch(compiled, rlc, settle_band, metrics, config)


def traced_registry(tracer: Tracer) -> BackendRegistry:
    registry = BackendRegistry()
    for backend in (
        ScalarBackend(),
        _TracedCompiledBackend(tracer),
        IncrementalBackend(),
        ShardedBackend(),
    ):
        registry.register(backend)
    return registry


class TracedContext(ExecutionContext):
    """A default-config context whose layer entry points open spans."""

    def __init__(self, tracer: Tracer, registry: BackendRegistry):
        super().__init__(registry=registry)
        self._tracer = tracer

    def session(self, *args, **kwargs):
        with self._tracer.span("runtime.session"):
            return super().session(*args, **kwargs)

    def batch(self, *args, **kwargs):
        with self._tracer.span("runtime.batch"):
            return super().batch(*args, **kwargs)

    def sweep_chunks(self, compiled, fill, scenarios, **kwargs):
        span = self._tracer.span

        def timed_fill(view, lo, hi):
            with span("sweep.fill"):
                fill(view, lo, hi)

        return super().sweep_chunks(compiled, timed_fill, scenarios, **kwargs)
