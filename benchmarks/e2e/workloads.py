"""The four workloads, each run by ``run.py`` in a fresh worker process.

Worker usage (``run.py`` builds this command line)::

    python benchmarks/e2e/workloads.py --workload NAME --inputs DIR \\
        --seed N --seconds S --trace 0|1 --spawned-at T [--setup-only]

The worker prints one JSON object as its last stdout line. Program inputs
come from ``prepare()``, which ``run.py`` calls before any worker starts;
client-side streams (edits, request bodies) are drawn here from the seed
before timing starts.

Every workload is serial with the default ``RuntimeConfig``. It runs
operations until ``--seconds`` of operation time has been measured;
correctness checks run between operations, off the clock. ``setup_s``
runs from process start (``--spawned-at``, a ``time.monotonic()`` stamp,
which is system-wide on Linux) to the end of the first operation, minus
the time spent drawing client inputs.

A traced run (``--trace 1``) alternates untraced and traced operations
so that ``trace.overhead`` compares like with like; its end-to-end
numbers are never reported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import os
import queue
import re
import resource
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

monotonic = time.monotonic
clock = time.perf_counter

#: Windows a measured run is split into; see ``Run.end_to_end``.
WINDOWS = 10

#: Tail percentile per workload. A 2 s window of serve_point holds about
#: 600 requests, so its p98 has twelve samples beyond it. The other
#: workloads report p90: on eco_edits (about 5,000 ops per window) the
#: slowest 2% are the periodic full-table flushes, whose cost swings by
#: a quarter from run to run on a shared machine, so p90 stays among the
#: edit-and-query ops; analyze_cli and mc_sweep windows hold 10 to 20
#: ops, leaving one or two samples beyond their p90.
TAIL_PERCENTILE = {
    "serve_point": 98,
    "analyze_cli": 90,
    "eco_edits": 90,
    "mc_sweep": 90,
}

ANALYZE_SECTIONS = 3_000
ECO_SECTIONS = 10_000
ECO_EDITS_PER_OP = 16
ECO_EDITS_EXPECTED = ECO_EDITS_PER_OP * 40_000
ECO_SINKS = 64
ECO_FLUSH_EVERY = 50
ECO_CHECK_EVERY = 500
ECO_STREAM_OPS = 4_096
ECO_REL_TOL = 1e-12
MC_SECTIONS = 200
MC_CHUNK = 4_096
MC_CHUNKS_PER_SWEEP = 32
MC_CHECK_CHUNK = 1_024
MC_METRICS = ("delay_50", "t_rc")
SERVE_METRICS = ("delay_50", "rise_time", "overshoot")
SERVE_CLIENTS = 2
SERVE_SAMPLE_EVERY = 25


def _null_span(name: str):
    return contextlib.nullcontext()


# -- inputs and helpers ------------------------------------------------------


def prepare(workload: str, seed: int, directory: Path) -> None:
    """Write the program inputs of one workload into ``directory``."""
    from repro.circuit import dumps, random_tree

    sections = {
        "analyze_cli": ANALYZE_SECTIONS,
        "eco_edits": ECO_SECTIONS,
        "mc_sweep": MC_SECTIONS,
    }.get(workload)
    if sections is not None:
        tree = random_tree(sections, np.random.default_rng([seed, 0]))
        (directory / "net.sp").write_text(dumps(tree))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _percentile_ms(latencies: List[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def _median_ms(call, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        started = clock()
        call()
        times.append(clock() - started)
    return float(np.median(times)) * 1e3


def _trace_metrics(summary, untraced: List[float], traced: List[float]):
    return {
        "trace.coverage": summary.coverage,
        "trace.overhead": _percentile_ms(traced, 50)
        / _percentile_ms(untraced, 50) - 1.0,
    }


class Run:
    """One worker invocation: its arguments and its setup measurement."""

    def __init__(self, args):
        self.workload = args.workload
        self.inputs = Path(args.inputs)
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.setup_only = args.setup_only
        self.spawned_at = args.spawned_at
        self.spans = args.spans
        self.gen_s = 0.0
        self.setup_s: Optional[float] = None
        self.tracer = None

    @property
    def netlist(self) -> str:
        return str(self.inputs / "net.sp")

    def first_op_done(self, origin: Optional[float] = None) -> None:
        """Record ``setup_s``; ``origin`` overrides the worker's own start
        (the served workload times the server process instead)."""
        if origin is None:
            origin = self.spawned_at + self.gen_s
        self.setup_s = monotonic() - origin

    def new_tracer(self):
        from tracing import Tracer

        self.tracer = Tracer()
        return self.tracer

    def end_to_end(self, latencies, ends, units_per_op, failed, checked,
                   peak_rss_mb=None) -> dict:
        """End-to-end metrics of the measured ops.

        ``ends[i]`` is when op ``i`` completed, in seconds of measured
        time (for a sequential workload, the running sum of latencies).
        The ops are split, in completion order, into ``WINDOWS`` windows
        of equal op count, and each timing is taken from its best window:
        other tenants of a shared machine slow a run in bursts of a few
        seconds, while a change to the program slows every window alike.
        """
        order = np.argsort(ends, kind="stable")
        latencies = np.asarray(latencies)[order]
        ends = np.asarray(ends)[order]
        edges = np.linspace(
            0, len(latencies), min(WINDOWS, len(latencies)) + 1
        ).round().astype(int)
        tail = TAIL_PERCENTILE[self.workload]
        p50_ms = tail_ms = float("inf")
        throughput = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            window = latencies[lo:hi]
            began = ends[lo - 1] if lo else 0.0
            p50_ms = min(p50_ms, _percentile_ms(window, 50))
            tail_ms = min(tail_ms, _percentile_ms(window, tail))
            throughput = max(
                throughput, units_per_op * (hi - lo) / (ends[hi - 1] - began)
            )
        if peak_rss_mb is None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            peak_rss_mb = usage.ru_maxrss / 1024.0
        return {
            "setup_s": self.setup_s,
            "attempted": len(latencies),
            "failed": int(failed),
            "checked": int(checked),
            "metrics": {
                "p50_ms": p50_ms,
                "tail_ms": tail_ms,
                "peak_rss_mb": peak_rss_mb,
                "throughput_per_s": throughput,
            },
        }

    def per_layer(self, attempted, failed, checked, metrics) -> dict:
        if self.spans:
            self.tracer.write(self.spans)
        return {
            "setup_s": self.setup_s,
            "attempted": int(attempted),
            "failed": int(failed),
            "checked": int(checked),
            "metrics": metrics,
        }


# -- analyze_cli -------------------------------------------------------------

CSV_HEADER = (
    "node,zeta,omega_n,delay_50,rise_time,overshoot,settling,elmore_delay"
)


def csv_text(rows) -> str:
    """The ``repro analyze --csv`` table of ``rows``; serves the traced op
    and the correctness reference."""
    lines = [CSV_HEADER]
    for t in rows:
        lines.append(
            f"{t.node},{t.zeta:.6g},{t.omega_n:.6g},{t.delay_50:.6g},"
            f"{t.rise_time:.6g},{t.overshoot:.6g},{t.settling:.6g},"
            f"{t.elmore_delay:.6g}"
        )
    return "\n".join(lines) + "\n"


def analyze_cli(run: Run) -> dict:
    from repro import cli

    argv = ["analyze", run.netlist, "--csv"]

    def op() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"repro analyze exited with {code}")
        return out.getvalue()

    first = op()
    run.first_op_done()
    if run.setup_only:
        return {"setup_s": run.setup_s}

    from repro.circuit.netlist import loads
    from repro.runtime import ExecutionContext

    with ExecutionContext() as ctx:
        reference = csv_text(
            ctx.session(loads(Path(run.netlist).read_text())).report()
        )
    failed = int(first != reference)
    if run.trace:
        return _analyze_traced(run, op, reference, failed)

    latencies: List[float] = []
    while sum(latencies) < run.seconds:
        started = clock()
        output = op()
        latencies.append(clock() - started)
        failed += output != reference
    return run.end_to_end(
        latencies, np.cumsum(latencies), ANALYZE_SECTIONS, failed,
        len(latencies) + 1,
    )


def _analyze_traced(run: Run, untraced_op, reference: str, failed: int):
    from tracing import TracedContext, summarize, traced_registry

    from repro.circuit.netlist import loads
    from repro.engine import (
        cache_info,
        compile_tree,
        evaluate,
        metrics_from_sums,
    )
    from repro.robustness import GuardedAnalyzer, validate_tree

    tracer = run.new_tracer()
    registry = traced_registry(tracer)
    span = tracer.span
    path = run.netlist

    def traced_op() -> str:
        # The steps of `repro analyze --csv`, one span per layer call.
        with span("op"):
            with span("cli.read"):
                with open(path) as handle:
                    text = handle.read()
            with span("circuit.loads"):
                tree = loads(text)
            with span("runtime.context"):
                ctx = TracedContext(tracer, registry)
            with span("robustness.open"):
                analyzer = GuardedAnalyzer(tree, context=ctx)
            with span("robustness.timing"):
                rows = [analyzer.timing(node) for node in analyzer.tree.nodes]
            with span("cli.format"):
                for diagnostic in analyzer.validation.warnings():
                    print(f"warning: {diagnostic}", file=sys.stderr)
                output = csv_text(rows)
            with span("runtime.close"):
                ctx.close()
        return output

    untraced: List[float] = []
    traced: List[float] = []
    before = cache_info()["topology"]
    while sum(untraced) + sum(traced) < run.seconds:
        started = clock()
        failed += untraced_op() != reference
        untraced.append(clock() - started)
        tracer.enabled = True
        tracer.begin_op()
        started = clock()
        failed += traced_op() != reference
        traced.append(clock() - started)
        tracer.enabled = False
    after = cache_info()["topology"]

    summary = summarize(tracer.spans)
    layers = {
        name: summary.total_ns.get(name, 0) / summary.ops / 1e6
        for name in ("circuit.loads", "runtime.session", "robustness.timing")
    }
    layers["robustness.open"] = (
        summary.self_ns.get("robustness.open", 0) / summary.ops / 1e6
    )
    tree = loads(Path(path).read_text())
    compiled = compile_tree(tree)
    t_rc, t_lc = compiled.second_order_sums()
    table = evaluate(compiled)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics = {
        "circuit.loads_ms": layers["circuit.loads"],
        "robustness.validate_ms": _median_ms(lambda: validate_tree(tree)),
        "robustness.open_ms": layers["robustness.open"],
        "runtime.session_ms": layers["runtime.session"],
        "engine.compile_ms": _median_ms(lambda: compile_tree(tree)),
        "engine.sums_ms": _median_ms(compiled.second_order_sums),
        "engine.kernels_ms": _median_ms(
            lambda: metrics_from_sums(t_rc, t_lc, 0.1)
        ),
        "robustness.timing_ms": layers["robustness.timing"],
        "engine.table_timings_ms": _median_ms(table.timings),
        "cli.other_ms": float(np.mean(untraced)) * 1e3
        - sum(layers.values()),
        "engine.topology_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
    }
    metrics.update(_trace_metrics(summary, untraced, traced))
    attempted = len(untraced) + len(traced)
    return run.per_layer(attempted, failed, attempted + 1, metrics)


# -- eco_edits ---------------------------------------------------------------


class EditStream:
    """Seeded single-section R/L/C edits, drawn before timing starts.

    ``ECO_STREAM_OPS`` operations are drawn once and replayed in cycles.
    Cycle ``k`` scales every value by ``1 + 1e-4 * k``, so a replayed
    edit never writes the value its section already holds (the engine
    skips such edits).
    """

    def __init__(self, seed: int, tree):
        rng = _rng(seed, 1)
        names = list(tree.nodes)
        count = ECO_STREAM_OPS * ECO_EDITS_PER_OP
        picks = rng.integers(len(names), size=count)
        elements = rng.integers(3, size=count)
        nominal = np.array(
            [
                (s.resistance, s.inductance, s.capacitance)
                for s in map(tree.section, names)
            ]
        )
        self._base = nominal[picks, elements] * rng.uniform(
            0.9, 1.1, size=count
        )
        self.nodes = [names[i] for i in picks.tolist()]
        self.elements = elements.tolist()
        leaves = list(tree.leaves())
        chosen = rng.choice(
            len(leaves), size=min(ECO_SINKS, len(leaves)), replace=False
        )
        self.sinks = [leaves[i] for i in sorted(chosen.tolist())]
        self.values: List[float] = []
        self._cycle = -1

    def offset(self, op: int) -> int:
        """Where op ``op``'s edits start in ``nodes``/``elements``/``values``."""
        cycle, slot = divmod(op, ECO_STREAM_OPS)
        if cycle != self._cycle:
            self._cycle = cycle
            self.values = (self._base * (1.0 + 1e-4 * cycle)).tolist()
        return slot * ECO_EDITS_PER_OP


def eco_edits(run: Run) -> dict:
    from repro.circuit.netlist import loads
    from repro.runtime import ExecutionContext

    with open(run.netlist) as handle:
        tree = loads(handle.read())
    started = monotonic()
    stream = EditStream(run.seed, tree)
    run.gen_s = monotonic() - started
    ctx = ExecutionContext()
    editor = ctx.session(tree, edits_expected=ECO_EDITS_EXPECTED).editor()
    setters = (
        editor.set_resistance,
        editor.set_inductance,
        editor.set_capacitance,
    )
    nodes, elements, sinks = stream.nodes, stream.elements, stream.sinks

    def op(index: int):
        base = stream.offset(index)
        values = stream.values
        for k in range(base, base + ECO_EDITS_PER_OP):
            setters[elements[k]](nodes[k], values[k])
        result = editor.metric_at("delay_50", sinks)
        if index % ECO_FLUSH_EVERY == 0:
            editor.timing_table()
        return result

    op(0)
    run.first_op_done()
    if run.setup_only:
        return {"setup_s": run.setup_s}

    from repro.engine import cache_info, compile_tree, evaluate

    def correct(result) -> bool:
        reference = evaluate(compile_tree(editor.tree()))
        expected = np.array(
            [reference.value("delay_50", sink) for sink in sinks]
        )
        return bool(
            np.all(np.abs(result - expected) <= ECO_REL_TOL * np.abs(expected))
        )

    tracer = run.new_tracer() if run.trace else None
    span = tracer.span if tracer else _null_span

    def traced_op(index: int):
        with span("op"):
            base = stream.offset(index)
            values = stream.values
            for k in range(base, base + ECO_EDITS_PER_OP):
                with span("engine.incremental.edit"):
                    setters[elements[k]](nodes[k], values[k])
            with span("engine.incremental.query"):
                result = editor.metric_at("delay_50", sinks)
            if index % ECO_FLUSH_EVERY == 0:
                with span("engine.incremental.flush"):
                    editor.timing_table()
        return result

    untraced: List[float] = []
    traced: List[float] = []
    measured = 0.0
    failed = checked = 0
    before = cache_info()["incremental"]
    index = 1
    while measured < run.seconds:
        # Traced runs alternate blocks of ECO_FLUSH_EVERY ops, so each
        # side sees its share of flushes.
        if tracer is not None and (index // ECO_FLUSH_EVERY) % 2:
            tracer.enabled = True
            tracer.begin_op()
            started = clock()
            result = traced_op(index)
            elapsed = clock() - started
            tracer.enabled = False
            traced.append(elapsed)
        else:
            started = clock()
            result = op(index)
            elapsed = clock() - started
            untraced.append(elapsed)
        measured += elapsed
        if index % ECO_CHECK_EVERY == 0:
            checked += 1
            failed += not correct(result)
        index += 1
    after = cache_info()["incremental"]

    if tracer is None:
        return run.end_to_end(
            untraced, np.cumsum(untraced), ECO_EDITS_PER_OP, failed, checked
        )

    from tracing import summarize

    summary = summarize(tracer.spans)
    ops = index - 1
    metrics = {
        "runtime.session_ms": _median_ms(
            lambda: ctx.session(tree, edits_expected=ECO_EDITS_EXPECTED)
        ),
        "engine.incremental.edit_us": summary.per_call_ms(
            "engine.incremental.edit"
        ) * 1e3,
        "engine.incremental.query_ms": summary.per_call_ms(
            "engine.incremental.query"
        ),
        "engine.incremental.flush_ms": summary.per_call_ms(
            "engine.incremental.flush"
        ),
    }
    for key in ("targeted_flushes", "bulk_flushes", "auto_flushes",
                "full_recomputes"):
        metrics[f"engine.incremental.{key}"] = (
            (after[key] - before[key]) * 1000.0 / ops
        )
    metrics.update(_trace_metrics(summary, untraced, traced))
    return run.per_layer(ops, failed, checked, metrics)


# -- mc_sweep ----------------------------------------------------------------


def _digest(arrays) -> bytes:
    digest = hashlib.blake2b()
    for values in arrays:
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.digest()


class MonteCarlo:
    """Back-to-back Monte-Carlo sweeps over one tree through one context,
    one chunk per op.

    Each sweep is the construction ``sample_delays`` uses: a
    ``lognormal_factors`` axis scaling the nominal R/L/C vectors, swept
    with ``iter_sweep`` in chunks of ``MC_CHUNK`` scenarios. Sweep ``k``
    draws from seed ``1000 * seed + k``. The digest of chunk 0 of every
    sweep is kept for ``mismatches()``.
    """

    def __init__(self, compiled, sink: str, seed: int, ctx,
                 span=_null_span):
        from repro.apps import VariationModel

        self.compiled = compiled
        self.sink = sink
        self.seed = seed
        self.ctx = ctx
        self.span = span
        self.sigmas = np.asarray(VariationModel().log_sigmas())
        self.digests = {}
        self.sweep = -1
        self.chunk = MC_CHUNKS_PER_SWEEP
        self._stream = None

    def chunks(self, ctx, sweep: int, chunk_size: int = MC_CHUNK):
        from repro.sweep import (
            compile_sweep,
            const,
            iter_sweep,
            lognormal_factors,
            scenario_space,
        )

        compiled = self.compiled
        axis = lognormal_factors(
            "variation",
            sigmas=self.sigmas,
            sections=compiled.size,
            samples=MC_CHUNK * MC_CHUNKS_PER_SWEEP,
            seed=self.seed * 1_000 + sweep,
        )
        plan = compile_sweep(
            scenario_space(axis),
            resistance=axis.resistance * const(compiled.resistance),
            inductance=axis.inductance * const(compiled.inductance),
            capacitance=axis.capacitance * const(compiled.capacitance),
        )
        return iter_sweep(
            plan,
            compiled,
            chunk_size=chunk_size,
            metrics=MC_METRICS,
            context=ctx,
        )

    def op(self):
        if self.chunk == MC_CHUNKS_PER_SWEEP:
            self.close()
            self.sweep += 1
            self.chunk = 0
            with self.span("sweep.compile"):
                self._stream = self.chunks(self.ctx, self.sweep)
        _, batch = next(self._stream)
        self.chunk += 1
        batch.column("delay_50", self.sink)
        batch.column("t_rc", self.sink)
        return batch

    def record(self, batch) -> None:
        """Keep the digest of ``batch`` if it is chunk 0 of its sweep."""
        if self.chunk == 1:
            self.digests[self.sweep] = _digest(
                getattr(batch, metric) for metric in MC_METRICS
            )

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
        self._stream = None

    def mismatches(self, ctx) -> int:
        """Sweeps whose chunk 0 differs from the same seed swept in
        ``MC_CHECK_CHUNK``-sized chunks by a single bit."""
        wrong = 0
        for sweep, digest in self.digests.items():
            stream = self.chunks(ctx, sweep, MC_CHECK_CHUNK)
            parts = [
                next(stream)[1] for _ in range(MC_CHUNK // MC_CHECK_CHUNK)
            ]
            stream.close()
            wrong += digest != _digest(
                np.concatenate([getattr(part, metric) for part in parts])
                for metric in MC_METRICS
            )
        return wrong


def _computed_bytes(batch, sections: int) -> int:
    """Bytes a chunk's kernels read (R, L, C per section and scenario)
    and write (the requested metric rows)."""
    written = sum(
        values.nbytes
        for values in vars(batch.metrics).values()
        if values is not None
    )
    return batch.scenarios * 3 * sections * 8 + written


def mc_sweep(run: Run) -> dict:
    from repro.circuit.netlist import loads
    from repro.engine import compile_tree
    from repro.runtime import ExecutionContext

    with open(run.netlist) as handle:
        tree = loads(handle.read())
    compiled = compile_tree(tree)
    leaves = list(tree.leaves())
    sink = leaves[int(_rng(run.seed, 2).integers(len(leaves)))]
    plain = MonteCarlo(compiled, sink, run.seed, ExecutionContext())
    plain.record(plain.op())
    run.first_op_done()
    if run.setup_only:
        return {"setup_s": run.setup_s}

    streams = [plain]
    tracer = run.new_tracer() if run.trace else None
    if tracer is not None:
        # Traced runs alternate ops between the plain stream and a second
        # stream of the same sweeps through a traced context.
        from tracing import TracedContext, traced_registry

        traced_ctx = TracedContext(tracer, traced_registry(tracer))
        streams.append(
            MonteCarlo(compiled, sink, run.seed, traced_ctx, tracer.span)
        )
    untraced: List[float] = []
    traced: List[float] = []
    computed_bytes = 0
    measured = 0.0
    while measured < run.seconds:
        if len(streams) > 1 and len(untraced) > len(traced):
            tracer.enabled = True
            tracer.begin_op()
            started = clock()
            with tracer.span("op"):
                batch = streams[1].op()
            elapsed = clock() - started
            tracer.enabled = False
            traced.append(elapsed)
            streams[1].record(batch)
            computed_bytes += _computed_bytes(batch, compiled.size)
        else:
            started = clock()
            batch = plain.op()
            elapsed = clock() - started
            untraced.append(elapsed)
            plain.record(batch)
        measured += elapsed
    for stream in streams:
        stream.close()

    with ExecutionContext() as ctx:
        failed = sum(stream.mismatches(ctx) for stream in streams)
    checked = sum(len(stream.digests) for stream in streams)
    if tracer is None:
        return run.end_to_end(
            untraced, np.cumsum(untraced), MC_CHUNK, failed, checked
        )

    from tracing import summarize

    summary = summarize(tracer.spans)
    sweep_stats = traced_ctx.stats()["sweep"]
    chunks = summary.ops
    fill_ms = summary.per_call_ms("sweep.fill")
    engine_ms = summary.per_call_ms("engine.batch")
    compile_ns = summary.total_ns.get("sweep.compile", 0)
    metrics = {
        "sweep.compile_ms": summary.per_call_ms("sweep.compile"),
        "sweep.fill_ms": fill_ms,
        "engine.chunk_ms": engine_ms,
        "runtime.chunk_overhead_ms": (sum(summary.roots_ns) - compile_ns)
        / chunks / 1e6 - fill_ms - engine_ms,
        "engine.chunk_computed_mb": computed_bytes / chunks / 1e6,
        "sweep.cse_hit_rate": sweep_stats["cse_hits"]
        / sweep_stats["total_refs"],
        "runtime.dispatch_compiled": sweep_stats["backends"].get(
            "compiled", 0
        ) / sweep_stats["chunks"],
    }
    metrics.update(_trace_metrics(summary, untraced, traced))
    attempted = len(untraced) + len(traced)
    return run.per_layer(attempted, failed, checked, metrics)


# -- serve_point -------------------------------------------------------------


def serve_bodies(seed: int, count: int) -> List[bytes]:
    """``/analyze`` bodies: the Fig. 5 net with seeded +-10% R/L/C."""
    from repro.circuit import Section, dumps, fig5_tree

    base = fig5_tree()
    names = list(base.nodes)
    factors = _rng(seed, 3).uniform(0.9, 1.1, size=(count, len(names), 3))
    bodies = []
    for row in factors.tolist():
        scale = dict(zip(names, row))

        def jitter(name, section, scale=scale):
            r, l, c = scale[name]
            return Section(
                section.resistance * r,
                section.inductance * l,
                section.capacitance * c,
            )

        payload = {
            "netlist": dumps(base.map_sections(jitter)),
            "metrics": list(SERVE_METRICS),
        }
        bodies.append(json.dumps(payload).encode())
    return bodies


class Server:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self):
        self.started_at = monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.peak_rss_mb: Optional[float] = None

    def _drain(self) -> None:
        for line in self.process.stderr:
            self._lines.put(line)
        self._lines.put("")

    def port(self, timeout: float = 60.0) -> int:
        deadline = monotonic() + timeout
        while True:
            line = self._lines.get(timeout=max(0.0, deadline - monotonic()))
            if not line:
                raise RuntimeError("server exited before announcing its port")
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), reap, and read the server's peak RSS
        from its rusage; SIGKILL if it does not exit in time."""
        if self.process.returncode is None:
            self.process.terminate()
            deadline = monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
                if pid:
                    break
                if monotonic() > deadline:
                    self.process.kill()
                    pid, status, usage = os.wait4(self.process.pid, 0)
                    break
                time.sleep(0.02)
            self.process.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._reader.join(timeout=5)
        self.process.stderr.close()


def _post(conn: http.client.HTTPConnection, body: bytes):
    conn.request(
        "POST", "/analyze", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, response.read()


class LoadGenerator:
    """Two closed-loop keep-alive clients, one thread and one connection
    each. Client ``c`` sends bodies ``c, c + 2, c + 4, ...``."""

    def __init__(self, port: int, bodies: List[bytes]):
        self.bodies = bodies
        self.conns = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            for _ in range(SERVE_CLIENTS)
        ]
        self.cursor = list(range(SERVE_CLIENTS))

    def phase(self, seconds: float):
        """Both clients for ``seconds``: per-request ``(latency, status,
        completed)`` rows, ``completed`` in seconds since the phase
        began, and sampled ``(body index, response)`` pairs."""
        rows: List[list] = [[] for _ in self.conns]
        samples: List[list] = [[] for _ in self.conns]
        began = clock()
        deadline = monotonic() + seconds

        def client(c: int) -> None:
            conn, bodies = self.conns[c], self.bodies
            while monotonic() < deadline:
                index = self.cursor[c] % len(bodies)
                self.cursor[c] += SERVE_CLIENTS
                sent = clock()
                status, data = _post(conn, bodies[index])
                done = clock()
                rows[c].append((done - sent, status, done - began))
                if len(rows[c]) % SERVE_SAMPLE_EVERY == 1:
                    samples[c].append((index, data))

        threads = [
            threading.Thread(target=client, args=(c,))
            for c in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return (
            [row for per in rows for row in per],
            [sample for per in samples for sample in per],
        )

    def stats(self) -> dict:
        """``GET /stats`` on client 0's connection, between phases."""
        conn = self.conns[0]
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def _served_matches(body: bytes, data: bytes, ctx) -> bool:
    """The served metrics are bitwise a direct ``ExecutionContext.batch``
    of the same body."""
    from repro.engine import compile_tree
    from repro.service.coalesce import extract_point
    from repro.service.protocol import decode_json, parse_analyze

    request = parse_analyze(decode_json(body))
    compiled = compile_tree(request.tree)
    rlc = np.stack(
        (compiled.resistance, compiled.inductance, compiled.capacitance)
    )[None]
    batch = ctx.batch(compiled, rlc, settle_band=request.settle_band)
    expected = extract_point(batch, 0, request.nodes, request.metrics)
    served = json.loads(data)["nodes"]
    return served.keys() == expected.keys() and all(
        _same_bits(served[node][metric], value)
        for node, row in expected.items()
        for metric, value in row.items()
    )


def serve_point(run: Run) -> dict:
    count = 1 if run.setup_only else max(2_048, int(400 * (run.seconds + 1)))
    bodies = serve_bodies(run.seed, count)
    server = Server()
    load = None
    try:
        load = LoadGenerator(server.port(), bodies)
        status, _ = _post(load.conns[0], bodies[0])
        if status != 200:
            raise RuntimeError(f"first request answered {status}")
        run.first_op_done(origin=server.started_at)
        if run.setup_only:
            return {"setup_s": run.setup_s}
        load.phase(min(1.0, run.seconds / 10))  # warm-up, discarded
        before = load.stats()
        rows, samples = load.phase(
            run.seconds / 2 if run.trace else run.seconds
        )
        after = load.stats()
    finally:
        if load is not None:
            load.close()
        server.stop()

    from repro.runtime import ExecutionContext

    with ExecutionContext() as ctx:
        wrong = sum(
            not _served_matches(bodies[index], data, ctx)
            for index, data in samples
        )
    latencies, statuses, ends = zip(*rows)
    failed = sum(status != 200 for status in statuses) + wrong
    if not run.trace:
        return run.end_to_end(
            latencies, ends, 1, failed, len(samples), server.peak_rss_mb
        )
    metrics = _serve_layers(
        run, bodies, before, after, _percentile_ms(latencies, 50)
    )
    return run.per_layer(len(rows), failed, len(samples), metrics)


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _serve_layers(run: Run, bodies, before, after, load_p50_ms) -> dict:
    """Per-layer costs of a served request, from ``/stats`` deltas and a
    replay of the same bodies through the service's public functions:
    one coalesced group of the observed mean size per op, alternating
    traced and untraced ops."""
    from tracing import TracedContext, summarize, traced_registry

    from repro.circuit.netlist import loads
    from repro.engine import compile_tree
    from repro.service.coalesce import extract_point
    from repro.service.protocol import decode_json, encode_json, parse_analyze

    requests = _delta(after, before, "service", "coalescing", "requests")
    groups = _delta(after, before, "service", "coalescing", "groups")
    coalesced = _delta(
        after, before, "service", "coalescing", "coalesced_requests"
    )
    hits = _delta(after, before, "caches", "topology", "hits")
    misses = _delta(after, before, "caches", "topology", "misses")
    group_size = requests / groups if groups else 1.0
    size = max(1, round(group_size))

    tracer = run.new_tracer()
    span = tracer.span
    ctx = TracedContext(tracer, traced_registry(tracer))

    def group_op(first: int) -> None:
        members = []
        for k in range(first, first + size):
            with span("service.parse"):
                request = parse_analyze(decode_json(bodies[k % len(bodies)]))
            with span("engine.compile"):
                members.append((request, compile_tree(request.tree)))
        rlc = np.stack(
            [
                np.stack((c.resistance, c.inductance, c.capacitance))
                for _, c in members
            ]
        )
        batch = ctx.batch(
            members[0][1], rlc, settle_band=members[0][0].settle_band
        )
        for scenario, (request, _) in enumerate(members):
            with span("service.extract"):
                nodes = extract_point(
                    batch, scenario, request.nodes, request.metrics
                )
            with span("service.encode"):
                encode_json(
                    {
                        "nodes": nodes,
                        "service": {"group_size": size, "affinity_hit": False},
                    }
                )

    untraced: List[float] = []
    traced: List[float] = []
    measured = 0.0
    first = 0
    while measured < run.seconds / 2:
        if len(untraced) > len(traced):
            tracer.enabled = True
            tracer.begin_op()
            started = clock()
            with span("op"):
                group_op(first)
            elapsed = clock() - started
            tracer.enabled = False
            traced.append(elapsed)
        else:
            started = clock()
            group_op(first)
            elapsed = clock() - started
            untraced.append(elapsed)
        measured += elapsed
        first += size
    ctx.close()

    summary = summarize(tracer.spans)
    layers = {
        "service.parse_ms": summary.per_call_ms("service.parse"),
        "engine.compile_ms": summary.per_call_ms("engine.compile"),
        "runtime.batch_ms": summary.per_call_ms("runtime.batch"),
        "service.extract_ms": summary.per_call_ms("service.extract"),
        "service.encode_ms": summary.per_call_ms("service.encode"),
    }
    netlists = [decode_json(body)["netlist"] for body in bodies[:200]]
    metrics = dict(layers)
    metrics.update(
        {
            "circuit.loads_ms": _median_ms(
                lambda: [loads(text) for text in netlists]
            ) / len(netlists),
            "engine.batch_ms": summary.per_call_ms("engine.batch"),
            "runtime.overhead_ms": summary.per_call_ms(
                "runtime.batch", self_time=True
            ),
            "service.wait_ms": load_p50_ms - sum(layers.values()),
            "service.coalesce_hit_rate": coalesced / requests
            if requests else 0.0,
            "service.group_size_mean": group_size,
            "service.rejected": _delta(
                after, before, "service", "rejected_429"
            ) + _delta(after, before, "service", "rejected_503"),
            "engine.topology_hit_rate": hits / (hits + misses)
            if hits + misses else 0.0,
        }
    )
    metrics.update(_trace_metrics(summary, untraced, traced))
    return metrics


WORKLOADS = {
    "serve_point": serve_point,
    "analyze_cli": analyze_cli,
    "eco_edits": eco_edits,
    "mc_sweep": mc_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    run = Run(parser.parse_args(argv))
    print(json.dumps(WORKLOADS[run.workload](run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
