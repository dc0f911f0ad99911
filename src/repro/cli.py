"""Command-line interface: netlist in, timing out.

Gives the library the shape of a classic timing utility::

    python -m repro analyze net.sp                    # per-node timing table
    python -m repro analyze net.sp --node out --csv
    python -m repro simulate net.sp --node out        # waveform CSV
    python -m repro compare net.sp                    # model vs exact
    python -m repro sensitivity net.sp --node out     # delay gradient
    python -m repro fit --metric rise                 # re-run the Fig. 6 fit
    python -m repro window --width 4u --thickness 1u --height 2u \\
        --length 5m --rise-time 50p                   # does L matter?

All commands read SPICE-subset netlists (see ``repro.circuit.netlist``)
and print to stdout; ``main()`` returns a process exit code, so the test
suite can drive it without subprocesses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import SecondOrderModel, delay_sensitivities, fit_delay, fit_rise
from .circuit import WireGeometry, inductance_window
from .circuit.netlist import loads
from .errors import ReproError
from .runtime import BACKEND_NAMES, ExecutionContext, RuntimeConfig
from .simulation import (
    ExactSimulator,
    ExponentialSource,
    RampSource,
    StepSource,
)
from .units import format_value, parse_value

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Equivalent Elmore delay analysis for RLC trees "
        "(Ismail/Friedman/Neves, DAC 1999).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--debug", action="store_true",
        help="print full tracebacks instead of one-line error messages, "
        "and dump the engine cache/counter statistics to stderr after "
        "the command",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per shard of a supervised multi-process "
        "dispatch; 0 or negative disables the deadline "
        "(default: the runtime's 30s)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="re-dispatch attempts for a shard whose worker died or "
        "timed out before degrading to serial in-process evaluation "
        "(default: 2)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="closed-form timing at every node of a netlist"
    )
    analyze.add_argument("netlist", help="netlist file, or - for stdin")
    analyze.add_argument(
        "--node", action="append", default=None,
        help="restrict to these nodes (repeatable; default: all)",
    )
    analyze.add_argument(
        "--settle-band", type=float, default=0.1,
        help="settling band as a fraction of final value (default 0.1)",
    )
    analyze.add_argument("--csv", action="store_true", help="CSV output")
    analyze.add_argument(
        "--unguarded", action="store_true",
        help="bypass the guarded fallback chain and use the raw closed "
        "forms (faster, but hostile netlists may fail)",
    )
    analyze.add_argument(
        "--repair", action="store_true",
        help="let the guarded analyzer auto-repair invalid element values "
        "(clamp NaN/inf, epsilon capacitance, merge shorts)",
    )
    analyze.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="force the execution backend instead of letting the runtime "
        "planner route by workload (default: auto)",
    )

    simulate = commands.add_parser(
        "simulate", help="exact waveform at a node (CSV to stdout)"
    )
    simulate.add_argument("netlist")
    simulate.add_argument("--node", required=True)
    simulate.add_argument(
        "--input", choices=("step", "exp", "ramp"), default="step"
    )
    simulate.add_argument(
        "--rise-time", default="100p",
        help="input 0-90%% rise time for exp/ramp inputs (default 100p)",
    )
    simulate.add_argument("--amplitude", type=float, default=1.0)
    simulate.add_argument("--points", type=int, default=1001)
    simulate.add_argument(
        "--t-end", default=None,
        help="simulation horizon (default: auto from settling)",
    )
    simulate.add_argument(
        "--model", action="store_true",
        help="also emit the closed-form second-order waveform column",
    )

    sensitivity = commands.add_parser(
        "sensitivity", help="analytic delay gradient at a node"
    )
    sensitivity.add_argument("netlist")
    sensitivity.add_argument("--node", required=True)
    sensitivity.add_argument(
        "--metric", choices=("delay", "rise"), default="delay"
    )
    sensitivity.add_argument(
        "--top", type=int, default=None,
        help="print only the K most impactful sections",
    )

    compare = commands.add_parser(
        "compare",
        help="closed-form vs exact simulated timing at every node",
    )
    compare.add_argument("netlist")
    compare.add_argument(
        "--node", action="append", default=None,
        help="restrict to these nodes (repeatable; default: all)",
    )
    compare.add_argument("--points", type=int, default=8001)
    compare.add_argument("--csv", action="store_true")

    fit = commands.add_parser(
        "fit", help="re-run the paper's Fig. 6 curve fit from scratch"
    )
    fit.add_argument("--metric", choices=("delay", "rise"), default="delay")

    sweep = commands.add_parser(
        "sweep",
        help="sweep one element of one section through the chunked "
        "lazy executor (CSV to stdout, streamed per chunk)",
    )
    sweep.add_argument("netlist", help="netlist file, or - for stdin")
    sweep.add_argument(
        "--section", required=True, metavar="NAME",
        help="section whose element is swept",
    )
    sweep.add_argument(
        "--element",
        choices=("resistance", "inductance", "capacitance"),
        default="resistance",
    )
    sweep.add_argument(
        "--start", required=True,
        help="first swept value (units accepted, e.g. 10 or 50m)",
    )
    sweep.add_argument(
        "--stop", required=True, help="last swept value",
    )
    sweep.add_argument(
        "--points", type=int, default=101,
        help="number of swept values (default 101)",
    )
    sweep.add_argument(
        "--log", action="store_true",
        help="logarithmic spacing instead of linear",
    )
    sweep.add_argument(
        "--node", action="append", default=None,
        help="observation nodes (repeatable; default: all leaves)",
    )
    sweep.add_argument(
        "--metric", action="append", default=None,
        help="batch metrics to emit (repeatable; default: delay_50)",
    )
    sweep.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="scenarios staged per batch pass; bounds peak memory "
        "(default: the executor's default chunk)",
    )
    sweep.add_argument(
        "--settle-band", type=float, default=0.1,
        help="settling band as a fraction of final value (default 0.1)",
    )
    sweep.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="force the execution backend for every chunk "
        "(default: planner-routed per chunk)",
    )

    serve = commands.add_parser(
        "serve",
        help="long-lived analysis service: one warm runtime context "
        "behind an HTTP front with coalescing and admission control",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8341,
        help="TCP port; 0 picks a free one (default 8341)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admitted analysis requests allowed at once; the next one "
        "gets 429 + Retry-After (default 8)",
    )
    serve.add_argument(
        "--coalesce-window", type=float, default=0.005, metavar="SECONDS",
        help="how long a point query waits to merge with concurrent "
        "same-topology queries (default 0.005)",
    )
    serve.add_argument(
        "--max-group", type=int, default=64, metavar="N",
        help="largest coalesced group; a full group flushes immediately "
        "(default 64)",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint on 429 responses (default 1)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker budget of the context's sharded backend "
        "(default: runtime default)",
    )
    serve.add_argument(
        "--calibration", default=None, metavar="PATH",
        help="install a persisted crossover calibration "
        "(BENCH_crossover.json) into the serving context",
    )
    serve.add_argument(
        "--max-requests", type=int, default=0, metavar="N",
        help="drain and exit after N admitted requests; 0 = run until "
        "SIGINT/SIGTERM (smoke-test knob, default 0)",
    )

    window = commands.add_parser(
        "window",
        help="the [8] inductance-importance window for a wire geometry",
    )
    for flag, required, default in (
        ("--width", True, None),
        ("--thickness", True, None),
        ("--height", True, None),
        ("--length", True, None),
        ("--rise-time", True, None),
        ("--resistivity", False, "2.65e-8"),
        ("--dielectric", False, "3.9"),
    ):
        window.add_argument(flag, required=required, default=default)

    return parser


def _read_tree(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    return loads(text)


def _cmd_analyze(args) -> int:
    tree = _read_tree(args.netlist)
    if args.unguarded:
        analyzer = args.runtime.session(tree, args.settle_band)
    else:
        from .robustness import GuardedAnalyzer, RepairPolicy

        policy = RepairPolicy.repair_all() if args.repair else None
        analyzer = GuardedAnalyzer(
            tree, settle_band=args.settle_band, policy=policy,
            context=args.runtime,
        )
        for diagnostic in analyzer.validation.warnings():
            print(f"warning: {diagnostic}", file=sys.stderr)
    # Both analyzers answer the selection (default: the whole, possibly
    # repaired, tree) in one table pass.
    rows = analyzer.report(args.node or None)
    if args.csv:
        print("node,zeta,omega_n,delay_50,rise_time,overshoot,settling,"
              "elmore_delay")
        for t in rows:
            print(
                f"{t.node},{t.zeta:.6g},{t.omega_n:.6g},{t.delay_50:.6g},"
                f"{t.rise_time:.6g},{t.overshoot:.6g},{t.settling:.6g},"
                f"{t.elmore_delay:.6g}"
            )
    else:
        print(f"{'node':>10} {'zeta':>8} {'50% delay':>12} {'rise':>12} "
              f"{'overshoot':>10} {'settling':>12} {'elmore':>12}")
        for t in rows:
            print(
                f"{t.node:>10} {t.zeta:>8.3f} "
                f"{format_value(t.delay_50, 's'):>12} "
                f"{format_value(t.rise_time, 's'):>12} "
                f"{t.overshoot:>9.1%} "
                f"{format_value(t.settling, 's'):>12} "
                f"{format_value(t.elmore_delay, 's'):>12}"
            )
    return 0


def _cmd_simulate(args) -> int:
    tree = _read_tree(args.netlist)
    simulator = ExactSimulator(tree)
    if args.input == "step":
        source = StepSource(amplitude=args.amplitude)
    elif args.input == "exp":
        source = ExponentialSource.from_rise_time(
            parse_value(args.rise_time), amplitude=args.amplitude
        )
    else:
        source = RampSource(
            amplitude=args.amplitude, rise_time=parse_value(args.rise_time)
        )
    t_end = parse_value(args.t_end) if args.t_end else None
    t = simulator.time_grid(points=args.points, t_end=t_end)
    exact = simulator.response(source, args.node, t)
    columns = [t, exact]
    header = "time,v_exact"
    if args.model:
        t_rc, t_lc = args.runtime.session(tree).sums(args.node)
        if t_lc == 0.0:
            raise ReproError(
                f"node {args.node!r} is RC-limit; no second-order waveform"
            )
        model = SecondOrderModel.from_sums(t_rc, t_lc)
        from .analysis.response import model_response

        columns.append(model_response(model, source, t))
        header += ",v_model"
    print(header)
    for values in np.column_stack(columns):
        print(",".join(f"{v:.8g}" for v in values))
    return 0


def _cmd_sensitivity(args) -> int:
    tree = _read_tree(args.netlist)
    report = delay_sensitivities(tree, args.node, metric=args.metric)
    print(f"{args.metric} at {args.node}: {format_value(report.value, 's')}")
    order = report.steepest_sections(args.top or len(report.sensitivities))
    print(f"{'section':>10} {'d/dR (s/ohm)':>14} {'d/dL (s/H)':>14} "
          f"{'d/dC (s/F)':>14} {'rel impact':>12}")
    for name in order:
        s = report.sensitivities[name]
        print(
            f"{name:>10} {s.d_resistance:>14.4e} {s.d_inductance:>14.4e} "
            f"{s.d_capacitance:>14.4e} "
            f"{format_value(s.relative_impact, 's'):>12}"
        )
    return 0


def _cmd_compare(args) -> int:
    from .simulation.measures import delay_50 as measured_delay_50
    from .simulation.measures import rise_time_10_90

    tree = _read_tree(args.netlist)
    session = args.runtime.session(tree)
    simulator = ExactSimulator(tree)
    nodes = args.node if args.node else list(tree.nodes)
    t = simulator.time_grid(points=args.points, span_factor=14.0)
    waveforms = simulator.step_response(nodes, t)
    if len(nodes) == 1:
        waveforms = waveforms.reshape(1, -1)
    if args.csv:
        print("node,model_delay,exact_delay,delay_err_pct,"
              "model_rise,exact_rise,rise_err_pct")
    else:
        print(f"{'node':>10} {'model delay':>12} {'exact delay':>12} "
              f"{'err':>7} {'model rise':>12} {'exact rise':>12} {'err':>7}")
    for row, node in enumerate(nodes):
        exact_delay = measured_delay_50(t, waveforms[row])
        exact_rise = rise_time_10_90(t, waveforms[row])
        model_delay = session.value("delay_50", node)
        model_rise = session.value("rise_time", node)
        delay_err = 100.0 * abs(model_delay - exact_delay) / exact_delay
        rise_err = 100.0 * abs(model_rise - exact_rise) / exact_rise
        if args.csv:
            print(f"{node},{model_delay:.6g},{exact_delay:.6g},"
                  f"{delay_err:.3f},{model_rise:.6g},{exact_rise:.6g},"
                  f"{rise_err:.3f}")
        else:
            print(
                f"{node:>10} {format_value(model_delay, 's'):>12} "
                f"{format_value(exact_delay, 's'):>12} "
                f"{delay_err:>6.1f}% "
                f"{format_value(model_rise, 's'):>12} "
                f"{format_value(exact_rise, 's'):>12} "
                f"{rise_err:>6.1f}%"
            )
    return 0


def _cmd_fit(args) -> int:
    result = fit_delay() if args.metric == "delay" else fit_rise()
    print(f"metric: {args.metric}")
    print(f"form:   {result.form}")
    print("coefficients: "
          + ", ".join(f"{c:.6g}" for c in result.coefficients))
    print(f"max relative error over zeta grid: "
          f"{result.max_relative_error:.2%}")
    return 0


def _cmd_sweep(args) -> int:
    from .engine import compile_tree
    from .sweep import (
        DEFAULT_CHUNK,
        compile_sweep,
        const,
        iter_sweep,
        linspace,
        log_sample,
        scenario_space,
    )

    tree = _read_tree(args.netlist)
    compiled = compile_tree(tree)
    slot = compiled.topology.node_index(args.section)
    start = parse_value(args.start)
    stop = parse_value(args.stop)
    make_axis = log_sample if args.log else linspace
    axis = make_axis("value", start, stop, args.points)

    # Masked-expression override of the swept slot: the axis value
    # lands on the swept section (x * 1 + 0 == x), the nominal vector
    # survives everywhere else (x * 0 + base == base).
    hot = np.zeros(compiled.size)
    hot[slot] = 1.0
    base = {
        "resistance": compiled.resistance,
        "inductance": compiled.inductance,
        "capacitance": compiled.capacitance,
    }
    masked = base[args.element].copy()
    masked[slot] = 0.0
    roots = {element: const(vector) for element, vector in base.items()}
    roots[args.element] = axis.values * const(hot) + const(masked)
    sweep = compile_sweep(scenario_space(axis), **roots)

    nodes = args.node if args.node else list(tree.leaves())
    metrics = tuple(args.metric) if args.metric else ("delay_50",)
    chunk = DEFAULT_CHUNK if args.chunk_size is None else args.chunk_size
    print(
        "value,"
        + ",".join(f"{metric}:{node}" for metric in metrics for node in nodes)
    )
    for offset, batch in iter_sweep(
        sweep,
        compiled,
        chunk_size=chunk,
        settle_band=args.settle_band,
        metrics=metrics,
        backend=args.backend,
        context=args.runtime,
    ):
        values = sweep.space.axis_chunk(
            axis, offset, offset + batch.scenarios
        )
        columns = [
            batch.column(metric, node)
            for metric in metrics
            for node in nodes
        ]
        for i, value in enumerate(values):
            cells = ",".join(f"{column[i]:.9g}" for column in columns)
            print(f"{value:.9g},{cells}")
    return 0


def _cmd_window(args) -> int:
    geometry = WireGeometry(
        width=parse_value(args.width),
        thickness=parse_value(args.thickness),
        height=parse_value(args.height),
        resistivity=parse_value(args.resistivity),
        dielectric_constant=parse_value(args.dielectric),
    )
    window = inductance_window(geometry, args.length, args.rise_time)
    print(f"r = {format_value(geometry.resistance_per_meter * 1e-3, 'ohm')}/mm, "
          f"l = {format_value(geometry.inductance_per_meter * 1e-3, 'H')}/mm, "
          f"c = {format_value(geometry.capacitance_per_meter * 1e-3, 'F')}/mm")
    if window.exists:
        print(f"inductance matters for lengths in "
              f"({format_value(window.lower, 'm')}, "
              f"{format_value(window.upper, 'm')})")
    else:
        print("inductance window is empty: this wire is RC at any length")
    print(f"at {format_value(window.length, 'm')}: regime = {window.regime}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .service import AnalysisServer

    server = AnalysisServer(
        args.runtime,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        coalesce_window=args.coalesce_window,
        max_group=args.max_group,
        retry_after=args.retry_after,
        max_requests=args.max_requests,
    )

    def announce(ready) -> None:
        print(
            f"repro service listening on http://{args.host}:{ready.port} "
            f"(max_inflight={ready.max_inflight})",
            file=sys.stderr,
            flush=True,
        )

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        await server.serve(on_ready=announce)

    asyncio.run(run())
    print("repro service drained", file=sys.stderr, flush=True)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "sensitivity": _cmd_sensitivity,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "window": _cmd_window,
    "serve": _cmd_serve,
}


def _print_cache_info(runtime: ExecutionContext) -> None:
    """Dump engine caches and runtime stats to stderr (``--debug``)."""
    from .engine import cache_info

    print("engine caches:", file=sys.stderr)
    for group, counters in cache_info().items():
        body = ", ".join(f"{key}={value}" for key, value in counters.items())
        print(f"  {group}: {body}", file=sys.stderr)
    stats = runtime.stats()
    print("runtime stats:", file=sys.stderr)
    for group in (
        "dispatch",
        "workloads",
        "plans",
        "pool",
        "supervision",
        "transport",
        "sweep",
    ):
        counters = stats[group]
        body = ", ".join(f"{key}={value}" for key, value in counters.items())
        print(f"  {group}: {body}", file=sys.stderr)
    for backend, state in stats["breakers"].items():
        print(
            f"  breaker[{backend}]: state={state['state']}, "
            f"consecutive_failures={state['consecutive_failures']}, "
            f"transitions={len(state['transitions'])}",
            file=sys.stderr,
        )
    phases = ", ".join(
        f"{name}={seconds:.6f}s" for name, seconds in stats["phases"].items()
    )
    print(f"  phases: {phases}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Exit codes: 0 success, 2 for well-typed failures (a
    :class:`~repro.errors.ReproError` or a missing file), 3 for anything
    unexpected. ``--debug`` re-raises instead, for a full traceback, and
    prints the engine cache and runtime dispatch statistics to stderr.

    Every command runs inside one :class:`~repro.runtime.ExecutionContext`
    (``--backend`` forces its routing); the ``with`` block guarantees
    worker-pool and shared-memory teardown even when a command raises.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    if args.shard_timeout is not None:
        overrides["shard_timeout"] = (
            args.shard_timeout if args.shard_timeout > 0 else None
        )
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if getattr(args, "calibration", None):
        from pathlib import Path

        from .runtime import load_calibration

        calibration = load_calibration(Path(args.calibration))
        if calibration is not None:  # corrupt file degrades with a warning
            overrides["calibration"] = calibration
    config = RuntimeConfig(
        backend=getattr(args, "backend", None), **overrides
    )
    try:
        with ExecutionContext(config) as runtime:
            args.runtime = runtime
            exit_code = _COMMANDS[args.command](args)
            if args.debug:
                _print_cache_info(runtime)
            return exit_code
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the never-a-raw-traceback guarantee
        if args.debug:
            raise
        print(
            f"internal error ({type(exc).__name__}: {exc}); "
            "re-run with --debug for the traceback",
            file=sys.stderr,
        )
        return 3
