#!/usr/bin/env python
"""Engine speedup benchmark: compiled vectorized engine vs scalar path.

Measures the two workloads the engine was built for and writes the
results to ``BENCH_engine.json`` at the repository root:

* **full-tree report** — every closed-form metric at every node of one
  large tree (``TreeAnalyzer.report()``), vectorized vs per-node scalar;
* **variation sweep** — S value-perturbed scenarios of one topology,
  one sink delay each: ``analyze_batch`` over a compiled topology vs
  the per-sample rebuild-and-analyze loop;
* **incremental edits** — single-segment edit + sink re-time through
  the delta-update :class:`~repro.engine.incremental.IncrementalAnalyzer`
  vs a full engine recompute per edit, plus ``optimize_width`` routed
  through the incremental probe path vs per-probe tree rebuilds
  (``BENCH_incremental.json``);
* **sharded dispatch** — serial vs the zero-copy sharded pool on both
  workload shapes, at the shard count the measured crossover
  calibration plans (``BENCH_sharded.json``); the calibration itself is
  persisted to ``BENCH_crossover.json`` and a routed below-break-even
  batch is checked against the never-slower-than-serial floor.

Modes::

    python benchmarks/run_benchmarks.py            # full (paper-scale)
    python benchmarks/run_benchmarks.py --quick    # CI smoke
    python benchmarks/run_benchmarks.py --compare PREV.json

Full mode runs a 10k-section tree and a 1000-scenario x 1000-section
sweep against the release targets (>= 10x and >= 50x). Quick mode runs
small sizes in a few seconds and exits non-zero if the engine is slower
than the scalar path at any size >= 2000 sections — the regression
guard ``bench_engine_scaling.py`` wires into ``pytest -m perf``.
``--compare`` loads a previously written result JSON (any of the three
kinds), matches it to the corresponding fresh result by its top-level
keys, and exits non-zero if any recorded speedup regressed by more
than 20%.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np

from repro.analysis import TreeAnalyzer
from repro.apps.wire_sizing import WireSizingProblem, optimize_width
from repro.circuit import RLCTree, Section, random_tree
from repro.engine import (
    IncrementalAnalyzer,
    analyze_batch,
    analyze_batch_sharded,
    analyze_many,
    clear_topology_cache,
    compile_tree,
    effective_cpu_count,
    metrics_from_sums,
    shutdown_pool,
    timing_table,
)
from repro.runtime import (
    ExecutionContext,
    RuntimeConfig,
    plan_shards,
    run_calibration,
    save_calibration,
)

from tests.conftest import dict_second_order_sums, scalar_report, scalar_timing

RESULT_PATH = REPO_ROOT / "BENCH_engine.json"
RESULT_SHARDED_PATH = REPO_ROOT / "BENCH_sharded.json"
RESULT_INCREMENTAL_PATH = REPO_ROOT / "BENCH_incremental.json"
RESULT_CROSSOVER_PATH = REPO_ROOT / "BENCH_crossover.json"

TARGETS = {"full_tree_10k": 10.0, "variation_1000x1k": 50.0}

#: Release targets of the delta-update engine: a single-segment edit +
#: sink re-time must beat a full engine recompute by >= 10x at 10k
#: sections, and the incremental wire-sizing loop must beat the
#: per-probe rebuild path by >= 3x at 4k sections. Quick mode uses
#: smaller sizes with relaxed floors as the CI regression guard.
INCREMENTAL_TARGETS = {"single_edit": 10.0, "optimize_width": 3.0}
INCREMENTAL_QUICK_TARGETS = {"single_edit": 2.0, "optimize_width": 1.2}
#: Exactness gate: the incremental path must track the full recompute
#: to this relative drift on every benchmarked query.
INCREMENTAL_DRIFT_LIMIT = 1e-12

# The sharded dispatch must show >= 1.5x over the serial engine at the
# calibrated shard count — but only where parallel speedup is physically
# possible: the target is asserted on machines with at least
# MIN_CORES_FOR_TARGET *effective* cores (affinity-aware, not
# os.cpu_count). Result drift, by contrast, must be exactly zero
# everywhere: sharding is a transport change, not a numerical one. The
# routed floor also applies on every box: a crossover-calibrated
# context must never make a below-break-even batch meaningfully slower
# than calling the serial engine directly (0.8 absorbs timer noise on
# sub-millisecond calls).
SHARDED_TARGET = 1.5
MIN_CORES_FOR_TARGET = 2
ROUTED_FLOOR = 0.8


def comb_tree(chains: int, depth: int) -> RLCTree:
    """``chains`` parallel ``depth``-section lines off one trunk.

    ``chains * depth + 1`` sections with bounded depth, so both the
    per-node scalar path and the per-level vectorized sweeps are
    exercised at realistic aspect ratios.
    """
    tree = RLCTree()
    tree.add_section("trunk", "in", resistance=5.0, inductance=1e-9,
                     capacitance=0.1e-12)
    for c in range(chains):
        parent = "trunk"
        for d in range(depth):
            name = f"c{c}_{d}"
            tree.add_section(name, parent, resistance=15.0,
                             inductance=2e-9, capacitance=0.2e-12)
            parent = name
    return tree


def best_of(repeats: int, fn) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def bench_full_tree(chains: int, depth: int, repeats: int = 3) -> dict:
    tree = comb_tree(chains, depth)
    clear_topology_cache()

    def scalar():
        # The per-node dict sweep + scalar closed forms, kept as the test
        # oracle (the pre-engine TreeAnalyzer code path).
        scalar_report(tree)

    def engine():
        # The engine's native full-tree report: every metric at every
        # node, as array columns.
        timing_table(tree)

    def engine_report():
        # The API-compatible wrapper: same NodeTiming list as scalar().
        TreeAnalyzer(tree).report_all()

    engine()  # warm the topology cache once, like any real sweep loop
    scalar_s = best_of(repeats, scalar)
    engine_s = best_of(repeats, engine)
    report_s = best_of(repeats, engine_report)
    return {
        "sections": tree.size,
        "scalar_s": scalar_s,
        "engine_s": engine_s,
        "report_s": report_s,
        "speedup": scalar_s / engine_s,
        "report_speedup": scalar_s / report_s,
    }


def bench_variation(scenarios: int, chains: int, depth: int,
                    repeats: int = 3) -> dict:
    tree = comb_tree(chains, depth)
    sink = f"c0_{depth - 1}"
    clear_topology_cache()
    compiled = compile_tree(tree)
    rng = np.random.default_rng(0)
    factors = np.exp(0.1 * rng.standard_normal((scenarios, 3, compiled.size)))
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    block = factors * nominal
    index = {name: i for i, name in enumerate(compiled.names)}

    def scalar():
        # The pre-engine Monte-Carlo shape: rebuild the tree per sample,
        # run the dict-based analysis, read one sink delay.
        out = np.empty(scenarios)
        for s in range(scenarios):
            row = block[s]

            def rebuild(name, _section, row=row):
                i = index[name]
                return Section(row[0, i], row[1, i], row[2, i])

            perturbed = tree.map_sections(rebuild)
            t_rc, t_lc = dict_second_order_sums(perturbed)
            out[s] = scalar_timing(sink, t_rc[sink], t_lc[sink]).delay_50
        return out

    def engine():
        # Mirrors sample_delays: one metric requested, so the kernel
        # skips the overshoot/settling work the sweep never reads.
        batch = analyze_batch(compiled, block, metrics=("delay_50",))
        return batch.column("delay_50", sink)

    drift = np.max(np.abs(engine() - scalar()) / np.abs(scalar()))
    scalar_s = best_of(max(1, repeats - 2), scalar)
    engine_s = best_of(repeats, engine)
    return {
        "scenarios": scenarios,
        "sections": compiled.size,
        "max_relative_drift": float(drift),
        "scalar_s": scalar_s,
        "engine_s": engine_s,
        "speedup": scalar_s / engine_s,
    }


def bench_many_trees(count: int, sections: int, workers: int,
                     repeats: int = 3) -> dict:
    """analyze_many over a heterogeneous tree set, serial vs sharded."""
    compiled = [
        compile_tree(random_tree(sections, np.random.default_rng(seed)))
        for seed in range(count)
    ]

    def serial():
        return analyze_many(compiled, workers=0)

    def sharded():
        return analyze_many(compiled, workers=workers)

    sharded()  # spin the pool up and seed the worker caches once
    drift = max(
        float(np.max(np.abs(a.delay_50 - b.delay_50)))
        for a, b in zip(serial(), sharded())
    )
    serial_s = best_of(repeats, serial)
    sharded_s = best_of(repeats, sharded)
    return {
        "trees": count,
        "sections": sections,
        "workers": workers,
        "max_abs_drift": drift,
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "speedup": serial_s / sharded_s,
    }


def bench_sharded_batch(scenarios: int, chains: int, depth: int,
                        workers: int, repeats: int = 3,
                        calibration=None) -> dict:
    """analyze_batch_sharded vs in-process analyze_batch, one topology.

    With a calibration, the shard count comes from the cost model
    (:func:`repro.runtime.plan_shards`): fewer, larger shards near the
    break-even point instead of one sliver per worker.
    """
    tree = comb_tree(chains, depth)
    compiled = compile_tree(tree)
    rng = np.random.default_rng(1)
    factors = np.exp(0.1 * rng.standard_normal((scenarios, 3, compiled.size)))
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    block = factors * nominal
    shards = plan_shards(scenarios * compiled.size, workers, calibration)

    def serial():
        return analyze_batch(compiled, block)

    def sharded():
        return analyze_batch_sharded(
            compiled, block, shards=shards, workers=workers
        )

    sharded()  # warm the pool
    drift = float(np.max(np.abs(serial().delay_50 - sharded().delay_50)))
    serial_s = best_of(repeats, serial)
    sharded_s = best_of(repeats, sharded)
    return {
        "scenarios": scenarios,
        "sections": compiled.size,
        "shards": shards,
        "workers": workers,
        "max_abs_drift": drift,
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "speedup": serial_s / sharded_s,
    }


def bench_routed_crossover(calibration, repeats: int = 5) -> dict:
    """Planner-routed small batch vs direct serial: the never-slower gate.

    A batch well below the measured break-even must be kept on the
    in-process engine by a calibrated :class:`ExecutionContext`, so its
    cost tracks a direct ``analyze_batch`` call and its numbers are
    bitwise identical. (If the calibration says sharding wins even at
    this size, routing there must still hold the floor — that is what
    the model promised.)
    """
    tree = comb_tree(4, 25)  # 101 sections
    compiled = compile_tree(tree)
    rng = np.random.default_rng(3)
    # Big enough that the context's fixed per-call cost (planning,
    # stats, backend scoping — order 0.1ms) is a few percent of the
    # runtime, small enough to sit below any plausible break-even.
    scenarios = 200
    block = rng.uniform(0.5, 2.0, size=(scenarios, 3, compiled.size))
    cells = scenarios * compiled.size

    def serial():
        return analyze_batch(compiled, block)

    serial_result = serial()
    serial_s = best_of(repeats, serial)
    config = RuntimeConfig(
        workers=calibration.workers, calibration=calibration
    )
    with ExecutionContext(config) as context:
        routed_result = context.batch(compiled, block)  # warm + correctness
        routed_s = best_of(repeats, lambda: context.batch(compiled, block))
        sharded_calls = context.stats()["dispatch"].get("sharded", 0)
    drift = float(
        np.max(
            np.abs(
                routed_result.metrics.delay_50
                - serial_result.metrics.delay_50
            )
        )
    )
    return {
        "scenarios": scenarios,
        "sections": compiled.size,
        "cells": cells,
        "below_breakeven": not calibration.sharded_wins(cells),
        "routed_sharded_calls": int(sharded_calls),
        "max_abs_drift": drift,
        "serial_s": serial_s,
        "routed_s": routed_s,
        "ratio_vs_serial": serial_s / routed_s,
    }


def bench_incremental_edits(chains: int, depth: int, edits: int = 200,
                            repeats: int = 3) -> dict:
    """Single-segment edit + sink re-time: delta update vs full sweep.

    The edit-heavy optimization-loop shape: perturb one section's
    capacitance, then re-read the sink delay. The full path re-runs the
    engine's O(n) sweeps per edit; the incremental path propagates the
    delta along the root path and answers the sink query lazily.
    """
    tree = comb_tree(chains, depth)
    clear_topology_cache()
    compiled = compile_tree(tree)
    sink = f"c0_{depth - 1}"
    sink_slot = compiled.topology.node_index(sink)
    names = compiled.names
    rng = np.random.default_rng(0)
    slots = rng.integers(0, compiled.size, edits)
    factors = rng.uniform(0.8, 1.25, edits)
    # Pre-resolve each edit to an absolute value so both paths apply the
    # identical sequence without peeking at each other's state.
    running = compiled.capacitance.copy()
    values = np.empty(edits)
    for k, (slot, factor) in enumerate(zip(slots, factors)):
        running[slot] *= factor
        values[k] = running[slot]

    def run_full() -> np.ndarray:
        current = compiled.capacitance.copy()
        out = np.empty(edits)
        for k, slot in enumerate(slots):
            current[slot] = values[k]
            perturbed = compiled.with_values(
                resistance=compiled.resistance,
                inductance=compiled.inductance,
                capacitance=current,
            )
            t_rc, t_lc = perturbed.second_order_sums()
            metrics = metrics_from_sums(
                np.float64(t_rc[sink_slot]),
                np.float64(t_lc[sink_slot]),
                select=("delay_50",),
            )
            out[k] = float(metrics.delay_50)
        return out

    def run_incremental() -> np.ndarray:
        analyzer = IncrementalAnalyzer(compiled)
        out = np.empty(edits)
        for k, slot in enumerate(slots):
            analyzer.set_capacitance(names[slot], float(values[k]))
            out[k] = analyzer.value("delay_50", sink)
        return out

    full_delays = run_full()
    incremental_delays = run_incremental()
    drift = float(
        np.max(np.abs(incremental_delays - full_delays) / np.abs(full_delays))
    )
    full_s = best_of(max(1, repeats - 2), run_full)
    incremental_s = best_of(repeats, run_incremental)
    return {
        "sections": compiled.size,
        "edits": edits,
        "max_relative_drift": drift,
        "full_per_edit_s": full_s / edits,
        "incremental_per_edit_s": incremental_s / edits,
        "speedup": full_s / incremental_s,
    }


def bench_incremental_sizing(num_sections: int, repeats: int = 3) -> dict:
    """optimize_width through the incremental probe path vs rebuilds.

    Both paths run the same bounded Brent search; the incremental one
    answers each width probe with a bulk value load + sink point query
    on the problem's compiled template. The template compile is warmed
    first, like any real sizing loop that reuses one problem.
    """
    problem = WireSizingProblem(num_sections=num_sections)

    def run_incremental():
        return optimize_width(problem)

    def run_full():
        with ExecutionContext(RuntimeConfig(backend="compiled")) as ctx:
            return optimize_width(problem, context=ctx)

    run_incremental()  # warm the compiled template + topology cache
    result_full = run_full()
    result_incremental = run_incremental()
    drift = abs(result_incremental.delay - result_full.delay) / abs(
        result_full.delay
    )
    full_s = best_of(max(1, repeats - 2), run_full)
    incremental_s = best_of(repeats, run_incremental)
    return {
        "sections": num_sections,
        "evaluations": result_incremental.evaluations,
        "width_match": result_incremental.width == result_full.width,
        "max_relative_drift": float(drift),
        "full_s": full_s,
        "incremental_s": incremental_s,
        "speedup": full_s / incremental_s,
    }


def run_incremental(quick: bool) -> dict:
    """The delta-update numbers behind BENCH_incremental.json."""
    if quick:
        single_edit = bench_incremental_edits(20, 100)    # 2001 sections
        sizing = bench_incremental_sizing(500)
    else:
        single_edit = bench_incremental_edits(100, 100)   # 10001 sections
        sizing = bench_incremental_sizing(4000)
    targets = INCREMENTAL_QUICK_TARGETS if quick else INCREMENTAL_TARGETS
    return {
        "mode": "quick" if quick else "full",
        "single_edit": single_edit,
        "optimize_width": sizing,
        "targets": targets,
        "drift_limit": INCREMENTAL_DRIFT_LIMIT,
        "satisfied": {
            "single_edit": single_edit["speedup"] >= targets["single_edit"],
            "optimize_width": sizing["speedup"] >= targets["optimize_width"],
        },
    }


def check_incremental(results: dict) -> list:
    """Failure messages for an incremental run (empty when acceptable).

    Drift is a correctness gate (the delta-update engine must track the
    full recompute to 1e-12 relative); the speedup floors come from the
    run's own mode-appropriate targets.
    """
    failures = []
    for label in ("single_edit", "optimize_width"):
        row = results[label]
        if row["max_relative_drift"] > INCREMENTAL_DRIFT_LIMIT:
            failures.append(
                f"incremental {label} drifted from the full recompute by "
                f"{row['max_relative_drift']:.3e} "
                f"(limit {INCREMENTAL_DRIFT_LIMIT:.0e})"
            )
        target = results["targets"][label]
        if row["speedup"] < target:
            failures.append(
                f"incremental {label} speedup {row['speedup']:.2f}x below "
                f"the {target:.1f}x target at {row['sections']} sections"
            )
    if not results["optimize_width"]["width_match"]:
        failures.append(
            "incremental optimize_width chose a different width than the "
            "rebuild path"
        )
    return failures


def run_sharded(
    quick: bool, crossover_path: pathlib.Path = RESULT_CROSSOVER_PATH
) -> dict:
    """The sharded-vs-serial scaling numbers behind BENCH_sharded.json.

    Also runs the crossover microbenchmark, persists the calibration to
    ``crossover_path``, and times a below-break-even batch through a
    calibrated context (the never-slower-than-serial check).
    """
    cores = effective_cpu_count()
    workers = max(2, min(4, cores))
    clear_topology_cache()
    try:
        calibration = run_calibration(
            workers=workers,
            sizes=(64, 256, 1024) if quick else (64, 256, 1024, 4096),
            repeats=2 if quick else 3,
        )
        save_calibration(calibration, crossover_path)
        if quick:
            many = bench_many_trees(12, 120, workers)
            batch = bench_sharded_batch(200, 4, 50, workers,
                                        calibration=calibration)
        else:
            many = bench_many_trees(48, 400, workers)
            batch = bench_sharded_batch(2000, 10, 100, workers,
                                        calibration=calibration)
        routed = bench_routed_crossover(calibration)
    finally:
        shutdown_pool()
    return {
        "mode": "quick" if quick else "full",
        "cores": cores,
        "workers": workers,
        "target_speedup": SHARDED_TARGET,
        "min_cores_for_target": MIN_CORES_FOR_TARGET,
        "target_applies": cores >= MIN_CORES_FOR_TARGET,
        "routed_floor": ROUTED_FLOOR,
        "calibration": {
            "workers": calibration.workers,
            "breakeven_cells": calibration.breakeven_cells,
            "serial_per_cell_s": calibration.serial_per_cell,
            "sharded_per_cell_s": calibration.sharded_per_cell,
            "file": crossover_path.name,
        },
        "many_trees": many,
        "batch": batch,
        "routed": routed,
    }


def check_sharded(results: dict) -> list:
    """Failure messages for a sharded run (empty when acceptable).

    Drift is a correctness gate and applies everywhere, as does the
    routed never-slower floor; the speedup target applies only on
    machines with enough effective cores for parallel dispatch to have
    any headroom.
    """
    failures = []
    for label in ("many_trees", "batch"):
        row = results[label]
        if row["max_abs_drift"] != 0.0:
            failures.append(
                f"sharded {label} drifted from serial by "
                f"{row['max_abs_drift']:.3e}; results must be bitwise equal"
            )
        if results["target_applies"] and row["speedup"] < SHARDED_TARGET:
            failures.append(
                f"sharded {label} speedup {row['speedup']:.2f}x below the "
                f"{SHARDED_TARGET:.1f}x target on {results['cores']} cores"
            )
    routed = results["routed"]
    if routed["max_abs_drift"] != 0.0:
        failures.append(
            f"calibrated routing drifted from direct serial by "
            f"{routed['max_abs_drift']:.3e}; results must be bitwise equal"
        )
    if routed["ratio_vs_serial"] < ROUTED_FLOOR:
        failures.append(
            f"calibrated routing ran a {routed['cells']}-cell batch at "
            f"{routed['ratio_vs_serial']:.2f}x of direct serial speed "
            f"(never-slower floor {ROUTED_FLOOR:.2f})"
        )
    return failures


def run(quick: bool) -> dict:
    if quick:
        full_tree = [
            bench_full_tree(20, 100),   # 2001 sections
            bench_full_tree(40, 100),   # 4001 sections
        ]
        variation = bench_variation(50, 5, 100)  # 50 x 501
    else:
        full_tree = [
            bench_full_tree(10, 100),   # 1001 sections
            bench_full_tree(40, 100),   # 4001 sections
            bench_full_tree(100, 100),  # 10001 sections
        ]
        variation = bench_variation(1000, 10, 100)  # 1000 x 1001

    results = {
        "mode": "quick" if quick else "full",
        "full_tree": full_tree,
        "variation": variation,
        "targets": TARGETS,
    }
    if not quick:
        results["satisfied"] = {
            "full_tree_10k": full_tree[-1]["speedup"] >= TARGETS["full_tree_10k"],
            "variation_1000x1k": variation["speedup"]
            >= TARGETS["variation_1000x1k"],
        }
    return results


def check(results: dict) -> list:
    """Failure messages (empty when the run is acceptable)."""
    failures = []
    for row in results["full_tree"]:
        if row["sections"] < 2000:
            continue
        if row["speedup"] < 1.0:
            failures.append(
                f"engine table slower than scalar at {row['sections']} "
                f"sections (speedup {row['speedup']:.2f}x)"
            )
        if row["report_speedup"] < 1.0:
            failures.append(
                f"engine report_all slower than scalar at {row['sections']} "
                f"sections (speedup {row['report_speedup']:.2f}x)"
            )
    if results["mode"] == "full":
        for name, ok in results["satisfied"].items():
            if not ok:
                failures.append(f"target {name} not met")
    return failures


#: Fraction of a previously recorded speedup a fresh run must retain;
#: anything below is a --compare regression failure.
COMPARE_RETAIN = 0.8


def collect_speedups(obj, prefix: str = "") -> dict:
    """Every numeric ``*speedup*`` leaf of a result tree, by dotted path.

    ``target``-flavored keys are configuration, not measurements, and
    are skipped.
    """
    found = {}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = ((f"[{i}]", value) for i, value in enumerate(obj))
    else:
        return found
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        if (
            isinstance(value, (int, float))
            and "speedup" in str(key)
            and "target" not in str(key)
        ):
            found[path] = float(value)
        else:
            found.update(collect_speedups(value, path))
    return found


def result_kind(results: dict) -> str:
    """Which benchmark family a result JSON came from, by its keys."""
    for kind, marker in (
        ("engine", "full_tree"),
        ("sharded", "many_trees"),
        ("incremental", "single_edit"),
    ):
        if marker in results:
            return kind
    return "unknown"


def compare_results(new: dict, previous: dict) -> list:
    """Regression messages: fresh speedups vs a previous result JSON.

    Walks every recorded ``speedup`` value in ``previous`` and fails
    any whose fresh counterpart dropped below ``COMPARE_RETAIN`` of the
    old number. Paths present on only one side are ignored (sizes and
    modes may legitimately differ between runs).
    """
    failures = []
    fresh = collect_speedups(new)
    for path, old in collect_speedups(previous).items():
        current = fresh.get(path)
        if current is None or old <= 0.0:
            continue
        if current < COMPARE_RETAIN * old:
            failures.append(
                f"speedup regression at {path}: {current:.2f}x vs "
                f"previous {old:.2f}x (allowed floor "
                f"{COMPARE_RETAIN * old:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, seconds not minutes; regression guard only",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=RESULT_PATH,
        help=f"result JSON path (default: {RESULT_PATH})",
    )
    parser.add_argument(
        "--sharded-output",
        type=pathlib.Path,
        default=RESULT_SHARDED_PATH,
        help=f"sharded result JSON path (default: {RESULT_SHARDED_PATH})",
    )
    parser.add_argument(
        "--incremental-output",
        type=pathlib.Path,
        default=RESULT_INCREMENTAL_PATH,
        help="incremental result JSON path "
        f"(default: {RESULT_INCREMENTAL_PATH})",
    )
    parser.add_argument(
        "--crossover-output",
        type=pathlib.Path,
        default=RESULT_CROSSOVER_PATH,
        help="crossover calibration JSON path "
        f"(default: {RESULT_CROSSOVER_PATH})",
    )
    parser.add_argument(
        "--compare",
        type=pathlib.Path,
        default=None,
        metavar="PREV.json",
        help="previous result JSON; exit non-zero if any speedup it "
        f"records regressed by more than {1.0 - COMPARE_RETAIN:.0%}",
    )
    args = parser.parse_args(argv)

    results = run(args.quick)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    incremental = run_incremental(args.quick)
    args.incremental_output.write_text(
        json.dumps(incremental, indent=2) + "\n"
    )
    sharded = run_sharded(args.quick, crossover_path=args.crossover_output)
    args.sharded_output.write_text(json.dumps(sharded, indent=2) + "\n")

    print(f"mode: {results['mode']}")
    for row in results["full_tree"]:
        print(
            f"full-tree report  n={row['sections']:>6}: "
            f"scalar {row['scalar_s']:.3f}s  engine {row['engine_s']:.4f}s  "
            f"-> {row['speedup']:.1f}x "
            f"(NodeTiming wrapper {row['report_speedup']:.1f}x)"
        )
    v = results["variation"]
    print(
        f"variation sweep  {v['scenarios']}x{v['sections']}: "
        f"scalar {v['scalar_s']:.3f}s  engine {v['engine_s']:.4f}s  "
        f"-> {v['speedup']:.1f}x"
    )
    e = incremental["single_edit"]
    print(
        f"single edit      n={e['sections']:>6}: "
        f"full {e['full_per_edit_s'] * 1e6:.0f}us/edit  "
        f"incremental {e['incremental_per_edit_s'] * 1e6:.0f}us/edit  "
        f"-> {e['speedup']:.1f}x (drift {e['max_relative_drift']:.1e})"
    )
    w = incremental["optimize_width"]
    print(
        f"wire sizing      n={w['sections']:>6}: "
        f"full {w['full_s']:.3f}s  incremental {w['incremental_s']:.4f}s  "
        f"-> {w['speedup']:.1f}x (drift {w['max_relative_drift']:.1e})"
    )
    m = sharded["many_trees"]
    print(
        f"sharded trees    {m['trees']}x{m['sections']}: "
        f"serial {m['serial_s']:.3f}s  sharded {m['sharded_s']:.3f}s  "
        f"-> {m['speedup']:.2f}x (drift {m['max_abs_drift']:.1e}, "
        f"{sharded['workers']} workers)"
    )
    b = sharded["batch"]
    print(
        f"sharded batch    {b['scenarios']}x{b['sections']}: "
        f"serial {b['serial_s']:.3f}s  sharded {b['sharded_s']:.3f}s  "
        f"-> {b['speedup']:.2f}x (drift {b['max_abs_drift']:.1e}, "
        f"{b['shards']} shards)"
    )
    c = sharded["calibration"]
    breakeven = (
        f"{c['breakeven_cells']} cells"
        if c["breakeven_cells"] is not None
        else "never (pool loses at every size here)"
    )
    print(
        f"crossover        {c['workers']} workers: "
        f"break-even {breakeven}"
    )
    r = sharded["routed"]
    print(
        f"routed batch     {r['scenarios']}x{r['sections']}: "
        f"serial {r['serial_s'] * 1e3:.2f}ms  "
        f"routed {r['routed_s'] * 1e3:.2f}ms  "
        f"-> {r['ratio_vs_serial']:.2f}x of serial "
        f"({r['routed_sharded_calls']} sharded dispatches)"
    )
    if not sharded["target_applies"]:
        print(
            f"note: {sharded['cores']} effective cores < "
            f"{MIN_CORES_FOR_TARGET}: sharded speedup target not asserted"
        )
    print(
        f"results written to {args.output}, {args.incremental_output}, "
        f"{args.sharded_output} and {args.crossover_output}"
    )

    failures = (
        check(results)
        + check_incremental(incremental)
        + check_sharded(sharded)
    )
    if args.compare is not None:
        previous = json.loads(args.compare.read_text())
        current = {
            "engine": results,
            "incremental": incremental,
            "sharded": sharded,
        }.get(result_kind(previous))
        if current is None:
            failures.append(
                f"--compare {args.compare}: unrecognized result layout"
            )
        else:
            failures.extend(compare_results(current, previous))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
