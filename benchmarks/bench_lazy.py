"""Lazy scenario-DAG executor — CSE payoff and the chunked memory ceiling.

Two claims are gated here, both recorded in ``BENCH_lazy.json``:

* **CSE speedup** — a sweep whose three element expressions share one
  transcendental chain must run at least 1.3x faster with the
  hash-consed CSE schedule than with ``cse=False`` (which re-walks the
  expression tree at every reference — what an eager caller computing
  each element independently would do).

* **Memory ceiling** — a million-scenario Monte-Carlo sweep streamed
  through the chunked executor must peak at no more than 2x the peak
  of a *single-chunk* run (the chunk block plus the kernels' own
  per-chunk temporaries), and far below the eager ``(S, 3, n)`` value
  block it replaces. The ceiling is measured with ``tracemalloc``
  around the whole sweep, accumulating scalar reductions only, so the
  gate sees the executor's working set and not the caller's output
  arrays.

The ``perf``-marked quick test is the CI regression guard (scaled-down
scenario counts, relaxed CSE floor); the unmarked full test
regenerates the paper-scale ``BENCH_lazy.json`` at the repo root::

    pytest benchmarks/bench_lazy.py -m perf -s        # quick
    pytest benchmarks/bench_lazy.py -m "not perf" -s  # full
"""

import json
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from repro.apps.variation import VariationModel, sample_delays
from repro.circuit import fig5_tree
from repro.engine import compile_tree
from repro.runtime import ExecutionContext
from repro.sweep import (
    compile_sweep,
    const,
    exp,
    iter_sweep,
    linspace,
    log,
    lognormal_factors,
    run_sweep,
    scenario_space,
)

RESULT_LAZY_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_lazy.json"
)

CHUNK = 4096
CHAIN_DEPTH = 6


def _cse_sweeps(compiled, scenarios):
    """One sweep description compiled with and without CSE.

    The chain operates on full ``(chunk, n)`` blocks — per-section
    profile times the scenario axis — so the shared work is real array
    math, not a cheap per-scenario column.
    """
    axis = linspace("scale", 0.8, 1.25, scenarios)
    profile = const(np.linspace(0.9, 1.1, compiled.size))
    chain = axis.values * profile
    for _ in range(CHAIN_DEPTH):
        chain = exp(log(chain) * 0.5 + 0.25)
    roots = dict(
        resistance=chain * const(compiled.resistance),
        inductance=chain * const(compiled.inductance),
        capacitance=chain * const(compiled.capacitance),
    )
    space = scenario_space(axis)
    return compile_sweep(space, **roots), compile_sweep(
        space, cse=False, **roots
    )


def _timed_sweep(sweep, compiled):
    with ExecutionContext() as context:
        start = time.perf_counter()
        run_sweep(
            sweep, compiled, nodes=("n7",), chunk_size=CHUNK, context=context
        )
        return time.perf_counter() - start


def _mc_sweep(compiled, scenarios, seed=7):
    axis = lognormal_factors(
        "mc",
        sigmas=np.array([0.15, 0.1, 0.2]),
        sections=compiled.size,
        samples=scenarios,
        seed=seed,
    )
    return compile_sweep(
        scenario_space(axis),
        resistance=axis.resistance * const(compiled.resistance),
        inductance=axis.inductance * const(compiled.inductance),
        capacitance=axis.capacitance * const(compiled.capacitance),
    )


def _traced_peak(compiled, scenarios):
    """tracemalloc peak of one full chunked sweep, scalars only."""
    sweep = _mc_sweep(compiled, scenarios)
    total = 0.0
    tracemalloc.start()
    with ExecutionContext() as context:
        for _, batch in iter_sweep(
            sweep, compiled, chunk_size=CHUNK, context=context
        ):
            total += float(batch.column("delay_50", "n7").sum())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, total / scenarios


def run_lazy(quick: bool = True) -> dict:
    compiled = compile_tree(fig5_tree())
    cse_scenarios = 100_000 if quick else 200_000
    mc_scenarios = 200_000 if quick else 1_000_000
    pin_samples = 20_000 if quick else 1_000_000

    # -- CSE payoff --------------------------------------------------------
    with_cse, without_cse = _cse_sweeps(compiled, cse_scenarios)
    _timed_sweep(with_cse, compiled)  # warm the kernels and the pool
    t_cse = min(_timed_sweep(with_cse, compiled) for _ in range(3))
    t_nocse = min(_timed_sweep(without_cse, compiled) for _ in range(3))

    # -- chunked memory ceiling -------------------------------------------
    peak_single, _ = _traced_peak(compiled, CHUNK)
    peak_full, mean_delay = _traced_peak(compiled, mc_scenarios)
    eager_block = mc_scenarios * 3 * compiled.size * 8

    # -- bitwise pin against one batch over the one-shot draw -------------
    from tests.conftest import variation_reference

    variation = VariationModel(0.15, 0.1, 0.2)
    lazy = sample_delays(
        fig5_tree(), "n7", variation, samples=pin_samples, seed=11
    )
    rlc, rc = variation_reference(
        fig5_tree(), "n7", variation, pin_samples, seed=11
    )
    bitwise = (
        lazy.rlc.values.tobytes() == rlc.tobytes()
        and lazy.rc.values.tobytes() == rc.tobytes()
    )

    return {
        "quick": quick,
        "sections": compiled.size,
        "chunk_size": CHUNK,
        "cse": {
            "scenarios": cse_scenarios,
            "chain_depth": CHAIN_DEPTH,
            "unique_nodes": with_cse.unique_nodes,
            "total_refs": with_cse.total_refs,
            "cse_hits": with_cse.cse_hits,
            "cse_s": t_cse,
            "no_cse_s": t_nocse,
            "speedup": t_nocse / t_cse,
            "floor": 1.2 if quick else 1.3,
        },
        "memory": {
            "scenarios": mc_scenarios,
            "peak_single_chunk_bytes": peak_single,
            "peak_full_sweep_bytes": peak_full,
            "eager_block_bytes": eager_block,
            "ceiling_ratio": peak_full / peak_single,
            "eager_fraction": peak_full / eager_block,
            # The executor's peak is scale-invariant while the eager
            # block grows with S, so the fraction ceiling is looser at
            # the quick test's reduced scenario count.
            "eager_ceiling": 0.25 if quick else 0.1,
            "mean_delay_s": mean_delay,
        },
        "bitwise": {
            "samples": pin_samples,
            "lazy_matches_eager": bitwise,
        },
    }


def check_lazy(results: dict) -> list:
    failures = []
    cse = results["cse"]
    if cse["speedup"] < cse["floor"]:
        failures.append(
            f"CSE speedup {cse['speedup']:.2f}x below the "
            f"{cse['floor']}x floor"
        )
    memory = results["memory"]
    if memory["ceiling_ratio"] > 2.0:
        failures.append(
            "full-sweep peak is "
            f"{memory['ceiling_ratio']:.2f}x the single-chunk peak "
            "(ceiling 2.0x): chunking is not bounding memory"
        )
    if memory["eager_fraction"] > memory["eager_ceiling"]:
        failures.append(
            "full-sweep peak is "
            f"{memory['eager_fraction']:.1%} of the eager block "
            f"(ceiling {memory['eager_ceiling']:.0%})"
        )
    if not results["bitwise"]["lazy_matches_eager"]:
        failures.append("lazy sample_delays diverged from the eager path")
    return failures


@pytest.mark.perf
def test_lazy_quick(tmp_path):
    """The CI contract: relaxed CSE floor, full memory/bitwise gates."""
    results = run_lazy(quick=True)
    (tmp_path / "BENCH_lazy.json").write_text(json.dumps(results, indent=2))
    failures = check_lazy(results)
    assert not failures, failures


def test_lazy_full(report):
    """Full paper-scale run; writes BENCH_lazy.json at the root."""
    results = run_lazy(quick=False)
    RESULT_LAZY_PATH.write_text(json.dumps(results, indent=2) + "\n")
    cse, memory = results["cse"], results["memory"]
    report.table(
        ("gate", "value", "bound"),
        [
            ("cse speedup", f"{cse['speedup']:.2f}x", f">={cse['floor']}x"),
            (
                "peak vs single chunk",
                f"{memory['ceiling_ratio']:.2f}x",
                "<=2.0x",
            ),
            (
                "peak vs eager block",
                f"{memory['eager_fraction']:.2%}",
                f"<={memory['eager_ceiling']:.0%}",
            ),
            (
                "bitwise pin",
                str(results["bitwise"]["lazy_matches_eager"]),
                "True",
            ),
        ],
    )
    report.line(
        f"{memory['scenarios']:,} scenarios peaked at "
        f"{memory['peak_full_sweep_bytes'] / 1e6:.1f} MB; the eager "
        f"block alone is {memory['eager_block_bytes'] / 1e6:.1f} MB"
    )
    failures = check_lazy(results)
    assert not failures, failures
