"""Auto-calibrated serial/sharded crossover for the planner.

The planner's static :data:`~repro.runtime.planner.SHARDED_MIN_CELLS`
is a guess; this module replaces it with a measurement.
:func:`run_calibration` times the *same* scenario batch through the
serial in-process engine and through the warm sharded pool at a few
sizes, fits the linear cost model

    ``cost(cells) = overhead + per_cell * cells``

to each curve, and solves for the break-even batch size. The resulting
:class:`CrossoverCalibration` plugs into
:class:`~repro.runtime.config.RuntimeConfig` (``calibration=``), where
the planner consults :meth:`CrossoverCalibration.sharded_wins` instead
of the static ``SHARDED_MIN_CELLS`` threshold — the *never slower than
serial* guarantee: below break-even the batch stays on the in-process
kernels (identical numbers, no dispatch overhead), above it the pool
pays off.

On a box where sharding never wins (one effective core, enormous
dispatch overhead), the fitted curves do not cross and
``breakeven_cells`` is ``None`` — the planner then routes *everything*
serial, which is exactly right there.

Calibrations persist as JSON (``BENCH_crossover.json`` at the repo
root by convention) so one measurement serves many runs:
:func:`save_calibration` / :func:`load_calibration`.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..circuit.builders import balanced_tree
from ..errors import ConfigurationError
from ..engine import dispatch as _dispatch
from ..engine.compiled import compile_tree
from ..engine.sharded import analyze_batch_sharded, dispatch_pool
from ..engine.table import analyze_batch

__all__ = [
    "CrossoverCalibration",
    "run_calibration",
    "save_calibration",
    "load_calibration",
    "plan_shards",
    "reset_calibration_warnings",
]

#: Common prefix of every calibration warning; the targeted pytest
#: ``filterwarnings`` entry in pyproject.toml matches on it.
_CALIBRATION_PREFIX = "repro.runtime calibration"

#: Warn-once keys that already fired this process.
_calibration_warned: Set[str] = set()


def _warn_calibration(key: str, message: str) -> None:
    """Warn (once per key) about a degraded calibration situation."""
    if key in _calibration_warned:
        return
    _calibration_warned.add(key)
    warnings.warn(
        f"{_CALIBRATION_PREFIX}: {message}", RuntimeWarning, stacklevel=3
    )


def reset_calibration_warnings() -> None:
    """Forget which calibration problems already warned (test isolation)."""
    _calibration_warned.clear()

#: Default file name for a persisted calibration (repo-root convention,
#: matching the ``BENCH_*.json`` benchmark artifacts).
CALIBRATION_FILE = "BENCH_crossover.json"

#: Batch sizes (scenario counts) the default calibration samples.
DEFAULT_SIZES: Tuple[int, ...] = (64, 256, 1024, 4096)

#: Nodes in the synthetic calibration tree (balanced binary, 5 levels).
_CALIBRATION_LEVELS = 5


@dataclass(frozen=True)
class CrossoverCalibration:
    """A fitted serial-vs-sharded cost model for one machine.

    ``serial_overhead``/``serial_per_cell`` and ``sharded_overhead``/
    ``sharded_per_cell`` are the fitted coefficients of
    ``cost(cells) = overhead + per_cell * cells`` in seconds;
    ``breakeven_cells`` is the batch size (scenarios x nodes) where the
    curves cross, or ``None`` when sharding never wins on this machine.
    ``samples`` keeps the raw ``(cells, serial_s, sharded_s)`` points
    for inspection and re-fitting.
    """

    workers: int
    serial_overhead: float
    serial_per_cell: float
    sharded_overhead: float
    sharded_per_cell: float
    breakeven_cells: Optional[int]
    samples: Tuple[Tuple[int, float, float], ...] = ()

    def __post_init__(self):
        # Costs are physical: a noisy least-squares fit can hand back a
        # (slightly) negative intercept, which would make
        # predicted_serial() negative for small batches and skew every
        # downstream break-even comparison. Clamp at construction so
        # every path in — run_calibration, load_calibration of a legacy
        # file, hand-built test fixtures — gets a sane model.
        for name in (
            "serial_overhead",
            "serial_per_cell",
            "sharded_overhead",
            "sharded_per_cell",
        ):
            value = getattr(self, name)
            if value < 0.0:
                object.__setattr__(self, name, 0.0)

    def sharded_wins(self, cells: int) -> bool:
        """True when the fitted model says the pool beats serial."""
        return self.breakeven_cells is not None and cells >= self.breakeven_cells

    def predicted_serial(self, cells: int) -> float:
        return self.serial_overhead + self.serial_per_cell * cells

    def predicted_sharded(self, cells: int) -> float:
        return self.sharded_overhead + self.sharded_per_cell * cells


def _fit_line(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares ``(overhead, per_cell)`` for ``y = a + b*x``.

    The intercept is clamped at zero: timings are positive, so a
    negative fitted overhead is pure regression noise (small samples
    dominated by the per-cell term), and letting it through would
    predict negative cost for small batches.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size == 1:
        return 0.0, float(y[0] / max(x[0], 1.0))
    coeffs = np.polyfit(x, y, 1)
    return max(0.0, float(coeffs[1])), float(coeffs[0])


def _breakeven(
    serial: Tuple[float, float], sharded: Tuple[float, float]
) -> Optional[int]:
    """Cells where the sharded line drops below the serial line.

    ``None`` when the sharded slope is not strictly smaller — then the
    pool loses at every size and the planner should never route to it.
    """
    a_s, b_s = serial
    a_p, b_p = sharded
    if b_p >= b_s:
        return None
    crossing = (a_p - a_s) / (b_s - b_p)
    return max(1, int(np.ceil(crossing)))


def run_calibration(
    workers: Optional[int] = None,
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 3,
    measure: Optional[Callable[[str, int, int], float]] = None,
) -> CrossoverCalibration:
    """Measure serial vs sharded cost and fit the crossover model.

    For each scenario count in ``sizes``, the same random batch over a
    fixed balanced tree is timed ``repeats`` times through the serial
    :func:`~repro.engine.table.analyze_batch` and through
    :func:`~repro.engine.sharded.analyze_batch_sharded` inside a warm
    :func:`~repro.engine.dispatch.dispatch_pool` (pool spin-up is paid
    once, not charged to any sample — matching how a calibrated
    long-running process actually dispatches). The best-of-``repeats``
    time per point feeds the linear fit.

    ``measure`` is the injectable timing hook for deterministic tests:
    ``measure(mode, scenarios, cells) -> seconds`` with ``mode`` in
    ``{"serial", "sharded"}``; when given, no engine work runs at all.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if not sizes:
        raise ConfigurationError("sizes must not be empty")
    if workers is None:
        workers = _dispatch.effective_cpu_count()
    workers = max(1, int(workers))

    tree = balanced_tree(
        _CALIBRATION_LEVELS,
        resistance=10.0,
        inductance=1e-9,
        capacitance=1e-13,
    )
    compiled = compile_tree(tree)
    n = compiled.size
    rng = np.random.default_rng(20260808)

    def _measure(mode: str, scenarios: int, cells: int) -> float:
        if measure is not None:
            return measure(mode, scenarios, cells)
        rlc = rng.uniform(0.5, 2.0, size=(scenarios, 3, n))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            if mode == "serial":
                analyze_batch(compiled, rlc)
            else:
                analyze_batch_sharded(
                    compiled, rlc, shards=workers, workers=workers
                )
            best = min(best, time.perf_counter() - start)
        return best

    samples = []
    if measure is None and workers > 1:
        with dispatch_pool(workers=workers):
            # Warm the pool and the arenas before the first timed run.
            warm = rng.uniform(0.5, 2.0, size=(max(sizes), 3, n))
            analyze_batch_sharded(compiled, warm, shards=workers, workers=workers)
            for scenarios in sizes:
                cells = scenarios * n
                serial_s = _measure("serial", scenarios, cells)
                sharded_s = _measure("sharded", scenarios, cells)
                samples.append((cells, serial_s, sharded_s))
    else:
        for scenarios in sizes:
            cells = scenarios * n
            serial_s = _measure("serial", scenarios, cells)
            sharded_s = _measure("sharded", scenarios, cells)
            samples.append((cells, serial_s, sharded_s))

    xs = [cells for cells, _, _ in samples]
    serial_fit = _fit_line(xs, [s for _, s, _ in samples])
    sharded_fit = _fit_line(xs, [p for _, _, p in samples])
    breakeven = _breakeven(serial_fit, sharded_fit)
    if workers <= 1:
        # One effective worker: the pool cannot beat serial, whatever a
        # noisy fit happens to say — route everything in-process.
        breakeven = None
    return CrossoverCalibration(
        workers=workers,
        serial_overhead=serial_fit[0],
        serial_per_cell=serial_fit[1],
        sharded_overhead=sharded_fit[0],
        sharded_per_cell=sharded_fit[1],
        breakeven_cells=breakeven,
        samples=tuple(samples),
    )


def save_calibration(
    calibration: CrossoverCalibration, path: Union[str, Path] = CALIBRATION_FILE
) -> Path:
    """Persist a calibration as JSON; returns the written path.

    The write is atomic: the payload goes to a temporary file in the
    destination directory and lands via :func:`os.replace`, so a crash
    mid-write leaves either the old file or the new one — never a
    truncated JSON document that poisons every later
    :func:`load_calibration`.
    """
    path = Path(path)
    payload = asdict(calibration)
    payload["samples"] = [list(sample) for sample in calibration.samples]
    text = json.dumps(payload, indent=2) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_calibration(
    path: Union[str, Path] = CALIBRATION_FILE,
) -> Optional[CrossoverCalibration]:
    """Load a persisted calibration; ``None`` when the file is corrupt.

    A missing file still raises :exc:`FileNotFoundError` (the caller
    asked for a specific path that is not there), but a file that
    exists and cannot be decoded degrades to *uncalibrated* — a
    warn-once ``RuntimeWarning`` names the file and the runtime falls
    back to the static routing thresholds instead of refusing to start.
    A long-lived service must not be held down across restarts by one
    bad artifact on disk.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        return CrossoverCalibration(
            workers=int(payload["workers"]),
            serial_overhead=float(payload["serial_overhead"]),
            serial_per_cell=float(payload["serial_per_cell"]),
            sharded_overhead=float(payload["sharded_overhead"]),
            sharded_per_cell=float(payload["sharded_per_cell"]),
            breakeven_cells=(
                None
                if payload["breakeven_cells"] is None
                else int(payload["breakeven_cells"])
            ),
            samples=tuple(
                (int(c), float(s), float(p)) for c, s, p in payload["samples"]
            ),
        )
    except FileNotFoundError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        _warn_calibration(
            f"corrupt:{path}",
            f"calibration file {path} is corrupt ({exc}); continuing "
            "uncalibrated — re-run the crossover benchmark to regenerate it",
        )
        return None


def plan_shards(
    cells: int,
    workers: int,
    calibration: Optional[CrossoverCalibration] = None,
) -> int:
    """Cost-model shard count: fewer, larger shards when overhead bites.

    Per-shard dispatch overhead is amortized over the shard's cells, so
    a batch near the break-even point wants *fewer* shards than workers
    — each extra shard buys parallelism but costs one more round of
    descriptor pickling and result handling. Without a calibration (or
    below break-even), this degrades to ``workers`` shards, the
    pre-calibration behaviour.
    """
    workers = max(1, workers)
    if (
        calibration is None
        or calibration.breakeven_cells is None
        or cells <= 0
    ):
        return workers
    # Each shard should carry at least ~half the break-even cell count;
    # smaller shards spend more on dispatch than they win back in
    # parallelism. Cap at the worker count — more shards than workers
    # only adds queueing.
    min_cells_per_shard = max(1, calibration.breakeven_cells // 2)
    return max(1, min(workers, cells // min_cells_per_shard))
