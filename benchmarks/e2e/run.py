"""End-to-end benchmark of the repro package: one workload per run.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]

Workloads: ``serve_point``, ``analyze_cli``, ``eco_edits``, ``mc_sweep``
(see README.md). The inputs are generated from ``--seed``; the workload
then runs in a fresh worker process with ``PYTHONHASHSEED=--seed`` and
the package imported from ``src/`` of this checkout. ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json) is the operation time one
run measures. Before an untraced run's measuring worker, up to four
extra worker processes only set up and run one operation; ``setup_s`` is
the median over all of them.

Prints every metric with its unit, then, as the last stdout line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Untraced
runs report the end-to-end metrics of BENCHMARK.json, traced runs
(``--trace 1``) the per-layer ones; a layer a workload never enters
reports 0. ``--out`` appends the result, with an environment block, as
one JSON line to FILE for ``compare.py``. ``--spans`` writes the traced
run's spans to FILE as JSON lines.

Exits 2 without a result when the checkout has no ``src/repro``, and 1
when a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_e2e"
WORKLOADS = ("serve_point", "analyze_cli", "eco_edits", "mc_sweep")

#: Whole-run budget, under the 180 s a run may take.
DEADLINE_S = 170.0
MAX_SETUP_PROBES = 4


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(args, inputs: Path, env: dict, deadline: float,
            setup_only: bool) -> dict:
    """Run one worker process to completion; its last stdout line is its
    result. The worker runs in its own session so that a timeout kills
    the server it may have started too."""
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--inputs", str(inputs),
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at),
    ]
    if setup_only:
        command.append("--setup-only")
    elif args.spans:
        command += ["--spans", str(Path(args.spans).resolve())]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, text=True, start_new_session=True,
    )
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)  # an orphaned server
        raise RuntimeError(
            f"{args.workload} worker exited with {process.returncode}"
        )
    return json.loads(lines[-1])


def environment() -> dict:
    """Commit, interpreter, NumPy, core counts and runtime defaults."""
    from dataclasses import asdict

    import numpy

    from repro.engine import effective_cpu_count
    from repro.runtime import RuntimeConfig

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
        commit = probe.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "runtime_config_defaults": {
            key: value if value is None or isinstance(value, (int, float, str))
            else repr(value)
            for key, value in asdict(RuntimeConfig()).items()
        },
    }


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the result as one JSON line to FILE")
    parser.add_argument("--spans", default=None,
                        help="write a traced run's spans to FILE")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")

    deadline = time.monotonic() + DEADLINE_S
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import prepare

    inputs = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    env["PYTHONHASHSEED"] = str(args.seed)
    try:
        prepare(args.workload, args.seed, inputs)
        # A traced run reports no setup_s, so it needs no probes.
        probes = min(MAX_SETUP_PROBES, int(args.seconds // 3))
        setups = [
            _worker(args, inputs, env, deadline, setup_only=True)["setup_s"]
            for _ in range(0 if args.trace else probes)
        ]
        result = _worker(args, inputs, env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    setups.append(result["setup_s"])

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in spec[kind]}
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    unknown = set(values) - set(declared)
    if unknown:
        print(f"error: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 1
    missing = set(declared) - set(values)
    if not args.trace and missing:
        print(f"error: metrics not measured {sorted(missing)}",
              file=sys.stderr)
        return 1
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    attempted, failed = result["attempted"], result["failed"]
    output = {
        "correct": failed == 0 and result["checked"] > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {attempted} ops, {failed} failed, "
        f"{result['checked']} outputs checked, setup from {len(setups)} "
        "process(es)"
    )
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": output,
            "env": environment(),
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
