"""Every module of the package imports, and every ``__all__`` entry
resolves.

A stale export (a name left in ``__all__`` after its definition was
deleted) only fails at ``from module import *`` time or for the first
caller that reaches for it; this walk catches it in the ordinary suite.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_walk_finds_the_subpackages():
    for name in ("repro.engine", "repro.runtime", "repro.sweep"):
        assert name in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def test_runtime_config_knobs_are_pinned():
    # A new knob edits this tuple, in plain view of review.
    from dataclasses import fields

    from repro.runtime import RuntimeConfig

    assert tuple(f.name for f in fields(RuntimeConfig)) == (
        "backend",
        "workers",
        "shard_timeout",
        "max_retries",
        "calibration",
    )


def test_guarded_analyzer_knobs_are_pinned():
    # A new knob edits this tuple, in plain view of review.
    import inspect

    from repro import GuardedAnalyzer

    params = tuple(inspect.signature(GuardedAnalyzer.__init__).parameters)
    assert params == (
        "self",
        "tree",
        "settle_band",
        "chain",
        "policy",
        "awe_order",
        "max_rescale_retries",
        "context",
    )


@pytest.mark.parametrize(
    "module, name, keywords",
    [
        (
            "repro.sweep.execute",
            "run_sweep",
            ("nodes", "metrics", "chunk_size", "settle_band", "backend",
             "context"),
        ),
        (
            "repro.sweep.execute",
            "iter_sweep",
            ("chunk_size", "settle_band", "metrics", "backend", "context"),
        ),
        ("repro.apps.variation", "sample_delays", ("chunk_size", "context")),
        ("repro.apps.wire_sizing", "sweep_widths", ("chunk_size", "context")),
        ("repro.apps.wire_sizing", "optimize_width", ("context",)),
        ("repro.apps.clock_skew", "skew_report", ("context",)),
        ("repro.apps.repeater_insertion", "stage_delay", ("context",)),
        ("repro.apps.repeater_insertion", "total_path_delay", ("context",)),
        ("repro.apps.repeater_insertion", "optimize_repeaters", ("context",)),
        ("repro.apps.buffer_insertion", "insert_buffers", ("context",)),
        ("repro.apps.clock_tuning", "model_skew", ("context",)),
        ("repro.apps.clock_tuning", "tune_clock_tree", ("context",)),
    ],
)
def test_entry_point_keywords_are_pinned(module, name, keywords):
    # One way to pass a runtime (``context=``), no eager second path: a
    # new keyword edits its tuple, in plain view of review.
    import inspect

    function = getattr(importlib.import_module(module), name)
    params = inspect.signature(function).parameters.values()
    assert tuple(
        p.name for p in params if p.kind is p.KEYWORD_ONLY
    ) == keywords
