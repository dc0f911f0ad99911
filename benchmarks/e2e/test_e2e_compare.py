"""Unit tests of compare.py on synthetic paired samples (no benchmarking)."""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_compare", HERE / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_clear_latency_win():
    faster = [x * 0.8 for x in BASE]
    row = compare.verdict(BASE, faster, "lower", 0.1)
    assert row["status"] == "win"
    assert row["wins"] == 10
    assert row["change"] == pytest.approx(-0.2, abs=1e-3)


def test_win_needs_ten_pairs():
    row = compare.verdict(BASE[:9], [x * 0.8 for x in BASE[:9]], "lower", 0.1)
    assert row["status"] == "ok"


def test_win_needs_nine_tenths_of_pairs():
    mixed = [x * 0.8 for x in BASE[:8]] + [x * 1.01 for x in BASE[8:]]
    assert compare.verdict(BASE, mixed, "lower", 0.1)["wins"] == 8
    assert compare.verdict(BASE, mixed, "lower", 0.1)["status"] == "ok"


def test_win_needs_gap_wider_than_parent_iqr():
    # Every pair wins, by less than the parent's own quartile spread.
    nudged = [x - 0.01 for x in BASE]
    row = compare.verdict(BASE, nudged, "lower", 0.1)
    assert row["wins"] == 10
    assert row["status"] == "ok"


def test_ties_count_for_neither_side():
    row = compare.verdict(BASE, list(BASE), "lower", 0.1)
    assert row["wins"] == 0
    assert row["status"] == "ok"


def test_throughput_direction():
    higher = [x * 1.3 for x in BASE]
    assert compare.verdict(BASE, higher, "higher", 0.1)["status"] == "win"
    assert compare.verdict(higher, BASE, "higher", 0.1)["status"] == "regression"


def test_regression_beyond_bound():
    slower = [x * 1.15 for x in BASE]
    assert compare.verdict(BASE, slower, "lower", 0.1)["status"] == "regression"
    within = [x * 1.05 for x in BASE]
    assert compare.verdict(BASE, within, "lower", 0.1)["status"] == "ok"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0]
    row = compare.verdict(BASE, noisy, "lower", 0.1)
    assert row["spread"] > 0.1
    assert row["status"] == "unresolved"


def test_noisy_but_every_run_better_is_resolved():
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0]
    better = [x / 20.0 for x in noisy]
    assert compare.verdict(noisy, better, "lower", 0.1)["status"] == "win"
    assert compare.verdict(noisy[:5], better[:5], "lower", 0.1)["status"] == "ok"


def test_needs_two_pairs():
    with pytest.raises(ValueError):
        compare.verdict([1.0], [1.0], "lower", 0.1)


def _records(path, factor):
    with open(path, "w") as handle:
        for seed, base in enumerate(BASE):
            metrics = {
                metric["name"]: {"value": base * factor, "unit": metric["unit"]}
                for metric in SPEC["end_to_end"]
            }
            record = {"workload": "eco_edits", "seed": seed, "trace": 0,
                      "result": {"metrics": metrics}}
            handle.write(json.dumps(record) + "\n")
            traced = dict(record, trace=1)
            handle.write(json.dumps(traced) + "\n")


SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def test_main_flags_regressions(tmp_path, capsys):
    _records(tmp_path / "a.jsonl", 1.0)
    _records(tmp_path / "b.jsonl", 1.0)
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    _records(tmp_path / "c.jsonl", 1.5)
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "c.jsonl")]) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "win" in out


def test_duplicate_seed_is_rejected(tmp_path):
    _records(tmp_path / "a.jsonl", 1.0)
    first = (tmp_path / "a.jsonl").read_text().splitlines(keepends=True)[0]
    with open(tmp_path / "a.jsonl", "a") as handle:
        handle.write(first)
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl")]) == 2
