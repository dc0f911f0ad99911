"""Unit tests for the command-line interface (driven in-process)."""

import pytest

from repro.circuit import dumps, fig5_tree, fig8_tree
from repro.cli import main


@pytest.fixture
def netlist_path(tmp_path):
    path = tmp_path / "net.sp"
    path.write_text(dumps(fig8_tree()))
    return str(path)


@pytest.fixture
def fig5_path(tmp_path):
    path = tmp_path / "fig5.sp"
    path.write_text(dumps(fig5_tree()))
    return str(path)


class TestAnalyze:
    def test_table_lists_all_nodes(self, netlist_path, capsys):
        assert main(["analyze", netlist_path]) == 0
        out = capsys.readouterr().out
        for node in fig8_tree().nodes:
            assert node in out
        assert "zeta" in out

    def test_node_filter(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--node", "out"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2  # header + one row
        assert "out" in lines[1]

    def test_csv_output(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("node,zeta,")
        assert len(out) == 1 + len(fig8_tree().nodes)
        fields = out[1].split(",")
        assert len(fields) == 8
        float(fields[1])  # zeta parses

    @pytest.mark.parametrize("mode", [["--unguarded"], []])
    def test_whole_tree_csv_is_the_session_report(self, tmp_path, capsys, mode):
        # Without --node both analyzers emit the session's bulk report,
        # byte for byte.
        import numpy as np

        from repro.circuit import random_tree
        from repro.circuit.netlist import loads
        from repro.runtime import ExecutionContext

        path = tmp_path / "random.sp"
        path.write_text(dumps(random_tree(400, np.random.default_rng(5))))
        assert main(["analyze", str(path), "--csv", *mode]) == 0
        out = capsys.readouterr().out
        with ExecutionContext() as ctx:
            rows = ctx.session(loads(path.read_text())).report()
        expected = [
            "node,zeta,omega_n,delay_50,rise_time,overshoot,settling,"
            "elmore_delay"
        ] + [
            f"{t.node},{t.zeta:.6g},{t.omega_n:.6g},{t.delay_50:.6g},"
            f"{t.rise_time:.6g},{t.overshoot:.6g},{t.settling:.6g},"
            f"{t.elmore_delay:.6g}"
            for t in rows
        ]
        assert out == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("mode", [["--unguarded"], []])
    def test_node_rows_are_one_report_call(
        self, netlist_path, capsys, monkeypatch, mode
    ):
        # --node prints the matching full-CSV lines in the requested
        # order (repeats included) from a single report() call.
        from repro.robustness import GuardedAnalyzer
        from repro.runtime import Session

        assert main(["analyze", netlist_path, "--csv", *mode]) == 0
        full = capsys.readouterr().out.splitlines()
        by_node = {line.split(",")[0]: line for line in full[1:]}
        calls = []
        for cls in (GuardedAnalyzer, Session):
            original = cls.report

            def counting(self, nodes=None, _original=original):
                calls.append(nodes)
                return _original(self, nodes)

            monkeypatch.setattr(cls, "report", counting)
        a, b = fig8_tree().nodes[-1], fig8_tree().nodes[0]
        argv = ["analyze", netlist_path, "--csv", *mode,
                "--node", a, "--node", b, "--node", a]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [full[0], by_node[a], by_node[b], by_node[a]]
        assert calls == [[a, b, a]]

    @pytest.mark.parametrize("mode", [["--unguarded"], []])
    def test_unknown_node_is_an_error(self, netlist_path, capsys, mode):
        code = main(["analyze", netlist_path, *mode, "--node", "zzz"])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown node 'zzz'\n"

    @pytest.mark.parametrize("backend", ["scalar", "compiled", "incremental"])
    def test_unguarded_out_of_domain_net_is_an_error(
        self, tmp_path, capsys, backend
    ):
        # R = 0 puts node a outside the closed forms' domain (T_RC = 0).
        path = tmp_path / "lc.sp"
        path.write_text("V1 in 0 1\nL1 in a 1n\nC1 a 0 1p\n.end\n")
        code = main(
            ["analyze", str(path), "--csv", "--unguarded", "--backend", backend]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "node," not in captured.out

    def test_missing_file_is_error(self, capsys):
        assert main(["analyze", "/nonexistent/net.sp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_netlist_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.sp"
        path.write_text("R1 a b not_a_number\n")
        assert main(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_step_waveform_csv(self, netlist_path, capsys):
        assert main(
            ["simulate", netlist_path, "--node", "out", "--points", "21"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "time,v_exact"
        assert len(out) == 22
        last = [float(x) for x in out[-1].split(",")]
        assert last[1] == pytest.approx(1.0, rel=0.05)

    def test_model_column(self, netlist_path, capsys):
        assert main(
            ["simulate", netlist_path, "--node", "out", "--points", "11",
             "--model"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "time,v_exact,v_model"
        assert len(out[1].split(",")) == 3

    @pytest.mark.parametrize("kind", ["exp", "ramp"])
    def test_shaped_inputs(self, netlist_path, capsys, kind):
        assert main(
            ["simulate", netlist_path, "--node", "out", "--points", "31",
             "--input", kind, "--rise-time", "200p"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 32

    def test_explicit_horizon(self, netlist_path, capsys):
        assert main(
            ["simulate", netlist_path, "--node", "out", "--points", "3",
             "--t-end", "1n"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[-1].split(",")[0]) == pytest.approx(1e-9)


class TestSensitivity:
    def test_full_gradient(self, netlist_path, capsys):
        assert main(["sensitivity", netlist_path, "--node", "out"]) == 0
        out = capsys.readouterr().out
        assert "d/dR" in out
        for node in fig8_tree().nodes:
            assert node in out

    def test_top_k(self, netlist_path, capsys):
        assert main(
            ["sensitivity", netlist_path, "--node", "out", "--top", "2"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # title + header + 2 rows

    def test_rise_metric(self, fig5_path, capsys):
        assert main(
            ["sensitivity", fig5_path, "--node", "n7", "--metric", "rise"]
        ) == 0
        assert "rise at n7" in capsys.readouterr().out


class TestCompare:
    def test_table(self, netlist_path, capsys):
        assert main(
            ["compare", netlist_path, "--node", "out", "--points", "4001"]
        ) == 0
        out = capsys.readouterr().out
        assert "model delay" in out
        assert "out" in out

    def test_csv(self, netlist_path, capsys):
        assert main(
            ["compare", netlist_path, "--node", "out", "--node", "n1",
             "--points", "4001", "--csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("node,model_delay,exact_delay")
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "out"
        # sink error must be modest (the Fig. 15 story: sinks are good)
        assert float(fields[3]) < 15.0

    def test_all_nodes_default(self, fig5_path, capsys):
        assert main(["compare", fig5_path, "--points", "4001", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8  # header + 7 nodes


class TestFit:
    def test_delay_fit_reports_eq33_class(self, capsys):
        assert main(["fit", "--metric", "delay"]) == 0
        out = capsys.readouterr().out
        assert "exp_plus_linear" in out
        assert "max relative error" in out

    def test_rise_fit(self, capsys):
        assert main(["fit", "--metric", "rise"]) == 0
        assert "cubic_rational" in capsys.readouterr().out


class TestWindow:
    BASE = ["window", "--width", "4u", "--thickness", "1u", "--height",
            "2u", "--rise-time", "50p"]

    def test_rlc_regime(self, capsys):
        assert main(self.BASE + ["--length", "5m"]) == 0
        assert "regime = rlc" in capsys.readouterr().out

    def test_rc_regime_long_line(self, capsys):
        assert main(self.BASE + ["--length", "100m"]) == 0
        assert "regime = rc" in capsys.readouterr().out

    def test_empty_window_for_narrow_wire(self, capsys):
        argv = ["window", "--width", "0.2u", "--thickness", "0.3u",
                "--height", "1u", "--rise-time", "50p", "--length", "5m"]
        assert main(argv) == 0
        assert "empty" in capsys.readouterr().out

    def test_bad_geometry_is_error(self, capsys):
        argv = ["window", "--width", "0", "--thickness", "1u",
                "--height", "1u", "--rise-time", "50p", "--length", "1m"]
        assert main(argv) == 2


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


@pytest.mark.robustness
class TestExitCodes:
    """The CLI contract: an answer, or one line on stderr and a nonzero
    exit code — never a traceback (unless --debug asks for one)."""

    def test_success_is_zero(self, netlist_path):
        assert main(["analyze", netlist_path]) == 0

    def test_repro_error_is_two_with_one_line(self, netlist_path, capsys):
        # An out-of-range settle band is a ConfigurationError.
        code = main(["analyze", netlist_path, "--settle-band", "7.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_file_is_two(self, capsys):
        assert main(["analyze", "/no/such/file.sp"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_debug_reraises(self, netlist_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["--debug", "analyze", netlist_path, "--settle-band", "7.0"])

    def test_rc_limit_simulate_model_is_typed(self, tmp_path, capsys):
        from repro.circuit import dumps, single_line

        rc = single_line(3, resistance=100.0, inductance=0.0,
                         capacitance=0.1e-12)
        path = tmp_path / "rc.sp"
        path.write_text(dumps(rc))
        code = main(["simulate", str(path), "--node", "n3", "--points",
                     "11", "--model"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_guarded_analyze_warns_on_hostile_netlist(self, tmp_path,
                                                      capsys):
        from repro.circuit import RLCTree, dumps

        tree = RLCTree()
        tree.add_section("a", "in", resistance=1e-6, inductance=0.0,
                         capacitance=1e-12)
        tree.add_section("b", "a", resistance=1e9, inductance=0.0,
                         capacitance=1e-12)
        path = tmp_path / "hostile.sp"
        path.write_text(dumps(tree))
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert "dynamic-range" in captured.err
        assert "a" in captured.out and "b" in captured.out

    def test_unguarded_flag_still_works(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--unguarded", "--csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("node,zeta,")

    def test_repair_flag_rescues_zero_capacitance(self, tmp_path, capsys):
        # An explicit C = 0 line survives netlist parsing (an omitted
        # one would make loads() fold the node away).
        path = tmp_path / "zeroc.sp"
        path.write_text(
            "* zero-capacitance node\n"
            "Vin in 0 PWL\n"
            "Rn1 in n1__m 10.0\n"
            "Ln1 n1__m n1 1e-09\n"
            "Cn1 n1 0 1e-13\n"
            "Rn2 n1 n2__m 10.0\n"
            "Ln2 n2__m n2 1e-09\n"
            "Cn2 n2 0 0\n"
            "Rn3 n2 n3__m 10.0\n"
            "Ln3 n3__m n3 1e-09\n"
            "Cn3 n3 0 1e-13\n"
            ".end\n"
        )
        assert main(["analyze", str(path), "--repair", "--csv"]) == 0
        captured = capsys.readouterr()
        assert "n2" in captured.out
        assert "zero-capacitance" in captured.err


class TestDebugCacheDump:
    """--debug appends the engine cache/counter groups to stderr."""

    def test_debug_prints_engine_caches(self, netlist_path, capsys):
        assert main(["--debug", "analyze", netlist_path]) == 0
        err = capsys.readouterr().err
        assert "engine caches:" in err
        assert "topology:" in err
        assert "incremental:" in err
        assert "preorder_builds=" in err
        assert "analyzers=" in err

    def test_without_debug_no_cache_dump(self, netlist_path, capsys):
        assert main(["analyze", netlist_path]) == 0
        assert "engine caches:" not in capsys.readouterr().err

    def test_debug_dump_reflects_activity(self, netlist_path, capsys):
        from repro.engine import clear_topology_cache

        clear_topology_cache()
        assert main(["--debug", "analyze", netlist_path]) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if "topology:" in l)
        counters = dict(
            pair.strip().split("=")
            for pair in line.split(":", 1)[1].split(", ")
        )
        assert int(counters["size"]) >= 0
        assert int(counters["misses"]) + int(counters["hits"]) >= 1


class TestRuntimeStatsDump:
    """--debug also reports per-backend dispatch counts from the context."""

    def test_debug_prints_runtime_stats(self, netlist_path, capsys):
        assert main(["--debug", "analyze", netlist_path]) == 0
        err = capsys.readouterr().err
        assert "runtime stats:" in err
        for group in ("dispatch:", "workloads:", "plans:", "pool:", "phases:"):
            assert group in err
        line = next(l for l in err.splitlines() if "dispatch:" in l)
        assert "compiled=" in line  # whole-table analyze routes to compiled

    def test_forced_backend_counts_as_forced_plan(self, netlist_path, capsys):
        assert main(
            ["--debug", "analyze", netlist_path, "--backend", "scalar"]
        ) == 0
        err = capsys.readouterr().err
        dispatch = next(l for l in err.splitlines() if "dispatch:" in l)
        plans = next(l for l in err.splitlines() if "plans:" in l)
        assert "scalar=" in dispatch
        assert "forced=1" in plans

    def test_backend_choice_never_changes_results(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--csv"]) == 0
        auto = capsys.readouterr().out
        for backend in ("scalar", "compiled", "incremental"):
            assert main(
                ["analyze", netlist_path, "--csv", "--backend", backend]
            ) == 0
            assert capsys.readouterr().out == auto

    def test_unknown_backend_rejected_by_argparse(self, netlist_path, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", netlist_path, "--backend", "turbo"])


class TestServe:
    """The `repro serve` subcommand: flags, boot, drain."""

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8341
        assert args.max_inflight == 8
        assert args.coalesce_window == 0.005
        assert args.max_requests == 0

    def test_serve_boots_answers_and_drains(self, monkeypatch):
        import io
        import json
        import re
        import sys
        import threading
        import time
        import urllib.request

        from repro.circuit import dumps, fig5_tree

        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stderr)
        exit_code = {}

        def run():
            exit_code["value"] = main(
                ["serve", "--port", "0", "--max-requests", "1"]
            )

        thread = threading.Thread(target=run)
        thread.start()
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            match = re.search(r"http://[\d.]+:(\d+)", stderr.getvalue())
            if match:
                port = int(match.group(1))
                break
            time.sleep(0.02)
        assert port is not None, stderr.getvalue()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/analyze",
            data=json.dumps(
                {"netlist": dumps(fig5_tree()), "metrics": ["delay_50"]}
            ).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json.loads(response.read())
        assert response.status == 200
        assert set(body["nodes"]) == set(fig5_tree().nodes)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_code["value"] == 0
        assert "repro service drained" in stderr.getvalue()

    def test_serve_with_calibration_and_workers(self, monkeypatch, tmp_path):
        """--calibration/--workers shape the serving context's config."""
        import io
        import json
        import re
        import sys
        import threading
        import time
        import urllib.request

        from repro.runtime import CrossoverCalibration, save_calibration

        path = tmp_path / "cal.json"
        save_calibration(
            CrossoverCalibration(
                workers=2,
                serial_overhead=1e-4,
                serial_per_cell=2e-7,
                sharded_overhead=5e-4,
                sharded_per_cell=1e-7,
                breakeven_cells=4000,
            ),
            path=path,
        )
        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stderr)
        exit_code = {}

        def run():
            exit_code["value"] = main(
                [
                    "serve", "--port", "0", "--max-requests", "1",
                    "--workers", "2", "--calibration", str(path),
                ]
            )

        thread = threading.Thread(target=run)
        thread.start()
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            match = re.search(r"http://[\d.]+:(\d+)", stderr.getvalue())
            if match:
                port = int(match.group(1))
                break
            time.sleep(0.02)
        assert port is not None, stderr.getvalue()
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/stats", timeout=30
        ) as response:
            stats = json.loads(response.read())
        # Matching --workers: the calibration installed cleanly.
        assert stats["calibration_stale"] is False
        assert stats["service"]["stats"] == 1
        # /stats bypasses admission and does not count toward
        # --max-requests; one admitted request triggers the self-stop.
        from repro.circuit import dumps, fig5_tree

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/analyze",
            data=json.dumps(
                {"netlist": dumps(fig5_tree()), "metrics": ["delay_50"]}
            ).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_code["value"] == 0
