"""Cold-start guard: the paper's closed-form path never imports SciPy.

Only the Fig. 6 curve fit, the transient solver and the apps call
SciPy, and each imports it inside the function that calls it. Every
case here runs in a fresh interpreter, so modules the test session
already loaded cannot hide a module-level import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuit import dumps, fig5_tree

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``python -m repro <argv>`` and reports the SciPy modules it
# loaded as the last line on stderr.
RUN_CLI = """
import json, runpy, sys
sys.argv = ["repro"] + sys.argv[1:]
status = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")),
      file=sys.stderr)
sys.exit(status)
"""

IMPORT_ONLY = """
import json, sys
import {module}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_analyze_csv_loads_no_scipy(tmp_path):
    netlist = tmp_path / "fig5.sp"
    netlist.write_text(dumps(fig5_tree()))
    result = _run(["-c", RUN_CLI, "analyze", str(netlist), "--csv"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("node,zeta,omega_n,delay_50")
    assert json.loads(result.stderr.splitlines()[-1]) == []


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.service", "repro.sweep"]
)
def test_import_loads_no_scipy(module):
    result = _run(["-c", IMPORT_ONLY.format(module=module)])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
