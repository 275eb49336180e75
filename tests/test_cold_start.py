"""No command loads scipy.integrate or scipy.optimize.

The two are most of scipy's import time, and no route needs them: the
forward equations are solved by uniformization and the mixture quadrature
by numpy alone.  Each case runs in a fresh interpreter, so modules that
pytest or other tests have imported do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harrisproc

SRC = str(Path(harrisproc.__file__).resolve().parents[1])
HEAVY = ("scipy.integrate", "scipy.optimize")

CHILD = """
import contextlib, io, json, sys
from harrisproc.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_fresh(argvs):
    """Exit codes of main(argv) for each argv, and the heavy modules loaded."""
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], result["loaded"]


def test_import_loads_neither():
    assert run_fresh([]) == ([], [])


def test_import_builds_no_parser():
    code = ("import harrisproc.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_closed_form_and_simulation_commands_load_neither():
    argvs = [
        ["simulate", "--model", "birth", "--lambda", "0.5", "--k", "2",
         "--t", "1", "--replicas", "2000"],
        ["simulate", "--model", "mixture", "--a", "1", "--k", "2", "--t", "1",
         "--replicas", "10000", "--format", "csv"],
        ["pmf", "--m", "3", "--k", "2"],
        ["pgf", "--m", "3", "--k", "2"],
    ]
    assert run_fresh(argvs) == ([0, 0, 0, 0], [])


def test_quadrature_witness_loads_neither():
    argv = ["mixture-check", "--a", "1", "--k", "2", "--t", "1", "--nmax", "2"]
    assert run_fresh([argv]) == ([0], [])


@pytest.mark.parametrize("argv", [
    ["ode", "--lambda", "0.5", "--k", "2", "--t", "1"],
    ["validate", "--replicas", "5000", "--mixture-draws", "50000"],
])
def test_witness_commands_load_neither(argv):
    assert run_fresh([argv]) == ([0], [])
