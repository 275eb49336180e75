"""Digest every output the benchmark and the demos read, to compare checkouts.

Runs in process, through ``harrisproc.cli.main``, every operation of
``bench/workloads.py`` at seeds 1 and 2, each as given and with
``--format csv`` and ``--format json``; the default ``validate`` in both
formats; the work-bound refusals (exit 2) of ``REFUSALS``; and each demo.
Each outcome is recorded as
``label: [exit_code, sha256(stdout + "\\0" + stderr)]``, the label being
the command line (or the demo's file name); an operation that two seeds
give alike runs once.  An exception that escapes is recorded as exit 1
with its one-line description on stderr.

    python3 tools/output_digests.py > before.json
    python3 tools/output_digests.py --compare before.json

prints the digests as JSON, or, with ``--compare``, the label of every
outcome that differs from (or is missing in) the given file, and exits 1
if there is one.  A run takes about 7 s on two cores.  Only the standard
library and this checkout's ``src/`` are used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from harrisproc.cli import main as cli_main  # noqa: E402

SEEDS = (1, 2)
FORMATS = ((), ("--format", "csv"), ("--format", "json"))
# Runs past the draw budget, the event cap, the --nmax bound or the longest
# goodness-of-fit table, each refused before any draw or quadrature: the
# stderr of each is its refusal message, which holds the text given here
REFUSALS = {
    ("simulate", "--model", "mixture", "--a", "1", "--k", "2", "--t", "1",
     "--replicas", "1000000001"): "draw budget",
    ("simulate", "--model", "birth", "--lambda", "0.5", "--k", "2", "--t", "1",
     "--replicas", "540000000"): "draw budget",
    ("simulate", "--model", "birth", "--lambda", "1", "--k", "1", "--t", "13",
     "--replicas", "2000"): "past 1000000 events",
    ("validate", "--mixture-draws", str(10**12)): "draw budget",
    ("validate", "--mixture-draws", str(10**9 + 1)): "draw budget",
    ("validate", "--calibration-seeds", str(10**5 + 1)): "draw budget",
    ("validate", "--replicas", str(5 * 10**8)): "draw budget",
    ("mixture-check", "--a", "1", "--k", "2", "--t", "1", "--nmax", "100001"):
        "--nmax must be >= 0 and <= 100000",
    ("simulate", "--model", "mixture", "--a", "1", "--k", "1", "--t", "1e12",
     "--replicas", "10000000"): "support truncation exceeded 1000000 terms",
}


def _load_workloads():
    # compiled from its text, so no bytecode cache is written next to it;
    # registered while it runs, as dataclasses look up their module
    path = ROOT / "bench" / "workloads.py"
    module = sys.modules["bench_workloads"] = types.ModuleType("bench_workloads")
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules["bench_workloads"]
    return module


def _digest(run) -> list:
    """[exit code, sha256 of stdout + NUL + stderr] of run()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = 1
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    text = out.getvalue() + "\0" + err.getvalue()
    return [code or 0, hashlib.sha256(text.encode()).hexdigest()]


def argvs():
    """Every command line to digest, once each, in a fixed order."""
    workloads = _load_workloads()
    lines = [("validate",), ("validate", "--format", "json"), *REFUSALS]
    for seed in SEEDS:
        for make in workloads.WORKLOADS.values():
            for op in make(seed).ops:
                lines += [op.argv + extra for extra in FORMATS]
    return list(dict.fromkeys(lines))


def collect() -> dict:
    digests = {" ".join(argv): _digest(lambda argv=argv: cli_main(list(argv)))
               for argv in argvs()}
    for path in sorted((ROOT / "demos").glob("*.py")):
        # a demo ends in exit 0 unless it raises SystemExit
        digests[path.name] = _digest(
            lambda path=path: runpy.run_path(str(path), run_name="__main__") and 0)
    return digests


def differences(old: dict, new: dict) -> list:
    """The labels whose outcome differs, or that only one side has, sorted."""
    return sorted(label for label in old.keys() | new.keys()
                  if old.get(label) != new.get(label))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="digests to compare with, from an earlier run")
    args = parser.parse_args(argv)
    digests = collect()
    if args.compare is None:
        print(json.dumps(digests, indent=1))
        return 0
    with open(args.compare) as handle:
        changed = differences(json.load(handle), digests)
    for label in changed:
        print(label)
    print(f"{len(changed)} of {len(digests)} outcomes differ", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
