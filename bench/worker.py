"""One benchmark run of one workload, in a fresh process.

run.py starts this with harrisproc's src/ on PYTHONPATH and prints what it
reports.  Passes repeat the workload's operations in a closed loop until
--seconds is reached (at least two passes, so reruns can be compared).  With
--trace 1, untraced and traced passes alternate in the same process, and the
difference of their median pass times is the tracing overhead.  Pass times
are host-normalised with the reference task (reference.py).  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy
import scipy

import harrisproc.cli

import checks
import layers
import reference
import workloads
from tracer import Tracer


class OpResult(NamedTuple):
    wall_s: float
    code: object  # exit status, or the exception that escaped
    out: str
    err: str


def run_op(op) -> OpResult:
    """Seconds, exit status, stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = harrisproc.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback the user would see
            code = "".join(traceback.format_exception_only(exc)).strip()
    return OpResult(time.perf_counter() - start, code, out.getvalue(),
                    err.getvalue())


def _corrupt_probability(text: str, column: int, pick) -> str:
    """The CSV text with one probability scaled by (1 + 1e-6)."""
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines)
            if not line.startswith("#")][1:]
    target = pick(data, key=lambda i: float(lines[i].split(",")[column]))
    cells = lines[target].rstrip("\n").split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6))
    lines[target] = ",".join(cells) + "\n"
    return "".join(lines)


def self_check() -> list:
    """Feed the checks corrupted outputs; return what they failed to catch."""
    missed = []
    pmf = workloads.Op(("pmf", "--m", "2.0", "--k", "2", "--tail", "1e-15"))
    _, code, text, err = run_op(pmf)
    if checks.check(pmf, code, text, err):
        missed.append("a correct pmf table was rejected")
    for pick in (max, min):  # the absolute and the relative regime
        if not checks.check(pmf, code, _corrupt_probability(text, 2, pick), err):
            missed.append(f"the {pick.__name__} probability off by 1e-6 relative")

    sim = workloads.Op(("simulate", "--model", "mixture", "--a", "1.0",
                        "--k", "2", "--t", "1.0", "--replicas", "2000",
                        "--seed", "1"))
    _, code, text, err = run_op(sim)
    if checks.check(sim, code, text, err):
        missed.append("a correct simulate table was rejected")
    payload = json.loads(text)
    payload["empirical"][-1]["x"] += 1
    if not checks.check(sim, code, json.dumps(payload), err):
        missed.append("an x that is not 1 (mod k)")

    line = ("5,yule-furry-reduction,true,ode gap 1.0e-12; slowest solve "
            "0.114s (budget 1s)\n")
    first = checks.digest(("validate",), 0, line, "")
    if checks.digest(("validate",), 0, line.replace("0.114s", "0.201s"), "") != first:
        missed.append("the slowest-solve time was not masked")
    if not _execution_failed([], checks.digest(("validate",), 0,
                                               line.replace("1.0e-12", "1.1e-12"),
                                               ""), first):
        missed.append("a changed rerun digest")
    return missed


def _execution_failed(problems, digest, first_digest) -> bool:
    """An execution fails on a failed check or a rerun that differs."""
    return bool(problems) or digest != first_digest


def run_passes(workload, seconds: float, trace: bool, tracer) -> list:
    """Closed-loop passes until the time is up; one record per pass.

    The reference task runs before the first pass and after every pass, so
    each pass is timed between two reference times.
    """
    passes = []
    begin = time.perf_counter()
    ref_s = [reference.run()]
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.begin_run(len(passes))
            tracer.install(layers.TARGETS)
        try:
            results = [run_op(op) for op in workload.ops]
        finally:
            tracer.uninstall()
        record = {
            "traced": traced,
            "wall_s": sum(r.wall_s for r in results),
            "codes": [r.code for r in results],
            "digests": [checks.digest(op.argv, *r[1:])
                        for op, r in zip(workload.ops, results)],
        }
        if not passes:
            record["problems"] = [checks.check(op, *r[1:])
                                  for op, r in zip(workload.ops, results)]
        if traced:
            record["layers"] = layers.pass_metrics(
                tracer.summary(len(passes)), tracer.counts, record["codes"])
        ref_s.append(reference.run())
        record["ref_s"] = statistics.fmean(ref_s[-2:])
        record["norm_s"] = record["wall_s"] * reference.NOMINAL_S / record["ref_s"]
        passes.append(record)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["wall_s"] for p in passes) + ref_s[-1]
        if len(passes) >= 2 and elapsed + typical > seconds:
            return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None,
                        help="CSV file for the traced spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    missed = self_check()
    tracer = Tracer()
    passes = run_passes(workload, args.seconds, bool(args.trace), tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    attempted = failed = 0
    defects, problems = [], {}
    for i, op in enumerate(workload.ops):
        outcomes = [_execution_failed(first["problems"][i], p["digests"][i],
                                      first["digests"][i]) for p in passes]
        found = list(first["problems"][i])
        if any(p["digests"][i] != first["digests"][i] for p in passes):
            found.append("a rerun gave different output")
        if found:
            problems[op.label] = "; ".join(found)
        if op.probe:
            if any(outcomes):
                defects.append(op.label)
            continue
        attempted += len(outcomes)
        failed += sum(outcomes)

    untraced = [p for p in passes if not p["traced"]]
    report = {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "self_check_missed": missed,
        "known_defects": defects,
        "problems": problems,
        "passes": len(untraced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "pass_ref_s": [p["ref_s"] for p in untraced],
        "wall_s": statistics.median(p["norm_s"] for p in untraced),
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mib": peak_rss_mib,
        "replicas": workload.replicas,
        "ops_per_pass": len(workload.ops),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_layer = {name: statistics.median_low(p["layers"][name] for p in traced)
                     for name in traced[0]["layers"]}
        per_layer["trace.overhead_s"] = (
            statistics.median(p["norm_s"] for p in traced) - report["wall_s"])
        per_layer["bench.known_defects"] = len(defects)
        report["traced_passes"] = len(traced)
        report["per_layer"] = per_layer
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_csv(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
