#!/usr/bin/env python3
"""harrisproc benchmark (standard library only).

    python3 bench/run.py --workload validate --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --save bench/baseline.json

Run it from the repository root; harrisproc is imported from src/.  Each
workload runs in a fresh single-threaded worker process (bench/worker.py)
that calls ``harrisproc.cli.main(argv)`` in a closed loop for --seconds.
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  ``--workload all`` runs every workload
both ways.  The last line of standard output is one JSON object.

setup_s is measured after the worker ends, as the median of several fresh
interpreters that each only import harrisproc.cli.  See bench/NOTES.md for
the workloads, the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# A fresh interpreter doing fixed standard-library work (imports and a
# pure-Python loop), timed next to each set-up sample to factor out host speed,
# as reference.py does for the passes.  STARTUP_NOMINAL_S is its time on the
# 2-vCPU Xeon VM the benchmark was written on, in a quiet phase of the host.
STARTUP_REFERENCE = """\
import argparse, asyncio, csv, decimal, email.mime.text, fractions
import http.client, json, statistics, unittest, xml.dom.minidom
total = 0
for i in range(400_000):
    total += len(str(i * i))
assert total == 4_337_523, total
"""
STARTUP_NOMINAL_S = 0.4
WORKER_GRACE_S = 100.0


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if trace:
        command += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunFailed(f"{workload} worker timed out") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{workload} worker exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_interpreter(code: str) -> float:
    """Seconds for a fresh interpreter to run code and exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          cwd=ROOT, capture_output=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RunFailed(f"{code.splitlines()[0]} failed:\n"
                        f"{proc.stderr.decode()[-2000:]}")
    return seconds


def measure_setup() -> tuple:
    """Time from a fresh interpreter to `import harrisproc.cli` done.

    Returns the median host-normalised time and the median raw time.  Each
    sample is scaled by STARTUP_NOMINAL_S over the startup reference timed
    right after it.
    """
    normalised, raw = [], []
    for _ in range(SETUP_SAMPLES):
        seconds = time_interpreter("import harrisproc.cli")
        reference_s = time_interpreter(STARTUP_REFERENCE)
        raw.append(seconds)
        normalised.append(seconds * STARTUP_NOMINAL_S / reference_s)
    return statistics.median(normalised), statistics.median(raw)


def environment(versions: dict) -> dict:
    """Ungated facts recorded next to the metrics."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = sum(len(path.read_text().splitlines())
                    for path in (SRC / "harrisproc").glob("*.py"))
    return dict(versions, nproc=len(os.sched_getaffinity(0)), git_commit=commit,
                src_lines=src_lines)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    report = run_worker(workload, seed, seconds, trace)
    if trace:
        metrics = dict(report["per_layer"])
    else:
        setup_s, report["raw_setup_s"] = measure_setup()
        metrics = {"setup_s": setup_s, "wall_s": report["wall_s"],
                   "peak_rss_mib": report["peak_rss_mib"]}
    report["metrics"] = metrics
    return report


def print_summary(workload: str, seed: int, trace: int, report: dict,
                  units: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"{report['passes']} untraced passes of {report['ops_per_pass']} ops"
          + (f", {report['traced_passes']} traced" if trace else ""))
    if not trace:
        wall = report["wall_s"]
        rate = (f"{report['replicas'] / wall:.6g} 1/s ({report['replicas']} "
                f"per pass)" if report["replicas"] else "n/a (no replicas)")
        print(f"  setup_s        {report['metrics']['setup_s']:.4f} s "
              f"(host-normalised median of {SETUP_SAMPLES} fresh imports; "
              f"raw {report['raw_setup_s']:.4f} s)")
        print(f"  wall_s         {wall:.4f} s (host-normalised median of "
              f"{report['passes']} passes; raw {report['raw_wall_s']:.4f} s; "
              f"raw passes {', '.join(f'{w:.3f}' for w in report['pass_wall_s'])}"
              f"; reference {statistics.median(report['pass_ref_s']):.4f} s)")
        print(f"  replicas_per_s {rate}")
        print(f"  peak_rss_mib   {report['peak_rss_mib']:.1f} MiB")
    else:
        for name, value in report["metrics"].items():
            print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  fail_ratio     {failed / attempted:.6g} ({failed} of {attempted} "
          f"ops failed)")
    print(f"  known_defects  {len(report['known_defects'])}")
    for label, problem in report["problems"].items():
        kind = "known defect" if label in report["known_defects"] else "FAILED"
        print(f"    {kind}: {label}: {problem}")
    for missed in report["self_check_missed"]:
        print(f"  self-check missed: {missed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                        required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, metavar="PATH",
                        help="write every record and the environment as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "harrisproc" / "cli.py").is_file():
        print(f"error: no harrisproc sources under {SRC}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    records = {}
    try:
        for workload, trace in runs:
            report = run_one(workload, args.seed, args.seconds, trace)
            print_summary(workload, args.seed, trace, report, units)
            records[f"{workload}/trace{trace}"] = report
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(report["versions"])
    print("environment " + json.dumps(env))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"environment": env, "seed": args.seed,
                       "seconds": args.seconds, "runs": records},
                      handle, indent=1)
            handle.write("\n")
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {(f"{key}/{name}" if prefix else name):
                    {"value": value, "unit": units[name]}
                    for key, r in records.items()
                    for name, value in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
