"""Independent checks of harrisproc's outputs.

Nothing here trusts harrisproc's own verdicts.  Every probability a command
prints is compared with ``scipy.stats.nbinom(1/k, p)``: the count
(X - 1)/k of a Harris variable X is negative binomial with p = 1/m, where
p = exp(-lambda*k*t) on the birth route and p = a/(a + t) on the mixture
route.  Simulated tables are checked against moments computed here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class Tolerance:
    """|value - reference| <= atol where the reference is at least atol;
    below it, <= max(rtol * reference, floor)."""

    atol: float
    rtol: float
    floor: float

    def count_violations(self, values, reference) -> int:
        gap = np.abs(values - reference)
        allowed = np.where(reference >= self.atol, self.atol,
                           np.maximum(self.rtol * reference, self.floor))
        return int(np.count_nonzero(~(gap <= allowed)))  # NaN counts too


# Each route is held to the precision it can deliver.  The closed form is
# relative to ~1e-10 even at 1e-15 probabilities (pmf --m 1000, n = 25k).
CLOSED_FORM = Tolerance(atol=1e-12, rtol=1e-9, floor=0.0)
# A running sum of closed-form terms.
CUMULATIVE = Tolerance(atol=1e-10, rtol=1e-9, floor=0.0)
# QUADPACK runs with epsabs 1e-13: relative errors reach 3e-3 near 1e-15.
QUADRATURE = Tolerance(atol=1e-10, rtol=1e-2, floor=1e-13)
# RK45 runs with atol 1e-10 and carries no relative precision in the tail
# (2.5e-10 where the law gives 4e-24), so the ODE column is held to an
# absolute 1e-9 only; see NOTES.md.
ODE = Tolerance(atol=1e-9, rtol=0.0, floor=1e-9)
# pgf's own default --tol.
PGF = Tolerance(atol=1e-10, rtol=1e-9, floor=1e-15)

MEAN_STANDARD_ERRORS = 5.0

# Criterion 1 of validate prints the wall time of its slowest ODE solve, the
# only part of any output that changes between identical runs.
SLOWEST_SOLVE = re.compile(r"slowest solve \d+\.\d+s")


def digest(argv, code, stdout: str, stderr: str) -> str:
    """Rerun digest of one operation's outcome."""
    if argv[0] == "validate":
        stdout = SLOWEST_SOLVE.sub("slowest solve <masked>", stdout)
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(stdout.encode())
    h.update(b"\0")
    h.update(stderr.encode())
    return h.hexdigest()


def flags(argv) -> dict:
    """--name value pairs of an argument vector, as strings."""
    words = list(argv[1:])
    return {words[i][2:]: words[i + 1] for i in range(0, len(words), 2)}


def law(opts: dict) -> tuple:
    """(k, p) of the count law NB(1/k, p) an operation addresses."""
    k = int(opts["k"])
    if "m" in opts:
        return k, 1.0 / float(opts["m"])
    t = float(opts["t"])
    if "lambda" in opts:
        return k, math.exp(-float(opts["lambda"]) * k * t)
    a = float(opts["a"])
    return k, a / (a + t)


def parse_csv(text: str) -> tuple:
    """(metadata, header, rows) of harrisproc's CSV output."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    if not rows:
        raise ValueError("no header row")
    return meta, tuple(rows[0]), rows[1:]


def _column(rows, index, dtype=float):
    return np.array([row[index] for row in rows], dtype=dtype)


def _header(header, expected) -> list:
    return [] if header == expected else [f"header {header} is not {expected}"]


def _support(n, x, k) -> list:
    problems = []
    if len(n) == 0:
        problems.append("empty table")
    elif not np.array_equal(n, np.arange(len(n))):
        problems.append("n column is not 0, 1, 2, ...")
    if np.any((x - 1) % k != 0):
        problems.append(f"an x is not 1 (mod {k})")
    elif not np.array_equal(x, 1 + k * n):
        problems.append("x column is not 1 + k*n")
    return problems


def _compare(name, values, reference, tolerance) -> list:
    bad = tolerance.count_violations(values, reference)
    return [f"{bad} {name} values off the reference"] if bad else []


def check_pmf(opts, text, code) -> list:
    _, header, rows = parse_csv(text)
    problems = _header(header, ("n", "x", "probability", "cumulative"))
    k, p = law(opts)
    n, x = _column(rows, 0, int), _column(rows, 1, int)
    problems += _support(n, x, k)
    problems += _compare("probability", _column(rows, 2),
                         stats.nbinom.pmf(n, 1.0 / k, p), CLOSED_FORM)
    problems += _compare("cumulative", _column(rows, 3),
                         stats.nbinom.cdf(n, 1.0 / k, p), CUMULATIVE)
    tail = float(opts.get("tail", 1e-12))
    if len(n) and stats.nbinom.sf(n[-1], 1.0 / k, p) > tail + 1e-10:
        problems.append("table stops before the requested tail")
    return problems


def check_pgf(opts, text, code) -> list:
    _, header, rows = parse_csv(text)
    problems = _header(header, ("s", "pgf", "series_sum", "abs_diff"))
    k, p = law(opts)
    s = _column(rows, 0)
    reference = s * (p / (1.0 - (1.0 - p) * s**k)) ** (1.0 / k)
    if len(s) != 21:
        problems.append(f"{len(s)} grid points, not 21")
    problems += _compare("pgf", _column(rows, 1), reference, PGF)
    problems += _compare("series_sum", _column(rows, 2), reference, PGF)
    return problems


def check_ode(opts, text, code) -> list:
    meta, header, rows = parse_csv(text)
    problems = _header(header, ("n", "x", "ode_probability",
                                "closedform_probability", "abs_diff"))
    k, p = law(opts)
    n, x = _column(rows, 0, int), _column(rows, 1, int)
    problems += _support(n, x, k)
    reference = stats.nbinom.pmf(n, 1.0 / k, p)
    problems += _compare("ode_probability", _column(rows, 2), reference, ODE)
    problems += _compare("closedform_probability", _column(rows, 3),
                         reference, CLOSED_FORM)
    if len(n) and stats.nbinom.sf(n[-1], 1.0 / k, p) > float(meta["tail"]):
        problems.append("state grid ends before the truncation tail")
    return problems


def check_mixture_check(opts, text, code) -> list:
    _, header, rows = parse_csv(text)
    problems = _header(header, ("n", "x", "closed_form", "quadrature",
                                "abs_diff"))
    k, p = law(opts)
    n, x = _column(rows, 0, int), _column(rows, 1, int)
    problems += _support(n, x, k)
    if len(n) != int(opts.get("nmax", 20)) + 1:
        problems.append(f"{len(n)} rows, not nmax + 1")
    reference = stats.nbinom.pmf(n, 1.0 / k, p)
    problems += _compare("closed_form", _column(rows, 2), reference, CLOSED_FORM)
    problems += _compare("quadrature", _column(rows, 3), reference, QUADRATURE)
    return problems


def check_simulate(opts, text, code) -> list:
    payload = json.loads(text)
    replicas = int(opts["replicas"])
    problems = []
    if payload["metadata"]["replicas"] != replicas:
        problems.append("metadata replicas differ from the request")
    rows = payload["empirical"]
    k, p = law(opts)
    n = np.array([row["n"] for row in rows], dtype=np.int64)
    x = np.array([row["x"] for row in rows], dtype=np.int64)
    observed = np.array([row["observed"] for row in rows], dtype=np.int64)
    expected = np.array([row["expected"] for row in rows], dtype=float)
    if np.any((x - 1) % k != 0):
        problems.append(f"an x is not 1 (mod {k})")
    if not np.array_equal(n, (x - 1) // k):
        problems.append("n column is not (x - 1)/k")
    if observed.min(initial=0) < 0 or observed.sum() != replicas:
        problems.append(f"observed counts sum to {observed.sum()}, "
                        f"not {replicas}")
    problems += _compare("expected", expected / replicas,
                         stats.nbinom.pmf(n, 1.0 / k, p), CLOSED_FORM)
    m = 1.0 / p
    mean = float((x * observed).sum()) / replicas
    std_error = math.sqrt(k * m * (m - 1.0) / replicas)
    if not abs(mean - m) <= MEAN_STANDARD_ERRORS * std_error:
        problems.append(f"empirical mean {mean!r} is more than "
                        f"{MEAN_STANDARD_ERRORS:g} standard errors from {m!r}")
    return problems


def check_validate(opts, text, code) -> list:
    meta, header, rows = parse_csv(text)
    problems = _header(header, ("criterion", "name", "passed", "detail"))
    numbers = sorted(int(row[0]) for row in rows)
    if numbers != list(range(1, 10)):
        problems.append(f"criteria {numbers}, not 1..9")
    verdicts = [row[2] for row in rows]
    if any(v not in ("true", "false") for v in verdicts):
        problems.append("a criterion verdict is not true/false")
    overall = all(v == "true" for v in verdicts)
    if meta.get("overall") != str(overall).lower() or code != (0 if overall else 1):
        problems.append("overall verdict or exit code disagrees with the rows")
    return problems


CHECKERS = {
    "pmf": check_pmf,
    "pgf": check_pgf,
    "ode": check_ode,
    "mixture-check": check_mixture_check,
    "simulate": check_simulate,
    "validate": check_validate,
}


def check(op, code, stdout: str, stderr: str) -> list:
    """Problems with one operation's outcome; empty when it is as expected.

    code is the exit status, or the text of an exception that escaped
    cli.main.
    """
    if not isinstance(code, int):
        return [f"exception escaped cli.main: {code}"]
    if code == 2:
        if op.expect == "table_or_usage" and stderr.startswith("error: "):
            return []
        return [f"unexpected exit 2: {stderr.strip()}"]
    if code not in (0, 1):
        return [f"exit status {code}"]
    try:
        return CHECKERS[op.argv[0]](flags(op.argv), stdout, code)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
