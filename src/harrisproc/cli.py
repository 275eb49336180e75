"""Command-line frontend.

Subcommands: pmf, pgf, simulate, ode, mixture-check, validate.  Output is
CSV (metadata as ``# key=value`` comment lines before the header) or JSON
(one top-level object with a schema_version field).  Identical invocations
produce byte-identical output; the exit status is 0 exactly when every
requested check passed, 1 when a check failed, 2 on bad parameters.

The same Harris law can be addressed three ways: directly via --m, through
the birth process via --lambda and --t (m = exp(t*lambda*k)), or through
the gamma mixture via --a and --t (m = (a+t)/a); exactly one per call.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .birth import ProcessParams, solve_forward_odes
from .distribution import (HarrisParams, harris_pgf, harris_pmf, pmf_table,
                           truncation_index)
from .errors import ConvergenceError, ResourceLimitError
from .mixture import MixtureParams, mixture_pmf, mixture_pmf_quadrature
from .reporting import envelope, simulate_text
from .acceptance import run_scenario, run_acceptance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_SEED = 0
DEFAULT_ALPHA = 0.01
DEFAULT_TAIL = 1e-12
DEFAULT_TOL = 1e-8


def _write(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as handle:
            handle.write(text)


def _resolve_params(args) -> tuple:
    """One of --m | --lambda/--t | --a/--t selects the Harris scale."""
    modes = [args.m is not None, args.lam is not None, args.a is not None]
    if sum(modes) != 1:
        raise ValueError("give exactly one of --m, --lambda, or --a")
    if args.m is not None:
        return HarrisParams(args.m, args.k), {"mode": "direct", "m": float(args.m),
                                              "k": args.k}
    if args.t is None:
        raise ValueError("--lambda and --a need a query time --t")
    if args.lam is not None:
        params = ProcessParams(args.lam, args.k).harris_at(args.t)
        return params, {"mode": "birth", "lambda": float(args.lam), "k": args.k,
                        "t": float(args.t), "m": params.m}
    params = MixtureParams(args.a, args.k).harris_at(args.t)
    return params, {"mode": "mixture", "a": float(args.a), "k": args.k,
                    "t": float(args.t), "m": params.m}


# Each cmd_* returns (text, passed); main writes the text and maps the verdict
# to the exit status.

def cmd_pmf(args) -> tuple:
    if not 0.0 < args.tail < 1.0:
        raise ValueError(f"--tail must lie in (0, 1), got {args.tail!r}")
    params, meta = _resolve_params(args)
    meta["tail"] = float(args.tail)
    # one term past the certified truncation; the table stops at the first
    # row whose cumulative probability reaches 1 - tail
    ns = np.arange(truncation_index(params, min(args.tail, 1e-12)) + 2)
    probs = harris_pmf(params, ns)
    cumulative = np.cumsum(probs)
    ns = ns[:np.searchsorted(cumulative, 1.0 - args.tail) + 1]
    rows = zip(ns.tolist(), (1 + ns * params.k).tolist(),
               probs[:len(ns)].tolist(), cumulative[:len(ns)].tolist())
    return envelope("pmf", args.format, meta,
                    ("n", "x", "probability", "cumulative"), rows), True


def cmd_pgf(args) -> tuple:
    params, meta = _resolve_params(args)
    xs, probs, _ = pmf_table(params, 1e-15)
    rows = []
    for s in [round(0.05 * i, 2) for i in range(21)]:
        value = harris_pgf(params, s)
        series = float((probs * s ** xs).sum())
        rows.append((s, value, series, abs(value - series)))
    worst = max(row[3] for row in rows)
    meta.update({"tol": float(args.tol), "max_abs_diff": worst,
                 "passed": worst < args.tol})
    return envelope("pgf", args.format, meta,
                    ("s", "pgf", "series_sum", "abs_diff"), rows), worst < args.tol


def cmd_simulate(args) -> tuple:
    if args.m is not None:
        raise ValueError("simulate runs a process; give --lambda or --a, not --m")
    if args.t is None:
        raise ValueError("simulate needs a query time --t")
    if args.model == "birth":
        if args.lam is None:
            raise ValueError("--model birth needs --lambda")
        run = run_scenario("birth", lam=args.lam, k=args.k, t=args.t,
                           replicas=args.replicas, seed=args.seed,
                           alpha=args.alpha, horizon=args.horizon)
    else:
        if args.a is None:
            raise ValueError("--model mixture needs --a")
        run = run_scenario("mixture", a=args.a, k=args.k, t=args.t,
                           replicas=args.replicas, seed=args.seed,
                           alpha=args.alpha)
    return simulate_text(run, args.format), run.report.overall


def cmd_ode(args) -> tuple:
    if args.lam is None:
        raise ValueError("ode needs --lambda")
    if args.t is None:
        raise ValueError("ode needs a query time --t")
    params = ProcessParams(args.lam, args.k)
    meta = {"lambda": float(args.lam), "k": args.k, "t": float(args.t),
            "tail": float(args.tail), "tol": float(args.tol)}
    solution = solve_forward_odes(params, args.t, tail_bound=args.tail)
    if args.t == 0.0:
        closed = np.array([1.0])
    else:
        closed = harris_pmf(params.harris_at(args.t),
                            np.arange(solution.n_max + 1))
    gaps = np.abs(solution.probs - closed)
    rows = [
        (n, 1 + n * params.k, solution.probs[n], closed[n], gaps[n])
        for n in range(solution.n_max + 1)
    ]
    worst = float(gaps.max())
    meta.update({"n_max": solution.n_max, "max_abs_diff": worst,
                 "passed": worst < args.tol})
    return envelope("ode", args.format, meta,
                    ("n", "x", "ode_probability", "closedform_probability",
                     "abs_diff"), rows), worst < args.tol


def cmd_mixture_check(args) -> tuple:
    if args.a is None:
        raise ValueError("mixture-check needs --a")
    if args.t is None:
        raise ValueError("mixture-check needs a query time --t")
    if args.nmax < 0:
        raise ValueError(f"--nmax must be >= 0, got {args.nmax}")
    params = MixtureParams(args.a, args.k)
    closed = mixture_pmf(params, args.t, np.arange(args.nmax + 1)).tolist()
    rows = []
    for n in range(args.nmax + 1):
        quad = mixture_pmf_quadrature(params, args.t, n)
        rows.append((n, 1 + n * params.k, closed[n], quad, abs(closed[n] - quad)))
    worst = max(row[4] for row in rows)
    meta = {"a": float(args.a), "k": args.k, "t": float(args.t),
            "nmax": args.nmax, "tol": float(args.tol), "max_abs_diff": worst,
            "passed": worst < args.tol}
    return envelope("mixture-check", args.format, meta,
                    ("n", "x", "closed_form", "quadrature", "abs_diff"),
                    rows), worst < args.tol


def cmd_validate(args) -> tuple:
    results = run_acceptance(
        birth_replicas=args.replicas,
        mixture_draws=args.mixture_draws,
        calibration_seeds=args.calibration_seeds,
        seed=args.seed,
    )
    overall = all(r.passed for r in results)
    meta = {"replicas": args.replicas, "mixture_draws": args.mixture_draws,
            "calibration_seeds": args.calibration_seeds, "seed": args.seed,
            "overall": overall}
    rows = [(r.number, r.name, r.passed, r.detail) for r in results]
    return envelope("validate", args.format, meta,
                    ("criterion", "name", "passed", "detail"), rows), overall


def _add_law_options(parser, with_time_default=None):
    parser.add_argument("--m", type=float, default=None,
                        help="Harris scale parameter directly (m > 1)")
    parser.add_argument("--k", type=int, required=True,
                        help="step parameter (positive integer)")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="birth rate; with --t induces m = exp(t*lambda*k)")
    parser.add_argument("--a", type=float, default=None,
                        help="gamma mixing rate; with --t induces m = (a+t)/a")
    parser.add_argument("--t", type=float, default=with_time_default,
                        help="query time for the induced parameterizations")


def _add_output_options(parser, default_format):
    parser.add_argument("--format", choices=("csv", "json"),
                        default=default_format, help="output format")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write to PATH instead of standard output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harrisproc",
        description="Harris distribution and Harris process toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pmf", help="tabulate the probability mass function")
    _add_law_options(p)
    p.add_argument("--tail", type=float, default=DEFAULT_TAIL,
                   help="stop once cumulative probability reaches 1 - tail")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("pgf", help="evaluate the generating function against "
                                   "its own power series")
    _add_law_options(p)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="largest allowed pgf-vs-series gap")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_pgf)

    p = sub.add_parser("simulate", help="run a model and validate it against "
                                        "its analytic law")
    p.add_argument("--model", choices=("birth", "mixture"), required=True)
    _add_law_options(p)
    p.add_argument("--horizon", type=float, default=None,
                   help="simulation horizon for the birth model (default: t)")
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help="goodness-of-fit significance level")
    _add_output_options(p, "json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ode", help="integrate the forward equations and "
                                   "compare with the closed form")
    _add_law_options(p)
    p.add_argument("--tail", type=float, default=DEFAULT_TAIL,
                   help="truncation tail bound for the state grid")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="largest allowed absolute ode-vs-closed-form gap; "
                        "rows below about 1e-10 (the solver's atol) carry "
                        "no relative precision")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("mixture-check", help="compare the mixture closed form "
                                             "against adaptive quadrature")
    _add_law_options(p)
    p.add_argument("--nmax", type=int, default=20,
                   help="largest count index to check")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_mixture_check)

    p = sub.add_parser("validate", help="run the full cross-validation grid")
    p.add_argument("--replicas", type=int, default=100_000,
                   help="birth-model Monte Carlo replicas")
    p.add_argument("--mixture-draws", type=int, default=1_000_000)
    p.add_argument("--calibration-seeds", type=int, default=200)
    p.add_argument("--seed", type=int, default=42,
                   help="seed for the Monte Carlo criteria")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, passed = args.func(args)
    except (ValueError, ConvergenceError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(text, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
