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
from .distribution import HarrisParams, harris_pgf, harris_pmf, truncation_index
from .errors import ConvergenceError, ResourceLimitError
from .mixture import MixtureParams, mixture_pmf, mixture_pmf_quadrature
from .reporting import SCHEMA_VERSION, render_csv, render_json
from .acceptance import run_scenario, simulate_text, run_acceptance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_SEED = 0
DEFAULT_ALPHA = 0.01
DEFAULT_TAIL = 1e-12
DEFAULT_TOL = 1e-8
THREADS_HELP = ("ignored: the birth sampler is vectorized and runs in one "
                "thread; the flag is still accepted and will be removed")


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


def _emit_table(args, meta: dict, header, rows) -> None:
    if args.format == "csv":
        _write(render_csv(meta, header, rows), args.out)
        return
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": meta["command"],
        "metadata": {k: v for k, v in meta.items()
                     if k not in ("command", "schema_version")},
        "rows": [dict(zip(header, row)) for row in rows],
    }
    _write(render_json(payload), args.out)


def cmd_pmf(args) -> int:
    params, meta_params = _resolve_params(args)
    meta = {"command": "pmf", "schema_version": SCHEMA_VERSION}
    meta.update(meta_params)
    meta["tail"] = float(args.tail)
    rows = []
    cumulative = 0.0
    limit = truncation_index(params, min(args.tail, 1e-12)) + 1
    for n in range(limit + 1):
        prob = harris_pmf(params, n)
        cumulative += prob
        rows.append((n, 1 + n * params.k, prob, cumulative))
        if cumulative >= 1.0 - args.tail:
            break
    _emit_table(args, meta, ("n", "x", "probability", "cumulative"), rows)
    return EXIT_OK


def cmd_pgf(args) -> int:
    params, meta_params = _resolve_params(args)
    grid = [round(0.05 * i, 2) for i in range(21)]
    table_n = truncation_index(params, 1e-15)
    ns = np.arange(table_n + 1)
    probs = harris_pmf(params, ns)
    rows = []
    worst = 0.0
    for s in grid:
        value = harris_pgf(params, s)
        series = float((probs * s ** (1 + ns * params.k)).sum())
        gap = abs(value - series)
        worst = max(worst, gap)
        rows.append((s, value, series, gap))
    meta = {"command": "pgf", "schema_version": SCHEMA_VERSION}
    meta.update(meta_params)
    meta.update({"tol": float(args.tol), "max_abs_diff": worst,
                 "passed": worst < args.tol})
    _emit_table(args, meta, ("s", "pgf", "series_sum", "abs_diff"), rows)
    return EXIT_OK if worst < args.tol else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    if args.replicas < 1:
        raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
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
    _write(simulate_text(run, args.format, args.alpha, horizon=args.horizon),
           args.out)
    return EXIT_OK if run.report.overall else EXIT_CHECK_FAILED


def cmd_ode(args) -> int:
    if args.lam is None:
        raise ValueError("ode needs --lambda")
    if args.t is None:
        raise ValueError("ode needs a query time --t")
    params = ProcessParams(args.lam, args.k)
    meta = {"command": "ode", "schema_version": SCHEMA_VERSION,
            "lambda": float(args.lam), "k": args.k, "t": float(args.t),
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
    _emit_table(args, meta,
                ("n", "x", "ode_probability", "closedform_probability",
                 "abs_diff"), rows)
    return EXIT_OK if worst < args.tol else EXIT_CHECK_FAILED


def cmd_mixture_check(args) -> int:
    if args.a is None:
        raise ValueError("mixture-check needs --a")
    if args.t is None:
        raise ValueError("mixture-check needs a query time --t")
    params = MixtureParams(args.a, args.k)
    rows = []
    worst = 0.0
    for n in range(args.nmax + 1):
        closed = mixture_pmf(params, args.t, n)
        quad = mixture_pmf_quadrature(params, args.t, n)
        gap = abs(closed - quad)
        worst = max(worst, gap)
        rows.append((n, 1 + n * params.k, closed, quad, gap))
    meta = {"command": "mixture-check", "schema_version": SCHEMA_VERSION,
            "a": float(args.a), "k": args.k, "t": float(args.t),
            "nmax": args.nmax, "tol": float(args.tol), "max_abs_diff": worst,
            "passed": worst < args.tol}
    _emit_table(args, meta,
                ("n", "x", "closed_form", "quadrature", "abs_diff"), rows)
    return EXIT_OK if worst < args.tol else EXIT_CHECK_FAILED


def cmd_validate(args) -> int:
    results = run_acceptance(
        birth_replicas=args.replicas,
        mixture_draws=args.mixture_draws,
        calibration_seeds=args.calibration_seeds,
        seed=args.seed,
    )
    meta = {"command": "validate", "schema_version": SCHEMA_VERSION,
            "replicas": args.replicas, "mixture_draws": args.mixture_draws,
            "calibration_seeds": args.calibration_seeds, "seed": args.seed,
            "overall": all(r.passed for r in results)}
    rows = [(r.number, r.name, r.passed, r.detail) for r in results]
    _emit_table(args, meta, ("criterion", "name", "passed", "detail"), rows)
    return EXIT_OK if meta["overall"] else EXIT_CHECK_FAILED


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
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    _add_output_options(p, "json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ode", help="integrate the forward equations and "
                                   "compare with the closed form")
    _add_law_options(p)
    p.add_argument("--tail", type=float, default=DEFAULT_TAIL,
                   help="truncation tail bound for the state grid")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="largest allowed ode-vs-closed-form gap")
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
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
