"""Command-line frontend.

Subcommands: pmf, pgf, simulate, ode, mixture-check, validate.  Output is
CSV (metadata as ``# key=value`` comment lines before the header) or JSON
(one top-level object with a schema_version field).  Identical invocations
produce byte-identical output; the exit status is 0 exactly when every
requested check passed, 1 when a check failed, 2 on bad parameters or an
output path that cannot be written.

The same Harris law can be addressed three ways: directly via --m, through
the birth process via --lambda and --t (m = exp(t*lambda*k)), or through
the gamma mixture via --a and --t (m = (a+t)/a).  pmf and pgf take exactly
one of the three (--m without --t); simulate takes the route of its
--model; ode takes only --lambda and mixture-check only --a.  An option a
subcommand does not read is refused with exit 2.  Every check is judged at
a fixed threshold, the one its acceptance criterion reads (ODE_GAP,
QUAD_GAP, GOF_ALPHA) or PGF_GAP; no option moves it.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial

import numpy as np

from .birth import ODE_TAIL, ProcessParams, solve_forward_odes
from .distribution import (HarrisParams, harris_pgf, harris_pmf, pmf_table,
                           tail_bound_after, truncation_index)
from .errors import ConvergenceError, ResourceLimitError
from .mixture import (MixtureParams, mixture_pmf, mixture_pmf_quadrature,
                      quadrature_agrees)
from .reporting import envelope, simulate_text
from .acceptance import (DEFAULT_ACCEPTANCE_SEED, DEFAULT_BIRTH_REPLICAS,
                         DEFAULT_CALIBRATION_SEEDS, DEFAULT_MIXTURE_DRAWS,
                         GOF_ALPHA, ODE_GAP, QUAD_GAP, run_acceptance,
                         run_scenario)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_SEED = 0
DEFAULT_TAIL = 1e-12
PGF_GAP = 1e-10  # largest allowed gap between pgf and its power series
MAX_NMAX = 100_000  # largest mixture-check --nmax: ~2.6 s and ~100 MiB there


def _resolve_params(args) -> tuple:
    """One of --m | --lambda/--t | --a/--t selects the Harris scale."""
    modes = [args.m is not None, args.lam is not None, args.a is not None]
    if sum(modes) != 1:
        raise ValueError("give exactly one of --m, --lambda, or --a")
    if (args.t is None) != (args.m is not None):
        raise ValueError("--lambda and --a need a query time --t; --m takes none")
    if args.m is not None:
        return HarrisParams(args.m, args.k), {"mode": "direct", "m": float(args.m),
                                              "k": args.k}
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
    # row whose remaining mass, the later rows plus the certified tail after
    # the last one, is at most tail (summed from the far end: 1 - cumulative
    # would cancel), or at the last row if none is
    ns = np.arange(truncation_index(params, min(args.tail, 1e-12)) + 2)
    probs = harris_pmf(params, ns)
    remaining = np.append(np.cumsum(probs[:0:-1])[::-1], 0.0)
    remaining += tail_bound_after(params, ns[-1])
    ns = ns[:min(np.count_nonzero(remaining > args.tail) + 1, len(ns))]
    cumulative = np.cumsum(probs)
    columns = {"n": ns, "x": 1 + ns * params.k, "probability": probs[:len(ns)],
               "cumulative": cumulative[:len(ns)]}
    return envelope("pmf", args.format, meta, columns), True


def cmd_pgf(args) -> tuple:
    params, meta = _resolve_params(args)
    xs, probs, _ = pmf_table(params, 1e-15)
    ss = [round(0.05 * i, 2) for i in range(21)]
    values = [harris_pgf(params, s) for s in ss]
    # one exp per term, not a pow; at s = 0, log 0 = -inf and every term of
    # xs >= 1 is exactly 0
    with np.errstate(divide="ignore"):
        series = [float((probs * np.exp(xs * np.log(s))).sum()) for s in ss]
    gaps = [abs(v - w) for v, w in zip(values, series)]
    worst = max(gaps)
    passed = worst < PGF_GAP
    meta.update({"tol": PGF_GAP, "max_abs_diff": worst, "passed": passed})
    columns = {"s": ss, "pgf": values, "series_sum": series, "abs_diff": gaps}
    return envelope("pgf", args.format, meta, columns), passed


def cmd_simulate(args) -> tuple:
    # run_scenario refuses a route the model does not use
    run = run_scenario(args.model, lam=args.lam, a=args.a, k=args.k, t=args.t,
                       replicas=args.replicas, seed=args.seed)
    return simulate_text(run, args.format), run.report.overall


def cmd_ode(args) -> tuple:
    params = ProcessParams(args.lam, args.k)
    solution = solve_forward_odes(params, args.t)
    ns = np.arange(solution.n_max + 1)
    closed = (np.array([1.0]) if args.t == 0.0
              else harris_pmf(params.harris_at(args.t), ns))
    gaps = np.abs(solution.probs - closed)
    worst = float(gaps.max())
    passed = worst < ODE_GAP
    meta = {"lambda": float(args.lam), "k": args.k, "t": float(args.t),
            "tail": ODE_TAIL, "tol": ODE_GAP, "n_max": solution.n_max,
            "max_abs_diff": worst, "passed": passed}
    columns = {"n": ns, "x": 1 + ns * params.k,
               "ode_probability": solution.probs,
               "closedform_probability": closed, "abs_diff": gaps}
    return envelope("ode", args.format, meta, columns), passed


def cmd_mixture_check(args) -> tuple:
    if not 0 <= args.nmax <= MAX_NMAX:
        raise ValueError(f"--nmax must be >= 0 and <= {MAX_NMAX}, got {args.nmax}")
    params = MixtureParams(args.a, args.k)
    ns = np.arange(args.nmax + 1)
    closed = mixture_pmf(params, args.t, ns)
    quad = mixture_pmf_quadrature(params, args.t, ns)
    gaps = np.abs(closed - quad)
    passed = quadrature_agrees(closed, quad, QUAD_GAP)
    meta = {"a": float(args.a), "k": args.k, "t": float(args.t),
            "nmax": args.nmax, "tol": QUAD_GAP,
            "max_abs_diff": float(gaps.max()), "passed": passed}
    columns = {"n": ns, "x": 1 + ns * params.k, "closed_form": closed,
               "quadrature": quad, "abs_diff": gaps}
    return envelope("mixture-check", args.format, meta, columns), passed


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
    columns = {"criterion": [r.number for r in results],
               "name": [r.name for r in results],
               "passed": [r.passed for r in results],
               "detail": [r.detail for r in results]}
    return envelope("validate", args.format, meta, columns), overall


# The routes to the Harris scale: flag -> its add_argument keywords.
_ROUTES = {
    "--m": {"help": "Harris scale parameter directly (m > 1)"},
    "--lambda": {"dest": "lam",
                 "help": "birth rate; with --t induces m = exp(t*lambda*k)"},
    "--a": {"help": "gamma mixing rate; with --t induces m = (a+t)/a"},
}


def _add_law_options(parser, routes):
    """--k, the given routes to the Harris scale, and the query time --t.

    A route that is the subcommand's only one is required, and so is --t
    where --m is not a route.
    """
    parser.add_argument("--k", type=int, required=True,
                        help="step parameter (positive integer)")
    for flag in routes:
        parser.add_argument(flag, type=float, required=len(routes) == 1,
                            **_ROUTES[flag])
    parser.add_argument("--t", type=float, required="--m" not in routes,
                        help="query time for the induced parameterizations")


def _add_output_options(parser, default_format):
    parser.add_argument("--format", choices=("csv", "json"),
                        default=default_format, help="output format")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write to PATH instead of standard output")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="harrisproc",
        description="Harris distribution and Harris process toolkit",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # no prefix matching: a flag a subcommand lacks is never read as another
    command = partial(sub.add_parser, allow_abbrev=False)

    p = command("pmf", help="tabulate the probability mass function")
    _add_law_options(p, ("--m", "--lambda", "--a"))
    p.add_argument("--tail", type=float, default=DEFAULT_TAIL,
                   help="stop once the mass beyond the table is at most tail")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_pmf)

    p = command("pgf", help="evaluate the generating function against its "
                            f"own power series (gap below {PGF_GAP:g})")
    _add_law_options(p, ("--m", "--lambda", "--a"))
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_pgf)

    p = command("simulate", help="run a model and validate it against its "
                                 f"analytic law (fit at alpha {GOF_ALPHA:g})")
    p.add_argument("--model", choices=("birth", "mixture"), required=True)
    _add_law_options(p, ("--lambda", "--a"))
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_options(p, "json")
    p.set_defaults(func=cmd_simulate)

    p = command("ode", help="integrate the forward equations and compare "
                            f"with the closed form (gap below {ODE_GAP:g})")
    _add_law_options(p, ("--lambda",))
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_ode)

    p = command("mixture-check", help="compare the mixture closed form "
                                      "against adaptive quadrature (gap "
                                      f"below {QUAD_GAP:g})")
    _add_law_options(p, ("--a",))
    p.add_argument("--nmax", type=int, default=20,
                   help="largest count index to check")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_mixture_check)

    p = command("validate", help="run the full cross-validation grid")
    p.add_argument("--replicas", type=int, default=DEFAULT_BIRTH_REPLICAS,
                   help="birth-model Monte Carlo replicas")
    p.add_argument("--mixture-draws", type=int, default=DEFAULT_MIXTURE_DRAWS)
    p.add_argument("--calibration-seeds", type=int,
                   default=DEFAULT_CALIBRATION_SEEDS)
    p.add_argument("--seed", type=int, default=DEFAULT_ACCEPTANCE_SEED,
                   help="seed for the Monte Carlo criteria")
    _add_output_options(p, "csv")
    p.set_defaults(func=cmd_validate)

    return parser


def _check_writable(path: str) -> None:
    """Refuse an --out path that cannot be written, creating nothing."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK):
        raise OSError(f"cannot write --out {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_writable(args.out)
        text, passed = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="\n") as handle:
                handle.write(text)
    except (ValueError, ConvergenceError, ResourceLimitError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
