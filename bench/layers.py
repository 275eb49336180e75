"""The layer boundaries a traced pass times, and the per-layer metrics.

Layers are harrisproc's modules.  Each target is a public name a caller
looks up; ``Tracer.install`` rebinds it wherever it is looked up.  Counts
that need the returned value are taken by after-hooks, outside the timed
span.
"""

from __future__ import annotations

import math

import numpy as np


def _count_paths(counts, paths):
    counts["birth.replicas"] += len(paths)
    counts["birth.events"] += sum(path.n_events for path in paths)


def _count_states(counts, solution):
    counts["birth.ode.states"] += len(solution.probs)


def _count_draws(counts, draws):
    counts["mixture.draws"] += np.size(draws)


def _count_bins(counts, gof):
    counts["validation.gof.bins"] += len(gof.bins)
    smallest = min(b.expected for b in gof.bins)
    counts["validation.gof.min_expected"] = min(
        counts.get("validation.gof.min_expected", math.inf), smallest)


def _count_bytes(counts, text):
    counts["reporting.bytes"] += len(text)


# (module, attribute, span name, after-hook)
TARGETS = (
    ("harrisproc.cli", "main", "cli.main", None),
    ("harrisproc.acceptance", "run_acceptance", "acceptance.run_acceptance", None),
    ("harrisproc.acceptance", "run_scenario", "acceptance.run_scenario", None),
    ("harrisproc.acceptance", "simulate_text", "acceptance.simulate_text", None),
    ("harrisproc.sampling", "RngStream", "sampling.stream", None),
    ("harrisproc.sampling", "sample_harris", "sampling.sample_harris", None),
    ("harrisproc.birth", "simulate_many", "birth.simulate_many", _count_paths),
    ("harrisproc.birth", "empirical_distribution",
     "birth.empirical_distribution", None),
    ("harrisproc.birth", "solve_forward_odes", "birth.solve_forward_odes",
     _count_states),
    ("harrisproc.mixture", "sample_model2", "mixture.sample_model2", _count_draws),
    ("harrisproc.mixture", "mixture_pmf_quadrature", "mixture.quad", None),
    ("harrisproc.distribution", "harris_pmf", "distribution.harris_pmf", None),
    ("harrisproc.distribution", "truncation_index",
     "distribution.truncation_index", None),
    ("harrisproc.validation", "chi_square_gof", "validation.chi_square_gof",
     _count_bins),
    ("harrisproc.reporting", "render_csv", "reporting.render", _count_bytes),
    ("harrisproc.reporting", "render_json", "reporting.render", _count_bytes),
)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def pass_metrics(summary: dict, counts: dict, exit_codes: list) -> dict:
    """Per-layer metrics of one traced pass (trace.* and bench.* excepted)."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}

    def span(name):
        return summary.get(name, empty)

    ode, quad = span("birth.solve_forward_odes"), span("mixture.quad")
    simulate, draws = span("birth.simulate_many"), span("mixture.sample_model2")
    gof = span("validation.chi_square_gof")
    return {
        "cli.ops": span("cli.main")["calls"],
        "cli.exit0": exit_codes.count(0),
        "cli.exit1": exit_codes.count(1),
        "cli.exit2": exit_codes.count(2),
        "cli.exceptions": sum(not isinstance(c, int) for c in exit_codes),
        "cli.main.s": span("cli.main")["s"],
        "acceptance.run_scenario.s": span("acceptance.run_scenario")["s"],
        "acceptance.run_scenario.self_s": span("acceptance.run_scenario")["self_s"],
        "acceptance.run_acceptance.self_s":
            span("acceptance.run_acceptance")["self_s"],
        "acceptance.simulate_text.s": span("acceptance.simulate_text")["s"],
        "sampling.streams": span("sampling.stream")["calls"],
        "sampling.stream_s": span("sampling.stream")["s"],
        "sampling.sample_harris.s": span("sampling.sample_harris")["s"],
        "birth.simulate_many.s": simulate["s"],
        "birth.replicas": counts.get("birth.replicas", 0),
        "birth.events": counts.get("birth.events", 0),
        "birth.events_per_s": _rate(counts.get("birth.events", 0), simulate["s"]),
        "birth.replicas_per_s": _rate(counts.get("birth.replicas", 0),
                                      simulate["s"]),
        "birth.empirical_distribution.s": span("birth.empirical_distribution")["s"],
        "birth.ode.solves": ode["calls"],
        "birth.ode.states": counts.get("birth.ode.states", 0),
        "birth.solve_forward_odes.s": ode["s"],
        "birth.ode.solve_s.p50": _percentile(ode["durations"], 50),
        "birth.ode.solve_s.p90": _percentile(ode["durations"], 90),
        "mixture.sample_model2.s": draws["s"],
        "mixture.draws": counts.get("mixture.draws", 0),
        "mixture.draws_per_s": _rate(counts.get("mixture.draws", 0), draws["s"]),
        "mixture.quad.calls": quad["calls"],
        "mixture.quad.s": quad["s"],
        "mixture.quad.call_s.p50": _percentile(quad["durations"], 50),
        "mixture.quad.call_s.p90": _percentile(quad["durations"], 90),
        "distribution.harris_pmf.calls": span("distribution.harris_pmf")["calls"],
        "distribution.harris_pmf.s": span("distribution.harris_pmf")["s"],
        "distribution.truncation_index.s":
            span("distribution.truncation_index")["s"],
        "validation.chi_square_gof.calls": gof["calls"],
        "validation.chi_square_gof.s": gof["s"],
        "validation.gof.bins": counts.get("validation.gof.bins", 0),
        "validation.gof.min_expected":
            counts.get("validation.gof.min_expected", 0.0),
        "reporting.render.s": span("reporting.render")["s"],
        "reporting.bytes": counts.get("reporting.bytes", 0),
    }
