"""Statistical validation workflow: goodness of fit, moment bands, reports.

Run:  python demos/validation_workflow.py
"""

import json
from dataclasses import asdict

from harrisproc import (
    HarrisParams,
    RngStream,
    ValidationReport,
    chi_square_quantile,
    sample_harris,
)
from harrisproc.acceptance import run_scenario
from harrisproc.reporting import simulate_text
from harrisproc.validation import chi_square_gof, gof_support


def main():
    print("chi-square upper quantiles (df, alpha -> threshold):")
    for df, alpha in ((1, 0.05), (2, 0.05), (10, 0.5), (17, 0.01)):
        print(f"  df={df:2d}, alpha={alpha}: {chi_square_quantile(df, alpha):.6f}")
    print()

    # a full scenario: simulate the birth model, test against its law
    run = run_scenario("birth", lam=0.5, k=2, t=1.0, replicas=20_000,
                       seed=42, alpha=0.01)
    report = run.report
    print("birth-model validation run (20000 replicas, seed 42):")
    print(f"  gof statistic {report.gof.statistic:.3f} vs threshold "
          f"{report.gof.threshold:.3f} at alpha={report.gof.alpha} "
          f"-> passed={report.gof.passed}")
    print(f"  mean {report.mean_check.empirical:.4f} vs "
          f"{report.mean_check.analytic:.4f} "
          f"(3 SE band +/-{3 * report.mean_check.std_error:.4f}) "
          f"-> passed={report.mean_check.passed}")
    print(f"  var  {report.var_check.empirical:.4f} vs "
          f"{report.var_check.analytic:.4f} "
          f"(rel tol {report.var_check.rel_tol:.4f}: 3 SE of the sample "
          f"variance, at least 5%) "
          f"-> passed={report.var_check.passed}")
    print(f"  overall: {report.overall}\n")

    print("goodness-of-fit bins (label, observed, expected):")
    for cell in report.gof.bins:
        print(f"  {cell.label:>6}  {cell.observed:7}  {cell.expected:9.1f}")
    print()

    # reports serialize losslessly
    payload = asdict(report)
    assert ValidationReport.from_dict(json.loads(json.dumps(payload))) == report
    print("report JSON round-trips losslessly; first lines:")
    print("\n".join(json.dumps(payload, indent=2).splitlines()[:9]), "\n  ...\n")

    # under the null, the alpha=0.05 test rejects about 5% of seeds
    params = HarrisParams(2.0, 2)
    rejections = 0
    seeds = 60
    for seed in range(seeds):
        draws = sample_harris(RngStream(seed), params, size=5_000)
        observed = {}
        for value in draws.tolist():
            observed[value] = observed.get(value, 0) + 1
        # the law as two arrays: support values and their probabilities
        support, probs = gof_support(params, max(observed), len(draws))
        gof = chi_square_gof(observed, support, probs, 0.05)
        rejections += not gof.passed
    print(f"calibration under the null: {rejections}/{seeds} rejections "
          f"at alpha=0.05 (rate {rejections / seeds:.3f})")

    # the exact text the `simulate` command would emit (deterministic bytes)
    print("\n`harrisproc simulate` CSV output, first lines:")
    print("\n".join(simulate_text(run, "csv").splitlines()[:8]))
    print("  ...")


if __name__ == "__main__":
    main()
