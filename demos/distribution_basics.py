"""Tour of the Harris distribution: p.m.f., p.g.f., moments, and relatives.

Run:  python demos/distribution_basics.py
"""

import math

import numpy as np

from harrisproc import (
    HarrisParams,
    decap_geometric_pmf,
    harris_mean_var,
    harris_pgf,
    harris_pmf,
    nb_pmf,
    pmf_table,
)


def main():
    params = HarrisParams(m=math.e, k=2)
    print(f"Harris law with scale m={params.m:.6f}, step k={params.k} "
          f"(index 1/k = {params.index})")
    print(f"support: 1, {1 + params.k}, {1 + 2 * params.k}, ... "
          "(every value is 1 modulo k)\n")

    print("p.m.f. head (x = 1 + n*k):")
    xs, probs, tail_mass = pmf_table(params, tail_bound=1e-12)
    for n in range(8):
        print(f"  n={n:2d}  x={xs[n]:3d}  P = {probs[n]:.8f}")
    print(f"  ... {len(probs)} entries sum to {probs.sum():.12f} "
          f"(+ certified tail below {tail_mass:.1e})\n")

    mean, var = harris_mean_var(params)
    print(f"closed-form moments: mean = {mean:.6f}, variance = {var:.6f}")
    print(f"  (variance = k*m*(m-1) = {params.k}*{params.m:.4f}*"
          f"{params.m - 1:.4f})\n")

    # the generating function s / (m - (m-1)s^k)^(1/k) reproduces the mass
    # series, and its derivative at 1 is the mean
    s = 0.5
    ns = np.arange(200)
    series = float((harris_pmf(params, ns) * s ** (1 + ns * params.k)).sum())
    print(f"p.g.f. at s={s}: {harris_pgf(params, s):.12f}")
    print(f"power series:    {series:.12f}")
    h = 1e-5
    deriv = (harris_pgf(params, 1 + h) - harris_pgf(params, 1 - h)) / (2 * h)
    print(f"central difference of the p.g.f. at 1: {deriv:.6f} "
          f"(mean is {mean:.6f})\n")

    # the law is the negative binomial NB(1/k, 1/m) pushed through
    # x = 1 + k*n, so the two evaluations agree identically
    print("negative binomial identity (n, harris, nb):")
    for n in range(4):
        print(f"  {n}  {harris_pmf(params, n):.10f}  "
              f"{nb_pmf(params.index, 1 / params.m, n):.10f}")
    print()

    # k = 1 collapses to the decapitated geometric on {1, 2, 3, ...}
    geom = HarrisParams(m=2.0, k=1)
    print("k=1 reduction (x, harris, decapitated geometric):")
    for x in range(1, 6):
        print(f"  {x}  {harris_pmf(geom, x - 1):.6f}  "
              f"{decap_geometric_pmf(0.5, x):.6f}")


if __name__ == "__main__":
    main()
