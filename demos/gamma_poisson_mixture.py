"""The gamma-mixed Poisson route to the Harris law.

A Poisson count X(t) whose rate is gamma distributed (shape 1/k, rate a)
becomes Harris distributed after the affine map Z = k*X + 1, with scale
m = (a+t)/a.  Three independent routes agree: the closed form, adaptive
quadrature of the defining integral, and two-stage sampling.

Run:  python demos/gamma_poisson_mixture.py
"""

import math

import numpy as np

from harrisproc import (
    MixtureParams,
    ProcessParams,
    RngStream,
    harris_pmf,
    mixture_moments,
    mixture_pmf,
    mixture_pmf_quadrature,
    sample_model2,
)


def main():
    params = MixtureParams(a=1.0, k=2)
    t = 1.0
    print(f"gamma mixing: shape 1/k = {1 / params.k}, rate a = {params.a}")
    print(f"query time t={t} induces Harris scale m = (a+t)/a = "
          f"{params.scale_at(t)}\n")

    print("closed form vs quadrature of the mixture integral:")
    print("   n    x   closed form       quadrature        |diff|")
    ns = np.arange(6)
    # one vectorised quadrature call integrates every n at once
    for n, closed, quad in zip(ns, mixture_pmf(params, t, ns),
                               mixture_pmf_quadrature(params, t, ns)):
        print(f"  {n:2d}  {1 + 2 * n:3d}   {closed:.12f}   {quad:.12f}   "
              f"{abs(closed - quad):.1e}")
    print()

    draws = sample_model2(RngStream(42), params, t, size=200_000)
    mean, var = mixture_moments(params, t)
    print(f"two-stage sampler, {len(draws)} draws:")
    print(f"  empirical mean {draws.mean():.4f} vs (a+t)/a    = {mean}")
    print(f"  empirical var  {draws.var(ddof=1):.4f} vs (a+t)tk/a^2 = {var}")
    print(f"  all draws on the lattice: {bool(np.all((draws - 1) % params.k == 0))}")
    # law of total expectation: E[Z] = 1 + k * E[rate] * t = 1 + t/a
    print(f"  1 + t/a check: {1 + t / params.a}\n")

    # both constructions land on the same law when the scales match:
    # exp(t*lam*k) = 2 here, and (a+t)/a = 2 above
    birth = ProcessParams(lam=math.log(2.0) / 2.0, k=2)
    print("model equivalence (same scale, same law):")
    print(f"  birth scale  exp(t*lam*k) = {birth.scale_at(1.0)}")
    print(f"  mixture scale (a+t)/a     = {params.scale_at(1.0)}")
    ns = np.arange(4)
    print("  birth-route pmf:  ", harris_pmf(birth.harris_at(1.0), ns))
    print("  mixture-route pmf:", np.array([mixture_pmf(params, t, int(n))
                                            for n in ns]))


if __name__ == "__main__":
    main()
