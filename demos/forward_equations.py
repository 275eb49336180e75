"""Kolmogorov forward equations as an independent route to the marginal law.

The truncated system  dP[n]/dt = ((n-1)k+1) lam P[n-1] - (nk+1) lam P[n]
with P[0](0) = 1 is integrated by LSODA with its exact banded Jacobian on
the certified truncation grid and compared against the closed form, digit
by digit.

Run:  python demos/forward_equations.py
"""

import math

import numpy as np

from harrisproc import (
    ProcessParams,
    decap_geometric_pmf,
    harris_pmf,
    solve_forward_odes,
)


def main():
    params = ProcessParams(lam=0.5, k=2)
    t = 1.0
    solution = solve_forward_odes(params, t, tail_bound=1e-12)
    closed = harris_pmf(params.harris_at(t), np.arange(solution.n_max + 1))
    gaps = np.abs(solution.probs - closed)

    print(f"forward equations at lam={params.lam}, k={params.k}, t={t}")
    print(f"state grid sized from the certified tail: n_max = {solution.n_max}\n")
    print("   n    x   ode              closed form      |diff|")
    for n in range(7):
        print(f"  {n:2d}  {1 + 2 * n:3d}   {solution.probs[n]:.12f}  "
              f"{closed[n]:.12f}  {gaps[n]:.2e}")
    print(f"\nmax |ode - closed form| over the whole grid: {gaps.max():.3e}")
    print(f"probability mass + certified tail: {solution.total:.12f}\n")

    # k=1 turns the process into the linear (Yule-Furry) birth process whose
    # marginal is the decapitated geometric with parameter exp(-lam*t)
    yule = ProcessParams(lam=1.0, k=1)
    t = 0.7
    solution = solve_forward_odes(yule, t)
    q = math.exp(-t)
    decap = decap_geometric_pmf(q, np.arange(1, solution.n_max + 2))
    print(f"k=1 reduction at lam=1, t={t} (q = exp(-t) = {q:.6f}):")
    print("   x   ode              decapitated geometric")
    for n in range(6):
        print(f"  {n + 1:2d}   {solution.probs[n]:.12f}  {decap[n]:.12f}")
    print(f"max |diff|: {np.abs(solution.probs - decap).max():.3e}")


if __name__ == "__main__":
    main()
