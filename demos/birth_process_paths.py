"""Event-driven simulation of the pure-birth Harris process.

The chain starts at 1, each event adds exactly k, and while n events have
occurred the next one arrives at rate (n*k + 1)*lam.  The marginal at time
t is the Harris law with scale exp(t*lam*k).

Run:  python demos/birth_process_paths.py
"""

from harrisproc import (
    ProcessParams,
    empirical_distribution,
    harris_pmf,
    process_moments,
    simulate_many,
)


def main():
    params = ProcessParams(lam=0.5, k=2)
    print(f"birth process: lam={params.lam}, k={params.k}")
    print(f"state-n jump rates: " +
          ", ".join(f"{params.rate_after(n)}" for n in range(5)) + ", ...\n")

    print("three sample paths over [0, 2]:")
    paths = simulate_many(params, 2.0, 3, seed=7)
    for replica, traj in enumerate(paths):
        path = " -> ".join(
            f"{1 + i * params.k}@{time:.3f}"
            for i, time in enumerate(traj.jump_times)
        )
        print(f"  replica {replica}: {path}")
    # every path satisfies N = 1 + k * (event count), exactly
    assert paths.coupling_violations() == 0
    print()

    t = 1.0
    replicas = 20_000
    trajectories = simulate_many(params, t, replicas, seed=42)
    states = trajectories.states_at(t)
    mean, var = process_moments(params, t)
    print(f"{replicas} replicas at t={t}:")
    print(f"  empirical mean {states.mean():.4f} vs exp(t*lam*k) = {mean:.4f}")
    print(f"  empirical var  {states.var(ddof=1):.4f} vs m(m-1)k   = {var:.4f}\n")

    print("empirical vs closed-form frequencies:")
    observed = empirical_distribution(trajectories, t)
    marginal = params.harris_at(t)
    print("   x  observed  expected")
    for x in sorted(observed)[:8]:
        expected = replicas * harris_pmf(marginal, (x - 1) // params.k)
        print(f"  {x:2d}  {observed[x]:8d}  {expected:8.1f}")

    print("\nthe mean grows with t (the process is not stationary):")
    for ti in (0.0, 0.5, 1.0, 1.5, 2.0):
        print(f"  t={ti:3.1f}: mean {process_moments(params, ti)[0]:8.4f}")


if __name__ == "__main__":
    main()
