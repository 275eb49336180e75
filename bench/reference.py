"""A fixed reference task, timed next to every pass to factor out host speed.

On a shared virtual machine the speed of the same code drifts by up to 2x
over minutes, in CPU time as well as in wall time, so raw seconds from two
runs are not comparable.  The worker times this task right before and right
after each pass, and scales the pass time by ``NOMINAL_S`` over the mean of
the two reference times around it: the result is the pass time on a host
where the task takes ``NOMINAL_S``.  Host drift slows both alike and
cancels; a change to harrisproc moves only the pass time, because the task
uses no harrisproc code.

The task mixes the kinds of work harrisproc does: seeding many PCG64
streams, a scalar event loop in pure Python, vectorised gamma-Poisson draws
with an ``np.unique`` tally, and adaptive quadrature and RK45 calls in
scipy.  It checks its own results, so a broken environment cannot pass as a
fast one.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad, solve_ivp

# The task's time on the 2-vCPU Xeon VM the benchmark was written on, in a
# quiet phase of the host; changing it rescales every normalised time.
NOMINAL_S = 0.18
STREAMS = 4500
HORIZON = 2.0
DRAWS = 600_000
DRAW_CHUNK = 20_000
QUADRATURES = 180


def _streams_and_events() -> int:
    events = 0
    for stream in range(STREAMS):
        generator = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(7, spawn_key=(stream,))))
        random = generator.random
        clock, n, times = 0.0, 0, [0.0]
        while True:
            clock -= math.log(1.0 - random()) / (n + 1)
            if clock > HORIZON:
                break
            n += 1
            times.append(clock)
        events += len(np.asarray(times)) - 1
    return events


def _mixture_tally() -> int:
    # Drawn in chunks so that the task's own arrays stay far below the
    # memory of any pass and do not set the worker's peak RSS.
    generator = np.random.default_rng(7)
    drawn = 0
    for _ in range(DRAWS // DRAW_CHUNK):
        counts = generator.poisson(generator.gamma(0.5, 2.0, size=DRAW_CHUNK))
        values, tally = np.unique(counts, return_counts=True)
        drawn += int(tally.sum()) if len(values) > 1 else 0
    return drawn


def _deterministic() -> float:
    total = 0.0
    for i in range(QUADRATURES):
        r = 0.5 + i / QUADRATURES
        value, _ = quad(lambda u: u ** (r - 1.0) * math.exp(-u), 0.0, 50.0,
                        epsabs=1e-13, epsrel=1e-13, limit=200)
        total += value / math.gamma(r)
    states = 40
    solution = solve_ivp(
        lambda _t, p: np.concatenate(([-p[0]], p[:-1] - p[1:])) * 1.0,
        (0.0, 3.0), np.eye(1, states).ravel(), method="RK45",
        rtol=1e-10, atol=1e-12)
    return total + float(solution.y[:, -1].sum())


def run() -> float:
    """Seconds the reference task takes; raises if its results are wrong."""
    start = time.perf_counter()
    events = _streams_and_events()
    draws = _mixture_tally()
    check = _deterministic()
    seconds = time.perf_counter() - start
    if not (events > STREAMS and draws == DRAWS
            and abs(check - (QUADRATURES + 1.0)) < 1e-6):
        raise RuntimeError(f"reference task gave wrong results: {events}, "
                           f"{draws}, {check}")
    return seconds
