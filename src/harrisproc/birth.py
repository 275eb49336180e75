"""Pure-birth process with linear state-dependent rates (the Harris process).

The chain starts at N(0) = 1 and each event adds exactly k, so the state
after n events is 1 + n*k.  While n events have occurred the next one
arrives at rate (n*k + 1) * lam.  The time-t marginal of N is the Harris
law with scale m(t) = exp(t * lam * k); the event count I(t) = (N(t)-1)/k
is negative binomial NB(1/k, exp(-t*lam*k)).

Two independent evaluation routes are provided besides the closed form:
exact event-driven simulation (exponential holding times, no time
discretization) and LSODA integration, with the exact banded Jacobian, of
the truncated Kolmogorov forward equations

    dP[n]/dt = ((n-1)k + 1) lam P[n-1] - (nk + 1) lam P[n],   P[0](0) = 1.

The simulation runs each block of replicas in passes: one stream.uniform
call advances every live replica of the block by several rounds, one
event per round, and a replica ends at its first clock past the horizon.
Its two entry points run the same passes on the same draws: tally_model1
keeps only the tally of N(t), which is all a law at t needs, one block at a
time, and simulate_many also records every event time.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import (HarrisParams, _check_time, _validate_step,
                           tail_bound_after, truncation_index)
from .errors import ConvergenceError, ResourceLimitError
from .sampling import RngStream, _check_draw_budget
from .validation import add_tallies, tally

__all__ = [
    "ProcessParams",
    "Trajectory",
    "TrajectoryBatch",
    "TransientSolution",
    "tally_model1",
    "simulate_many",
    "empirical_distribution",
    "solve_forward_odes",
    "solve_forward_odes_at",
    "process_moments",
]

# Read on every call: caps for pathological parameters, LSODA's rtol and
# atol, and the certified tail beyond the forward equations' state grid.
MAX_EVENTS = 1_000_000
STATE_CAP = 20_000
ODE_TOL = 1e-10
ODE_TAIL = 1e-12
# LSODA's most internal steps between two output times.  odeint's default,
# 500, ended 11 of 315 laws (k <= 20, lam*k*t <= 12) with "Excess work
# done", all at k >= 4 and lam*k*t from 2.5 to 6, where LSODA runs its
# non-stiff method for a few hundred steps before it switches; they take
# up to ~760.  A larger cap changes no law that solved under the smaller.
ODE_MAX_STEPS = 5000
# Replicas per random stream: block b of a batch owns RngStream(seed, b).
BLOCK_SIZE = 8192
# The most uniforms one pass of a block draws, m live replicas times w
# rounds (see _passes).  At least BLOCK_SIZE, so every pass covers at least
# one round of the whole block.
DRAW_CHUNK = 16_384


@dataclass(frozen=True)
class ProcessParams:
    """Base rate lam > 0 and step size k >= 1 of the birth process."""

    lam: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _validate_step(self.k))
        lam = float(self.lam)
        if not lam > 0.0:
            raise ValueError(f"rate lam must be > 0, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)

    def rate_after(self, n_events):
        """Jump rate (n*k + 1)*lam while n events have occurred; n may be an array."""
        return (n_events * self.k + 1) * self.lam

    def scale_at(self, t: float) -> float:
        """Harris scale m(t) = exp(t*lam*k); also the process mean."""
        try:
            return math.exp(t * self.lam * self.k)
        except OverflowError:
            raise ValueError(
                f"scale m = exp(t*lam*k) overflows at t={t!r}, lam={self.lam!r}, "
                f"k={self.k}"
            ) from None

    def harris_at(self, t: float) -> HarrisParams:
        """Marginal law of N(t) for t > 0; a refused m names t, lam and k."""
        t = _check_time(t)
        m = self.scale_at(t)
        try:
            return HarrisParams(m, self.k)
        except ValueError as exc:
            raise ValueError(f"{exc}: m = exp(t*lam*k) at t={t!r}, lam={self.lam!r}, "
                             f"k={self.k}") from None


class Trajectory:
    """Replica r of a TrajectoryBatch: a view that copies nothing when made.

    jump_times[0] = 0 records the start in state 1; entry i > 0 is the
    i-th event, so the state entered at jump_times[i] is 1 + i*k.
    """

    __slots__ = ("batch", "index")

    def __init__(self, batch: "TrajectoryBatch", index: int):
        self.batch = batch
        self.index = index

    @property
    def n_events(self) -> int:
        return int(self.batch.n_events[self.index])

    @property
    def jump_times(self) -> np.ndarray:
        offsets = self.batch.offsets
        row = self.batch.event_times[offsets[self.index]:offsets[self.index + 1]]
        return np.concatenate(([0.0], row))


@dataclass(frozen=True)
class TrajectoryBatch:
    """Sample paths of many replicas as arrays, one row per replica.

    Row r holds replica r's event times, event_times[offsets[r]:offsets[r+1]],
    strictly increasing within (0, horizon].  n_events is the sampler's own
    per-replica event counter.  It is kept apart from the rows, so the
    coupling check compares two records of the same paths.  Indexing and
    iteration give Trajectory views.
    """

    params: ProcessParams
    horizon: float
    n_events: np.ndarray = field(repr=False)
    event_times: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def __post_init__(self):
        times, offsets = self.event_times, self.offsets
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if (len(self.n_events) == 0 or len(offsets) != len(self.n_events) + 1
                or np.any(self.n_events < 0)):
            raise ValueError("need a nonnegative event count and a row per replica")
        if (offsets[0] != 0 or offsets[-1] != len(times)
                or np.any(offsets[1:] < offsets[:-1])):
            raise ValueError("row offsets must rise from 0 to len(event_times)")
        increasing = times[1:] > times[:-1]
        row_starts = offsets[1:-1]
        increasing[row_starts[(row_starts > 0) & (row_starts < len(times))] - 1] = True
        if not (increasing.all() and np.all(times > 0.0)
                and np.all(times <= self.horizon)):
            raise ValueError("event times must increase strictly within (0, horizon]")

    def __len__(self) -> int:
        return len(self.n_events)

    def __getitem__(self, replica: int) -> Trajectory:
        return Trajectory(self, range(len(self))[replica])

    def __iter__(self):
        return (Trajectory(self, r) for r in range(len(self)))

    def counts_at(self, t: float) -> np.ndarray:
        """I(t) per replica: the number of recorded event times <= t."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"query time {t!r} outside [0, horizon={self.horizon}]")
        # rows increase, so a row's events up to t end where its first event
        # after t (or the next row) begins
        after = np.append(np.flatnonzero(self.event_times > t), len(self.event_times))
        starts, ends = self.offsets[:-1], self.offsets[1:]
        return np.minimum(after[np.searchsorted(after, starts)], ends) - starts

    def states_at(self, t: float) -> np.ndarray:
        """N(t) = 1 + k*I(t) per replica."""
        return 1 + self.params.k * self.counts_at(t)

    def coupling_violations(self) -> int:
        """Replicas whose recorded path does not end in 1 + k*(event count).

        N(horizon) comes from the recorded event times, the count from the
        sampler's counter; zero on a valid batch.
        """
        expected = 1 + self.params.k * self.n_events
        return int(np.count_nonzero(self.states_at(self.horizon) != expected))


def _check_run(params: ProcessParams, horizon, n_replicas: int) -> float:
    """The horizon as a float; refuses, before any stream is made, a horizon
    not > 0, no replicas, a mean path, (m(horizon) - 1)/k events, past
    MAX_EVENTS, n_replicas*(1 + (m(horizon) - 1)/k) expected draws past
    MAX_DRAWS, or a run that expects at least one path past MAX_EVENTS:
    n_replicas times the certified tail after it, exact at k = 1.  The draws
    counted are events plus path ends, not uniforms: a pass also draws the
    rest of each ending column, ~1.25 uniforms per counted draw at criterion
    3's law (5,000 paths) and up to 1.75 for one path (lam 1, k 1, t 0.7)."""
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    if n_replicas < 1:
        raise ValueError(f"need at least one replica, got {n_replicas!r}")
    m = params.scale_at(horizon)
    mean_events = (m - 1.0) / params.k
    if mean_events > MAX_EVENTS:
        raise ResourceLimitError(
            f"a path to t={horizon} averages {mean_events:.4g} events, "
            f"more than {MAX_EVENTS}"
        )
    try:
        draws = math.ceil(n_replicas * (1.0 + mean_events))
    except OverflowError:  # more replicas than a float holds
        draws = math.inf
    _check_draw_budget("expected birth draws", draws)
    past_cap = (n_replicas * tail_bound_after(HarrisParams(m, params.k), MAX_EVENTS)
                if m > 1.0 else 0.0)
    if past_cap >= 1.0:
        raise ResourceLimitError(
            f"{n_replicas} paths to t={horizon} expect {past_cap:.4g} of them "
            f"past {MAX_EVENTS} events"
        )
    return horizon


def _blocks(n_replicas: int, seed: int):
    """(first replica, size, stream) of each block: block b owns RngStream(seed, b)."""
    for b, first in enumerate(range(0, n_replicas, BLOCK_SIZE)):
        yield first, min(BLOCK_SIZE, n_replicas - first), RngStream(seed, stream_id=b)


def _passes(params: ProcessParams, horizon: float, stream: RngStream, size: int):
    """Run one block of replicas to the horizon, several rounds per pass.

    Pass p starts at round j with the m replicas still inside the horizon,
    each holding j events, and advances them w = max(1, min(2**p,
    DRAW_CHUNK // m)) rounds on one stream.uniform(m*w) call: row r of the
    (w, m) clocks holds round j + r of every live replica, in replica
    order, its clock plus the cumulative holding times -ln(U)/((i*k + 1)*lam)
    for rounds i = j..j + r.  A clock past the horizon ends its replica with
    j + r events, and the rest of its column is discarded.  Yields (j,
    alive, clocks, n): the block-local ids of the pass's replicas, their
    clocks and the events n each has inside the horizon in this pass.
    ResourceLimitError is raised once a replica passes MAX_EVENTS events.
    """
    alive = np.arange(size)
    clock = np.zeros(size)
    j = 0
    for p in itertools.count():
        w = max(1, min(2**p, DRAW_CHUNK // alive.size))
        clocks = stream.uniform(alive.size * w).reshape(w, alive.size)
        np.log(clocks, out=clocks)
        clocks /= -params.rate_after(np.arange(j, j + w))[:, np.newaxis]
        clocks[0] += clock
        if w < alive.size:  # cumsum along a short axis 0 is ~5x slower
            for r in range(1, w):
                clocks[r] += clocks[r - 1]
        else:
            np.cumsum(clocks, axis=0, out=clocks)
        n = np.count_nonzero(clocks <= horizon, axis=0)
        if j + n.max() > MAX_EVENTS:
            raise ResourceLimitError(
                f"trajectory exceeded {MAX_EVENTS} events before t={horizon}"
            )
        yield j, alive, clocks, n
        survivors = n == w
        if not survivors.any():
            return
        alive, clock = alive[survivors], clocks[-1, survivors]
        j += w


def tally_model1(params: ProcessParams, horizon: float, n_replicas: int,
                 seed: int) -> dict:
    """Frequency map of N(horizon) = 1 + k*I(horizon) over the replicas.

    Runs simulate_many's passes on the same draws, so it equals the tally of
    1 + k*simulate_many(params, horizon, n_replicas, seed).n_events, and
    raises what that raises.  Each block's counts are tallied as soon as
    the block ends, so a run holds one block's counts and one pass's clocks.
    """
    horizon = _check_run(params, horizon, n_replicas)

    def block(size, stream):
        counts = np.zeros(size, dtype=np.int64)
        for _, alive, _, n in _passes(params, horizon, stream, size):
            counts[alive] += n
        return tally(1 + params.k * counts)

    return add_tallies(block(size, stream) for _, size, stream
                       in _blocks(n_replicas, seed))


def simulate_many(params: ProcessParams, horizon: float, n_replicas: int,
                  seed: int) -> TrajectoryBatch:
    """Exact event-driven simulation of independent replicas to the horizon.

    Replica block b (replicas b*BLOCK_SIZE to (b+1)*BLOCK_SIZE - 1) runs
    alone on RngStream(seed, b), in passes that add exponential holding
    times -ln(U)/((i*k + 1)*lam), i being the replica's event count, with
    no time discretization (see _passes).  Which draws feed a replica
    depends only on the live set at the start of each pass, so every full
    block gives the same paths whatever n_replicas is.  The rows are
    filled from each pass's clocks inside the horizon, and n_events counts
    them.  Raises ResourceLimitError if a path would exceed MAX_EVENTS (a
    guard for pathological parameters; the process itself is non-explosive
    on finite horizons), before any draw if the mean path of
    (m(horizon) - 1)/k events already does or the run expects a path to
    (see _check_run, which also refuses a run past the draw budget).
    """
    horizon = _check_run(params, horizon, n_replicas)
    n_events = np.zeros(n_replicas, dtype=np.int64)
    passes = []
    for first, size, stream in _blocks(n_replicas, seed):
        block = n_events[first:first + size]
        for j, alive, clocks, n in _passes(params, horizon, stream, size):
            block[alive] += n
            passes.append((j, first + alive, clocks))

    offsets = np.zeros(n_replicas + 1, dtype=np.int64)
    np.cumsum(n_events, out=offsets[1:])
    event_times = np.empty(offsets[-1])
    for j, replicas, clocks in passes:
        # round j + r is entry j + r of its replica's row
        rows, cols = np.nonzero(clocks <= horizon)
        event_times[offsets[replicas[cols]] + j + rows] = clocks[rows, cols]
    return TrajectoryBatch(params, horizon, n_events, event_times, offsets)


def empirical_distribution(batch: TrajectoryBatch, t: float) -> dict:
    """Frequency map state -> count of N(t) across the batch's replicas."""
    return tally(batch.states_at(t))


@dataclass(frozen=True)
class TransientSolution:
    """Forward-equation probabilities P(N(t) = 1 + n*k) for n = 0..n_max."""

    probs: np.ndarray = field(repr=False)
    truncation_tail: float

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1

    @property
    def total(self) -> float:
        return float(self.probs.sum()) + self.truncation_tail


def _forward_system(params: ProcessParams, n_max: int) -> tuple:
    """Right-hand side and Jacobian band of the forward system on 0..n_max.

    The system dP/dt = A P is linear, so the Jacobian is the rate matrix A
    itself: band[0] holds its diagonal -rates and band[1, j] = rates[j]
    the entry A[j+1, j] below it (LAPACK band storage, ml=1, mu=0).
    """
    rates = params.rate_after(np.arange(n_max + 1))
    # flow[j+1] is the flow out of state j; flow[0] = 0 flows into state 0
    flow = np.zeros(n_max + 2)

    def rhs(p, _t):
        np.multiply(rates, p, out=flow[1:])
        return flow[:-1] - flow[1:]  # a new array: the next call rewrites flow

    band = np.zeros((2, n_max + 1))
    band[0] = -rates
    band[1, :-1] = rates[:-1]
    return rhs, band


def solve_forward_odes(params: ProcessParams, t: float) -> TransientSolution:
    """Integrate the truncated forward equations from the unit start to t.

    The one-time case of solve_forward_odes_at; t = 0 returns the initial
    law directly.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    if t == 0.0:
        return TransientSolution(np.array([1.0]), 0.0)
    return solve_forward_odes_at(params, (t,))[0]


def solve_forward_odes_at(params: ProcessParams, times) -> list:
    """One TransientSolution per time, from one integration of the forward
    equations from the unit start through every time.

    times must be positive and strictly increasing.  Each time's grid stops
    where its certified closed-form tail falls below ODE_TAIL; the system is
    integrated once, on the longest of these grids.  It is lower triangular
    (state n is fed only by n-1), so truncating it leaves every retained
    state exact: no margin is needed, and each time's law is the integrated
    state cut to its own grid.  The rates run up to (n_max*k + 1)*lam, so
    the system is stiff; LSODA with the exact Jacobian sizes its steps by
    accuracy, not by stability.  Raises ConvergenceError if the integration
    fails, and ResourceLimitError past STATE_CAP states.
    """
    # imported here so that commands without a witness never load it
    from scipy.integrate import ODEintWarning, odeint
    times = [float(t) for t in times]
    if not times or times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be positive and increasing, got {times!r}")

    marginals = [params.harris_at(t) for t in times]
    n_maxes = [max(truncation_index(marginal, ODE_TAIL, max_terms=STATE_CAP), 2)
               for marginal in marginals]
    rhs, band = _forward_system(params, max(n_maxes))
    y0 = np.zeros(len(band[0]))
    y0[0] = 1.0
    # odeint, not solve_ivp(method="LSODA"): in scipy 1.17.1 the latter
    # leaks about 70 KB per call.  A failure is reported through info, so
    # the warning odeint also emits for it is silenced.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        path, info = odeint(rhs, y0, (0.0, *times), Dfun=lambda _p, _t: band,
                            ml=1, mu=0, rtol=ODE_TOL, atol=ODE_TOL,
                            mxstep=ODE_MAX_STEPS, full_output=True)
    if info["message"] != "Integration successful.":
        raise ConvergenceError(f"forward integration failed: {info['message']}")
    solutions = []
    for state, marginal, n_max in zip(path[1:], marginals, n_maxes):
        probs = state[:n_max + 1]
        if probs.min() < -1e-9:
            raise ConvergenceError(
                f"forward integration produced probability {probs.min()!r}"
            )
        solutions.append(TransientSolution(np.clip(probs, 0.0, None),
                                           tail_bound_after(marginal, n_max)))
    return solutions


def process_moments(params: ProcessParams, t: float) -> tuple:
    """Closed-form mean exp(t*lam*k) and variance m*(m-1)*k of N(t)."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    m = params.scale_at(t)
    return m, params.k * m * (m - 1.0)  # same ordering as harris_mean_var
