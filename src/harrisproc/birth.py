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

The simulation has two entry points that run the same rounds on the same
draws: count_events keeps only each replica's count I(t), which is all a
law at t needs, and simulate_many also records every event time.
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
from .sampling import RngStream
from .validation import tally

__all__ = [
    "ProcessParams",
    "Trajectory",
    "TrajectoryBatch",
    "TransientSolution",
    "count_events",
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
# Uniforms a block draws ahead, and about the events per group when the
# rows are filled.  The uniforms are the stream's nonzero values in order;
# consecutive calls concatenate, so the chunk changes no value.  At least
# BLOCK_SIZE, so one refill covers any round; a 5000-path run of ~0.9
# events each uses ~9,500 draws, and drawing 65,536 made it 0.8 ms slower
# than drawing per round.
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
        """Marginal law of N(t) for t > 0."""
        return HarrisParams(self.scale_at(_check_time(t)), self.k)


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


class _Exponentials:
    """Exponentials -ln(U) of one stream, drawn DRAW_CHUNK uniforms ahead.

    take(n) returns -ln of exactly the uniforms stream.uniform(n) would
    return at the same point of the stream: uniform gives the stream's
    nonzero values in order and consecutive calls concatenate, so reading
    ahead changes no value.
    """

    def __init__(self, stream: RngStream):
        self._uniform = stream.uniform
        self._draws = np.empty(0)
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        if self._pos + n > self._draws.size:
            fresh = self._uniform(max(DRAW_CHUNK, n))
            np.log(fresh, out=fresh)
            np.negative(fresh, out=fresh)
            self._draws = np.concatenate((self._draws[self._pos:], fresh))
            self._pos = 0
        self._pos += n
        return self._draws[self._pos - n:self._pos]


def _check_run(params: ProcessParams, horizon, n_replicas: int) -> float:
    """The horizon as a float; refuses, before any draw, a horizon not > 0,
    no replicas, or a mean path, (m(horizon) - 1)/k events, past MAX_EVENTS."""
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    if n_replicas < 1:
        raise ValueError(f"need at least one replica, got {n_replicas!r}")
    mean_events = (params.scale_at(horizon) - 1.0) / params.k
    if mean_events > MAX_EVENTS:
        raise ResourceLimitError(
            f"a path to t={horizon} averages {mean_events:.4g} events, "
            f"more than {MAX_EVENTS}"
        )
    return horizon


def _blocks(n_replicas: int, seed: int):
    """(first replica, size, stream) of each block: block b owns RngStream(seed, b)."""
    for b, first in enumerate(range(0, n_replicas, BLOCK_SIZE)):
        yield first, min(BLOCK_SIZE, n_replicas - first), RngStream(seed, stream_id=b)


def _rounds(params: ProcessParams, horizon: float, stream: RngStream, size: int):
    """Run one block of replicas to the horizon, one event per round.

    Round j advances every replica with j events by one holding time
    -ln(U)/((j*k + 1)*lam) and yields (j, retired, alive, clock): the
    block-local ids of the replicas whose next event falls past the
    horizon, so that they end with j events, then those of the others with
    their (j+1)-th event times, all in replica order.  The last round
    retires every replica left; ResourceLimitError is raised once a
    replica passes MAX_EVENTS events.
    """
    draws = _Exponentials(stream)
    alive = np.arange(size, dtype=np.min_scalar_type(size - 1))
    clock = np.zeros(size)
    for j in itertools.count():
        clock = clock + draws.take(alive.size) / params.rate_after(j)
        inside = clock <= horizon
        if inside.all():  # no replica leaves in most rounds of a long path
            retired = alive[:0]
        else:
            retired = alive[~inside]
            alive, clock = alive[inside], clock[inside]
        yield j, retired, alive, clock
        if alive.size == 0:
            return
        if j == MAX_EVENTS:
            raise ResourceLimitError(
                f"trajectory exceeded {MAX_EVENTS} events before t={horizon}"
            )


def _block_groups(params: ProcessParams, horizon: float, stream: RngStream,
                  size: int) -> list:
    """The event times of one block's rounds, in groups of consecutive rounds.

    Each group holds about DRAW_CHUNK events, as (first round, events per
    round, block-local replica ids, event times), every round in replica
    order.
    """
    groups, ids, clocks, pending = [], [], [], 0
    for j, _, alive, clock in _rounds(params, horizon, stream, size):
        if ids and (pending >= DRAW_CHUNK or alive.size == 0):
            groups.append((j - len(ids), [members.size for members in ids],
                           np.concatenate(ids), np.concatenate(clocks)))
            ids, clocks, pending = [], [], 0
        ids.append(alive)
        clocks.append(clock)
        pending += alive.size
    return groups


def count_events(params: ProcessParams, horizon: float, n_replicas: int,
                 seed: int) -> np.ndarray:
    """The event count I(horizon) of each replica, without storing its path.

    Runs simulate_many's rounds on the same draws, so every count equals
    simulate_many(params, horizon, n_replicas, seed).n_events bit for bit,
    and raises what it raises; only the live replicas' clocks are kept, and
    a replica's count is the round that retires it.
    """
    horizon = _check_run(params, horizon, n_replicas)
    n_events = np.zeros(n_replicas, dtype=np.int64)
    for first, size, stream in _blocks(n_replicas, seed):
        block = n_events[first:first + size]
        for j, retired, _, _ in _rounds(params, horizon, stream, size):
            if retired.size:
                block[retired] = j
    return n_events


def simulate_many(params: ProcessParams, horizon: float, n_replicas: int,
                  seed: int) -> TrajectoryBatch:
    """Exact event-driven simulation of independent replicas to the horizon.

    Replica block b (replicas b*BLOCK_SIZE to (b+1)*BLOCK_SIZE - 1) runs
    alone on RngStream(seed, b).  Each round advances every replica of the
    block still inside the horizon by one exponential holding time
    -ln(U)/((j*k + 1)*lam), where j, the round, is the event count of every
    such replica, and retires those that pass the horizon; no time
    discretization is involved.  The uniforms are those of one
    stream.uniform call per round, one per live replica in replica order.
    uniform gives the stream's nonzero values in order and consecutive
    calls concatenate, so drawing them ahead in chunks of DRAW_CHUNK
    changes none, and every full block gives the same paths whatever
    n_replicas is.  The rows are filled from groups of about DRAW_CHUNK
    events, so no temporary spans the whole batch, and n_events counts each
    replica's recorded events.  Raises ResourceLimitError if a path would
    exceed MAX_EVENTS (a guard for pathological parameters; the process
    itself is non-explosive on finite horizons), before any draw if the
    mean path, (m(horizon) - 1)/k events, already does.
    """
    horizon = _check_run(params, horizon, n_replicas)
    n_events = np.zeros(n_replicas, dtype=np.int64)
    blocks = []
    for first, size, stream in _blocks(n_replicas, seed):
        groups = _block_groups(params, horizon, stream, size)
        for _, _, members, _ in groups:
            n_events[first:first + size] += np.bincount(members, minlength=size)
        blocks.append((first, groups))

    offsets = np.zeros(n_replicas + 1, dtype=np.int64)
    np.cumsum(n_events, out=offsets[1:])
    event_times = np.empty(offsets[-1])
    for first, groups in blocks:
        row_starts = offsets[first:]
        for first_round, sizes, members, times in groups:
            # the event of round j is entry j of its replica's row
            rounds = np.repeat(np.arange(first_round, first_round + len(sizes)),
                               sizes)
            event_times[row_starts[members] + rounds] = times
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

    def rhs(p, _t):
        out = -rates * p
        out[1:] += rates[:-1] * p[:-1]
        return out

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
