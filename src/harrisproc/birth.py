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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import ODEintWarning, odeint

from .distribution import (
    HarrisParams,
    _validate_step,
    nb_pmf,
    tail_bound_after,
    truncation_index,
)
from .errors import ConvergenceError, ResourceLimitError
from .sampling import RngStream

__all__ = [
    "ProcessParams",
    "Trajectory",
    "TrajectoryBatch",
    "TransientSolution",
    "simulate_many",
    "empirical_distribution",
    "solve_forward_odes",
    "process_moments",
    "incentive_pmf",
]

DEFAULT_EVENT_CAP = 1_000_000
DEFAULT_STATE_CAP = 20_000
# Replicas per random stream: block b of a batch owns RngStream(seed, b).
BLOCK_SIZE = 8192


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

    def rate_after(self, n_events: int) -> float:
        """Jump rate (n*k + 1)*lam while n events have occurred."""
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
        return HarrisParams(self.scale_at(t), self.k)


class Trajectory:
    """Replica r of a TrajectoryBatch: a view that copies nothing when made.

    jump_times[0] = 0 records the start in state 1; entry i > 0 is the
    i-th event, so the state entered at jump_times[i] is 1 + i*k.
    """

    __slots__ = ("batch", "index")

    def __init__(self, batch: "TrajectoryBatch", index: int):
        self.batch = batch
        self.index = index

    def __repr__(self):
        return f"Trajectory(replica={self.index}, n_events={self.n_events})"

    @property
    def params(self) -> ProcessParams:
        return self.batch.params

    @property
    def horizon(self) -> float:
        return self.batch.horizon

    @property
    def n_events(self) -> int:
        return int(self.batch.n_events[self.index])

    def _event_times(self) -> np.ndarray:
        offsets = self.batch.offsets
        return self.batch.event_times[offsets[self.index]:offsets[self.index + 1]]

    @property
    def jump_times(self) -> np.ndarray:
        return np.concatenate(([0.0], self._event_times()))

    def state_at(self, t: float) -> int:
        """N(t): the last state entered no later than t."""
        self.batch._check_time(t)
        events = np.searchsorted(self._event_times(), t, side="right")
        return 1 + self.params.k * int(events)

    def incentives_at(self, t: float) -> int:
        """I(t) = (N(t) - 1) / k, the exact event count by time t."""
        return (self.state_at(t) - 1) // self.params.k


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

    def _check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"query time {t!r} outside [0, horizon={self.horizon}]")

    def counts_at(self, t: float) -> np.ndarray:
        """I(t) per replica: the number of recorded event times <= t."""
        self._check_time(t)
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


def simulate_many(params: ProcessParams, horizon: float, n_replicas: int,
                  seed: int, max_events: int = DEFAULT_EVENT_CAP) -> TrajectoryBatch:
    """Exact event-driven simulation of independent replicas to the horizon.

    Each round advances every replica still inside the horizon by one
    exponential holding time -ln(U)/((j*k + 1)*lam), where j, the round,
    is the event count of every such replica, and retires those that pass
    the horizon; no time discretization is involved.  Replica block b
    (replicas b*BLOCK_SIZE to (b+1)*BLOCK_SIZE - 1) draws from
    RngStream(seed, b), one uniform per replica of the block still alive
    in each round, in replica order.  So every full block gives the same
    paths whatever n_replicas is.  Raises ResourceLimitError if a path
    would exceed max_events (a guard for pathological parameters; the
    process itself is non-explosive on finite horizons).
    """
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    if n_replicas < 1:
        raise ValueError(f"need at least one replica, got {n_replicas!r}")
    streams = [RngStream(seed, stream_id=b)
               for b in range(math.ceil(n_replicas / BLOCK_SIZE))]
    alive = np.arange(n_replicas)
    clock = np.zeros(n_replicas)
    n_events = np.zeros(n_replicas, dtype=np.int64)
    # rounds[j]: the (j+1)-th event time of every replica with more than
    # j events, in replica order
    rounds = []
    while True:
        per_block = np.bincount(alive // BLOCK_SIZE, minlength=len(streams))
        uniforms = np.concatenate([stream.uniform(size) for stream, size
                                   in zip(streams, per_block) if size])
        rate = (len(rounds) * params.k + 1) * params.lam
        clock = clock - np.log(uniforms) / rate
        inside = clock <= horizon
        alive, clock = alive[inside], clock[inside]
        if alive.size == 0:
            break
        if len(rounds) == max_events:
            raise ResourceLimitError(
                f"trajectory exceeded {max_events} events before t={horizon}"
            )
        n_events[alive] += 1
        rounds.append(clock)

    offsets = np.zeros(n_replicas + 1, dtype=np.int64)
    np.cumsum(n_events, out=offsets[1:])
    event_times = np.empty(offsets[-1])
    members = np.arange(n_replicas)
    for j, times in enumerate(rounds):
        members = members[n_events[members] > j]
        event_times[offsets[members] + j] = times
    return TrajectoryBatch(params, horizon, n_events, event_times, offsets)


def empirical_distribution(batch: TrajectoryBatch, t: float) -> dict:
    """Frequency map state -> count of N(t) across the batch's replicas."""
    values, counts = np.unique(batch.states_at(t), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


@dataclass(frozen=True)
class TransientSolution:
    """Forward-equation probabilities P(N(t) = 1 + n*k) for n = 0..n_max."""

    params: ProcessParams
    t: float
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
    rates = (np.arange(n_max + 1) * params.k + 1) * params.lam

    def rhs(p, _t):
        out = -rates * p
        out[1:] += rates[:-1] * p[:-1]
        return out

    band = np.zeros((2, n_max + 1))
    band[0] = -rates
    band[1, :-1] = rates[:-1]
    return rhs, band


def solve_forward_odes(params: ProcessParams, t: float, tail_bound: float = 1e-12,
                       state_cap: int = DEFAULT_STATE_CAP,
                       rtol: float = 1e-10, atol: float = 1e-10) -> TransientSolution:
    """Integrate the truncated forward equations from the unit start to t.

    The grid stops at the certified truncation index of the closed-form
    tail.  The system is lower triangular (state n is fed only by n-1), so
    truncating it leaves every retained state exact: no margin is needed.
    The rates run up to (n_max*k + 1)*lam, so the system is stiff; LSODA
    with the exact Jacobian sizes its steps by accuracy, not by stability.
    Raises ConvergenceError if the integration fails.  t = 0 returns the
    initial law directly.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    if not 0.0 < tail_bound <= 1e-6:
        raise ValueError(f"tail bound must lie in (0, 1e-6], got {tail_bound!r}")
    if t == 0.0:
        return TransientSolution(params, 0.0, np.array([1.0]), 0.0)

    marginal = params.harris_at(t)
    # truncation_index raises ResourceLimitError past state_cap terms
    n_max = max(truncation_index(marginal, tail_bound, max_terms=state_cap), 2)
    rhs, band = _forward_system(params, n_max)
    y0 = np.zeros(n_max + 1)
    y0[0] = 1.0
    # odeint, not solve_ivp(method="LSODA"): in scipy 1.17.1 the latter
    # leaks about 70 KB per call.  A failure is reported through info, so
    # the warning odeint also emits for it is silenced.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        path, info = odeint(rhs, y0, (0.0, t), Dfun=lambda _p, _t: band,
                            ml=1, mu=0, rtol=rtol, atol=atol, full_output=True)
    if info["message"] != "Integration successful.":
        raise ConvergenceError(f"forward integration failed: {info['message']}")
    probs = path[-1]
    if probs.min() < -1e-9:
        raise ConvergenceError(
            f"forward integration produced probability {probs.min()!r}"
        )
    probs = np.clip(probs, 0.0, None)
    return TransientSolution(params, t, probs, tail_bound_after(marginal, n_max))


def process_moments(params: ProcessParams, t: float) -> tuple:
    """Closed-form mean exp(t*lam*k) and variance m*(m-1)*k of N(t)."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    m = params.scale_at(t)
    return m, params.k * m * (m - 1.0)  # same ordering as harris_mean_var


def incentive_pmf(params: ProcessParams, t: float, n) -> float:
    """P(I(t) = n): negative binomial NB(1/k, exp(-t*lam*k))."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be > 0, got {t!r}")
    return nb_pmf(1.0 / params.k, math.exp(-t * params.lam * params.k), n)
