"""Pure-birth process with linear state-dependent rates (the Harris process).

The chain starts at N(0) = 1 and each event adds exactly k, so the state
after n events is 1 + n*k.  While n events have occurred the next one
arrives at rate (n*k + 1) * lam.  The time-t marginal of N is the Harris
law with scale m(t) = exp(t * lam * k); the event count I(t) = (N(t)-1)/k
is negative binomial NB(1/k, exp(-t*lam*k)).

Two independent evaluation routes are provided besides the closed form:
exact event-driven simulation (exponential holding times, no time
discretization) and the uniformized (Jensen) solution of the truncated
Kolmogorov forward equations

    dP[n]/dt = ((n-1)k + 1) lam P[n-1] - (nk + 1) lam P[n],   P[0](0) = 1,

a Poisson-weighted sum of nonnegative terms, so every retained state keeps
its relative precision.

The simulation runs block b of replicas on RngStream(seed, b), in passes:
one stream.uniform call advances every live replica of the block by several
rounds, one event per round, and a replica ends at its first clock past the
horizon.  Its two entry points run the same passes on the same draws:
tally_model1 keeps only the tally of N(t), which is all a law at t needs,
one block at a time, and simulate_many also records every event time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from .distribution import (HarrisParams, _check_time, _validate_step,
                           tail_bound_after, truncation_index)
from .errors import ConvergenceError, ResourceLimitError
from .sampling import RngStream, _blocks, _check_draw_budget, tally_blocks
from .validation import tally

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

# Read on every call: caps for pathological parameters, and the certified
# tail beyond the forward equations' state grid.
MAX_EVENTS = 1_000_000
STATE_CAP = 20_000
ODE_TAIL = 1e-12
# The uniformized series (see _uniformized): steps per block, block states
# held at once, and the certified Poisson mass it leaves after its last step.
UNIFORM_BLOCK = 16
UNIFORM_CHUNK = 32
UNIFORM_TAIL = 1e-30
# Most multiply-adds per product of block states.  OpenBLAS runs a larger
# one on threads, and on 2 vCPU such a call took ~6 ms instead of ~0.1.
GEMM_MADDS = 2**19
# Replicas per random stream: block b of a batch owns RngStream(seed, b).
BLOCK_SIZE = 8192
# The most uniforms one pass of a block draws, m live replicas times w
# rounds (see _passes).  At least BLOCK_SIZE, so every pass covers at least
# one round of the whole block.
DRAW_CHUNK = 16_384


@dataclass(frozen=True)
class ProcessParams:
    """Finite base rate lam > 0 and step size k >= 1 of the birth process."""

    lam: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _validate_step(self.k))
        lam = float(self.lam)
        if not 0.0 < lam < math.inf:
            raise ValueError(f"rate lam must be > 0 and finite, got {self.lam!r}")
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
    raises what that raises.  The blocks run inline (sampling.tally_blocks;
    a pool was slower), so a run holds one block's counts and one pass's clocks.
    """
    horizon = _check_run(params, horizon, n_replicas)

    def states(stream, size):
        counts = np.zeros(size, dtype=np.int64)
        for _, alive, _, n in _passes(params, horizon, stream, size):
            counts[alive] += n
        return 1 + params.k * counts

    return tally_blocks(states, n_replicas, BLOCK_SIZE, seed, workers=1)


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
    for first, size, stream in _blocks(n_replicas, BLOCK_SIZE, seed):
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


def _forward_system(params: ProcessParams, n_max: int) -> np.ndarray:
    """Band of the rate matrix A of the forward system dP/dt = A P on 0..n_max.

    band[0] holds its diagonal -rates and band[1, j] = rates[j] the entry
    A[j+1, j] below it (LAPACK band storage, ml=1, mu=0); band[1, n_max] = 0,
    so the mass leaving state n_max leaves the grid.
    """
    rates = params.rate_after(np.arange(n_max + 1))
    band = np.zeros((2, n_max + 1))
    band[0] = -rates
    band[1, :-1] = rates[:-1]
    return band


def _poisson_weights(mu: float, first: int) -> np.ndarray:
    """Pois(mu; j) for j = 0..J, J >= first the first index whose tail after
    it is certified at most UNIFORM_TAIL.

    Each weight is exp of its own log-Poisson value from gammaln, never a
    running sum of logs.  Past the mean the terms fall at least
    geometrically, so the tail after J is at most w[J+1] (J+2)/(J+2-mu);
    the window searched ends ~200 nats below the largest weight.
    """
    start = max(first, math.floor(mu))
    j = np.arange(start + 120 + math.ceil(20.0 * math.sqrt(mu + 1.0)))
    log_w = -mu + j * math.log(mu) - gammaln(j + 1.0)
    tail = log_w[start + 1:] + np.log((j[start:-1] + 2) / (j[start:-1] + 2 - mu))
    last = int(np.argmax(tail <= math.log(UNIFORM_TAIL)))
    if tail[last] > math.log(UNIFORM_TAIL):
        raise ConvergenceError(f"no certified Poisson truncation at mean {mu!r}")
    return np.exp(log_w[:start + last + 1])


def _uniformized(band: np.ndarray, times: list) -> np.ndarray:
    """Row i is P(times[i]) = sum_j Pois(lam_max t; j) B^j e_0 on band's grid.

    B = I + A/lam_max, lam_max the largest rate, has diagonal 1 - rate/lam_max
    and subdiagonal rate/lam_max, all nonnegative, so no term cancels.  Its
    power C = B^L (L = UNIFORM_BLOCK) has L + 1 diagonals, and the block
    states y_q = C^q e_0 = B^(qL) e_0 advance one block per step, y_q living
    on states up to qL.  With U_i = sum_q w[qL + i] y_q, gathered over
    UNIFORM_CHUNK block states per product, the sum is sum_i B^i U_i, L
    Horner steps.  Each series runs at least two steps past the last state;
    the work is about states * lam_max * times[-1] state-steps.
    """
    L = UNIFORM_BLOCK
    lam_max = -float(band[0].min())
    if not 0.0 < lam_max < math.inf:
        raise ConvergenceError(f"forward rates have no finite bound: {lam_max!r}")
    n = band.shape[1]
    diag = 1.0 + band[0] / lam_max
    sub = band[1, :-1] / lam_max
    # row m of C: rows[m, j] = C[m, m - L + j]; B C adds sub[m-1] * row m-1
    rows = np.zeros((n, L + 1))
    rows[:, L] = 1.0
    for _ in range(L):
        below = sub[:, np.newaxis] * rows[:-1, 1:]
        rows *= diag[:, np.newaxis]
        rows[1:, :-1] += below

    weights = [_poisson_weights(lam_max * t, n + 1) for t in times]
    blocks = -(-max(map(len, weights)) // L)
    w = np.zeros((len(times), blocks * L))
    for row, weight in zip(w, weights):
        row[:len(weight)] = weight
    # w[(time, i), q] is the weight of B^i y_q
    w = w.reshape(len(times), blocks, L).transpose(0, 2, 1).reshape(-1, blocks)

    u = np.zeros((len(w), n))
    ys = np.zeros((UNIFORM_CHUNK, L + n))  # block states, each led by L zeros
    ys[0, L] = 1.0
    windows = sliding_window_view(ys, L + 1, axis=1)  # what row m of C reads
    for q in range(blocks):
        r, live = q % UNIFORM_CHUNK, min(n, q * L + 1)
        if q:
            np.einsum("mj,mj->m", rows[:live], windows[r - 1, :live],
                      out=ys[r, L:L + live])
        if r + 1 < UNIFORM_CHUNK and q + 1 < blocks:
            continue
        chunk = w[:, q - r:q + 1]
        width = max(1, GEMM_MADDS // chunk.size)
        for c0 in range(0, live, width):
            c1 = min(c0 + width, live)
            u[:, c0:c1] += chunk @ ys[:r + 1, L + c0:L + c1]

    u = u.reshape(len(times), L, n)
    acc = u[:, L - 1].copy()
    for i in range(L - 2, -1, -1):
        below = sub * acc[:, :-1]
        acc *= diag
        acc[:, 1:] += below
        acc += u[:, i]
    return acc


def solve_forward_odes(params: ProcessParams, t: float) -> TransientSolution:
    """Solve the truncated forward equations from the unit start at t.

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
    """One TransientSolution per time, from one uniformized solve of the
    forward equations from the unit start through every time.

    times must be positive and strictly increasing.  Each time's grid stops
    where its certified closed-form tail falls below ODE_TAIL; the system is
    solved once, on the longest of these grids.  It is lower triangular
    (state n is fed only by n-1), so truncating it leaves every retained
    state exact: no margin is needed, and each time's law is the solved
    state cut to its own grid.  One sequence of block states serves every
    time (see _uniformized), and its nonnegative terms keep each state's
    relative precision.  Raises ConvergenceError on a non-finite or
    negative probability, and ResourceLimitError past STATE_CAP states.
    """
    times = [float(t) for t in times]
    if not times or times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be positive and increasing, got {times!r}")

    marginals = [params.harris_at(t) for t in times]
    n_maxes = [max(truncation_index(marginal, ODE_TAIL, max_terms=STATE_CAP), 2)
               for marginal in marginals]
    path = _uniformized(_forward_system(params, max(n_maxes)), times)
    if not np.isfinite(path).all():
        raise ConvergenceError("forward solve produced a non-finite probability")
    solutions = []
    for state, marginal, n_max in zip(path, marginals, n_maxes):
        probs = state[:n_max + 1]
        if probs.min() < -1e-9:
            raise ConvergenceError(
                f"forward solve produced probability {float(probs.min())!r}"
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
