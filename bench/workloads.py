"""The benchmark's workloads: fixed lists of harrisproc CLI operations.

A workload pass is one closed loop over its operations: each one is a
single ``harrisproc.cli.main(argv)`` call, issued when the previous one
returns.  Every ``--seed`` an operation receives is derived from the one
workload seed, so the same seed always gives the same inputs.

Each operation names the outcome it expects:

* ``table``: exit 0 or 1 with an output that passes the independent check
  in ``checks.py`` (exit 1 is the program's own verdict, not a failure);
* ``table_or_usage``: the same, or a clean exit 2 with a message.

Operations marked ``probe`` are inputs that the program gets wrong at the
time the benchmark was written (ROADMAP item 3).  They run and are checked
in every witness pass, but are reported as ``known_defects`` instead of as
failed operations, so that every workload has no failing operation while
a fix still shows up as a lower count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1  # a speed claim must also hold on another seed, such as 2
# The acceptance battery's grids, restated so the benchmark does not import
# the code it checks.
ODE_GRID = tuple((lam, k, t) for lam in (0.25, 0.5, 1.0)
                 for k in (1, 2, 3) for t in (0.5, 1.0))
QUAD_GRID = tuple((a, t, k) for a in (0.5, 1.0, 2.0)
                  for t in (0.5, 1.0, 2.0) for k in (1, 2, 3))

# validate runs at 1/20 of its default birth and mixture scale: one pass at
# default scale takes ~40 s on 2 cores, too long to repeat within one
# benchmark run.  The battery keeps its composition (6 birth runs of the
# given size, one mixture run, 200 x 10_000 calibration draws), so
# per-replica set-up still dominates.
VALIDATE_REPLICAS = 5_000
VALIDATE_MIXTURE_DRAWS = 50_000
VALIDATE_CALIBRATION_SEEDS = 200
CALIBRATION_DRAWS = 10_000
VALIDATE_BIRTH_RUNS = 6  # criteria 3 and 5, and two reruns in each format for 9


@dataclass(frozen=True)
class Op:
    argv: tuple
    expect: str = "table"
    probe: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    ops: tuple
    replicas: int  # simulated paths plus mixture/calibration draws per pass


def _derived_seed(workload: str, seed: int) -> str:
    return str(random.Random(f"{workload}/{seed}").randrange(2**31))


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _op(*words, expect="table", probe=False) -> Op:
    return Op(tuple(_fmt(w) for w in words), expect, probe)


def validate(seed: int) -> Workload:
    """The acceptance battery: many short birth paths (~0.86 events each)."""
    replicas = (VALIDATE_BIRTH_RUNS * VALIDATE_REPLICAS + VALIDATE_MIXTURE_DRAWS
                + VALIDATE_CALIBRATION_SEEDS * CALIBRATION_DRAWS)
    op = _op("validate", "--replicas", VALIDATE_REPLICAS,
             "--mixture-draws", VALIDATE_MIXTURE_DRAWS,
             "--calibration-seeds", VALIDATE_CALIBRATION_SEEDS,
             "--seed", _derived_seed("validate", seed))
    return Workload((op,), replicas)


def birth_deep(seed: int) -> Workload:
    """Few long birth paths (~403 events each): the event loop dominates."""
    op = _op("simulate", "--model", "birth", "--lambda", 1.0, "--k", 1,
             "--t", 6.0, "--replicas", 2000,
             "--seed", _derived_seed("birth-deep", seed))
    return Workload((op,), 2000)


def mixture_wide(seed: int) -> Workload:
    """1e7 gamma-Poisson draws with k = 2 (shape < 1); no birth paths."""
    op = _op("simulate", "--model", "mixture", "--a", 1.0, "--k", 2,
             "--t", 1.0, "--replicas", 10_000_000,
             "--seed", _derived_seed("mixture-wide", seed))
    return Workload((op,), 10_000_000)


def witness(seed: int) -> Workload:
    """Deterministic routes only (ODE, quadrature, closed form, rendering).

    Nothing here is random, so the seed changes nothing.
    """
    del seed
    ops = [_op("ode", "--lambda", lam, "--k", k, "--t", t)
           for lam, k, t in ODE_GRID]
    ops += [_op("ode", "--lambda", 1.0, "--k", 1, "--t", 3.0),
            _op("ode", "--lambda", 0.5, "--k", 3, "--t", 2.0)]
    ops += [_op("mixture-check", "--a", a, "--k", k, "--t", t)
            for a, t, k in QUAD_GRID]
    ops += [_op("mixture-check", "--a", 1.0, "--k", 1, "--t", 50.0,
                "--nmax", 200),
            _op("pmf", "--m", 1000.0, "--k", 2),
            _op("pgf", "--m", 1000.0, "--k", 1)]
    ops += [
        # RK45 returns a negative probability and the command exits 2,
        # although 3000 states are within the state cap.
        _op("ode", "--lambda", 1.0, "--k", 1, "--t", 4.0, probe=True),
        # ZeroDivisionError traceback in truncation_index.
        _op("ode", "--lambda", 50.0, "--k", 3, "--t", 1.0,
            expect="table_or_usage", probe=True),
        # The quadrature returns 0.0 where the law gives 1e-3.
        _op("mixture-check", "--a", 1.0, "--k", 2, "--t", 1e6,
            expect="table_or_usage", probe=True),
        # Exit 0 on a 100% error hidden by the absolute tolerance.
        _op("mixture-check", "--a", 1.0, "--k", 1, "--t", 1e9,
            expect="table_or_usage", probe=True),
        # OverflowError traceback in ProcessParams.scale_at.
        _op("pmf", "--lambda", 1000.0, "--k", 1, "--t", 1.0,
            expect="table_or_usage", probe=True),
    ]
    return Workload(tuple(ops), 0)


WORKLOADS = {"validate": validate, "birth-deep": birth_deep,
             "mixture-wide": mixture_wide, "witness": witness}
