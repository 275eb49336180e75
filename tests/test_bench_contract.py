"""What the benchmark reads of harrisproc.

bench/layers.py rebinds every (module, attribute) of its TARGETS with
getattr, counts birth paths through the batch's Trajectory views and
goodness-of-fit bins through ``gof.bins[*].expected``, so deleting one of
these names breaks ``bench/run.py --trace 1``.  bench/workloads.py gives
the command lines the benchmark runs, so removing an option one of them
uses breaks every pass.  The files are loaded by path and only read.
"""

import importlib
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from harrisproc import acceptance
from harrisproc.birth import ProcessParams, simulate_many
from harrisproc.cli import build_parser, main
from harrisproc.validation import chi_square_gof

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    # compiled from its text, so no bytecode cache is written next to it;
    # registered while it runs, as dataclasses look up their module
    path = BENCH / f"{name}.py"
    module = sys.modules[f"bench_{name}"] = types.ModuleType(f"bench_{name}")
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[f"bench_{name}"]
    return module


layers = _load("layers")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attribute",
                         [target[:2] for target in layers.TARGETS])
def test_every_target_resolves(module, attribute):
    assert hasattr(importlib.import_module(module), attribute)


def test_path_counts_read_the_batch():
    batch = simulate_many(ProcessParams(1.0, 2), 1.5, 300, seed=5)
    assert len(batch) == 300
    assert sum(path.n_events for path in batch) == batch.n_events.sum() > 0
    counts = Counter()
    layers._count_paths(counts, batch)
    assert counts == {"birth.replicas": 300, "birth.events": batch.n_events.sum()}


def test_bin_counts_read_the_gof_result():
    # geometric expected counts 600, 240, 96, 38.4, 15.36, then a thin tail
    observed = {0: 600, 1: 240, 2: 96, 3: 38, 4: 16, 5: 6, 6: 4}
    support = np.arange(50)
    gof = chi_square_gof(observed, support, 0.6 * 0.4**support, 0.05)
    counts = Counter()
    layers._count_bins(counts, gof)
    assert [b.label for b in gof.bins] == ["0", "1", "2", "3", "4", ">=5"]
    assert counts == {"validation.gof.bins": 6,
                      "validation.gof.min_expected": gof.bins[-1].expected}
    assert counts["validation.gof.min_expected"] == pytest.approx(10.24)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_bench_op_parses(workload, seed):
    for op in workloads.WORKLOADS[workload](seed).ops:
        build_parser().parse_args(op.argv)


class Reached(Exception):
    """Raised where a command that was not refused starts its work."""


def _reached(*args, **kwargs):
    raise Reached


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_birth_run_of_the_bench_is_within_the_draw_budget(workload,
                                                                monkeypatch):
    # simulate --model birth starts at tally_model1, validate at criterion 1
    monkeypatch.setattr(acceptance, "tally_model1", _reached)
    monkeypatch.setattr(acceptance, "solve_forward_odes_at", _reached)
    ops = [op.argv for op in workloads.WORKLOADS[workload](1).ops
           if op.argv[0] == "validate" or op.argv[:3] == ("simulate", "--model",
                                                          "birth")]
    if workload == "validate":
        ops.append(("validate",))  # the default scale
    for argv in ops:
        with pytest.raises(Reached):
            main(list(argv))
