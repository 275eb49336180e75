"""What the benchmark's traced pass reads of harrisproc.

bench/layers.py rebinds every (module, attribute) of its TARGETS with
getattr and counts birth paths through the batch's Trajectory views, so
deleting one of these names breaks ``bench/run.py --trace 1``.  The file
is loaded by path and only read.
"""

import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from harrisproc.birth import ProcessParams, simulate_many

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    # compiled from its text, so no bytecode cache is written next to it
    module = types.ModuleType("bench_layers")
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


layers = _load_layers()


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
