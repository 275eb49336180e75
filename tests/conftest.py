import numpy as np
import pytest

from harrisproc import birth
from harrisproc.birth import TrajectoryBatch


@pytest.fixture
def drop_last_event():
    """Copy a batch with one replica's last recorded event time removed.

    The sampler's event counter is kept, so the copy is a well-formed
    batch whose recorded path disagrees with its counter.
    """
    def drop(batch, replica):
        end = batch.offsets[replica + 1]
        offsets = batch.offsets.copy()
        offsets[replica + 1:] -= 1
        return TrajectoryBatch(batch.params, batch.horizon, batch.n_events,
                               np.delete(batch.event_times, end - 1), offsets)
    return drop


@pytest.fixture
def poisoned_band(monkeypatch):
    """Set one entry of every forward-equation band the solve builds.

    poison(row, col, value) writes band[row, col]: row 0 holds the diagonal
    -rates, row 1 the rates into the next state.
    """
    def poison(row, col, value):
        system = birth._forward_system

        def poisoned(params, n_max):
            band = system(params, n_max)
            band[row, col] = value
            return band
        monkeypatch.setattr(birth, "_forward_system", poisoned)
    return poison
