import numpy as np
import pytest

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
