import numpy as np
import pytest
from scipy import integrate

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
def starved_odeint(monkeypatch):
    """Make every forward-equation solve fail: odeint gets one step only."""
    real_odeint = integrate.odeint
    monkeypatch.setattr(integrate, "odeint", lambda *args, **kwargs:
                        real_odeint(*args, **{**kwargs, "mxstep": 1}))
