import numpy as np
import pytest

from steane_mc.noise import FaultPlanSource, StreamBank


@pytest.fixture
def reruns(monkeypatch):
    """The reruns of each (row, ancilla attempt): the highest try j that a
    source's `rerun` was asked for.  The kernel and the interpreter ask for
    the same ones, so running both counts each rerun once."""
    counts: dict = {}

    def counting(original):
        def rerun(self, rows, attempt, j):
            rows = np.asarray(rows)
            for row, a in zip(rows.tolist(), np.broadcast_to(attempt, rows.shape).tolist()):
                counts[row, a] = max(counts.get((row, a), 0), j)
            return original(self, rows, attempt, j)

        return rerun

    for cls in (StreamBank, FaultPlanSource):
        monkeypatch.setattr(cls, "rerun", counting(cls.rerun))
    return counts
