from collections import Counter

import pytest

from steane_mc import engine as eng


@pytest.fixture
def reruns(monkeypatch):
    """Counts the interpreter's ancilla reruns per (row, prep tag): only
    `_prepare` runs ops on chosen rows, and only to rerun rejected ones."""
    execute, counts = eng._execute, Counter()

    def counting(ops, src, rates, m, idx=None, prefix="", flags=None):
        if idx is not None:
            counts.update((int(i), prefix) for i in idx)
        return execute(ops, src, rates, m, idx, prefix, flags)

    monkeypatch.setattr(eng, "_execute", counting)
    return counts
