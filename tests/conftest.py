import os

import pytest

from qpmap import maxproduct, packed


@pytest.fixture
def threaded(monkeypatch):
    """Every model, however small and on any host, hands one message direction
    to the worker thread; the list names each hand-off's process."""
    monkeypatch.setattr(packed, "PARALLEL_MIN_ENTRIES", 0)
    monkeypatch.setattr(maxproduct, "PARALLEL_MIN_MESSAGES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    handoffs, worker = [], packed._worker
    monkeypatch.setattr(packed, "_worker", lambda pid: handoffs.append(pid) or worker(pid))
    return handoffs
