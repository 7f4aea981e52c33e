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


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance criteria's `ACCEPTANCE NN ...` verdict lines once more at the
    end of a run that captured them, so that a quiet run's log shows them: a report, not a gate."""
    lines = sorted(line for key in ("passed", "failed") for rep in terminalreporter.stats.get(key, ())
                   if rep.when == "call" for line in rep.capstdout.splitlines() if line.startswith("ACCEPTANCE "))
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
