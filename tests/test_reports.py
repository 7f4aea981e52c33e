"""scripts/reports.py: report hashes are a pure function of the tree, and
`differences` lists exactly the entries whose hashes differ."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reports.py"
CASES = ("padded-binary", "neg-zero-grid", "mixed-unaries")


spec = importlib.util.spec_from_file_location("reports", SCRIPT)
reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reports)


def test_two_fresh_processes_print_the_same_hashes():
    runs = [subprocess.run([sys.executable, str(SCRIPT), "--cases", ",".join(CASES)],
                           capture_output=True, text=True, check=True, timeout=60).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    entries = [line.split() for line in lines]
    assert all(len(e) == 5 and len(e[4]) == 64 for e in entries)
    # every case solved by every solver, with and without diagnostics, and no wall time
    assert {(c, s, d) for c, s, d, *_ in entries} == {(c, s, d) for c in CASES for s in reports.SOLVERS for d in "01"}
    fields = {e[3] for e in entries}
    assert "wall_time_s" not in fields and "error" not in fields
    assert {"assignment", "trace.qp_objective", "trace.integral_objective", "diagnostics"} <= fields


def test_differences_lists_changed_and_one_sided_entries():
    ours = ["a cccp 0 assignment 11", "a cccp 0 beliefs 22", "a cccp 0 trace.qp_objective 33"]
    theirs = ["a cccp 0 assignment 11", "a cccp 0 beliefs 99", "a cccp 0 error 44"]
    assert reports.differences(ours, theirs) == [
        "a cccp 0 beliefs", "a cccp 0 trace.qp_objective", "a cccp 0 error"]
    assert reports.differences(ours, ours) == []
