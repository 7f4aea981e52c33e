"""Span tracer for the traced benchmark run.

The tracer replaces the public functions of each qpmap layer with timed
wrappers for the duration of a run, keeps one span per call in memory
(name, start, end, parent span, solve id) and writes them out at the end.
Nothing in the library is edited: the wrappers are installed on the module
attributes and class methods that the solvers look up at call time, and
removed afterwards.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

TOTAL, SELF, CALLS = range(3)  # fields of a per_solve() entry


def _targets():
    """(owner, attribute, span name) for every wrapped layer boundary.

    `clamped_simplex_sweep` and `run_restarts` are imported by name into the
    solver modules, so they are wrapped at those bindings; `PackedGraph`
    methods are wrapped on the class, which every binding shares.
    """
    from qpmap import cccp, cli, convex, gpem, maxproduct, model, uai
    from qpmap.packed import PackedGraph

    return [
        (cli, "main", "cli.main"),
        (uai, "parse_uai", "uai.parse_uai"),
        (model, "prepare_model", "model.prepare_model"),
        (model, "evaluate_assignment", "model.evaluate_assignment"),
        (PackedGraph, "__init__", "packed.PackedGraph"),
        (PackedGraph, "delta_sums", "packed.delta_sums"),
        (PackedGraph, "qp_objective", "packed.qp_objective"),
        (PackedGraph, "decode", "packed.decode"),
        (PackedGraph, "assignment_value", "packed.assignment_value"),
        (cccp, "clamped_simplex_sweep", "packed.clamped_simplex_sweep"),
        (convex, "clamped_simplex_sweep", "packed.clamped_simplex_sweep"),
        (cccp, "run_restarts", "common.run_restarts"),
        (convex, "run_restarts", "common.run_restarts"),
        (gpem, "run_restarts", "common.run_restarts"),
        (cccp, "solve", "cccp.solve"),
        (convex, "solve_convex", "convex.solve_convex"),
        (gpem, "solve_gp", "gpem.solve_gp"),
        (maxproduct, "solve_mp", "maxproduct.solve_mp"),
    ]


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, solve id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.solve = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.solve])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in _targets():
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "solve"])
            w.writerows(self.spans)

    def per_solve(self) -> Dict[int, Dict[str, list]]:
        """solve id -> span name -> [TOTAL s, SELF s, CALLS].

        Self time is a span's duration minus the durations of its child spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[int, Dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for idx, (name, start, end, _, solve) in enumerate(self.spans):
            acc = out[solve][name]
            acc[TOTAL] += end - start
            acc[SELF] += end - start - child[idx]
            acc[CALLS] += 1
        return out
