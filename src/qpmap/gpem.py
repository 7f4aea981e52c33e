"""Multiplicative-update solver: beliefs are rescaled by their incoming
message sums and renormalized.

The update p'_i(x_i) = p_i(x_i) * sum_j delta_j(x_i) / C_i keeps every
belief strictly positive from a positive start, needs no inner loop, and
is monotone in the bilinear objective.  It coincides with the
expectation-maximization update for the same problem.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from . import model
from .common import SolverConfig, SolveReport, run_restarts
from .model import DegenerateNodeError, PairwiseMRF
from .packed import PackedGraph

log = logging.getLogger(__name__)

UNDERFLOW_FLOOR = 1e-300


def _sweep_factory(graph: PackedGraph):
    def sweep(P, S, diag):
        numer = P * S
        C = numer.sum(axis=1)
        if np.any(C <= 0.0):
            node = int(np.nonzero(C <= 0.0)[0][0])
            raise DegenerateNodeError(node, "zero total incoming weight (C = 0)")
        new = numer / C[:, None]
        tiny = graph.valid & (P > 0.0) & (new <= UNDERFLOW_FLOOR)
        if tiny.any():
            log.warning("multiplicative update underflowed on %d entries", int(tiny.sum()))
        return new, graph.delta_sums(new)

    return sweep


def solve_gp(mrf: PairwiseMRF, config: Optional[SolverConfig] = None) -> SolveReport:
    """Best-of-restarts multiplicative-update solve.

    Exactly-uniform initialization is a fixed point on symmetric models, so
    the perturbed default matters here; `uniform` is still accepted.
    """
    config = config or SolverConfig()
    prepared, offset = model.prepare_model(mrf)
    graph = PackedGraph(prepared)
    return run_restarts(mrf, graph, offset, config, lambda: _sweep_factory(graph))
