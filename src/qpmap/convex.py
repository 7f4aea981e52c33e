"""Message-passing solver for the diagonally-relaxed convex MAP QP.

Adding per-node diagonal terms d_i makes the objective concave (in the
maximization view), so the same sweep structure as the nonconvex solver
converges to the relaxation's global optimum regardless of initialization.
The relaxed objective coincides with the bilinear one on integral beliefs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import model
from .common import SolverConfig, SolveReport, run_restarts
from .model import ModelError, PairwiseMRF
from .packed import PackedGraph, clamped_simplex_sweep, row_sums


def _packed_convex_objective(graph: PackedGraph, d: np.ndarray, P: np.ndarray, S=None):
    """Relaxed objective, per restart of a stack: bilinear edge term (from
    the messages S at P, if given) + sum of p*(1-p)*d.  The d-term is exactly
    zero on integral beliefs, so there the value equals the bilinear one."""
    return graph.qp_objective(P, S) + row_sums(P * (1.0 - P) * d)


def solve_convex(mrf: PairwiseMRF, config: Optional[SolverConfig] = None) -> SolveReport:
    """Solve the convex relaxation; a single restart suffices, more are allowed.

    The report's trace carries both the relaxed objective (used for the
    stopping test) and the bilinear objective of the fractional beliefs;
    the assignment is the per-node argmax decode.
    """
    config = config or SolverConfig(restarts=1)
    prepared, offset = model.prepare_model(mrf)
    if prepared.has_unaries():
        raise ModelError("unary absorption failed")
    graph = PackedGraph(prepared)
    d = graph.diagonal_terms()
    denom = 2.0 * d + graph.theta_hat
    graph.require_positive(denom, "2*d + theta_hat")

    def sweep(P, S, live, diag):
        P = clamped_simplex_sweep(P * graph.theta_hat + S + d, denom, graph.valid, diag)
        return P, graph.delta_sums(P)

    return run_restarts(
        mrf, graph, offset, config, sweep,
        convex_objective=lambda P, S: _packed_convex_objective(graph, d, P, S),
    )
