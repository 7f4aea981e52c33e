"""Message-passing solver for the diagonally-relaxed convex MAP QP.

Adding per-node diagonal terms d_i makes the objective concave (in the
maximization view), so the same sweep structure as the nonconvex solver
converges to the relaxation's global optimum regardless of initialization.
The restart driver adds the d-term, sum of p*(1-p)*d, to each sweep's bilinear
objective; it is zero on integral beliefs, where the two objectives coincide.
"""

from __future__ import annotations

from typing import Optional

from . import model
from .common import SolverConfig, SolveReport, relaxation_restarts, run_restarts
from .model import PairwiseMRF
from .packed import PackedGraph, clamped_simplex_sweep


def solve_convex(mrf: PairwiseMRF, config: Optional[SolverConfig] = None) -> SolveReport:
    """Solve the convex relaxation; a single restart suffices, more are allowed.

    The report's trace carries both the relaxed objective (used for the
    stopping test) and the bilinear objective of the fractional beliefs;
    the assignment is the per-node argmax decode.
    """
    config = config or SolverConfig(restarts=1)
    prepared, shift = model.prepare_model(mrf)
    graph = PackedGraph(prepared)
    d = graph.diagonal_terms()
    denom = 2.0 * d + graph.theta_hat
    graph.require_positive(denom, "2*d + theta_hat")

    def sweep(P, S, q, live, diag):
        P = clamped_simplex_sweep(P * graph.theta_hat + S + d, denom, graph.valid, diag)
        S = graph.delta_sums(P)
        return P, S, graph.qp_objective(P, S)

    return run_restarts(mrf, config, *relaxation_restarts(graph, shift, config, sweep, d))
