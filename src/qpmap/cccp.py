"""Difference-of-convex message-passing solver for the nonconvex MAP QP.

Each outer sweep sends all messages from the current beliefs, then every
node solves its normalized subproblem in closed form, clamping negative
candidates to zero in an inner loop.  The bilinear objective never
decreases across sweeps.

Tail phase: where a node's incoming messages almost cancel, the plain step
slides its beliefs toward a vertex at a constant, tiny rate, and a restart
can spend hundreds of sweeps on that slide.  So once a plain step gains
less than sqrt(objective_tolerance) of the objective (relative), every
later sweep of the restart takes an exact line search along the plain
step D = P' - P instead: the bilinear objective is an exact quadratic in
the step length t, maximised over t in [1, t_max], with t_max the longest
step that keeps the beliefs nonnegative.  t = 1 (the plain step) is always
a candidate, and a longer step is kept only if its objective, evaluated
afresh, is no lower than the plain step's, so the objective still never
decreases; this is the overrelaxed bound optimisation of Salakhutdinov,
Roweis & Ghahramani (ICML 2003), which applies because CCCP is a bound
optimiser.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import model
from .common import SolverConfig, SolveReport, relaxation_restarts, relative_change, run_restarts
from .model import PairwiseMRF
from .packed import PackedGraph, clamped_simplex_sweep, label_divide, label_sum, row_sums


def _plain_step(graph: PackedGraph, P: np.ndarray, S: np.ndarray, diag=None) -> np.ndarray:
    """All node updates from beliefs P and their incoming messages S."""
    return clamped_simplex_sweep(P * graph.theta_hat + S, graph.theta_hat, graph.valid, diag)


def _tail_steps(P: np.ndarray, S: np.ndarray, P1: np.ndarray, S1: np.ndarray):
    """The tail phase's line search for each restart of a stack: returns the
    restarts whose best step length is not 1, and their new beliefs.

    S and S1 are the messages at P and at the plain step P1.  Along D =
    P1 - P the objective is exactly f(P) + t*sum(D*S) + t^2/2*sum(D*(S1 - S)).
    The candidates are t = 1, t_max (the longest step that keeps P + tD >= 0)
    and the interior optimum; the first of tied ones wins.
    """
    D = P1 - P
    shrink = D < 0.0
    g = np.nonzero(shrink.any(axis=(1, 2)))[0]
    P, S, D, shrink = P[g], S[g], D[g], shrink[g]
    t_max = np.divide(P, -D, out=np.full(P.shape, np.inf), where=shrink).min(axis=(1, 2))
    lin = row_sums(D * S)
    quad = 0.5 * row_sums(D * (S1[g] - S))
    concave = quad < 0.0
    t_opt = np.divide(-lin, 2.0 * quad, out=np.ones(len(g)), where=concave)
    t, best = np.ones(len(g)), lin + quad
    for cand, ok in ((t_max, True), (np.minimum(np.maximum(t_opt, 1.0), t_max), concave)):
        gain = cand * (lin + cand * quad)
        better = ok & (gain > best)
        t, best = np.where(better, cand, t), np.where(better, gain, best)
    moved = t != 1.0
    # renormalised: a long step also scales up the rounding in D's row sums
    X = np.maximum(P[moved] + t[moved, None, None] * D[moved], 0.0)
    return g[moved], label_divide(X, label_sum(X))


def _sweep_factory(graph: PackedGraph, gate: float, restarts: int):
    """Per restart of a stack: plain steps until one gains < `gate` (relative) over
    the carried objective q, then line searches; a sweep returns P, S and its objective."""
    tail = np.zeros(restarts, dtype=bool)

    def sweep(P, S, q, live, diag):
        P1 = _plain_step(graph, P, S, diag)
        S1 = graph.delta_sums(P1)
        q1 = graph.qp_objective(P1, S1)
        tail[live] |= relative_change(q1, q) < gate
        rows = np.nonzero(tail[live])[0]
        if len(rows):
            moved, X = _tail_steps(P[rows], S[rows], P1[rows], S1[rows])
            if len(moved):
                # kept only if its objective, evaluated afresh, is no lower
                rows, SX = rows[moved], graph.delta_sums(X)
                qX = graph.qp_objective(X, SX)
                keep = qX >= q1[rows]
                P1[rows[keep]], S1[rows[keep]], q1[rows[keep]] = X[keep], SX[keep], qX[keep]
        return P1, S1, q1

    return sweep


def solve(mrf: PairwiseMRF, config: Optional[SolverConfig] = None) -> SolveReport:
    """Best-of-restarts solve; reports objectives on the original model scale."""
    config = config or SolverConfig()
    prepared, shift = model.prepare_model(mrf)
    graph = PackedGraph(prepared)
    # the belief update divides by theta_hat; isolated nodes fail here
    graph.require_positive(graph.theta_hat, "theta_hat")
    gate = math.sqrt(config.objective_tolerance)
    sweep = _sweep_factory(graph, gate, config.restarts)
    return run_restarts(mrf, config, *relaxation_restarts(graph, shift, config, sweep))
