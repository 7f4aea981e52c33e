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
from .common import SolverConfig, SolveReport, Sweep, relative_change, run_restarts
from .model import ModelError, PairwiseMRF
from .packed import PackedGraph, clamped_simplex_sweep


def setup(mrf: PairwiseMRF) -> PackedGraph:
    """Build the packed graph and validate solvability.

    Requires a nonnegative-normalized, unary-free model whose per-node
    row sums theta_hat are strictly positive everywhere (the belief update
    divides by them).  Isolated nodes fail this check.
    """
    if mrf.has_unaries():
        raise ModelError("solver requires a unary-free model; call prepare_model first")
    for (i, j), t in zip(mrf.edges, mrf.tables):
        if t.size and t.min() < 0:
            raise ModelError(f"edge ({i},{j}) has negative entries; normalize first")
    graph = PackedGraph(mrf)
    graph.require_positive(graph.theta_hat, "theta_hat")
    return graph


def _plain_step(graph: PackedGraph, P: np.ndarray, S: np.ndarray, diag=None) -> np.ndarray:
    """All node updates from beliefs P and their incoming messages S."""
    return clamped_simplex_sweep(P * graph.theta_hat + S, graph.theta_hat, graph.valid, diag)


def outer_iteration(graph: PackedGraph, P: np.ndarray, diag=None) -> np.ndarray:
    """One synchronous sweep: all messages, then all node updates."""
    return _plain_step(graph, P, graph.delta_sums(P), diag)


def tail_step(P: np.ndarray, S: np.ndarray, P1: np.ndarray, S1: np.ndarray) -> np.ndarray:
    """Best point of the bilinear objective on the ray from P through P1.

    S and S1 are the incoming messages at P and at the plain step P1.  With
    D = P1 - P and S(D) = S1 - S, the objective along the ray is exactly
    f(P + tD) = f(P) + t*sum(D*S) + t^2/2*sum(D*S(D)); it is maximised over
    t in [1, t_max], where t_max is the largest t with P + tD >= 0.  Rows
    of D sum to zero, so every such point is on the simplex, and padded
    slots stay zero.  t = 1 gives P1, so in exact arithmetic the result is
    never worse than it; a long step also scales up the rounding in D, so
    callers compare the two objectives afresh.
    """
    D = P1 - P
    shrink = D < 0.0
    if not shrink.any():
        return P1
    t_max = float((P[shrink] / -D[shrink]).min())
    lin = float((D * S).sum())
    quad = 0.5 * float((D * (S1 - S)).sum())
    steps = [1.0, t_max]
    if quad < 0.0:
        steps.append(min(max(-lin / (2.0 * quad), 1.0), t_max))
    t = max(steps, key=lambda t: t * (lin + t * quad))
    if t == 1.0:
        return P1
    # renormalised: a long step also scales up the rounding in D's row sums
    X = np.maximum(P + t * D, 0.0)
    return X / X.sum(axis=1, keepdims=True)


def _restart_sweep(graph: PackedGraph, gate: float) -> Sweep:
    """One restart's sweep, applied each time to its own last output.

    Plain steps until one gains less than `gate` (relative), exact line
    searches along the plain step from then on.  The messages at P come in
    with it and the messages at the returned beliefs go out, so the plain
    phase costs one `delta_sums` per sweep, as `outer_iteration` does.
    """
    tail = False

    def sweep(P, S, diag):
        nonlocal tail
        P1 = _plain_step(graph, P, S, diag)
        S1 = graph.delta_sums(P1)
        if not tail:
            tail = relative_change(graph.qp_objective(P1, S1), graph.qp_objective(P, S)) < gate
        if tail:
            X = tail_step(P, S, P1, S1)
            if X is not P1:
                # kept only if its objective, evaluated afresh, is no lower
                SX = graph.delta_sums(X)
                if graph.qp_objective(X, SX) >= graph.qp_objective(P1, S1):
                    P1, S1 = X, SX
        return P1, S1

    return sweep


def solve(mrf: PairwiseMRF, config: Optional[SolverConfig] = None) -> SolveReport:
    """Best-of-restarts solve; reports objectives on the original model scale."""
    config = config or SolverConfig()
    prepared, offset = model.prepare_model(mrf)
    graph = setup(prepared)
    gate = math.sqrt(config.objective_tolerance)
    return run_restarts(mrf, graph, offset, config, lambda: _restart_sweep(graph, gate))
