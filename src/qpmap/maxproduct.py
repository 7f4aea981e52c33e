"""Damped synchronous max-product belief propagation baseline.

Messages live in the log domain, one vector per directed edge, and are
max-normalized to zero after every update.  Zero potentials map to a large
negative log value.  The decoded quality reported is the best integral
objective seen over all iterations, since loopy max-product need not
converge.  With damping 0 the fixed point on trees is the exact
max-marginal of the table-product objective.

All restarts sweep together as one message array on `run_restarts`, the
driver the CCCP-family solvers share; each sweep decodes every node's
argmax along the label axis of its summed messages, and a restart stops
once its largest message change falls below the tolerance.  Every sum is
taken as a one-restart-at-a-time solve takes it: the report is bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import model
from .common import SolverConfig, SolveReport, restart_rng, run_restarts
from .model import PairwiseMRF
from .packed import PackedGraph, both_directions

LOG_ZERO = -1e9
RESTART_NOISE = 0.01  # scale of the uniform noise on restart r > 0's initial messages
DEFAULT_LOOPY_DAMPING = 0.5
PARALLEL_MIN_MESSAGES = 1 << 15  # per sweep; below, a threaded max-plus's 2 lock hand-offs a label cost more


def _is_forest(mrf: PairwiseMRF) -> bool:
    parent = list(range(mrf.num_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in mrf.edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def _max_plus(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[r, l, e] = max over k of tables[k, l, e] + x[r, k, e], one label k at a time.

    Each step adds and maxes whole (R, kmax, |E|) arrays along the long edge
    axis, which is far faster than a max over the short label axis of a
    broadcast sum, and gives the same numbers: the additions are the same
    and max is exact.
    """
    out = np.add(tables[0], x[:, 0, None, :])
    tmp = np.empty_like(out)
    for k in range(1, x.shape[1]):
        np.add(tables[k], x[:, k, None, :], out=tmp)
        np.maximum(out, tmp, out=out)
    return out


class _MpGraph:
    """Directed-edge stacking of a packed graph for batched max-product sweeps.

    A message array has shape (R, kmax, 2|E|) for R restarts.  Column e holds
    the message src->tgt along edge e, and column |E| + e the message tgt->src;
    `PackedGraph.scatter`, every solver's, sums them: each node in edge order.
    A sweep gathers the incoming sums at all 2|E| sources at once, less each
    message's reverse (the two halves swapped), and max-plus multiplies each
    half with the one log table, log_tables[k, l, e] = log theta_e(k, l), built
    in place: the forward half as stored, the backward half transposed.
    """

    def __init__(self, graph: PackedGraph):
        self.graph = graph
        m = self.m = len(graph.src)
        T = self.log_tables = np.empty((graph.kmax, graph.kmax, m))
        np.maximum(graph.tables.transpose(1, 2, 0), 1e-320, out=T)
        np.log(T, out=T)
        T[graph.tables.transpose(1, 2, 0) <= 0.0] = LOG_ZERO
        self.tgt_valid = np.ascontiguousarray(graph.valid[np.concatenate([graph.tgt, graph.src])].T)
        self.ragged = not self.tgt_valid.all()

    def iterate(self, M: np.ndarray, B: np.ndarray, damping: float) -> np.ndarray:
        """One damped synchronous sweep of every restart; B is `graph.scatter.sum(M, axis=-1)`."""
        m = self.m
        X = np.take(B, self.graph.ends, axis=-1)
        X -= np.concatenate([M[..., m:], M[..., :m]], axis=-1)  # each message's reverse
        T = self.log_tables
        new = np.concatenate(both_directions(self.graph.parallel and X.size >= PARALLEL_MIN_MESSAGES, _max_plus,
                                             (T, X[..., :m]), (T.transpose(1, 0, 2), X[..., m:])), axis=-1)
        new *= 1.0 - damping
        new += np.multiply(M, damping, out=X)  # X is spent: its buffer takes damping * M
        new -= self._label_max(new)[:, None, :]
        return new

    def _label_max(self, X: np.ndarray) -> np.ndarray:
        """Max of each message over its target's valid labels."""
        return (np.where(self.tgt_valid, X, -np.inf) if self.ragged else X).max(axis=1)

    def max_change(self, new: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Per restart, the largest change of a message entry on a valid label."""
        d = np.abs(new - M)
        if self.ragged:
            d = np.where(self.tgt_valid, d, 0.0)
        return d.max(axis=(1, 2), initial=0.0)


def solve_mp(mrf: PairwiseMRF, config: Optional[SolverConfig] = None,
             damping: Optional[float] = None) -> SolveReport:
    """Run max-product with restarts (noisy message initializations).

    It maximises sum_ij log theta'_ij of the prepared (shifted, unary-absorbed)
    tables theta', where an entry that is 0 after the shift is a forbidden
    pair; every decode is scored on the additive objective (whether to run
    max-sum on that objective instead is open: ROADMAP, "Baseline fidelity").
    `config.objective_tolerance` doubles as the max-message-change
    convergence threshold.  Damping defaults to 0 on forests and 0.5 on
    loopy graphs.
    """
    config = config or SolverConfig(max_outer_iterations=1000)
    prepared, shift = model.prepare_model(mrf)
    graph = PackedGraph(prepared)
    mp = _MpGraph(graph)
    if damping is None:
        damping = 0.0 if _is_forest(mrf) else DEFAULT_LOOPY_DAMPING

    def step(state, live, diag):
        M, B, best_a, best_val = state
        new = mp.iterate(M, B, damping)
        change = mp.max_change(new, M)
        B = graph.scatter.sum(new, axis=-1)
        a = graph.decode(B.transpose(0, 2, 1))
        vals = graph.assignment_value(a) - shift
        better = vals > best_val
        best_a, best_val = np.where(better[:, None], a, best_a), np.maximum(vals, best_val)
        return (new, B, best_a, best_val), best_a, (None, vals), change

    def finish(final, w, finals):
        logb = np.where(graph.valid, final[1][w].T, -np.inf)
        b = np.exp(logb - logb.max(axis=1, keepdims=True))
        b /= b.sum(axis=1, keepdims=True)
        return graph.unpack_beliefs(b), finals

    R = config.restarts
    # restart r's noise is drawn (|E|, 2, kmax): edge e's src->tgt, then tgt->src message
    M = np.zeros((R, graph.kmax, 2 * mp.m))
    for r in range(1, R):
        noise = restart_rng(config, r).random((mp.m, 2, graph.kmax))
        M[r] = RESTART_NOISE * noise.transpose(2, 1, 0).reshape(graph.kmax, 2 * mp.m)
    start = (M, graph.scatter.sum(M, axis=-1), np.zeros((R, graph.n), dtype=np.intp), np.full(R, -np.inf))
    return run_restarts(mrf, config, start, step, finish)
