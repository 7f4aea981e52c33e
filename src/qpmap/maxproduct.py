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
A binary model (kmax <= 2) sweeps in the scatter's slot order: one max-plus
over the directed log table, slice-only incoming sums and no thread.
"""

from __future__ import annotations

import numbers
from functools import partial
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

    A message array has shape (R, kmax, 2|E|) for R restarts, one column per
    directed message; a sweep gathers its incoming sums, `sums(M)`, at every
    message's source, less the message's reverse.  A binary graph (kmax <= 2)
    keeps its columns in the scatter's slot order (`cols`: the edge-order column
    each holds, e src->tgt, |E| + e tgt->src) and its sums in position order; one
    max-plus with the log of `PackedGraph.directed` sweeps all its columns.  kmax >= 3
    keeps edge and node order, and its halves read one log table, log_tables[k, l, e]
    = log theta_e(k, l): src->tgt as stored, tgt->src transposed, threaded when large.
    """

    def __init__(self, graph: PackedGraph):
        self.graph, scatter = graph, graph.scatter
        m = self.m = len(graph.src)
        self.binary = graph.kmax <= 2
        self.sums = partial(scatter.slot_sums if self.binary else scatter.sum, axis=-1)
        if self.binary:  # the reverse of edge-order column j is column j - m mod 2m
            (sources, tables), self.cols, self.pos = graph.directed, scatter.order_cols, scatter.pos_of_node
            self.sources, self.reverse = self.pos[sources], np.argsort(self.cols)[self.cols - m]
        else:
            tables, self.sources = graph.tables.transpose(1, 2, 0), graph.ends
            self.cols, self.pos = np.arange(2 * m), np.arange(graph.n)  # edge order, node order
        T = self.log_tables = np.empty(tables.shape)
        np.maximum(tables, 1e-320, out=T)
        np.log(T, out=T)
        T[tables <= 0.0] = LOG_ZERO
        self.tgt_valid = np.ascontiguousarray(graph.valid[np.concatenate([graph.tgt, graph.src])[self.cols]].T)
        self.ragged = not self.tgt_valid.all()

    def iterate(self, M: np.ndarray, B: np.ndarray, damping: float) -> np.ndarray:
        """One damped synchronous sweep of every restart, B = `sums(M)`; binary: one max-plus, no thread."""
        X = B.take(self.sources, axis=-1)
        T = self.log_tables
        if self.binary:
            X -= M.take(self.reverse, axis=-1)  # each message's reverse
            new = _max_plus(T, X)
        else:
            m = self.m
            X -= np.concatenate([M[..., m:], M[..., :m]], axis=-1)
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
    convergence threshold.  Damping, a number in [0, 1], defaults to 0 on
    forests and 0.5 on loopy graphs.  A binary sweep is one max-plus (`_MpGraph`).
    """
    if damping is not None and (isinstance(damping, bool) or not isinstance(damping, numbers.Real)
                                or not 0 <= damping <= 1):
        raise ValueError("damping must be a number in [0, 1]")
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
        B = mp.sums(new)
        a = graph.decode(B.take(mp.pos, axis=-1).transpose(0, 2, 1))
        vals = graph.assignment_value(a) - shift
        best_a, best_val = np.where((vals > best_val)[:, None], a, best_a), np.maximum(vals, best_val)
        return (new, B, best_a, best_val), best_a, (None, vals), change

    def finish(final, w, finals, columns):
        logb = np.where(graph.valid, final[1][w].take(mp.pos, axis=-1).T, -np.inf)
        b = np.exp(logb - logb.max(axis=1, keepdims=True))
        b /= b.sum(axis=1, keepdims=True)
        return graph.unpack_beliefs(b), finals, columns

    R = config.restarts
    # restart r's noise is drawn (|E|, 2, kmax): edge e's src->tgt, then tgt->src message, then put in column order
    M = np.zeros((R, graph.kmax, 2 * mp.m))
    for r in range(1, R):
        noise = restart_rng(config, r).random((mp.m, 2, graph.kmax))
        M[r] = RESTART_NOISE * noise.transpose(2, 1, 0).reshape(graph.kmax, 2 * mp.m).take(mp.cols, axis=-1)
    start = (M, mp.sums(M), np.zeros((R, graph.n), dtype=np.intp), np.full(R, -np.inf))
    return run_restarts(mrf, config, start, step, finish)
