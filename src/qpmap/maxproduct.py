"""Damped synchronous max-product belief propagation baseline.

Messages live in the log domain, one vector per directed edge, and are
max-normalized to zero after every update.  Zero potentials map to a large
negative log value.  The decoded quality reported is the best integral
objective seen over all iterations, since loopy max-product need not
converge.  With damping 0 the fixed point on trees is the exact
max-marginal of the table-product objective.

All restarts are swept together as one message array, and a restart stops
moving once its largest message change falls below the tolerance.  Every
sum is taken in the order a one-restart-at-a-time solve takes it, so the
report is bit-identical to solving the restarts one by one.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from . import model
from .common import SolverConfig, SolveReport, TraceRecord, restart_rng
from .model import PairwiseMRF
from .packed import PackedGraph, SlotScatter

LOG_ZERO = -1e9
DEFAULT_LOOPY_DAMPING = 0.5


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
    the message src->tgt along edge e, and column |E| + e the message tgt->src.
    """

    def __init__(self, graph: PackedGraph):
        self.graph = graph
        m = self.m = len(graph.src)
        with np.errstate(divide="ignore"):
            L = np.where(graph.tables > 0.0, np.log(np.maximum(graph.tables, 1e-320)), LOG_ZERO)
        # fwd_tables[k, l, e] = bwd_tables[l, k, e] = log theta_e(k, l); at most
        # two copies of the tables are alive at once, as in an unbatched sweep
        self.fwd_tables = np.ascontiguousarray(L.transpose(1, 2, 0))
        del L
        self.bwd_tables = np.ascontiguousarray(self.fwd_tables.transpose(1, 0, 2))
        dir_tgt = np.concatenate([graph.tgt, graph.src])
        self.tgt_valid = np.ascontiguousarray(graph.valid[dir_tgt].T)
        self.ragged = not self.tgt_valid.all()
        # summed in the order np.add.at adds directed edges 2e: src->tgt, 2e+1: tgt->src
        interleaved = np.concatenate([2 * np.arange(m), 2 * np.arange(m) + 1])
        self.scatter = SlotScatter(dir_tgt, interleaved, graph.n, graph.kmax)

    def stack(self, directed: np.ndarray) -> np.ndarray:
        """Message array from (R, kmax, 2|E|) columns ordered 2e: src->tgt, 2e+1: tgt->src."""
        return np.concatenate([directed[..., 0::2], directed[..., 1::2]], axis=-1)

    def incoming(self, M: np.ndarray) -> np.ndarray:
        """Per-node sums of incoming messages, shape (R, kmax, n)."""
        return self.scatter.sum(M, axis=-1)

    def iterate(self, M: np.ndarray, B: np.ndarray, damping: float) -> np.ndarray:
        """One damped synchronous sweep of every restart; B is incoming(M)."""
        m, g = self.m, self.graph
        fwd = _max_plus(self.fwd_tables, np.take(B, g.src, axis=-1) - M[..., m:])
        bwd = _max_plus(self.bwd_tables, np.take(B, g.tgt, axis=-1) - M[..., :m])
        new = np.empty_like(M)
        np.multiply(fwd, 1.0 - damping, out=new[..., :m])
        np.multiply(bwd, 1.0 - damping, out=new[..., m:])
        new += damping * M
        new -= self._label_max(new)[:, None, :]
        return new

    def _label_max(self, X: np.ndarray) -> np.ndarray:
        """Max of each message over its target's valid labels, one label at a time."""
        mx = X[:, 0].copy()
        for label in range(1, X.shape[1]):
            col = X[:, label]
            if self.ragged:
                col = np.where(self.tgt_valid[label], col, -np.inf)
            np.maximum(mx, col, out=mx)
        return mx

    def max_change(self, new: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Per restart, the largest change of a message entry on a valid label."""
        d = np.abs(new - M)
        if self.ragged:
            d = np.where(self.tgt_valid, d, 0.0)
        return d.max(axis=1).max(axis=1, initial=0.0)


def solve_mp(
    mrf: PairwiseMRF,
    config: Optional[SolverConfig] = None,
    damping: Optional[float] = None,
    restart_noise: float = 0.01,
) -> SolveReport:
    """Run max-product with restarts (noisy message initializations).

    `config.objective_tolerance` doubles as the max-message-change
    convergence threshold.  Damping defaults to 0 on forests and 0.5 on
    loopy graphs.  `restarts_final_objective` holds each restart's best
    decoded objective on the original model.
    """
    config = config or SolverConfig(max_outer_iterations=1000)
    prepared, offset = model.prepare_model(mrf)
    graph = PackedGraph(prepared)
    mp = _MpGraph(graph)
    if damping is None:
        damping = 0.0 if _is_forest(mrf) else DEFAULT_LOOPY_DAMPING

    t0 = time.perf_counter()
    R = config.restarts
    directed = np.zeros((R, graph.kmax, 2 * mp.m))
    for r in range(1, R):
        directed[r] = restart_noise * restart_rng(config, r).random((2 * mp.m, graph.kmax)).T
    M = mp.stack(directed)
    B = mp.incoming(M)
    final_B = np.empty_like(B)
    best_a = graph.decode(B.transpose(0, 2, 1))
    best_val = np.full(R, -np.inf)
    iterations = np.full(R, config.max_outer_iterations)
    converged = np.zeros(R, dtype=bool)
    history = []  # per iteration, every restart's decoded value (NaN once stopped)
    live = np.arange(R)
    for it in range(1, config.max_outer_iterations + 1):
        new = mp.iterate(M, B, damping)
        change = mp.max_change(new, M)
        M = new
        B = mp.incoming(M)
        a = graph.decode(B.transpose(0, 2, 1))
        vals = graph.assignment_value(a) - offset.shift_total
        row = np.full(R, np.nan)
        row[live] = vals
        history.append(row)
        better = vals > best_val[live]
        best_val[live[better]] = vals[better]
        best_a[live[better]] = a[better]
        done = change < config.objective_tolerance
        if done.any():
            stopped = live[done]
            iterations[stopped] = it
            converged[stopped] = True
            final_B[stopped] = B[done]
            live, M, B = live[~done], M[~done], B[~done]
            if not len(live):
                break
    final_B[live] = B

    finals = [model.evaluate_assignment(mrf, a) for a in best_a]
    w = int(np.argmax(finals))  # the first of tied restarts wins
    values = np.array(history)[: iterations[w], w].tolist()
    logb = np.where(graph.valid, final_B[w].T, -np.inf)
    b = np.exp(logb - logb.max(axis=1, keepdims=True))
    b /= b.sum(axis=1, keepdims=True)
    return SolveReport(
        assignment=best_a[w].copy(),
        integral_objective=finals[w],
        trace=[TraceRecord(i, v, v) for i, v in enumerate(values, 1)],
        beliefs=graph.unpack_beliefs(np.where(graph.valid, b, 0.0)),
        iterations=int(iterations[w]),
        converged=bool(converged[w]),
        restart_index=w,
        restarts_converged=converged.tolist(),
        restarts_final_objective=finals,
        wall_time_s=time.perf_counter() - t0,
    )
