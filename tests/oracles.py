"""Independent reference implementations used to check the solvers.

Most of this is deliberately written without the package's packed
message-passing machinery: brute-force enumeration, naive per-edge loops
(scoring an assignment, packing the tables, drawing the generators'
tables), projected-gradient ascent
with sort-based simplex projection, the scalar per-node clamped update,
per-node belief fixtures, the per-token UAI reader and the per-edge
solver-ready form.  The
restart references run one restart at a time on a `PackedGraph`, with
`np.add.at` scatters (and a broadcast max for max-product); the batched
solvers must match them exactly.  The clamped simplex sweep's reference
reduces over the label axis with numpy's own per-row `sum` and `any`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from qpmap import cccp, maxproduct, model
from qpmap.common import SolverConfig, SolveReport, TraceRecord, init_beliefs, restart_rng
from qpmap.generators import IsingSpec
from qpmap.model import DegenerateNodeError, PairwiseMRF, UnsupportedModelError, check_assignment
from qpmap.packed import Diagnostics, PackedGraph
from qpmap.uai import UaiParseError


def brute_force_map(mrf: PairwiseMRF) -> Tuple[np.ndarray, float]:
    """Exhaustive MAP; ties resolved by lexicographically first assignment."""
    best_a, best_v = None, -np.inf
    for a in itertools.product(*[range(k) for k in mrf.cardinalities]):
        v = 0.0
        for (i, j), t in zip(mrf.edges, mrf.tables):
            v += t[a[i], a[j]]
        if mrf.unaries:
            for i, u in mrf.unaries.items():
                v += u[a[i]]
        if v > best_v:
            best_a, best_v = a, v
    return np.array(best_a, dtype=int), float(best_v)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / ind > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _flat_layout(mrf: PairwiseMRF):
    offsets = np.cumsum([0] + list(mrf.cardinalities))
    dim = offsets[-1]
    A = np.zeros((dim, dim))
    for (i, j), t in zip(mrf.edges, mrf.tables):
        A[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] += t
        A[offsets[j] : offsets[j + 1], offsets[i] : offsets[i + 1]] += t.T
    return offsets, dim, A


def convex_relaxation_objective(mrf: PairwiseMRF, beliefs: Sequence[np.ndarray], d: Sequence[np.ndarray]) -> float:
    total = 0.0
    for (i, j), t in zip(mrf.edges, mrf.tables):
        total += float(beliefs[i] @ t @ beliefs[j])
    for p, di in zip(beliefs, d):
        total += float(np.dot(p, di)) - float(np.dot(p * p, di))
    return total


def pg_maximize_convex_relaxation(
    mrf: PairwiseMRF,
    d: Sequence[np.ndarray],
    max_iterations: int = 100_000,
    seed: int = 0,
) -> Tuple[List[np.ndarray], float]:
    """Projected-gradient ascent on the diagonally-relaxed objective.

    Diminishing steps from 1/L; stops early once the projected step no
    longer moves the iterate (the budget is a cap, not a target).
    """
    offsets, dim, A = _flat_layout(mrf)
    dflat = np.concatenate([np.asarray(x, dtype=float) for x in d])
    rng = np.random.default_rng(seed)
    p = rng.random(dim)
    blocks = [slice(offsets[i], offsets[i + 1]) for i in range(mrf.num_nodes)]
    for b in blocks:
        p[b] /= p[b].sum()
    L = float(np.abs(A).sum(axis=1).max() + 2.0 * dflat.max(initial=0.0)) or 1.0
    step0 = 1.0 / L
    stall = 0
    for t in range(max_iterations):
        g = dflat + A @ p - 2.0 * dflat * p
        step = step0 / (1.0 + t / 5000.0)
        q = p + step * g
        new = np.empty_like(p)
        for b in blocks:
            new[b] = project_simplex(q[b])
        move = float(np.abs(new - p).max())
        p = new
        stall = stall + 1 if move < 1e-14 else 0
        if stall >= 20:
            break
    beliefs = [p[b].copy() for b in blocks]
    return beliefs, convex_relaxation_objective(mrf, beliefs, d)


def pg_node_subproblem(gradient: np.ndarray, curvature: np.ndarray, max_iterations: int = 20_000) -> np.ndarray:
    """Projected-gradient solve of max_p gradient.p - (1/2) sum curvature*p^2
    over the simplex: the per-node linearized subproblem."""
    g = np.asarray(gradient, dtype=float)
    c = np.asarray(curvature, dtype=float)
    k = len(g)
    p = np.full(k, 1.0 / k)
    step = 1.0 / c.max()
    for _ in range(max_iterations):
        new = project_simplex(p + step * (g - c * p))
        if np.abs(new - p).max() < 1e-14:
            p = new
            break
        p = new
    return p


def indicator_beliefs(mrf: PairwiseMRF, a: Sequence[int]) -> List[np.ndarray]:
    a = check_assignment(mrf, a)
    out = []
    for i, k in enumerate(mrf.cardinalities):
        p = np.zeros(k)
        p[a[i]] = 1.0
        out.append(p)
    return out


def uniform_beliefs(mrf: PairwiseMRF) -> List[np.ndarray]:
    return [np.full(k, 1.0 / k) for k in mrf.cardinalities]


def mixed_cardinality_mrf(rng: np.random.Generator, n_max: int = 8, k_max: int = 6) -> PairwiseMRF:
    """Random unary-free model: label counts 2..k_max, a chain plus random
    extra edges, normal (mixed-sign) tables."""
    n = int(rng.integers(2, n_max + 1))
    cards = tuple(int(k) for k in rng.integers(2, k_max + 1, size=n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if j == i + 1 or rng.random() < 0.4]
    tables = tuple(rng.normal(size=(cards[i], cards[j])) for i, j in edges)
    return PairwiseMRF(cards, tuple(edges), tables)


def gen_ising_grid_per_edge(spec: IsingSpec) -> PairwiseMRF:
    """`generators.gen_ising_grid` one draw and one array at a time: a coupling
    per edge (grid row-major, right edge before down edge), then a node potential per node."""
    rng = np.random.default_rng(spec.seed)
    n, edges = spec.rows * spec.cols, []
    for r in range(spec.rows):
        for c in range(spec.cols):
            if c + 1 < spec.cols:
                edges.append((r * spec.cols + c, r * spec.cols + c + 1))
            if r + 1 < spec.rows:
                edges.append((r * spec.cols + c, (r + 1) * spec.cols + c))
    tables = []
    for _ in edges:
        d = rng.uniform(-spec.beta, spec.beta)
        tables.append(np.array([[d, -d], [-d, d]]))
    unaries = {}
    for i in range(n):
        u = rng.uniform(-spec.node_potential_bound, spec.node_potential_bound)
        unaries[i] = np.array([u, -u])
    return PairwiseMRF((2,) * n, tuple(edges), tuple(tables), unaries)


def random_mrf_draws_per_edge(n: int, k: int, density: float = 0.5, potential_scale: float = 1.0,
                              seed: int = 0) -> Tuple[Tuple[Tuple[int, int], ...], Iterator[np.ndarray]]:
    """`generators.gen_random_mrf`'s edges, and its tables drawn one edge at a
    time, lazily, so that a large model's draws need not all be held at once."""
    rng = np.random.default_rng(seed)
    edges, tree = [], set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        tree.add((u, v))
        edges.append((u, v))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in tree and rng.random() < density:
                edges.append((i, j))
    return tuple(edges), (rng.uniform(0.0, potential_scale, size=(k, k)) for _ in edges)


def gen_random_mrf_per_edge(n: int, k: int, density: float = 0.5, potential_scale: float = 1.0,
                            seed: int = 0) -> PairwiseMRF:
    """`generators.gen_random_mrf` one draw and one array per edge."""
    edges, tables = random_mrf_draws_per_edge(n, k, density, potential_scale, seed)
    return PairwiseMRF((k,) * n, edges, tuple(tables))


@dataclass
class InnerResult:
    beliefs: np.ndarray
    multiplier: float
    zeros: Set[int]
    multiplier_history: List[float]

    @property
    def passes(self) -> int:
        return len(self.multiplier_history)


def inner_loop(gradient: Sequence[float], denominator: Sequence[float]) -> InnerResult:
    """Single-node normalized update with nonnegativity clamping: the
    per-node reference for `clamped_simplex_sweep`.

    Candidate beliefs are (gradient - lam)/denominator on the active labels
    with lam solving the normalization; negative labels move into `zeros`
    and the pass repeats.  Terminates within k passes; lam is strictly
    increasing whenever a second pass occurs.
    """
    g = np.asarray(gradient, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if np.any(den <= 0):
        raise DegenerateNodeError(-1, "nonpositive update denominator")
    k = len(g)
    zeros: Set[int] = set()
    history: List[float] = []
    p = np.zeros(k)
    for _ in range(k):
        active = [x for x in range(k) if x not in zeros]
        if len(active) == 1:
            x = active[0]
            lam = g[x] - den[x]
            p = np.zeros(k)
            p[x] = 1.0
            history.append(lam)
            break
        inv = math.fsum(1.0 / den[x] for x in active)
        lam = (math.fsum(g[x] / den[x] for x in active) - 1.0) / inv
        p = np.zeros(k)
        for x in active:
            p[x] = (g[x] - lam) / den[x]
        history.append(lam)
        neg = {x for x in active if p[x] < 0.0}
        if not neg:
            break
        zeros |= neg
        for x in neg:
            p[x] = 0.0
    return InnerResult(p, history[-1], zeros, history)


def clamped_simplex_sweep_reference(
    grad: np.ndarray,
    denom: np.ndarray,
    valid: np.ndarray,
    diag: Optional[Diagnostics] = None,
) -> np.ndarray:
    """The clamping loop of `packed.clamped_simplex_sweep`, pinned, with numpy's
    label-axis reductions (`sum(axis=-1)`, `any(axis=-1)`) in place of its label-slice
    sums; it counts multiplier violations without logging them.  The library sweep,
    its binary closed form included, must match it bit for bit, `Diagnostics` included."""
    rows = grad.shape[:-1]
    active = np.broadcast_to(valid, grad.shape).copy()
    safe_denom = np.where(valid, denom, 1.0)
    inv = np.where(active, 1.0 / safe_denom, 0.0)
    passes = np.ones(rows, dtype=int)
    lam_prev = np.full(rows, -np.inf)
    P = np.zeros_like(grad)
    for _ in range(max(grad.shape[-1], 1)):
        den = inv.sum(axis=-1)
        num = (grad * inv).sum(axis=-1) - 1.0
        lam = num / den
        P = np.where(active, (grad - lam[..., None]) / safe_denom, 0.0)
        single = active.sum(axis=-1) == 1
        if single.any():
            P[single] = np.where(active[single], 1.0, 0.0)
        if diag is not None:
            viol = (passes > 1) & (lam < lam_prev - 1e-12)
            diag.multiplier_violations += int(viol.sum())
            lam_prev = lam
        neg = active & (P < 0.0)
        if not neg.any():
            break
        passes += neg.any(axis=-1)
        active &= ~neg
        inv[neg] = 0.0
    if diag is not None:
        diag.max_inner_passes = max(diag.max_inner_passes, int(passes.max(initial=0)))
        for v in sorted(set(passes.ravel().tolist())):
            diag.inner_pass_hist[v] = diag.inner_pass_hist.get(v, 0) + int((passes == v).sum())
        on = valid & (P > 0.0)
        resid = np.abs(denom * P - grad + lam[..., None])
        if on.any():
            diag.max_stationarity_residual = max(
                diag.max_stationarity_residual, float(resid[on].max())
            )
        off = valid & ~on
        if off.any():
            mu = (lam[..., None] - grad)[off]
            diag.min_clamped_multiplier = min(diag.min_clamped_multiplier, float(mu.min()))
    return P


def theta(mrf: PairwiseMRF, i: int, j: int) -> np.ndarray:
    """Edge table oriented (i, j); the (j, i) orientation is a transpose view."""
    if i < j:
        return mrf.tables[mrf.edges.index((i, j))]
    return mrf.tables[mrf.edges.index((j, i))].T


def adjacency(mrf: PairwiseMRF) -> Tuple[Tuple[int, ...], ...]:
    """Sorted neighbours of every node."""
    nbrs: List[List[int]] = [[] for _ in range(mrf.num_nodes)]
    for i, j in mrf.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return tuple(tuple(sorted(x)) for x in nbrs)


def em_multiplicative_update(mrf: PairwiseMRF, beliefs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Direct per-edge-loop coding of the multiplicative belief update."""
    out = []
    for i, nbrs in enumerate(adjacency(mrf)):
        weight = np.zeros(mrf.cardinalities[i])
        for j in nbrs:
            t = theta(mrf, i, j)
            for xi in range(mrf.cardinalities[i]):
                weight[xi] += float(np.dot(t[xi, :], beliefs[j]))
        numer = np.asarray(beliefs[i]) * weight
        out.append(numer / numer.sum())
    return out


def mp_log_tables(graph: PackedGraph) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(
            graph.tables > 0.0,
            np.log(np.maximum(graph.tables, 1e-320)),
            maxproduct.LOG_ZERO,
        )


def mp_directed_edges(graph: PackedGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edge 2e is src->tgt and 2e+1 is tgt->src: (sources, targets)."""
    m = len(graph.src)
    src, tgt = np.empty(2 * m, dtype=int), np.empty(2 * m, dtype=int)
    src[0::2], tgt[0::2] = graph.src, graph.tgt
    src[1::2], tgt[1::2] = graph.tgt, graph.src
    return src, tgt


def mp_stack(directed: np.ndarray) -> np.ndarray:
    """`solve_mp`'s (R, kmax, 2|E|) message array (column e: src->tgt, |E| + e:
    tgt->src) from columns ordered 2e: src->tgt, 2e+1: tgt->src."""
    return np.concatenate([directed[..., 0::2], directed[..., 1::2]], axis=-1)


def mp_incoming(graph: PackedGraph, M: np.ndarray) -> np.ndarray:
    """Per-node sum of a (2|E|, kmax) message matrix, by `np.add.at`."""
    B = np.zeros((graph.n, graph.kmax))
    np.add.at(B, mp_directed_edges(graph)[1], M)
    return B


def mp_iterate(graph: PackedGraph, M: np.ndarray, damping: float) -> np.ndarray:
    """One damped synchronous sweep, maxing over a broadcast (|E|, k, k) sum."""
    logt = mp_log_tables(graph)
    src, tgt = mp_directed_edges(graph)
    excl = mp_incoming(graph, M)[src] - M[np.arange(len(src)) ^ 1]
    fwd = (logt + excl[0::2][:, :, None]).max(axis=1)
    bwd = (logt + excl[1::2][:, None, :]).max(axis=2)
    new = np.empty_like(M)
    new[0::2], new[1::2] = fwd, bwd
    new = damping * M + (1.0 - damping) * new
    new -= np.where(graph.valid[tgt], new, -np.inf).max(axis=1, keepdims=True)
    return new


def mp_restarts_reference(
    mrf: PairwiseMRF,
    config: SolverConfig,
    damping: Optional[float] = None,
) -> SolveReport:
    """Max-product run one restart at a time: the reference for `solve_mp`."""
    prepared, shift = model.prepare_model(mrf)
    graph = PackedGraph(prepared)
    valid_tgt = graph.valid[mp_directed_edges(graph)[1]]
    if damping is None:
        damping = 0.0 if maxproduct._is_forest(mrf) else maxproduct.DEFAULT_LOOPY_DAMPING
    best: Optional[SolveReport] = None
    restarts_converged: List[bool] = []
    restarts_final: List[float] = []
    for r in range(config.restarts):
        M = np.zeros((2 * len(graph.src), graph.kmax))
        if r > 0:
            M += maxproduct.RESTART_NOISE * restart_rng(config, r).random(M.shape)
        trace: List[TraceRecord] = []
        converged = False
        iterations = 0
        best_val = -np.inf
        best_a = graph.decode(mp_incoming(graph, M))
        for it in range(1, config.max_outer_iterations + 1):
            new = mp_iterate(graph, M, damping)
            change = float(np.abs((new - M)[valid_tgt]).max(initial=0.0))
            M = new
            iterations = it
            a = graph.decode(mp_incoming(graph, M))
            integral = graph.assignment_value(a) - shift
            trace.append(TraceRecord(it, None, integral))
            if integral > best_val:
                best_val, best_a = integral, a
            if change < config.objective_tolerance:
                converged = True
                break
        restarts_converged.append(converged)
        integral = model.evaluate_assignment(mrf, best_a)
        restarts_final.append(integral)
        if best is None or integral > best.integral_objective:
            logb = np.where(graph.valid, mp_incoming(graph, M), -np.inf)
            b = np.exp(logb - logb.max(axis=1, keepdims=True))
            b /= b.sum(axis=1, keepdims=True)
            best = SolveReport(
                assignment=best_a,
                integral_objective=integral,
                trace=trace,
                beliefs=graph.unpack_beliefs(np.where(graph.valid, b, 0.0)),
                iterations=iterations,
                converged=converged,
                restart_index=r,
                restarts_converged=[],
            )
    assert best is not None
    best.restarts_converged = restarts_converged
    best.restarts_final_objective = restarts_final
    return best


def evaluate_assignment_per_edge(mrf: PairwiseMRF, a: Sequence[int]) -> float:
    """`model.evaluate_assignment` of one assignment, one edge, then one unary, at a time."""
    a = check_assignment(mrf, a)
    total = 0.0
    for (i, j), t in zip(mrf.edges, mrf.tables):
        total += t[a[i], a[j]]
    for i, u in (mrf.unaries or {}).items():
        total += u[a[i]]
    return float(total)


def pack_tables_per_edge(mrf: PairwiseMRF) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`PackedGraph`'s zero-padded (|E|, kmax, kmax) tables, filled one edge at
    a time, and its `theta_hat` and `diagonal_terms`: per node, the (|theta|/2)
    row sums of the tables where it is src, then the column sums where it is
    tgt, added one edge at a time."""
    kmax = max(mrf.cardinalities, default=0)
    T = np.zeros((len(mrf.edges), kmax, kmax))
    for e, t in enumerate(mrf.tables):
        T[e, : t.shape[0], : t.shape[1]] = t

    def node_sums(X):
        S = np.zeros((mrf.num_nodes, kmax))
        for e, (i, _) in enumerate(mrf.edges):
            S[i] += X[e].sum(axis=1)
        for e, (_, j) in enumerate(mrf.edges):
            S[j] += X[e].sum(axis=0)
        return S

    return T, node_sums(T), node_sums(np.abs(T)) / 2.0


def pack_beliefs(graph: PackedGraph, beliefs: Sequence[np.ndarray]) -> np.ndarray:
    """(n, kmax) matrix of per-node belief vectors, zero-padded."""
    P = np.zeros((graph.n, graph.kmax))
    for i, p in enumerate(beliefs):
        P[i, : len(p)] = p
    return P


def assignment_value_per_edge(graph: PackedGraph, a: np.ndarray) -> np.ndarray:
    """`PackedGraph.assignment_value` of each row of an (R, n) stack: the 1-D
    sum of the row's edge values, read one edge at a time off the model's tables."""
    edges = list(zip(graph.mrf.edges, graph.mrf.tables))
    return np.array([np.array([t[x[i], x[j]] for (i, j), t in edges], dtype=float).sum() for x in a])


def decode_per_node(graph: PackedGraph, P: np.ndarray) -> np.ndarray:
    """`PackedGraph.decode` of an (R, n, kmax) stack: each node's argmax over its own labels."""
    return np.array([[int(np.argmax(row[:k])) for row, k in zip(Pr, graph.card)] for Pr in P])


def delta_sums_add_at(graph: PackedGraph, P: np.ndarray) -> np.ndarray:
    """`PackedGraph.delta_sums` by one `np.add.at` over the directed edges
    (2e: src->tgt, 2e+1: tgt->src, as `mp_incoming`), one restart at a time."""
    if P.ndim == 3:
        return np.stack([delta_sums_add_at(graph, Pr) for Pr in P])
    S = np.zeros_like(P)
    if len(graph.src):
        msgs = np.empty((2 * len(graph.src), graph.kmax))
        msgs[0::2] = np.einsum("ek,ekl->el", P[graph.src], graph.tables)
        msgs[1::2] = np.einsum("el,ekl->ek", P[graph.tgt], graph.tables)
        np.add.at(S, mp_directed_edges(graph)[1], msgs)
    return S


def diagonal_terms_per_edge(graph: PackedGraph) -> np.ndarray:
    """`PackedGraph.diagonal_terms`, each edge adding its halved |theta| row
    and column sums by `np.add.at`."""
    d = np.zeros((graph.n, graph.kmax))
    if len(graph.src):
        at = np.abs(graph.tables)
        np.add.at(d, graph.src, at.sum(axis=2) / 2.0)
        np.add.at(d, graph.tgt, at.sum(axis=1) / 2.0)
    return d


def outer_iteration(graph: PackedGraph, P: np.ndarray, diag=None) -> np.ndarray:
    """One CCCP plain sweep of one restart: all messages, then all node updates."""
    return cccp._plain_step(graph, P, graph.delta_sums(P), diag)


def tail_step(P: np.ndarray, S: np.ndarray, P1: np.ndarray, S1: np.ndarray) -> np.ndarray:
    """One restart's CCCP tail step: the best point of the bilinear
    objective on the ray from P through P1, over t in [1, t_max].

    S and S1 are the incoming messages at P and at the plain step P1.  The
    objective along the ray is f(P) + t*sum(D*S) + t^2/2*sum(D*(S1 - S))
    with D = P1 - P; t_max is the largest t with P + tD >= 0.  Returns P1
    itself when the plain step is best.
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
    X = np.maximum(P + t * D, 0.0)
    return X / X.sum(axis=1, keepdims=True)


def _qp(P: np.ndarray, S: np.ndarray) -> float:
    return 0.5 * float((P * S).sum())


def _reference_solver(solver: str, graph: PackedGraph, config: SolverConfig):
    """(fresh one-restart sweep factory, stopping objective or None) of a solver."""
    if solver == "gpem":
        def gpem_sweep(P, S, diag):
            numer = P * S
            new = numer / numer.sum(axis=1)[:, None]
            return new, delta_sums_add_at(graph, new)

        return lambda: gpem_sweep, None
    if solver == "convex":
        d = graph.diagonal_terms()
        denom = 2.0 * d + graph.theta_hat

        def convex_sweep(P, S, diag):
            P = clamped_simplex_sweep_reference(P * graph.theta_hat + S + d, denom, graph.valid, diag)
            return P, delta_sums_add_at(graph, P)

        return lambda: convex_sweep, lambda P, S: _qp(P, S) + float((P * (1.0 - P) * d).sum())
    gate = math.sqrt(config.objective_tolerance)

    def cccp_sweep_factory():
        tail = False

        def sweep(P, S, diag):
            nonlocal tail
            P1 = clamped_simplex_sweep_reference(P * graph.theta_hat + S, graph.theta_hat, graph.valid, diag)
            S1 = delta_sums_add_at(graph, P1)
            if not tail:
                tail = _relative_change(_qp(P1, S1), _qp(P, S)) < gate
            if tail:
                X = tail_step(P, S, P1, S1)
                if X is not P1:
                    SX = delta_sums_add_at(graph, X)
                    if _qp(X, SX) >= _qp(P1, S1):
                        P1, S1 = X, SX
            return P1, S1

        return sweep

    return cccp_sweep_factory, None


def _relative_change(new: float, old: float) -> float:
    return abs(new - old) / max(1.0, abs(new))


def restarts_reference(solver: str, mrf: PairwiseMRF, config: SolverConfig) -> SolveReport:
    """A CCCP-family solve ("cccp", "convex" or "gpem") run one restart at a
    time: the reference for the batched `run_restarts`."""
    prepared, shift = model.prepare_model(mrf)
    graph = PackedGraph(prepared)
    make_sweep, convex_objective = _reference_solver(solver, graph, config)
    diag = Diagnostics() if config.collect_diagnostics else None
    best: Optional[SolveReport] = None
    restarts_converged: List[bool] = []
    restarts_final: List[float] = []
    for r in range(config.restarts):
        P = init_beliefs(graph, config, restart_rng(config, r))
        S = delta_sums_add_at(graph, P)
        sweep = make_sweep()
        trace: List[TraceRecord] = []
        prev = convex_objective(P, S) if convex_objective else _qp(P, S)
        for it in range(1, config.max_outer_iterations + 1):
            P, S = sweep(P, S, diag)
            qp = _qp(P, S)
            cvx = convex_objective(P, S) if convex_objective else None
            a = graph.decode(P)
            integral = graph.assignment_value(a) - shift
            trace.append(TraceRecord(it, qp - shift, integral, None if cvx is None else cvx - shift))
            cur = cvx if convex_objective else qp
            converged = _relative_change(cur, prev) < config.objective_tolerance
            if converged:
                break
            prev = cur
        restarts_converged.append(converged)
        restarts_final.append(cur - shift)
        integral = model.evaluate_assignment(mrf, a)
        if best is None or integral > best.integral_objective:
            best = SolveReport(
                assignment=a,
                integral_objective=integral,
                trace=trace,
                beliefs=graph.unpack_beliefs(P),
                iterations=it,
                converged=converged,
                restart_index=r,
                restarts_converged=[],
            )
    assert best is not None
    best.restarts_converged = restarts_converged
    best.restarts_final_objective = restarts_final
    best.diagnostics = diag
    return best


def _tokenize(text: str) -> List[Tuple[str, int]]:
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for tok in line.split():
            toks.append((tok, lineno))
    return toks


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    @property
    def last_line(self) -> int:
        return self.toks[-1][1] if self.toks else 1

    def next(self, what: str) -> Tuple[str, int]:
        if self.pos >= len(self.toks):
            raise UaiParseError(self.last_line, f"unexpected end of input, expected {what}")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def next_int(self, what: str) -> Tuple[int, int]:
        tok, line = self.next(what)
        try:
            return int(tok), line
        except ValueError:
            raise UaiParseError(line, f"expected {what}, got {tok!r}") from None

    def next_float(self, what: str) -> Tuple[float, int]:
        tok, line = self.next(what)
        try:
            return float(tok), line
        except ValueError:
            raise UaiParseError(line, f"expected {what}, got {tok!r}") from None

    def done(self) -> bool:
        return self.pos >= len(self.toks)


def parse_uai_reference(text: str) -> PairwiseMRF:
    """`uai.parse_uai` one token at a time, each carrying its line number."""
    r = _Reader(text)
    header, line = r.next("MARKOV header")
    if header.upper() != "MARKOV":
        raise UaiParseError(line, f"expected MARKOV header, got {header!r}")
    n, line = r.next_int("variable count")
    if n < 0:
        raise UaiParseError(line, "negative variable count")
    cards = []
    for v in range(n):
        k, line = r.next_int(f"cardinality of variable {v}")
        if k < 1:
            raise UaiParseError(line, f"variable {v} has cardinality {k}")
        cards.append(k)
    nf, _ = r.next_int("factor count")
    scopes: List[Tuple[int, ...]] = []
    for f in range(nf):
        arity, line = r.next_int(f"arity of factor {f}")
        if arity not in (1, 2):
            raise UaiParseError(line, f"factor {f} has unsupported arity {arity}; only unary and pairwise supported")
        scope = []
        for _ in range(arity):
            v, line = r.next_int(f"scope variable of factor {f}")
            if not 0 <= v < n:
                raise UaiParseError(line, f"factor {f} references variable {v}, out of range")
            scope.append(v)
        if arity == 2 and scope[0] == scope[1]:
            raise UaiParseError(line, f"factor {f} repeats variable {scope[0]} in its scope")
        scopes.append(tuple(scope))

    unaries: Dict[int, np.ndarray] = {}
    edge_tables: Dict[Tuple[int, int], np.ndarray] = {}
    edge_order: List[Tuple[int, int]] = []
    for f, scope in enumerate(scopes):
        expected = math.prod(cards[v] for v in scope)  # exact, as Python ints
        count, line = r.next_int(f"entry count of factor {f}")
        if count != expected:
            raise UaiParseError(line, f"factor {f} declares {count} entries, scope implies {expected}")
        entries = []  # as many as are read, not as many as declared
        for e in range(count):
            x, line = r.next_float(f"entry {e} of factor {f}")
            entries.append(x)
        vals = np.array(entries, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise UaiParseError(line, f"factor {f} has non-finite entries")
        if len(scope) == 1:
            (i,) = scope
            unaries[i] = unaries.get(i, np.zeros(cards[i])) + vals
        else:
            i, j = scope
            t = vals.reshape(cards[i], cards[j])
            if i > j:
                i, j, t = j, i, t.T
            if (i, j) in edge_tables:
                edge_tables[(i, j)] = edge_tables[(i, j)] + t
            else:
                edge_tables[(i, j)] = t
                edge_order.append((i, j))
    if not r.done():
        tok, line = r.next("end of input")
        raise UaiParseError(line, f"trailing content {tok!r}")
    return PairwiseMRF(
        tuple(cards),
        tuple(edge_order),
        tuple(edge_tables[e] for e in edge_order),
        unaries or None,
    )


def prepare_model_reference(mrf: PairwiseMRF) -> Tuple[PairwiseMRF, float]:
    """`model.prepare_model` one edge at a time: rows get u_i/deg(i), columns
    u_j/deg(j), then a table with a negative entry is shifted to minimum 0."""
    if not mrf.num_nodes:
        raise UnsupportedModelError("model has no variables")
    unaries = mrf.unaries or {}
    deg = np.bincount(np.asarray(mrf.edges, dtype=int).ravel(), minlength=mrf.num_nodes)
    for i in unaries:
        if deg[i] == 0:
            raise UnsupportedModelError(f"unary on isolated node {i} cannot be absorbed")
    share = {i: u / deg[i] for i, u in unaries.items()}
    shift_total = 0.0
    tables = []
    for (i, j), t in zip(mrf.edges, mrf.tables):
        if i in share:
            t = t + share[i][:, None]
        if j in share:
            t = t + share[j][None, :]
        lo = float(t.min())
        if lo < 0.0:
            t = t - lo
            shift_total += -lo
        tables.append(t)
    return PairwiseMRF(mrf.cardinalities, mrf.edges, tuple(tables)), shift_total
