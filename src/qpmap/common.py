"""Shared solver configuration, reporting, and the restart driver of all four solvers."""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import model
from .model import PairwiseMRF
from .packed import Diagnostics, PackedGraph, row_sums

INIT_MODES = ("uniform", "uniform-perturbed", "random-dirichlet")
PERTURBATION = 0.01  # scale of the "uniform-perturbed" init's multiplicative noise
VALUE_CHUNK = 2**15  # table entries gathered per assignment_value call on the trace's decodes


@dataclass
class SolverConfig:
    max_outer_iterations: int = 500
    # relative change between sweeps that stops a restart; CCCP also opens
    # its tail-phase line search once a plain step gains less than its sqrt
    objective_tolerance: float = 1e-8
    restarts: int = 10
    init: str = "uniform-perturbed"
    seed: int = 0
    collect_diagnostics: bool = False

    def __post_init__(self):
        model._integers((self.max_outer_iterations, self.restarts, self.seed),
                        ("max_outer_iterations", "restarts", "seed").__getitem__)
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")
        tol = self.objective_tolerance
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and tol >= 0):
            raise ValueError("objective_tolerance must be a number >= 0")
        if not isinstance(self.collect_diagnostics, bool):
            raise ValueError("collect_diagnostics must be a bool")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TraceRecord:
    iteration: int
    qp_objective: Optional[float]
    integral_objective: float
    convex_objective: Optional[float] = None


@dataclass
class SolveReport:
    """A best-of-restarts solve: the winner's (restart `restart_index`, the
    first of ties) `assignment`, `trace`, `beliefs`, `iterations` and
    `converged`, and one entry per restart in the `restarts_*` lists.
    Every objective is on the original model's scale; `restarts_final_objective`
    holds each restart's last stopping objective (max-product: its best decode)."""

    assignment: np.ndarray
    integral_objective: float
    trace: List[TraceRecord]
    beliefs: List[np.ndarray]
    iterations: int
    converged: bool
    restart_index: int
    restarts_converged: List[bool]
    restarts_final_objective: List[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    diagnostics: Optional[Diagnostics] = None


def restart_rng(config: SolverConfig, restart: int) -> np.random.Generator:
    # PCG64 seeded from (seed, restart); identical across solvers for fairness
    return np.random.default_rng([config.seed, restart])


def init_beliefs(graph: PackedGraph, config: SolverConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial belief matrix for one restart, zero on padded slots."""
    P = np.where(graph.valid, 1.0, 0.0)
    if config.init == "uniform-perturbed":
        P *= 1.0 + PERTURBATION * rng.random(P.shape)
    elif config.init == "random-dirichlet":
        # gamma(1) normalized per row is a flat Dirichlet draw
        P *= rng.gamma(1.0, size=P.shape)
    P /= P.sum(axis=1, keepdims=True)
    return P


def relative_change(new, old):
    return np.abs(new - old) / np.maximum(1.0, np.abs(new))


def relaxation_restarts(graph: PackedGraph, shift: float, config: SolverConfig, sweep: Callable,
                        d: Optional[np.ndarray] = None):
    """`run_restarts`' start state, step, finish and diagnostics for a
    CCCP-family solver.  Restart r starts from `init_beliefs` drawn with
    `restart_rng(config, r)`; `sweep(P, S, q, live, diag)` maps the live restarts'
    beliefs, messages S and carried objectives q to the next P, S and bilinear
    objective, to which the stopping objective adds sum(p*(1-p)*d) given the
    convex diagonal d.  Its change is relative; every objective is traced less `shift`.
    A sweep traces its decodes compact (binary: packed bits; else the smallest
    unsigned dtype) and `finish` values the winner's distinct ones, VALUE_CHUNK
    table entries a call: a row's value has the same bits in any stack."""
    dtype, binary = np.min_scalar_type(graph.kmax - 1), graph.kmax == 2

    def objective(P, qp):
        return qp if d is None else qp + row_sums(P * (1.0 - P) * d)

    def step(state, live, diag):
        P, S, prev = state
        P, S, qp = sweep(P, S, prev, live, diag)
        cur = objective(P, qp)
        a = graph.decode(P)
        c = a.astype(dtype)
        columns = (qp - shift, np.packbits(c, axis=-1) if binary else c) + ((cur - shift,) if d is not None else ())
        return (P, S, cur), a, columns, relative_change(cur, prev)

    def value(rows):  # the winner's stacked decodes: each run of equal rows valued once
        new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
        chunk = max(1, VALUE_CHUNK // len(graph.src))
        vals = [graph.assignment_value((np.unpackbits(x, axis=-1, count=graph.n) if binary else x).astype(np.intp))
                for x in np.split(rows[new], range(chunk, new.sum(), chunk))]
        return np.concatenate(vals)[np.cumsum(new) - 1] - shift

    def finish(final, w, finals, columns):
        P, _, q = final
        return graph.unpack_beliefs(P[w]), (q - shift).tolist(), (columns[0], value(columns[1]), *columns[2:])

    P = np.stack([init_beliefs(graph, config, restart_rng(config, r)) for r in range(config.restarts)])
    S = graph.delta_sums(P)
    diag = Diagnostics() if config.collect_diagnostics else None
    return (P, S, objective(P, graph.qp_objective(P, S))), step, finish, diag


def run_restarts(original: PairwiseMRF, config: SolverConfig, state: Tuple[np.ndarray, ...],
                 step: Callable, finish: Callable, diag: Optional[Diagnostics] = None) -> SolveReport:
    """Best-of-restarts sweep driver shared by all four solvers.

    `state` is a tuple of arrays with the restart on axis 0.  Each sweep,
    `step(state, live, diag)` maps the live restarts' rows (indices `live`)
    to their next state, the assignment each stands behind, its trace
    columns (the `TraceRecord` fields after `iteration`, None for one it does
    not trace) and its change.  A restart stops once its change is below
    `config.objective_tolerance`, or at the budget, and its rows move to the
    final state.  The winner `w` (the first of ties) has the best assignment
    valued on the original model; given those values and the winner's trace
    columns, each stacked over its sweeps, `finish(final, w, finals, columns)`
    returns its beliefs, every restart's final objective and its trace columns
    (a solver may trace compact decodes and value them here).
    """
    R, budget = config.restarts, config.max_outer_iterations
    t0 = time.perf_counter()
    final = tuple(np.empty_like(x) for x in state)
    final_a = np.empty((R, original.num_nodes), dtype=np.intp)
    iterations, converged = np.empty(R, dtype=int), np.zeros(R, dtype=bool)
    history = []  # per sweep: the live restarts and their trace columns (fresh arrays, not copied)
    live = np.arange(R)
    for it in range(1, budget + 1):
        if not len(live):
            break
        state, a, columns, change = step(state, live, diag)
        history.append((live, columns))
        done = change < config.objective_tolerance
        stop = done | (it == budget)
        if stop.any():
            out, keep = live[stop], ~stop
            for f, x in zip(final, state):
                f[out] = x[stop]
            final_a[out], iterations[out], converged[out] = a[stop], it, done[stop]
            live, state = live[keep], tuple(x[keep] for x in state)
    finals = model.evaluate_assignment(original, final_a).tolist()
    w = int(np.argmax(finals))
    sweeps = [(np.searchsorted(rows, w), cols) for rows, cols in history[: iterations[w]]]
    columns = [None if c is None else np.array([cs[j][i] for i, cs in sweeps]) for j, c in enumerate(history[0][1])]
    beliefs, final_objective, columns = finish(final, w, finals, columns)
    return SolveReport(
        assignment=final_a[w].copy(),
        integral_objective=finals[w],
        trace=[TraceRecord(i, *(None if c is None else float(c[i - 1]) for c in columns))
               for i in range(1, iterations[w] + 1)],
        beliefs=beliefs,
        iterations=int(iterations[w]),
        converged=bool(converged[w]),
        restart_index=w,
        restarts_converged=converged.tolist(),
        restarts_final_objective=final_objective,
        wall_time_s=time.perf_counter() - t0,
        diagnostics=diag,
    )
