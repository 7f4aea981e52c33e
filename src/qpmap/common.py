"""Shared solver configuration, reporting, and the restart/sweep driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import model
from .model import ObjectiveOffset, PairwiseMRF
from .packed import Diagnostics, PackedGraph

INIT_MODES = ("uniform", "uniform-perturbed", "random-dirichlet")


@dataclass
class SolverConfig:
    max_outer_iterations: int = 500
    # relative change between sweeps that stops a restart; CCCP also opens
    # its tail-phase line search once a plain step gains less than its sqrt
    objective_tolerance: float = 1e-8
    restarts: int = 10
    init: str = "uniform-perturbed"
    perturbation: float = 0.01
    seed: int = 0
    collect_diagnostics: bool = False

    def __post_init__(self):
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")
        if not self.objective_tolerance >= 0:
            raise ValueError("objective_tolerance must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.perturbation < 0:
            raise ValueError("perturbation must be >= 0")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")


@dataclass
class TraceRecord:
    iteration: int
    qp_objective: float
    integral_objective: float
    convex_objective: Optional[float] = None


@dataclass
class SolveReport:
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
        P *= 1.0 + config.perturbation * rng.random(P.shape)
    elif config.init == "random-dirichlet":
        # gamma(1) normalized per row is a flat Dirichlet draw
        P *= rng.gamma(1.0, size=P.shape)
    P /= P.sum(axis=1, keepdims=True)
    return P


def relative_change(new, old):
    return np.abs(new - old) / np.maximum(1.0, np.abs(new))


def run_restarts(
    original: PairwiseMRF,
    graph: PackedGraph,
    offset: ObjectiveOffset,
    config: SolverConfig,
    sweep: Callable,
    convex_objective: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> SolveReport:
    """Best-of-restarts synchronous-sweep driver shared by the CCCP-family solvers.

    All restarts sweep as one (R, n, kmax) stack, restart r from beliefs
    drawn with `restart_rng(config, r)`.  Their messages S = `delta_sums(P)`
    are sent once; then `sweep(P, S, live, diag)` maps the stack of the live
    restarts (indices `live`) to their next beliefs and messages, and every
    objective is read off the carried S.  A restart stops on the relative
    change of `convex_objective(P, S)` if given, else of the bilinear
    objective, and leaves the stack.  Each restart's sums are taken on their
    own, so the report is bit-identical to solving the restarts one at a
    time.  The winner (the first of ties) has the best decoded objective on
    the original model.
    """
    diag = Diagnostics() if config.collect_diagnostics else None
    R, budget = config.restarts, config.max_outer_iterations
    t0 = time.perf_counter()
    P = np.stack([init_beliefs(graph, config, restart_rng(config, r)) for r in range(R)])
    S = graph.delta_sums(P)
    prev = (convex_objective or graph.qp_objective)(P, S)
    final_P, final_a = np.empty_like(P), graph.decode(P)
    final, iterations = np.empty(R), np.empty(R, dtype=int)
    converged = np.zeros(R, dtype=bool)
    history = []  # per sweep: qp, integral, stopping objective of every restart (NaN once stopped)
    live = np.arange(R)
    for it in range(1, budget + 1):
        if not len(live):
            break
        P, S = sweep(P, S, live, diag)
        qp = graph.qp_objective(P, S)
        cur = convex_objective(P, S) if convex_objective else qp
        a = graph.decode(P)
        row = np.full((3, R), np.nan)
        row[:, live] = qp, graph.assignment_value(a) - offset.shift_total, cur
        history.append(row)
        done = relative_change(cur, prev) < config.objective_tolerance
        stop, prev = done | (it == budget), cur
        if stop.any():
            out, keep = live[stop], ~stop
            final_P[out], final_a[out], final[out] = P[stop], a[stop], cur[stop]
            iterations[out], converged[out] = it, done[stop]
            live, P, S, prev = live[keep], P[keep], S[keep], prev[keep]
    finals = [model.evaluate_assignment(original, x) for x in final_a]
    w = int(np.argmax(finals))
    hist = np.array(history)[: iterations[w], :, w].tolist()
    return SolveReport(
        assignment=final_a[w].copy(),
        integral_objective=finals[w],
        trace=[TraceRecord(i, q, v, c if convex_objective else None) for i, (q, v, c) in enumerate(hist, 1)],
        beliefs=graph.unpack_beliefs(final_P[w]),
        iterations=int(iterations[w]),
        converged=bool(converged[w]),
        restart_index=w,
        restarts_converged=converged.tolist(),
        restarts_final_objective=final.tolist(),
        wall_time_s=time.perf_counter() - t0,
        diagnostics=diag,
    )
