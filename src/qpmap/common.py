"""Shared solver configuration, reporting, and the restart/sweep driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

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


Sweep = Callable[[np.ndarray, np.ndarray, Optional[Diagnostics]], Tuple[np.ndarray, np.ndarray]]


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


def relative_change(new: float, old: float) -> float:
    return abs(new - old) / max(1.0, abs(new))


def run_restarts(
    original: PairwiseMRF,
    graph: PackedGraph,
    offset: ObjectiveOffset,
    config: SolverConfig,
    make_sweep: Callable[[], Sweep],
    convex_objective: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
) -> SolveReport:
    """Best-of-restarts synchronous-sweep driver shared by the CCCP-family solvers.

    Each restart sends its messages S = `delta_sums(P)` once; from then on
    its sweep (from `make_sweep()`, which may keep state within a restart)
    maps (P, S) to the next beliefs and their messages, and every objective
    is read off the carried S.  Stopping uses the relative change of
    `convex_objective(P, S)` when given, otherwise of the bilinear
    objective; both are traced, and a restart's final objective is its
    last sweep's.  The winner is the restart with the best decoded
    objective on the original (unshifted, unary-inclusive) model.
    """
    diag = Diagnostics() if config.collect_diagnostics else None
    best: Optional[SolveReport] = None
    restarts_converged: List[bool] = []
    restarts_final: List[float] = []
    t0 = time.perf_counter()
    for r in range(config.restarts):
        P = init_beliefs(graph, config, restart_rng(config, r))
        S = graph.delta_sums(P)
        sweep = make_sweep()
        trace: List[TraceRecord] = []
        prev = convex_objective(P, S) if convex_objective else graph.qp_objective(P, S)
        # max_outer_iterations >= 1: the loop always sets it, a, cur and converged
        for it in range(1, config.max_outer_iterations + 1):
            P, S = sweep(P, S, diag)
            qp = graph.qp_objective(P, S)
            cvx = convex_objective(P, S) if convex_objective else None
            a = graph.decode(P)
            integral = graph.assignment_value(a) - offset.shift_total
            trace.append(TraceRecord(it, qp, integral, cvx))
            cur = cvx if convex_objective else qp
            converged = relative_change(cur, prev) < config.objective_tolerance
            if converged:
                break
            prev = cur
        restarts_converged.append(converged)
        restarts_final.append(cur)
        integral = model.evaluate_assignment(original, a)
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
    best.wall_time_s = time.perf_counter() - t0
    best.diagnostics = diag
    return best
