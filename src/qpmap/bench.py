"""Benchmark harness: mixed Ising grids, matched seeds, CSV summaries.

Every quantity produced is a pure function of the plan.  All solvers in a
cell see identical instances and identical restart seeds; wall time covers
solving only, not generation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import cccp, convex, gpem, maxproduct, model
from .common import SolverConfig, SolveReport
from .generators import IsingSpec, gen_ising_grid
from .model import PairwiseMRF

# name -> (solve function, default max_outer_iterations).  Each solve
# function is looked up on its module at call time, so a wrapper installed
# there (as a profiler does) sees every call.
SOLVERS: Dict[str, Tuple[Callable[[PairwiseMRF, SolverConfig], SolveReport], int]] = {
    "cccp": (lambda mrf, config: cccp.solve(mrf, config), 500),
    "convex": (lambda mrf, config: convex.solve_convex(mrf, config), 500),
    "gpem": (lambda mrf, config: gpem.solve_gp(mrf, config), 500),
    "maxprod": (lambda mrf, config: maxproduct.solve_mp(mrf, config), 1000),
}


@dataclass(frozen=True)
class BenchPlan:
    sizes: Tuple[Tuple[int, int], ...] = ((10, 10), (20, 20))
    betas: Tuple[float, ...] = (0.5, 1.0, 2.0)
    instances: int = 10
    restarts: int = 10
    solvers: Tuple[str, ...] = ("cccp", "maxprod")
    seed: int = 0

    def __post_init__(self):
        model._integers((self.instances, self.restarts), ("instances", "restarts").__getitem__)
        if self.instances < 1 or self.restarts < 1 or not self.sizes or not self.betas:
            raise ValueError("all plan counts must be >= 1")
        SolverConfig(seed=self.seed)  # raises on a negative or non-integer seed, as each solve's config would
        for (rows, cols), beta in itertools.product(self.sizes, self.betas):
            IsingSpec(rows, cols, beta)  # raises on a size below 1x1 or a bad beta
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver {s!r}")
        for what, entries in (("size", self.sizes), ("beta", self.betas), ("solver", self.solvers)):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ValueError(f"{what} {repeated[0]!r} is repeated in the plan")


@dataclass
class Cell:
    """Per (solver, size, beta) raw results across instances."""

    solver: str
    size: str
    beta: float
    qualities: List[float] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    converged_runs: List[bool] = field(default_factory=list)


@dataclass
class BenchResult:
    plan: BenchPlan
    cells: Dict[Tuple[str, str, float], Cell]

    def gains(self) -> List[Tuple[str, str, str, float, float]]:
        """Per-instance-matched relative gains (Q_a - Q_b)/|Q_b| for every
        ordered solver pair, averaged within each (size, beta) cell.  The
        absolute value keeps a gain positive when `a` beats a baseline
        whose quality is negative."""
        out = []
        solvers = self.plan.solvers
        for a in solvers:
            for b in solvers:
                if a == b:
                    continue
                for (r, c) in self.plan.sizes:
                    size = f"{r}x{c}"
                    for beta in self.plan.betas:
                        qa = np.asarray(self.cells[(a, size, beta)].qualities)
                        qb = np.asarray(self.cells[(b, size, beta)].qualities)
                        out.append((a, b, size, beta, float(np.mean((qa - qb) / np.abs(qb)))))
        return out

    def mean_gain(self, a: str, b: str, size: str) -> float:
        """Gain of `a` over `b` at one grid size, averaged over betas."""
        vals = [g for sa, sb, sz, _, g in self.gains() if (sa, sb, sz) == (a, b, size)]
        return float(np.mean(vals))


def instance_seed(plan: BenchPlan, size_idx: int, beta_idx: int, instance: int) -> int:
    return int(np.random.SeedSequence([plan.seed, size_idx, beta_idx, instance]).generate_state(1)[0])


def run_benchmark(plan: BenchPlan) -> BenchResult:
    cells: Dict[Tuple[str, str, float], Cell] = {}
    for si, (rows, cols) in enumerate(plan.sizes):
        size = f"{rows}x{cols}"
        for bi, beta in enumerate(plan.betas):
            for s in plan.solvers:
                cells[(s, size, beta)] = Cell(s, size, beta)
            for t in range(plan.instances):
                seed = instance_seed(plan, si, bi, t)
                mrf = gen_ising_grid(IsingSpec(rows, cols, beta, seed=seed))
                for s in plan.solvers:
                    solve, budget = SOLVERS[s]
                    config = SolverConfig(max_outer_iterations=budget, restarts=plan.restarts, seed=seed)
                    t0 = time.perf_counter()
                    report = solve(mrf, config)
                    elapsed = time.perf_counter() - t0
                    cell = cells[(s, size, beta)]
                    cell.qualities.append(report.integral_objective)
                    cell.times.append(elapsed)
                    cell.converged_runs.extend(report.restarts_converged)
    return BenchResult(plan, cells)


def summary_csv(result: BenchResult) -> str:
    lines = ["solver,size,beta,mean_quality,mean_time_s,converged_frac"]
    for s in result.plan.solvers:
        for (r, c) in result.plan.sizes:
            size = f"{r}x{c}"
            for beta in result.plan.betas:
                cell = result.cells[(s, size, beta)]
                quality, time_s, converged = map(np.mean, (cell.qualities, cell.times, cell.converged_runs))
                lines.append(f"{s},{size},{beta:.10g},{quality:.10g},{time_s:.6g},{converged:.6g}")
    return "\n".join(lines) + "\n"


def gains_csv(result: BenchResult) -> str:
    lines = ["solver_a,solver_b,size,beta,mean_gain"]
    for a, b, size, beta, gain in result.gains():
        lines.append(f"{a},{b},{size},{beta:.10g},{gain:.10g}")
    return "\n".join(lines) + "\n"
