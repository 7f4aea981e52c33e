"""The benchmark's workloads: a fixed pool of models, and one timed solve.

Each workload owns a small pool of models built from a fixed generator
seed.  The per-instance solve time of the iterative solvers spreads widely
across random instances (coefficient of variation 0.4-0.8 for CCCP on
10x10 mixed Ising grids), far more than a run can average out, so the pool
is the same in every run.  `--seed` chooses the solver seeds -- the restart
initialisations, and with them every solver trajectory -- afresh for each
pass over the pool.

Every timed call gets a freshly built model object, so that lazily cached
model state (`PairwiseMRF.adjacency`) is paid inside each solve, and every
output is checked against the original model outside timing.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from qpmap import cccp, cli, convex, gpem, maxproduct, model, packed, uai
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import PairwiseMRF

# Bound before the traced run wraps the module attributes, so that the
# checks below never show up as spans.
_evaluate = model.evaluate_assignment

ENTRY = {
    "cccp": (cccp, "solve"),
    "convex": (convex, "solve_convex"),
    "gpem": (gpem, "solve_gp"),
    "maxprod": (maxproduct, "solve_mp"),
}
SOLVERS = tuple(ENTRY)
REL_TOL = 1e-9
POOL_SEED = 20120217


class CheckError(Exception):
    """A solve returned output that fails the benchmark's output check."""


@dataclass
class Instance:
    mrf: PairwiseMRF  # original model: source of fresh copies and of checks
    text: Optional[str] = None  # UAI text, for workloads that go through the CLI
    path: Optional[Path] = None

    @property
    def shape(self) -> Tuple[int, int]:
        """(edges, kmax) of the packed graph the solvers build."""
        return len(self.mrf.edges), max(self.mrf.cardinalities)


@dataclass
class Outcome:
    seconds: float
    objective: float
    converged: List[bool]


def fresh(mrf: PairwiseMRF) -> PairwiseMRF:
    return PairwiseMRF(mrf.cardinalities, mrf.edges, mrf.tables, mrf.unaries)


def _pool_seed(pool: int, i: int) -> int:
    return int(np.random.SeedSequence([POOL_SEED, pool, i]).generate_state(1)[0])


def solver_seed(seed: int, instance: int, pass_no: int) -> int:
    return int(np.random.SeedSequence([seed, pass_no, instance]).generate_state(1)[0])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _check_assignment(mrf: PairwiseMRF, assignment, objective: float) -> None:
    try:
        value = _evaluate(mrf, assignment)
    except model.InvalidAssignmentError as exc:
        raise CheckError(f"assignment out of range: {exc}") from None
    if not _close(objective, value):
        raise CheckError(f"reported objective {objective!r} != re-evaluated {value!r}")


def _check_report(mrf: PairwiseMRF, report) -> None:
    _check_assignment(mrf, report.assignment, report.integral_objective)
    if len(report.beliefs) != mrf.num_nodes:
        raise CheckError("one belief vector per node expected")
    for i, (p, k) in enumerate(zip(report.beliefs, mrf.cardinalities)):
        if p.shape != (k,) or p.min() < -model.NONNEG_TOL or abs(p.sum() - 1.0) > model.SIMPLEX_SUM_TOL:
            raise CheckError(f"beliefs of node {i} are not on the simplex")


# -- library workloads ------------------------------------------------------


def _library(config_of: Callable[[str, int], SolverConfig]):
    def solve(inst: Instance, solver: str, seed: int, warmup: bool) -> Outcome:
        config = config_of(solver, seed)
        if warmup:
            config = SolverConfig(max_outer_iterations=10, restarts=1, seed=seed)
        mrf = fresh(inst.mrf)
        owner, attr = ENTRY[solver]
        fn = getattr(owner, attr)  # looked up per call so the traced run sees its wrapper
        t0 = time.perf_counter()
        report = fn(mrf, config)
        seconds = time.perf_counter() - t0
        _check_report(inst.mrf, report)
        return Outcome(seconds, report.integral_objective, list(report.restarts_converged))

    return solve


def _ising_pool(outdir: Path) -> List[Instance]:
    return [
        Instance(gen_ising_grid(IsingSpec(10, 10, beta, seed=_pool_seed(0, i))))
        for i, beta in enumerate((0.5, 1.0, 2.0))
    ]


def _ising_config(solver: str, seed: int) -> SolverConfig:
    # the `qpmap bench` protocol
    return SolverConfig(
        max_outer_iterations=1000 if solver == "maxprod" else 500,
        objective_tolerance=1e-8,
        restarts=10,
        seed=seed,
    )


def _dense_pool(outdir: Path) -> List[Instance]:
    return [Instance(gen_random_mrf(20, 64, density=1.0, seed=_pool_seed(1, i))) for i in range(2)]


def _dense_config(solver: str, seed: int) -> SolverConfig:
    return SolverConfig(max_outer_iterations=100, objective_tolerance=1e-8, restarts=2, seed=seed)


# -- CLI workload -----------------------------------------------------------

UAI_MAXPROD_ITERS = 200


def _uai_pool(outdir: Path) -> List[Instance]:
    mrf = gen_ising_grid(IsingSpec(50, 50, 1.0, seed=_pool_seed(2, 0)))
    text = uai.write_uai(mrf)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "uai-grid.uai"
    path.write_text(text)
    # checks evaluate against the model as the CLI reads it back
    return [Instance(uai.parse_uai(text), text=text, path=path)]


def _solve_cli(inst: Instance, solver: str, seed: int, warmup: bool) -> Outcome:
    argv = ["solve", "--input", str(inst.path), "--solver", solver, "--restarts", "1", "--seed", str(seed)]
    if warmup:
        argv += ["--max-iters", "10"]
    elif solver == "maxprod":
        argv += ["--max-iters", str(UAI_MAXPROD_ITERS)]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise CheckError(f"exit code {code}: {err.getvalue().strip()}")
    fields = dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)
    try:
        assignment = [int(x) for x in fields["assignment"].split()]
        objective = float(fields["objective"])
        converged = fields["converged"] == "True"
    except (KeyError, ValueError) as exc:
        raise CheckError(f"unreadable solve output: {exc!r}") from None
    if not math.isfinite(objective):
        raise CheckError(f"objective {objective!r}")
    _check_assignment(inst.mrf, assignment, objective)
    return Outcome(seconds, objective, [converged])


@dataclass(frozen=True)
class Workload:
    name: str
    build_pool: Callable[[Path], List[Instance]]
    solve: Callable[[Instance, str, int, bool], Outcome]


WORKLOADS = {
    w.name: w
    for w in (
        # k=2 and 180 edges: time goes to per-sweep Python overhead in the
        # restart driver and to max-product's 1000 unconverged sweeps.
        Workload(
            "ising-grid",
            _ising_pool,
            _library(_ising_config),
        ),
        # k=64 puts the time in the (m, k, k) einsums and max-product's
        # (m, k, k) max, and takes the compensated-sum path of the sweep.
        Workload(
            "dense-multilabel",
            _dense_pool,
            _library(_dense_config),
        ),
        # ingest (parse, prepare) is a large share of each CLI solve, and
        # delta_sums is scatter-bound (large m, k=2) rather than einsum-bound.
        Workload(
            "uai-grid",
            _uai_pool,
            _solve_cli,
        ),
    )
}


def setup_seconds(inst: Instance) -> float:
    """One set-up: input to solver-ready form (parse, prepare, pack)."""
    mrf = None if inst.text is not None else fresh(inst.mrf)
    t0 = time.perf_counter()
    if inst.text is not None:
        mrf = uai.parse_uai(inst.text)
    prepared, _ = model.prepare_model(mrf)
    packed.PackedGraph(prepared)
    return time.perf_counter() - t0
