"""The batched restart driver and the slot scatter it sweeps on.

`run_restarts` sweeps all restarts as one stack; every report must equal,
field for field, the one-restart-at-a-time loop in `oracles.restarts_reference`.
"""

import dataclasses

import numpy as np
import pytest

from qpmap import cccp, convex, gpem
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import PairwiseMRF, prepare_model
from qpmap.packed import PackedGraph
from oracles import delta_sums_add_at, mixed_cardinality_mrf, restarts_reference

SOLVERS = {"cccp": cccp.solve, "convex": convex.solve_convex, "gpem": gpem.solve_gp}


def star(leaves, k, seed):
    """Node 0 joined to every leaf: its messages reach the scatter's np.add.at tail."""
    rng = np.random.default_rng(seed)
    edges = tuple((0, v) for v in range(1, leaves + 1))
    return PairwiseMRF((k,) * (leaves + 1), edges, tuple(rng.uniform(-1.0, 2.0, size=(k, k)) for _ in edges))


MODELS = {
    "ising-5x5": lambda: gen_ising_grid(IsingSpec(5, 5, 1.0, seed=1)),
    "ising-10x10-b0.5": lambda: gen_ising_grid(IsingSpec(10, 10, 0.5, seed=2)),
    "ising-10x10-b1": lambda: gen_ising_grid(IsingSpec(10, 10, 1.0, seed=3)),
    "ising-10x10-b2": lambda: gen_ising_grid(IsingSpec(10, 10, 2.0, seed=4)),
    "ising-20x20": lambda: gen_ising_grid(IsingSpec(20, 20, 1.0, seed=5)),
    "random-k3": lambda: gen_random_mrf(12, 3, 0.4, seed=6),
    "random-k4": lambda: gen_random_mrf(10, 4, 0.5, seed=7),
    "dense-k64": lambda: gen_random_mrf(6, 64, 1.0, seed=8),
    "mixed-cardinality": lambda: mixed_cardinality_mrf(np.random.default_rng(9), n_max=10, k_max=7),
    "star-40": lambda: star(40, 2, 10),
}


def assert_same_report(got, ref):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if f.name == "wall_time_s":
            continue
        if f.name == "beliefs":
            assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b)), f.name
        elif f.name == "assignment":
            assert np.array_equal(a, b) and a.dtype == b.dtype, f.name
        else:
            assert a == b, f.name


class TestBatchedRestarts:
    @pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_equals_one_restart_at_a_time(self, solver, model, diagnostics):
        m = MODELS[model]()
        budget = 150 if model == "ising-20x20" else 300
        config = SolverConfig(restarts=4, seed=11, max_outer_iterations=budget, collect_diagnostics=diagnostics)
        assert_same_report(SOLVERS[solver](m, config), restarts_reference(solver, m, config))

    @pytest.mark.parametrize(
        "solver, m, budget",
        [("cccp", gen_ising_grid(IsingSpec(10, 10, 1.0, seed=3)), 40),
         ("convex", gen_ising_grid(IsingSpec(10, 10, 1.0, seed=3)), 60),
         ("gpem", gen_random_mrf(12, 3, 0.4, seed=6), 192)],
        ids=["cccp", "convex", "gpem"],
    )
    def test_budget_stopped_beside_converged(self, solver, m, budget):
        config = SolverConfig(restarts=4, seed=11, max_outer_iterations=budget)
        got = SOLVERS[solver](m, config)
        assert 0 < sum(got.restarts_converged) < 4
        assert_same_report(got, restarts_reference(solver, m, config))

    def test_one_restart(self):
        m = gen_random_mrf(8, 3, seed=5)
        config = SolverConfig(restarts=1, seed=3, max_outer_iterations=100)
        for solver, solve in SOLVERS.items():
            assert_same_report(solve(m, config), restarts_reference(solver, m, config))


@pytest.mark.parametrize(
    "m",
    [star(40, 2, 0), star(40, 3, 1), gen_ising_grid(IsingSpec(10, 10, 1.0, seed=0)),
     gen_ising_grid(IsingSpec(3, 7, 2.0, seed=1)), gen_random_mrf(30, 4, 0.2, seed=1),
     mixed_cardinality_mrf(np.random.default_rng(2)), PairwiseMRF((2, 3), (), ())],
    ids=["star-k2", "star-k3", "grid", "thin-grid", "random", "mixed", "edgeless"],
)
def test_delta_sums_equal_add_at(m):
    # bit-equal to two np.add.at scatters, one restart at a time, whether a
    # slot is summed on a prefix of nodes or left to the np.add.at tail
    g = PackedGraph(prepare_model(m)[0])
    P = np.where(g.valid, np.random.default_rng(3).random((5, g.n, g.kmax)), 0.0)
    ref = delta_sums_add_at(g, P)
    assert np.array_equal(g.delta_sums(P), ref)
    assert np.array_equal(g.delta_sums(P[2]), ref[2])
    assert g.delta_sums(P).flags.c_contiguous


def test_assignment_value_rows_equal_1d_sums():
    # each restart's value is the 1-D sum of its own edge values
    rng = np.random.default_rng(4)
    for _ in range(40):
        m = gen_random_mrf(int(rng.integers(2, 40)), int(rng.integers(2, 6)), float(rng.uniform(0.1, 1.0)),
                           seed=int(rng.integers(2**31)))
        g = PackedGraph(m)
        a = rng.integers(0, g.card, size=(int(rng.integers(1, 12)), g.n))
        rows = g.assignment_value(a)
        assert rows.tolist() == [g.assignment_value(x) for x in a]
