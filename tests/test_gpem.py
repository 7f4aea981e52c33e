import logging

import numpy as np
import pytest

from qpmap import gpem
from qpmap.common import SolverConfig, init_beliefs, restart_rng
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import DegenerateNodeError, PairwiseMRF, prepare_model
from qpmap.packed import PackedGraph
from oracles import em_multiplicative_update, pack_beliefs

TWO_NODE_TABLE = np.array([[2.0, 0.0], [0.0, 1.0]])


def two_node(table=TWO_NODE_TABLE):
    return PairwiseMRF((2, 2), ((0, 1),), (table,))


def gp_sweep(m, P):
    """One GP-EM sweep as `solve_gp` runs it."""
    g = PackedGraph(m)
    P = np.asarray(P, dtype=float)
    return gpem._Sweep(g)(P, g.delta_sums(P), None, None)[0]


class TestGpUpdate:
    def test_worked_two_node(self):
        # node 0 under uniform neighbor beliefs
        out = gp_sweep(two_node(), [[0.5, 0.5], [0.5, 0.5]])[0]
        assert np.allclose(out, [2 / 3, 1 / 3])

    def test_constant_tables_identity(self):
        p = np.array([0.3, 0.7])
        out = gp_sweep(two_node(np.full((2, 2), 1.7)), [p, [0.5, 0.5]])[0]
        assert np.allclose(out, p)

    def test_concentration_grows(self):
        p = np.array([0.9, 0.1])
        out = gp_sweep(two_node(), [p, p])[0]
        assert out[0] / out[1] > p[0] / p[1]

    def test_zero_weight_errors(self):
        with pytest.raises(DegenerateNodeError) as exc:
            gpem.solve_gp(two_node(np.zeros((2, 2))), SolverConfig(restarts=1))
        assert exc.value.node == 0
        # edge (2, 3) carries no weight, edge (0, 1) does
        m = PairwiseMRF((2, 2, 2, 3), ((0, 1), (2, 3)), (TWO_NODE_TABLE, np.zeros((2, 3))))
        with pytest.raises(DegenerateNodeError) as exc:
            gpem.solve_gp(m, SolverConfig(restarts=1))
        assert exc.value.node == 2


class TestSolveGp:
    def test_two_node(self):
        rep = gpem.solve_gp(two_node(), SolverConfig(restarts=3, seed=0))
        assert np.array_equal(rep.assignment, [0, 0])
        assert rep.integral_objective == pytest.approx(2.0)

    def test_uniform_init_is_fixed_point_on_symmetric_model(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = PairwiseMRF((2, 2), ((0, 1),), (t,))
        rep_uniform = gpem.solve_gp(
            m, SolverConfig(restarts=1, init="uniform", max_outer_iterations=50)
        )
        assert np.allclose(rep_uniform.beliefs[0], 0.5)
        rep_perturbed = gpem.solve_gp(m, SolverConfig(restarts=1, seed=1))
        assert rep_perturbed.integral_objective == pytest.approx(1.0)
        assert max(rep_perturbed.beliefs[0]) > 0.99

    def test_monotone_on_random_instances(self):
        for seed in range(15):
            m = gen_random_mrf(6, 3, seed=seed)
            rep = gpem.solve_gp(m, SolverConfig(restarts=1, seed=seed, max_outer_iterations=80))
            qp = [t.qp_objective for t in rep.trace]
            assert all(b >= a - 1e-9 for a, b in zip(qp, qp[1:]))

    def test_positivity_preserved(self):
        m = gen_random_mrf(5, 3, seed=2, density=1.0)
        rep = gpem.solve_gp(m, SolverConfig(restarts=1, seed=0, max_outer_iterations=200))
        for p in rep.beliefs:
            assert np.all(p > 1e-300)

    def test_fixed_point_consistency(self):
        m = gen_random_mrf(5, 3, seed=6)
        rep = gpem.solve_gp(
            m, SolverConfig(restarts=1, seed=3, max_outer_iterations=3000,
                            objective_tolerance=1e-13)
        )
        prepared, _ = prepare_model(m)
        g = PackedGraph(prepared)
        P = pack_beliefs(g, rep.beliefs)
        S = g.delta_sums(P)
        for i, p in enumerate(rep.beliefs):
            support = p > 1e-7
            vals = S[i, : len(p)][support]
            assert vals.max() - vals.min() <= 1e-6 * max(1.0, vals.max())


def test_trace_reads_the_iterated_step():
    # tolerance 0 traces every sweep; each value must be the objective of
    # the step iterated here, with its messages computed afresh
    m = gen_random_mrf(8, 3, seed=5)
    config = SolverConfig(restarts=1, seed=3, max_outer_iterations=60, objective_tolerance=0.0)
    rep = gpem.solve_gp(m, config)
    g = PackedGraph(prepare_model(m)[0])
    sweep = gpem._Sweep(g)
    P = init_beliefs(g, config, restart_rng(config, 0))
    expected = []
    for _ in range(config.max_outer_iterations):
        P = sweep(P, g.delta_sums(P), None, None)[0]
        expected.append(g.qp_objective(P))
    assert [t.qp_objective for t in rep.trace] == expected
    assert rep.restarts_final_objective == [expected[-1]]
    assert all(np.array_equal(b, e) for b, e in zip(rep.beliefs, g.unpack_beliefs(P)))


def test_matches_reference_em_update():
    rng = np.random.default_rng(13)
    for seed in range(10):
        m = gen_random_mrf(6, 3, seed=seed)
        prepared, _ = prepare_model(m)
        g = PackedGraph(prepared)
        beliefs = [rng.dirichlet(np.ones(k)) for k in m.cardinalities]
        sweep = gpem._Sweep(g)
        P = pack_beliefs(g, beliefs)
        S = g.delta_sums(P)
        for _ in range(5):
            P, S = sweep(P, S, None, None)
            beliefs = em_multiplicative_update(prepared, beliefs)
            for i, ref in enumerate(beliefs):
                assert np.allclose(P[i, : len(ref)], ref, atol=1e-12)


def test_underflow_logged_once_per_solve(caplog):
    # almost every sweep underflows some entry here; the solve logs one line
    # carrying the total over all restarts and sweeps
    m = gen_ising_grid(IsingSpec(20, 20, 1.0, seed=4))
    config = SolverConfig(restarts=3, max_outer_iterations=300, seed=7)
    with caplog.at_level(logging.WARNING, logger="qpmap.gpem"):
        gpem.solve_gp(m, config)
    records = [r for r in caplog.records if "underflow" in r.getMessage()]
    assert len(records) == 1
    g = PackedGraph(prepare_model(m)[0])
    total = 0
    for r in range(config.restarts):
        sweep = gpem._Sweep(g)
        P = init_beliefs(g, config, restart_rng(config, r))
        S = g.delta_sums(P)
        prev = g.qp_objective(P, S)
        for _ in range(config.max_outer_iterations):
            P, S = sweep(P, S, None, None)
            cur = g.qp_objective(P, S)
            if abs(cur - prev) / max(1.0, abs(cur)) < config.objective_tolerance:
                break
            prev = cur
        total += sweep.underflows
    assert total > 0
    assert records[0].args == (total,)
