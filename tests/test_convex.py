import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmap import convex
from qpmap.common import SolverConfig, init_beliefs, restart_rng
from qpmap.generators import gen_random_mrf
from qpmap.model import DegenerateNodeError, PairwiseMRF, evaluate_assignment, prepare_model
from qpmap.packed import PackedGraph, clamped_simplex_sweep, row_sums
from oracles import (
    convex_relaxation_objective,
    diagonal_terms_per_edge,
    indicator_beliefs,
    inner_loop,
    mixed_cardinality_mrf,
    pack_beliefs,
    pg_maximize_convex_relaxation,
    uniform_beliefs,
)

TWO_NODE_TABLE = np.array([[2.0, 0.0], [0.0, 1.0]])


def two_node():
    return PairwiseMRF((2, 2), ((0, 1),), (TWO_NODE_TABLE,))


def diagonal_terms(m):
    return PackedGraph(m).diagonal_terms()


def convex_objective(m, beliefs):
    """The relaxed objective as `solve_convex` evaluates it."""
    g = PackedGraph(m)
    P = pack_beliefs(g, beliefs)
    return g.qp_objective(P) + row_sums(P * (1.0 - P) * g.diagonal_terms())


def qp_objective(m, beliefs):
    g = PackedGraph(m)
    return g.qp_objective(pack_beliefs(g, beliefs))


class TestDiagonalTerms:
    def test_two_node(self):
        d = diagonal_terms(two_node())
        assert np.allclose(d[0], [1.0, 0.5])
        assert np.allclose(d[1], [1.0, 0.5])

    def test_zero_tables(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.zeros((2, 2)),))
        assert np.allclose(diagonal_terms(m)[0], 0.0)

    def test_half_theta_hat_when_nonnegative(self):
        m = gen_random_mrf(5, 3, seed=2)
        g = PackedGraph(m)
        for i, di in enumerate(diagonal_terms(m)):
            assert np.allclose(di, g.theta_hat[i] / 2.0)

    @pytest.mark.parametrize(
        "m",
        [mixed_cardinality_mrf(np.random.default_rng(seed)) for seed in range(6)] + [PairwiseMRF((2, 3, 1), (), ())],
        ids=[f"mixed-{seed}" for seed in range(6)] + ["edgeless"],
    )
    def test_equals_per_edge_halves(self, m):
        # halving each node's sum rounds exactly as halving each edge's term;
        # d is taken on the prepared tables, the only ones a solver packs
        g = PackedGraph(prepare_model(m)[0])
        assert g.diagonal_terms().shape == (g.n, g.kmax)
        assert g.diagonal_terms().tobytes() == diagonal_terms_per_edge(g).tobytes()

    def test_uses_absolute_values(self):
        # d is half the |theta| sums of the shifted table, not of the model's own
        t = np.array([[1.0, -3.0], [0.0, 2.0]])
        prepared, shift = prepare_model(PairwiseMRF((2, 2), ((0, 1),), (t,)))
        assert shift == 3.0
        d = diagonal_terms(prepared)
        assert np.array_equal(d[0], [2.0, 4.0])  # (t + 3) row sums halved; |t|'s would be [2, 1]
        assert d.tobytes() == diagonal_terms_per_edge(PackedGraph(prepared)).tobytes()


def _signed_zero_model(rng):
    """A model whose prepared tables keep -0.0 entries: padded cardinalities
    2..10 with one node at 8 or more (numpy's pairwise row sum), unaries on
    some nodes, and tables that are mixed-sign, nonnegative with scattered
    -0.0 entries, or all -0.0."""
    n = int(rng.integers(2, 8))
    cards = rng.integers(2, 11, size=n)
    cards[rng.integers(n)] = rng.integers(8, 11)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if j == i + 1 or rng.random() < 0.4]
    tables = []
    for i, j in edges:
        t, kind = rng.normal(size=(cards[i], cards[j])), rng.random()
        if kind < 0.25:
            t = np.full_like(t, -0.0)
        elif kind < 0.7:
            t = np.abs(t)
            t[rng.random(t.shape) < 0.3] = -0.0
        tables.append(t)
    unaries = {i: rng.normal(size=cards[i]) for i in range(n) if rng.random() < 0.4}
    return PairwiseMRF(tuple(int(k) for k in cards), tuple(edges), tuple(tables), unaries)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_diagonal_is_per_edge_abs_halves_on_prepared_tables(seed):
    # diagonal_terms reads d off theta_hat; the oracle takes np.abs of every table
    prepared, _ = prepare_model(_signed_zero_model(np.random.default_rng(seed)))
    assert all(t.min() >= 0.0 for t in prepared.tables)
    g = PackedGraph(prepared)
    assert g.diagonal_terms().tobytes() == diagonal_terms_per_edge(g).tobytes()


class TestConvexObjective:
    def test_integral_matches_assignment(self):
        m = two_node()
        p = indicator_beliefs(m, (0, 0))
        assert convex_objective(m, p) == pytest.approx(2.0)
        assert convex_objective(m, p) == evaluate_assignment(m, (0, 0))

    def test_uniform_worked(self):
        m = two_node()
        assert convex_objective(m, uniform_beliefs(m)) == pytest.approx(1.5)

    def test_dominates_bilinear_on_nonnegative_models(self):
        rng = np.random.default_rng(7)
        m = gen_random_mrf(5, 3, seed=1)
        for _ in range(100):
            p = [rng.dirichlet(np.ones(k)) for k in m.cardinalities]
            assert convex_objective(m, p) >= qp_objective(m, p) - 1e-12

    def test_integral_coincidence_exhaustive(self):
        m = gen_random_mrf(3, 2, seed=4)
        for a in itertools.product(range(2), repeat=3):
            p = indicator_beliefs(m, a)
            assert convex_objective(m, p) == qp_objective(m, p)

    def test_matches_per_edge_oracle_on_fractional_beliefs(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            m = mixed_cardinality_mrf(rng)
            beliefs = [rng.dirichlet(np.ones(k)) for k in m.cardinalities]
            d = PackedGraph(m).unpack_beliefs(diagonal_terms(m))
            ref = convex_relaxation_objective(m, beliefs, d)
            assert convex_objective(m, beliefs) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def convex_inner_update(gradient, theta_hat, d):
    """The per-node reference with the convex solver's denominator 2*d + theta_hat."""
    return inner_loop(gradient, 2.0 * np.asarray(d) + np.asarray(theta_hat))


class TestConvexInnerUpdate:
    def test_worked_two_node(self):
        # gradient already includes the +d term
        r = convex_inner_update([3.0, 1.5], [2.0, 1.0], [1.0, 0.5])
        assert r.multiplier == pytest.approx(2 / 3)
        assert np.allclose(r.beliefs, [7 / 12, 5 / 12])

    def test_symmetric_uniform(self):
        # gradient [2, 2]; theta_hat [1, 1] and d [0.5, 0.5] give denominators 2*d + theta_hat
        grad, denom = np.array([[2.0, 2.0]]), 2.0 * np.array([[0.5, 0.5]]) + np.array([[1.0, 1.0]])
        P = clamped_simplex_sweep(grad, denom, np.ones((1, 2), dtype=bool))
        assert np.allclose(P[0], [0.5, 0.5])

    def test_clamping_mirrors_nonconvex(self):
        r = convex_inner_update([10.0, 0.0], [0.5, 0.5], [0.25, 0.25])
        assert r.zeros == {1}
        assert np.allclose(r.beliefs, [1.0, 0.0])
        assert r.multiplier_history[1] > r.multiplier_history[0]

    def test_zero_denominator(self):
        # node 2 is isolated, so its 2*d + theta_hat is zero
        m = PairwiseMRF((2, 2, 2), ((0, 1),), (TWO_NODE_TABLE,))
        with pytest.raises(DegenerateNodeError):
            convex.solve_convex(m, SolverConfig(restarts=1))


class TestSolveConvex:
    def test_two_node_decodes_max(self):
        rep = convex.solve_convex(two_node(), SolverConfig(restarts=1, seed=0))
        assert np.array_equal(rep.assignment, [0, 0])
        assert rep.trace[-1].convex_objective is not None

    def test_init_independence(self):
        m = gen_random_mrf(6, 3, seed=12)
        finals = []
        for seed in (0, 99):
            rep = convex.solve_convex(
                m, SolverConfig(restarts=1, seed=seed, init="random-dirichlet",
                                max_outer_iterations=2000)
            )
            finals.append(rep.restarts_final_objective[0])
        assert finals[0] == pytest.approx(finals[1], abs=1e-6)

    def test_matches_projected_gradient_oracle(self):
        m = gen_random_mrf(5, 3, seed=31)
        prepared, _ = prepare_model(m)
        g = PackedGraph(prepared)
        _, ref = pg_maximize_convex_relaxation(prepared, g.unpack_beliefs(g.diagonal_terms()))
        rep = convex.solve_convex(m, SolverConfig(restarts=1, seed=3, max_outer_iterations=3000))
        assert rep.restarts_final_objective[0] == pytest.approx(ref, abs=1e-5)

    def test_monotone_in_convex_objective(self):
        m = gen_random_mrf(7, 3, seed=8)
        rep = convex.solve_convex(m, SolverConfig(restarts=1, seed=5))
        vals = [t.convex_objective for t in rep.trace]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_zero_potential_objective_is_zero(self):
        # objective level: any beliefs give zero on a zero-potential model;
        # the solver itself rejects such a model as degenerate
        m = PairwiseMRF((2, 2), ((0, 1),), (np.zeros((2, 2)),))
        assert convex_objective(m, uniform_beliefs(m)) == 0.0
        with pytest.raises(DegenerateNodeError):
            convex.solve_convex(m, SolverConfig(restarts=1))

    def test_trace_reads_the_iterated_step(self):
        # tolerance 0 traces every sweep; each value must be the objective
        # of the step iterated here, with its messages computed afresh
        m = gen_random_mrf(8, 3, seed=5)
        config = SolverConfig(restarts=1, seed=3, max_outer_iterations=60, objective_tolerance=0.0)
        rep = convex.solve_convex(m, config)
        g = PackedGraph(prepare_model(m)[0])
        d = g.diagonal_terms()
        denom = 2.0 * d + g.theta_hat
        P = init_beliefs(g, config, restart_rng(config, 0))
        qp, relaxed = [], []
        for _ in range(config.max_outer_iterations):
            P = clamped_simplex_sweep(P * g.theta_hat + g.delta_sums(P) + d, denom, g.valid)
            qp.append(g.qp_objective(P))
            relaxed.append(g.qp_objective(P) + row_sums(P * (1.0 - P) * d))
        assert [t.qp_objective for t in rep.trace] == qp
        assert [t.convex_objective for t in rep.trace] == relaxed
        assert rep.restarts_final_objective == [relaxed[-1]]
        assert all(np.array_equal(b, e) for b, e in zip(rep.beliefs, g.unpack_beliefs(P)))

    def test_kkt_certificate_diagnostics(self):
        m = gen_random_mrf(6, 4, seed=17)
        rep = convex.solve_convex(
            m, SolverConfig(restarts=2, seed=2, collect_diagnostics=True)
        )
        diag = rep.diagnostics
        assert diag.max_stationarity_residual <= 1e-8
        assert diag.min_clamped_multiplier >= -1e-10
        assert diag.multiplier_violations == 0
