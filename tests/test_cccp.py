import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmap import cccp
from qpmap.bench import BenchPlan, instance_seed
from qpmap.common import SolverConfig, init_beliefs, restart_rng
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import DegenerateNodeError, ModelError, PairwiseMRF, prepare_model
from qpmap.packed import PackedGraph, clamped_simplex_sweep
from oracles import brute_force_map, inner_loop, outer_iteration, pack_beliefs, pg_node_subproblem, tail_step, theta

TWO_NODE_TABLE = np.array([[2.0, 0.0], [0.0, 1.0]])


def two_node():
    return PairwiseMRF((2, 2), ((0, 1),), (TWO_NODE_TABLE,))


def node_sweep(grad, den):
    """`clamped_simplex_sweep` on a single node with all labels valid."""
    grad = np.asarray(grad, dtype=float)[None, :]
    den = np.asarray(den, dtype=float)[None, :]
    return clamped_simplex_sweep(grad, den, np.ones(grad.shape, dtype=bool))[0]


def plain_step_gradient(monkeypatch, g, P):
    """The gradient that CCCP's plain step hands to the clamped update."""
    seen = []
    monkeypatch.setattr(cccp, "clamped_simplex_sweep", lambda grad, *rest: seen.append(grad))
    outer_iteration(g, P)
    return seen[0]


class TestSetup:
    def test_theta_hat_two_node(self):
        g = cccp.setup(two_node())
        assert np.allclose(g.theta_hat[0], [2.0, 1.0])
        assert np.allclose(g.theta_hat[1], [2.0, 1.0])

    def test_grid_symmetry(self):
        # center node of a 4-neighbor star, all tables equal
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = PairwiseMRF((2,) * 5, ((0, 1), (0, 2), (0, 3), (0, 4)), (t,) * 4)
        g = cccp.setup(m)
        assert np.allclose(g.theta_hat[0], 4 * t.sum(axis=1))

    def test_degenerate_row(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.array([[1.0, 0.0], [0.0, 0.0]]),))
        with pytest.raises(DegenerateNodeError):
            cccp.setup(m)

    def test_isolated_node(self):
        m = PairwiseMRF((2, 2, 2), ((0, 1),), (np.ones((2, 2)),))
        with pytest.raises(DegenerateNodeError) as exc:
            cccp.setup(m)
        assert exc.value.node == 2

    def test_rejects_unary_model(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.ones((2, 2)),), {0: np.zeros(2)})
        with pytest.raises(ModelError):
            cccp.setup(m)


class TestDeltaMessage:
    # PackedGraph.delta_sums: row i sums the messages into node i
    def test_uniform(self):
        g = PackedGraph(two_node())
        d = g.delta_sums(np.array([[1.0, 0.0], [0.5, 0.5]]))[0]
        assert np.allclose(d, [1.0, 0.5])

    def test_indicator_selects_row(self):
        g = PackedGraph(two_node())
        d = g.delta_sums(np.array([[1.0, 0.0], [0.5, 0.5]]))[1]
        assert np.allclose(d, TWO_NODE_TABLE[0])

    def test_zero_table(self):
        g = PackedGraph(PairwiseMRF((2, 2), ((0, 1),), (np.zeros((2, 2)),)))
        assert np.allclose(g.delta_sums(np.array([[0.3, 0.7], [0.5, 0.5]])), 0.0)


class TestGradient:
    def test_uniform_two_node(self, monkeypatch):
        g = plain_step_gradient(monkeypatch, cccp.setup(two_node()), np.full((2, 2), 0.5))
        assert np.allclose(g[0], [2.0, 1.0])

    def test_zero(self, monkeypatch):
        assert np.allclose(plain_step_gradient(monkeypatch, cccp.setup(two_node()), np.zeros((2, 2))), 0.0)

    def test_indicator_chain(self, monkeypatch):
        eye2 = np.eye(2) + 1.0
        m = PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (eye2, eye2))
        g = cccp.setup(m)
        P = np.array([[1.0, 0.0]] * 3)
        grad = plain_step_gradient(monkeypatch, g, P)[1]
        assert np.allclose(grad, P[1] * g.theta_hat[1] + 2 * eye2[:, 0])


class TestInnerLoop:
    # tests that read the multiplier or the zero set run on the per-node
    # reference in tests/oracles.py: the packed sweep keeps both internal
    def test_worked_single_pass(self):
        r = inner_loop([2.0, 1.0], [2.0, 1.0])
        assert r.multiplier == pytest.approx(2 / 3)
        assert np.allclose(r.beliefs, [2 / 3, 1 / 3])
        assert r.zeros == set()
        assert r.passes == 1

    def test_worked_two_pass(self):
        r = inner_loop([10.0, 0.0], [1.0, 1.0])
        assert r.multiplier_history == pytest.approx([4.5, 9.0])
        assert np.allclose(r.beliefs, [1.0, 0.0])
        assert r.zeros == {1}

    def test_symmetric_gives_uniform(self):
        for c, t in [(3.0, 2.0), (0.1, 5.0)]:
            assert np.allclose(node_sweep([c, c], [t, t]), [0.5, 0.5])

    def test_degenerate_denominator(self):
        # the solvers check every denominator before sweeping
        with pytest.raises(DegenerateNodeError):
            PackedGraph(two_node()).require_positive(np.array([[1.0, 1.0], [1.0, 0.0]]), "denominator")

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda k: st.tuples(
                st.lists(st.floats(-20, 20), min_size=k, max_size=k),
                st.lists(st.floats(0.05, 10), min_size=k, max_size=k),
            )
        )
    )
    def test_properties(self, gd):
        grad, den = np.array(gd[0]), np.array(gd[1])
        r = inner_loop(grad, den)
        k = len(grad)
        assert r.passes <= k
        assert np.all(r.beliefs >= 0.0)
        assert r.beliefs.sum() == pytest.approx(1.0, abs=1e-9)
        for x in r.zeros:
            assert r.beliefs[x] == 0.0
        # multiplier strictly increases across passes
        for a, b in zip(r.multiplier_history, r.multiplier_history[1:]):
            assert b > a - 1e-12
        # active entries follow the closed form
        for x in range(k):
            if x not in r.zeros and r.beliefs[x] > 0:
                assert r.beliefs[x] == pytest.approx((grad[x] - r.multiplier) / den[x], abs=1e-9)

    def test_matches_projected_gradient_subproblem(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            grad = rng.uniform(-2, 4, size=k)
            den = rng.uniform(0.2, 3.0, size=k)
            ours = node_sweep(grad, den)
            ref = pg_node_subproblem(grad, den)
            assert np.allclose(ours, ref, atol=1e-6)


class TestOuterIteration:
    def test_worked_two_node(self):
        g = cccp.setup(two_node())
        P = pack_beliefs(g, [np.array([0.5, 0.5])] * 2)
        assert g.qp_objective(P) == pytest.approx(0.75)
        P = outer_iteration(g, P)
        assert np.allclose(P, [[2 / 3, 1 / 3]] * 2)
        assert g.qp_objective(P) == pytest.approx(
            (2 / 3) ** 2 * 2 + (1 / 3) ** 2 * 1
        )

    def test_integral_fixed_point(self):
        g = cccp.setup(two_node())
        P = pack_beliefs(g, [np.array([1.0, 0.0])] * 2)
        assert np.allclose(outer_iteration(g, P), P)

    def test_monotone_on_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            m = gen_random_mrf(6, int(rng.integers(2, 4)), seed=trial)
            g = cccp.setup(m)
            P = pack_beliefs(
                g,
                [rng.dirichlet(np.ones(k)) for k in m.cardinalities]
            )
            prev = g.qp_objective(P)
            for _ in range(25):
                P = outer_iteration(g, P)
                cur = g.qp_objective(P)
                assert cur >= prev - 1e-9
                prev = cur

    def test_sweep_matches_per_node_updates(self):
        # mixed cardinalities: padded vectorized sweep vs scalar composition
        rng = np.random.default_rng(9)
        cards = (2, 4, 3, 2)
        edges = ((0, 1), (1, 2), (2, 3), (0, 2))
        tables = tuple(
            rng.uniform(0.1, 1.0, size=(cards[i], cards[j])) for i, j in edges
        )
        m = PairwiseMRF(cards, edges, tables)
        g = cccp.setup(m)
        beliefs = [rng.dirichlet(np.ones(k)) for k in cards]
        P = pack_beliefs(g, beliefs)
        swept = outer_iteration(g, P)
        for i in range(m.num_nodes):
            delta_sum = np.zeros(cards[i])
            for j in m.adjacency[i]:
                delta_sum += beliefs[j] @ theta(m, j, i)
            theta_hat = g.theta_hat[i, : cards[i]]
            ref = inner_loop(beliefs[i] * theta_hat + delta_sum, theta_hat).beliefs
            assert np.allclose(swept[i, : cards[i]], ref, atol=1e-12)


class TestSolve:
    def test_two_node(self):
        rep = cccp.solve(two_node(), SolverConfig(restarts=3, seed=0))
        assert np.array_equal(rep.assignment, [0, 0])
        assert rep.integral_objective == pytest.approx(2.0)

    def test_strong_edge_fast_convergence(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.array([[5.0, 0.0], [0.0, 1.0]]),))
        rep = cccp.solve(m, SolverConfig(restarts=1, seed=1))
        assert np.array_equal(rep.assignment, [0, 0])
        assert rep.integral_objective == pytest.approx(5.0)
        assert rep.converged and rep.iterations <= 5

    def test_constant_tables(self):
        c = 0.7
        m = PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (np.full((2, 2), c),) * 2)
        rep = cccp.solve(m, SolverConfig(restarts=2, seed=4))
        assert rep.integral_objective == pytest.approx(2 * c)

    def test_trace_monotone_and_report_consistent(self):
        m = gen_random_mrf(6, 3, seed=21)
        rep = cccp.solve(m, SolverConfig(restarts=4, seed=2))
        qp = [t.qp_objective for t in rep.trace]
        assert all(b >= a - 1e-9 for a, b in zip(qp, qp[1:]))
        assert len(rep.restarts_converged) == 4
        a, v = brute_force_map(m)
        assert rep.integral_objective <= v + 1e-9

    def test_propagates_degenerate(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.zeros((2, 2)),))
        with pytest.raises(DegenerateNodeError):
            cccp.solve(m, SolverConfig(restarts=1))


def mixed_cardinality_graph(seed):
    rng = np.random.default_rng(seed)
    cards = (2, 4, 3, 2, 3)
    edges = ((0, 1), (1, 2), (2, 3), (0, 2), (3, 4), (1, 4))
    tables = tuple(rng.uniform(0.0, 1.0, size=(cards[i], cards[j])) for i, j in edges)
    return cccp.setup(PairwiseMRF(cards, edges, tables)), rng


def plain_step_pair(g, rng):
    P = pack_beliefs(g, [rng.dirichlet(np.ones(k)) for k in g.card])
    P1 = outer_iteration(g, P)
    return P, g.delta_sums(P), P1, g.delta_sums(P1)


class TestTailStep:
    def test_closed_form_quadratic(self):
        for seed in range(5):
            g, rng = mixed_cardinality_graph(seed)
            P, S, P1, S1 = plain_step_pair(g, rng)
            D = P1 - P
            lin, quad = (D * S).sum(), 0.5 * (D * (S1 - S)).sum()
            for t in (0.0, 0.5, 1.0, 2.0, 3.7):
                closed = g.qp_objective(P) + t * lin + t * t * quad
                assert closed == pytest.approx(g.qp_objective(P + t * D), rel=1e-12, abs=1e-12)

    def test_point_on_simplex_and_no_worse_than_plain_step(self):
        extrapolated = 0
        for seed in range(20):
            g, rng = mixed_cardinality_graph(seed)
            P, S, P1, S1 = plain_step_pair(g, rng)
            X = tail_step(P, S, P1, S1)
            extrapolated += X is not P1
            assert np.all(X >= 0.0)
            assert np.all(X[~g.valid] == 0.0)
            assert np.allclose(X.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert g.qp_objective(X) >= g.qp_objective(P1) - 1e-12
        assert extrapolated > 0

    def test_batched_matches_one_restart_reference(self):
        g, rng = mixed_cardinality_graph(3)
        P = np.stack([pack_beliefs(g, [rng.dirichlet(np.ones(k)) for k in g.card]) for _ in range(6)])
        S = g.delta_sums(P)
        P1 = cccp._plain_step(g, P, S)
        P1[4] = P[4]  # no step at all
        S1 = g.delta_sums(P1)
        S[5] = S1[5] = 0.0  # a flat ray: t = 1 and t_max tie, and t = 1 must win
        moved, X = cccp._tail_steps(P, S, P1, S1)
        assert len(moved) > 0
        for r in range(6):
            p1 = P1[r]
            ref = tail_step(P[r], S[r], p1, S1[r])
            if r in moved:
                assert ref is not p1 and np.array_equal(X[list(moved).index(r)], ref)
            else:
                assert ref is p1
        assert 4 not in moved and 5 not in moved

    def test_line_search_step_kept_only_if_no_lower(self, monkeypatch):
        # restart 0 is offered its start (below its plain step), restart 1
        # a second plain step (no lower): only the second is taken
        g, rng = mixed_cardinality_graph(4)
        P = np.stack([pack_beliefs(g, [rng.dirichlet(np.ones(k)) for k in g.card]) for _ in range(2)])
        S = g.delta_sums(P)
        P1 = cccp._plain_step(g, P, S)
        P2 = cccp._plain_step(g, P1, g.delta_sums(P1))
        assert g.qp_objective(P[0]) < g.qp_objective(P1[0])
        assert g.qp_objective(P1[1]) <= g.qp_objective(P2[1])
        monkeypatch.setattr(cccp, "_tail_steps", lambda *_: (np.arange(2), np.stack([P[0], P2[1]])))
        out, S_out = cccp._sweep_factory(g, np.inf, 2)(P, S, np.arange(2), None)
        assert np.array_equal(out, np.stack([P1[0], P2[1]]))
        assert np.array_equal(S_out, g.delta_sums(out))

    def test_zero_tolerance_never_opens_gate(self):
        m = gen_random_mrf(8, 3, seed=5)
        config = SolverConfig(restarts=1, seed=3, max_outer_iterations=60, objective_tolerance=0.0)
        rep = cccp.solve(m, config)
        g = cccp.setup(prepare_model(m)[0])
        P = init_beliefs(g, config, restart_rng(config, 0))
        expected = []
        for _ in range(config.max_outer_iterations):
            P = outer_iteration(g, P)
            expected.append(g.qp_objective(P))
        assert [t.qp_objective for t in rep.trace] == expected
        assert all(np.array_equal(b, e) for b, e in zip(rep.beliefs, g.unpack_beliefs(P)))

    def test_same_seed_gives_identical_reports(self):
        m = gen_ising_grid(IsingSpec(6, 6, 1.0, seed=4))
        config = SolverConfig(restarts=4, seed=9)
        a, b = cccp.solve(m, config), cccp.solve(m, config)
        assert a.trace == b.trace
        assert np.array_equal(a.assignment, b.assignment)
        assert a.restarts_converged == b.restarts_converged
        assert a.restarts_final_objective == b.restarts_final_objective
        assert all(np.array_equal(x, y) for x, y in zip(a.beliefs, b.beliefs))

    def test_long_steps_keep_ascent_monotone(self):
        # Instance 7 of the 20x20, beta = 2 fixture cell: on restart 1 the
        # plain step after a finished slide is ~1e-13, and the longest
        # feasible step along it is ~6e13.
        plan = BenchPlan(sizes=((10, 10), (20, 20)), betas=(0.5, 1.0, 2.0), seed=0)
        seed = instance_seed(plan, 1, 2, 7)
        m = gen_ising_grid(IsingSpec(20, 20, 2.0, seed=seed))
        rep = cccp.solve(m, SolverConfig(restarts=2, seed=seed))
        assert rep.restart_index == 1
        qp = [t.qp_objective for t in rep.trace]
        assert all(b >= a - 1e-9 for a, b in zip(qp, qp[1:]))
        for p in rep.beliefs:
            assert p.min() >= 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_slow_fixture_restart_converges(self):
        # Restart 0 of instance 1 in the 20x20, beta = 1 cell of the
        # criterion-08 fixture: with plain steps alone one node is still
        # sliding toward a vertex at sweep 500.
        plan = BenchPlan(sizes=((10, 10), (20, 20)), betas=(0.5, 1.0, 2.0), seed=0)
        seed = instance_seed(plan, 1, 1, 1)
        m = gen_ising_grid(IsingSpec(20, 20, 1.0, seed=seed))
        rep = cccp.solve(m, SolverConfig(max_outer_iterations=500, restarts=1, seed=seed))
        assert rep.converged
        assert rep.iterations < 500


def test_kernel_handles_forced_clamp():
    grad = np.array([[10.0, 0.0]])
    den = np.ones((1, 2))
    valid = np.ones((1, 2), dtype=bool)
    P = clamped_simplex_sweep(grad, den, valid)
    assert np.allclose(P, [[1.0, 0.0]])


@pytest.mark.parametrize("kmax", [64, 150])
def test_sweep_matches_per_node_reference_at_large_k(kmax):
    # long rows, padded to kmax, with gradients from 1e-3 (no clamping)
    # to 1e3 (most labels clamped)
    rng = np.random.default_rng(kmax)
    n = 13
    card = rng.integers(kmax // 2, kmax + 1, size=n)
    card[0] = kmax
    valid = np.arange(kmax) < card[:, None]
    scale = np.logspace(-3, 3, n)[:, None]
    grad = np.where(valid, scale * rng.normal(size=(n, kmax)), 0.0)
    den = np.where(valid, rng.uniform(0.2, 5.0, size=(n, kmax)), 0.0)
    P = clamped_simplex_sweep(grad, den, valid)
    clamped = 0
    for i, k in enumerate(card):
        ref = inner_loop(grad[i, :k], den[i, :k])
        assert np.abs(P[i, :k] - ref.beliefs).max() <= 1e-12
        assert np.all(P[i, k:] == 0.0)
        clamped += bool(ref.zeros)
    assert 0 < clamped < n
