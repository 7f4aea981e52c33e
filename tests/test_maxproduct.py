import tracemalloc

import numpy as np
import pytest

from qpmap import maxproduct
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import PairwiseMRF, evaluate_assignment, prepare_model
from qpmap.packed import PackedGraph
from oracles import brute_force_map, mp_incoming, mp_iterate, mp_restarts_reference, mp_stack

TWO_NODE_TABLE = np.array([[2.0, 0.0], [0.0, 1.0]])


def two_node():
    return PairwiseMRF((2, 2), ((0, 1),), (TWO_NODE_TABLE,))


def random_tree(n, k, seed):
    rng = np.random.default_rng(seed)
    edges, tables = [], []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
        tables.append(rng.uniform(0.0, 2.0, size=(k, k)))
    return PairwiseMRF((k,) * n, tuple(edges), tuple(tables))


def brute_force_product_map(m):
    """Argmax of the product of table entries (what max-product targets)."""
    import itertools

    best, best_a = -np.inf, None
    for a in itertools.product(*(range(k) for k in m.cardinalities)):
        v = 0.0
        for (i, j), t in zip(m.edges, m.tables):
            e = t[a[i], a[j]]
            v += np.log(e) if e > 0 else maxproduct.LOG_ZERO
        if v > best:
            best, best_a = v, a
    return np.array(best_a), best


def sweep(m, messages, damping):
    """One sweep from a (2|E|, kmax) matrix with rows 2e: src->tgt, 2e+1: tgt->src.

    Returns the (kmax, 2|E|) stacked layout: column e src->tgt, |E| + e tgt->src,
    mapped to and from the `_MpGraph`'s own column order.
    """
    mp = maxproduct._MpGraph(PackedGraph(m))
    M = mp_stack(messages.T[None])[..., mp.cols]
    got = np.empty_like(M[0])
    got[:, mp.cols] = mp.iterate(M, mp.sums(M), damping)[0]
    return got


def hub(leaves, k, seed, ring=False):
    """A star around node 0, its leaves joined in a cycle if `ring`."""
    rng = np.random.default_rng(seed)
    edges = [(0, v) for v in range(1, leaves + 1)]
    if ring:
        edges += [(v, v % leaves + 1) for v in range(1, leaves + 1)]
    tables = tuple(rng.uniform(-1.0, 2.0, size=(k, k)) for _ in edges)
    return PairwiseMRF((k,) * (leaves + 1), tuple(edges), tables)


def mixed_hub(leaves, seed):
    """A star around node 0 with label counts 1..5, its leaves joined in a cycle."""
    rng = np.random.default_rng(seed)
    card = (5,) + tuple(int(k) for k in rng.integers(1, 6, size=leaves))
    edges = [(0, v) for v in range(1, leaves + 1)] + [(v, v % leaves + 1) for v in range(1, leaves + 1)]
    return PairwiseMRF(card, tuple(edges), tuple(rng.uniform(-1.0, 2.0, size=(card[i], card[j])) for i, j in edges))


def padded_binary():
    """A 4x4 grid of binary and one-label nodes."""
    rng = np.random.default_rng(1)
    card = (2,) + tuple(int(k) for k in rng.integers(1, 3, size=15))
    edges = tuple((v, v + d) for v in range(16) for d in (1, 4) if v + d < 16 and (d == 4 or v % 4 < 3))
    return PairwiseMRF(card, edges, tuple(rng.uniform(-1.0, 1.0, size=(card[i], card[j])) for i, j in edges))


def neg_zero_grid():
    """A 5x5 binary grid whose tables hold -0.0 and 0.0 entries."""
    rng = np.random.default_rng(3)
    edges = tuple((v, v + d) for v in range(25) for d in (1, 5) if v + d < 25 and (d == 5 or v % 5 < 4))
    tables = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(len(edges), 2, 2))
    tables[:, [0, 1], [0, 1]] += 1.0
    return PairwiseMRF((2,) * 25, edges, tuple(tables))


def mixed_cardinality_loopy():
    rng = np.random.default_rng(0)
    card = tuple(int(k) for k in rng.integers(1, 5, size=8))
    edges = tuple((i, i + 1) for i in range(7)) + ((0, 7), (1, 6))
    tables = tuple(rng.uniform(-1.0, 2.0, size=(card[i], card[j])) for i, j in edges)
    return PairwiseMRF(card, edges, tables)


class TestMpIteration:
    def test_first_iteration_column_maxima(self):
        m = two_node()
        M1 = sweep(m, np.zeros((2, 2)), damping=0.0)
        with np.errstate(divide="ignore"):
            logt = np.where(TWO_NODE_TABLE > 0, np.log(TWO_NODE_TABLE), maxproduct.LOG_ZERO)
        expect_fwd = logt.max(axis=0)
        expect_bwd = logt.max(axis=1)
        assert np.allclose(M1[:, 0], expect_fwd - expect_fwd.max())
        assert np.allclose(M1[:, 1], expect_bwd - expect_bwd.max())

    def test_tree_converged_beliefs_decode_product_map(self):
        for seed in range(5):
            m = random_tree(5, 2, seed)
            rep = maxproduct.solve_mp(m, SolverConfig(restarts=1, max_outer_iterations=50), damping=0.0)
            a, _ = brute_force_product_map(m)
            assert rep.converged
            assert np.array_equal([np.argmax(b) for b in rep.beliefs], a)

    def test_full_damping_freezes(self):
        m = two_node()
        M0 = np.array([[0.0, -1.0], [0.0, -2.0]])
        assert np.allclose(sweep(m, M0, damping=1.0), M0.T)

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    @pytest.mark.parametrize(
        "m",
        [mixed_cardinality_loopy(), prepare_model(gen_ising_grid(IsingSpec(10, 10, 1.0, seed=0)))[0], padded_binary(),
         hub(40, 2, 0), neg_zero_grid()],
        ids=["mixed", "grid", "padded-binary", "star", "neg-zero-grid"],
    )
    def test_sweep_equals_broadcast_oracle(self, m, damping):
        graph = PackedGraph(m)
        M0 = np.random.default_rng(5).standard_normal((2 * len(m.edges), graph.kmax))
        expect = mp_iterate(graph, M0, damping)
        got = sweep(m, M0, damping)
        valid = graph.valid[np.concatenate([graph.tgt, graph.src])].T
        assert np.array_equal(got[valid], mp_stack(expect.T[None])[0][valid])

    @pytest.mark.parametrize(
        "m",
        [hub(40, 2, 0), hub(40, 2, 1, ring=True), hub(5, 3, 2, ring=True),
         gen_ising_grid(IsingSpec(10, 10, 1.0, seed=0)), gen_random_mrf(30, 2, 0.2, seed=1),
         mixed_cardinality_loopy(), mixed_hub(40, 3), PairwiseMRF((2, 3), (), ())],
        ids=["star", "wheel", "small-wheel", "grid", "random", "mixed", "mixed-hub", "edgeless"],
    )
    def test_incoming_equals_add_at(self, m):
        # the graph's one scatter, bit-equal to np.add.at over the directed
        # edges 2e: src->tgt, 2e+1: tgt->src, whether a slot is summed on a
        # prefix of nodes or left to the np.add.at tail
        graph = PackedGraph(m)
        assert not hasattr(maxproduct._MpGraph(graph), "scatter")
        M0 = np.random.default_rng(6).standard_normal((3, 2 * len(m.edges), graph.kmax))
        got = graph.scatter.sum(mp_stack(M0.transpose(0, 2, 1)), axis=-1)
        for r in range(3):
            assert np.array_equal(got[r].T, mp_incoming(graph, M0[r]))


class TestSolveMp:
    def test_two_node(self):
        rep = maxproduct.solve_mp(two_node(), SolverConfig(restarts=1, max_outer_iterations=100))
        assert np.array_equal(rep.assignment, [0, 0])
        assert rep.integral_objective == pytest.approx(2.0)

    def test_random_trees_bracket_objectives(self):
        # on a tree, the converged decode is the product-objective argmax;
        # the reported quality (best additive value over iterations) sits
        # between that assignment's additive value and the true additive max
        for seed in range(8):
            m = random_tree(int(np.random.default_rng(seed).integers(3, 9)), 3, seed + 100)
            rep = maxproduct.solve_mp(m, SolverConfig(restarts=1, max_outer_iterations=100))
            a_prod, _ = brute_force_product_map(m)
            lo = evaluate_assignment(m, a_prod)
            _, hi = brute_force_map(m)
            assert lo - 1e-9 <= rep.integral_objective <= hi + 1e-9

    def test_shift_invariant_decoding(self):
        m = random_tree(6, 3, seed=7)
        shifted = PairwiseMRF(
            m.cardinalities, m.edges, tuple(t + 5.0 for t in m.tables)
        )
        cfg = SolverConfig(restarts=1, max_outer_iterations=200)
        a0 = maxproduct.solve_mp(m, cfg).assignment
        a1 = maxproduct.solve_mp(shifted, cfg).assignment
        assert np.array_equal(a0, a1)

    def test_frustrated_cycle_reports_convergence_state(self):
        # 4-cycle with one flipped coupling: no assignment satisfies all edges
        d = 1.0
        agree = np.array([[d, -d], [-d, d]])
        disagree = -agree
        m = PairwiseMRF(
            (2,) * 4,
            ((0, 1), (1, 2), (2, 3), (0, 3)),
            (agree, agree, agree, disagree),
        )
        rep = maxproduct.solve_mp(
            m, SolverConfig(restarts=1, max_outer_iterations=60), damping=0.0
        )
        assert isinstance(rep.converged, bool)
        if not rep.converged:
            assert rep.iterations == 60
        _, v = brute_force_map(m)
        assert rep.integral_objective <= v + 1e-9

    def test_quality_is_best_over_iterations(self):
        m = random_tree(6, 2, seed=3)
        rep = maxproduct.solve_mp(m, SolverConfig(restarts=1, max_outer_iterations=100))
        trace_best = max(t.integral_objective for t in rep.trace)
        assert rep.integral_objective == pytest.approx(trace_best, abs=1e-9)

    def test_decodes_within_cardinality(self):
        # the middle node's two incoming messages peak on different labels,
        # so both of its log beliefs are far below zero
        t01 = np.array([[1.0, 0.01]] * 3)
        t12 = np.array([[0.01] * 3, [1.0] * 3])
        m = PairwiseMRF((3, 2, 3), ((0, 1), (1, 2)), (t01, t12))
        rep = maxproduct.solve_mp(m, SolverConfig(restarts=1, max_outer_iterations=50))
        assert all(0 <= x < k for x, k in zip(rep.assignment, m.cardinalities))
        assert rep.integral_objective == pytest.approx(brute_force_map(m)[1])

    def test_restarts_reported(self):
        m = random_tree(5, 2, seed=1)
        rep = maxproduct.solve_mp(m, SolverConfig(restarts=3, max_outer_iterations=50))
        assert len(rep.restarts_converged) == 3
        assert len(rep.restarts_final_objective) == 3
        assert max(rep.restarts_final_objective) == rep.integral_objective

    @pytest.mark.parametrize("damping", [-0.1, 1.5, float("nan"), float("inf"), True, 0.5j, "0.5"])
    def test_rejects_bad_damping(self, damping):
        with pytest.raises(ValueError, match=r"^damping must be a number in \[0, 1\]$"):
            maxproduct.solve_mp(gen_ising_grid(IsingSpec(3, 3, 1.0, seed=0)), damping=damping)

    @pytest.mark.parametrize("damping", [0, 1, np.float64(0.25)])
    def test_accepts_damping_in_unit_interval(self, damping):
        config = SolverConfig(restarts=2, max_outer_iterations=5)
        assert maxproduct.solve_mp(gen_ising_grid(IsingSpec(3, 3, 1.0, seed=0)), config, damping).iterations >= 1

    def test_trace_carries_no_qp_objective(self):
        # max-product has no bilinear objective: each record carries its sweep's decode only
        rep = maxproduct.solve_mp(gen_ising_grid(IsingSpec(4, 4, 1.0, seed=2)), SolverConfig(restarts=3))
        assert rep.trace and all(t.qp_objective is None and t.convex_objective is None for t in rep.trace)


class TestBatchedRestarts:
    """Sweeping all restarts at once reproduces the one-at-a-time loop exactly."""

    def assert_same_report(self, mrf, config, damping=None):
        got = maxproduct.solve_mp(mrf, config, damping)
        ref = mp_restarts_reference(mrf, config, damping)
        assert np.array_equal(got.assignment, ref.assignment)
        assert got.integral_objective == ref.integral_objective
        assert got.trace == ref.trace
        assert len(got.beliefs) == len(ref.beliefs)
        assert all(np.array_equal(b, c) for b, c in zip(got.beliefs, ref.beliefs))
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert got.restart_index == ref.restart_index
        assert got.restarts_converged == ref.restarts_converged
        assert got.restarts_final_objective == ref.restarts_final_objective
        return got

    def test_loopy_ising_grid(self):
        m = gen_ising_grid(IsingSpec(4, 4, 1.0, seed=2))
        rep = self.assert_same_report(m, SolverConfig(restarts=5, max_outer_iterations=200, seed=2))
        assert not any(rep.restarts_converged)

    def test_tree_restarts_converge(self):
        m = random_tree(7, 3, seed=4)
        rep = self.assert_same_report(
            m, SolverConfig(restarts=4, max_outer_iterations=100, seed=1), damping=0.0
        )
        assert all(rep.restarts_converged)

    def test_mixed_cardinality_loopy(self):
        m = mixed_cardinality_loopy()
        assert len(set(m.cardinalities)) > 1
        self.assert_same_report(m, SolverConfig(restarts=4, max_outer_iterations=300, seed=3))

    def test_star(self):
        rep = self.assert_same_report(hub(40, 2, 3), SolverConfig(restarts=3, max_outer_iterations=100, seed=4))
        assert all(rep.restarts_converged)

    def test_loopy_hub(self):
        self.assert_same_report(hub(40, 3, 5, ring=True), SolverConfig(restarts=3, max_outer_iterations=200, seed=5))

    def test_random_degrees(self):
        m = gen_random_mrf(24, 3, 0.3, seed=2)
        self.assert_same_report(m, SolverConfig(restarts=3, max_outer_iterations=150, seed=6))

    def test_budget_stopped_beside_converged(self):
        config = SolverConfig(restarts=4, seed=11, max_outer_iterations=112)
        rep = self.assert_same_report(gen_random_mrf(12, 3, 0.4, seed=0), config)
        assert rep.restarts_converged == [True, True, True, False]

    def test_no_diagnostics(self):
        # max-product has no inner loop to report on, even when asked
        config = SolverConfig(restarts=2, max_outer_iterations=50, collect_diagnostics=True)
        assert maxproduct.solve_mp(gen_random_mrf(8, 3, 0.5, seed=1), config).diagnostics is None

    def test_edgeless(self):
        m = PairwiseMRF((2, 3, 1), (), ())
        rep = self.assert_same_report(m, SolverConfig(restarts=3, max_outer_iterations=20))
        assert rep.integral_objective == 0.0


class TestBatchedRestartsThreaded(TestBatchedRestarts):
    """The same reports when every sweep with kmax >= 3 runs the backward max-plus on
    the worker; a binary sweep makes one max-plus and hands nothing off."""

    @pytest.fixture(autouse=True)
    def two_threads(self, threaded, monkeypatch):
        kmax, solve = [], maxproduct.solve_mp  # each test solves one model
        monkeypatch.setattr(maxproduct, "solve_mp", lambda mrf, *args: kmax.append(max(mrf.cardinalities))
                            or solve(mrf, *args))
        yield
        assert len(set(kmax)) == 1 and bool(threaded) == (kmax[0] >= 3)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_label_loop_max_plus_equals_broadcast(k):
    rng = np.random.default_rng(k)
    logt = rng.standard_normal((6, k, k))  # (edge, source label, target label)
    x = rng.standard_normal((3, k, 6))  # (restart, label, edge)
    xe = x.transpose(0, 2, 1)
    fwd = (logt[None] + xe[:, :, :, None]).max(axis=2)  # max over source labels
    bwd = (logt[None] + xe[:, :, None, :]).max(axis=3)  # max over target labels
    label_major = np.ascontiguousarray(logt.transpose(1, 2, 0))
    got_fwd = maxproduct._max_plus(label_major, x)
    got_bwd = maxproduct._max_plus(np.ascontiguousarray(logt.transpose(2, 1, 0)), x)
    got_bwd_view = maxproduct._max_plus(label_major.transpose(1, 0, 2), x)  # as `_MpGraph` reads it
    assert np.array_equal(got_fwd, fwd.transpose(0, 2, 1))
    assert np.array_equal(got_bwd, bwd.transpose(0, 2, 1))
    assert np.array_equal(got_bwd_view, bwd.transpose(0, 2, 1))


def test_binary_mp_graph_holds_one_directed_log_table():
    graph = PackedGraph(prepare_model(gen_ising_grid(IsingSpec(10, 10, 1.0, seed=0)))[0])
    mp = maxproduct._MpGraph(graph)
    tables = {name: v.shape for name, v in vars(mp).items() if isinstance(v, np.ndarray) and v.ndim == 3}
    assert tables == {"log_tables": (2, 2, 2 * len(graph.src))}
    with np.errstate(divide="ignore"):
        expect = np.where(graph.directed[1] > 0.0, np.log(graph.directed[1]), maxproduct.LOG_ZERO)
    assert np.array_equal(mp.log_tables, expect)


def test_mp_graph_holds_one_log_table():
    graph = PackedGraph(prepare_model(gen_random_mrf(20, 64, 1.0))[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mp = maxproduct._MpGraph(graph)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = graph.tables.nbytes
    assert peak - base <= 1.25 * size
    assert retained - base <= 1.1 * size
    big = [name for name, v in vars(mp).items() if isinstance(v, np.ndarray) and v.nbytes >= size]
    assert big == ["log_tables"]
