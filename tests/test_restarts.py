"""The batched restart driver and the slot scatter it sweeps on.

`run_restarts` sweeps all restarts as one stack; every report must equal,
field for field, the one-restart-at-a-time loop in `oracles.restarts_reference`.
"""

import dataclasses

import numpy as np
import pytest

from qpmap import cccp, common, convex, gpem
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import PairwiseMRF, prepare_model
from qpmap.packed import PackedGraph
from oracles import (
    assignment_value_per_edge,
    decode_per_node,
    delta_sums_add_at,
    mixed_cardinality_mrf,
    mp_incoming,
    mp_stack,
    restarts_reference,
)

SOLVERS = {"cccp": cccp.solve, "convex": convex.solve_convex, "gpem": gpem.solve_gp}


def star(leaves, k, seed):
    """Node 0 joined to every leaf: its messages reach the scatter's np.add.at tail."""
    rng = np.random.default_rng(seed)
    edges = tuple((0, v) for v in range(1, leaves + 1))
    return PairwiseMRF((k,) * (leaves + 1), edges, tuple(rng.uniform(-1.0, 2.0, size=(k, k)) for _ in edges))


def signed_zeros():
    """A binary grid whose tables hold -0.0 entries, a whole row of them in some."""
    m = gen_ising_grid(IsingSpec(4, 5, 1.0, seed=3))
    tables = [np.where(t < t.mean(), -0.0, t) for t in prepare_model(m)[0].tables]
    tables[::3] = [np.array([[-0.0, -0.0], [t[1, 0], t[1, 1]]]) for t in tables[::3]]
    return PairwiseMRF(m.cardinalities, m.edges, tuple(tables))


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


@pytest.mark.parametrize("solver", SOLVERS)
def test_one_bilinear_objective_per_sweep(monkeypatch, solver):
    # at tolerance 0 no restart stops early and CCCP's tail gate never opens:
    # the start stack's objectives take one call, then each sweep of the stack one
    calls, qp_objective = [], PackedGraph.qp_objective
    monkeypatch.setattr(PackedGraph, "qp_objective", lambda *a, **kw: calls.append(1) or qp_objective(*a, **kw))
    config = SolverConfig(restarts=3, seed=2, max_outer_iterations=25, objective_tolerance=0.0)
    rep = SOLVERS[solver](gen_random_mrf(10, 3, 0.5, seed=1), config)
    assert rep.restarts_converged == [False] * config.restarts
    assert len(calls) == config.max_outer_iterations + 1


class TestBatchedRestartsThreaded(TestBatchedRestarts):
    """The same reports when every model sends one message direction to the worker."""

    @pytest.fixture(autouse=True)
    def two_threads(self, threaded):
        pass


@pytest.mark.parametrize(
    "m",
    [star(40, 2, 0), star(40, 3, 1), gen_ising_grid(IsingSpec(10, 10, 1.0, seed=0)),
     gen_ising_grid(IsingSpec(3, 7, 2.0, seed=1)), gen_random_mrf(30, 4, 0.2, seed=1),
     mixed_cardinality_mrf(np.random.default_rng(2)), PairwiseMRF((2, 3), (), ()),
     PairwiseMRF((1, 1, 1), ((0, 1), (1, 2)), (np.array([[0.5]]), np.array([[-1.5]]))),
     PairwiseMRF((1, 2, 2), ((0, 1), (1, 2), (0, 2)),
                 (np.array([[0.5, -1.0]]), np.array([[0.3, 1.7], [-0.2, 0.9]]), np.array([[2.0, 0.1]]))),
     PairwiseMRF((2, 2), (), ()), gen_random_mrf(30, 2, 0.3, seed=4), signed_zeros(),
     gen_ising_grid(IsingSpec(50, 50, 1.0, seed=2))],
    ids=["star-k2", "star-k3", "grid", "thin-grid", "random", "mixed", "edgeless",
         "chain-k1", "binary-with-k1", "edgeless-k2", "random-k2", "signed-zeros", "uai-grid-50x50"],
)
def test_delta_sums_equal_add_at(m):
    # bit-equal to two np.add.at scatters, one restart at a time, whether a
    # slot is summed on a prefix of nodes or left to the np.add.at tail
    g = PackedGraph(prepare_model(m)[0])
    P = np.where(g.valid, np.random.default_rng(3).random((5, g.n, g.kmax)), 0.0)
    ref = delta_sums_add_at(g, P)
    assert np.array_equal(g.delta_sums(P), ref)
    assert np.array_equal(g.delta_sums(P[2]), ref[2])
    assert np.array_equal(g.delta_sums(P[2:3]), ref[2:3])
    assert g.delta_sums(P).flags.c_contiguous


@pytest.mark.parametrize(
    "m",
    [star(40, 2, 0), gen_ising_grid(IsingSpec(10, 10, 1.0, seed=0)), PairwiseMRF((2, 3), (), ()),
     PairwiseMRF((1, 2, 2), ((0, 1), (1, 2), (0, 2)),
                 (np.array([[0.5, -1.0]]), np.array([[0.3, 1.7], [-0.2, 0.9]]), np.array([[2.0, 0.1]])))],
    ids=["star-k2", "grid", "edgeless", "binary-with-k1"],
)
def test_slot_sums_of_slot_ordered_columns_equal_add_at(m):
    # the directed columns gathered once into slot order, summed slot by slot
    # and read back by node: bit-equal to np.add.at over the directed edges
    # 2e: src->tgt, 2e+1: tgt->src, with messages on the last axis of an
    # (R, kmax, 2|E|) stack or on the first of a (2|E|, R, kmax) one
    g = PackedGraph(m)
    sc = g.scatter
    assert len(m.edges) != 40 or (sc.slots and len(sc.tail_pos))  # the star's slot 0 is a slice, the rest its tail
    M0 = np.random.default_rng(7).standard_normal((3, 2 * len(m.edges), g.kmax))
    X = mp_stack(M0.transpose(0, 2, 1))
    for axis, stacked, node_major in ((-1, X, lambda B, r: B[r].T), (0, X.transpose(2, 0, 1), lambda B, r: B[:, r])):
        B = np.take(sc.slot_sums(np.take(stacked, sc.order_cols, axis=axis), axis), sc.pos_of_node, axis=axis)
        assert np.array_equal(B, sc.sum(stacked, axis))
        for r in range(3):
            assert np.array_equal(node_major(B, r), mp_incoming(g, M0[r]))


def test_only_binary_graphs_build_the_read_only_directed_tables():
    for k in (3, 2):
        g = PackedGraph(gen_random_mrf(10, k, 0.5, seed=1))
        g.delta_sums(np.ones((2, g.n, g.kmax)))
        assert ("directed" in vars(g)) == (k == 2)
    sources, T = g.directed  # the binary graph's
    assert T.shape == (2, 2, len(sources)) and not T.flags.writeable


@pytest.mark.parametrize("k, calls", [(2, 1), (3, 10)])
def test_binary_delta_sums_contract_all_restarts_at_once(monkeypatch, k, calls):
    # one einsum for both directions on binary graphs, two per restart otherwise
    g = PackedGraph(gen_random_mrf(10, k, 0.5, seed=1))
    seen, einsum = [], np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: seen.append(a[0]) or einsum(*a, **kw))
    g.delta_sums(np.ones((5, g.n, g.kmax)))
    assert len(seen) == calls


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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", ["ising-20x20", "random-k4", "mixed-cardinality"])
def test_assignment_value_equals_per_edge_oracle(name, order):
    # bit-for-bit in either memory order of the stack: a flat gather through
    # the F-ordered a[..., src] would sum each row in another order
    m = {"ising-20x20": MODELS["ising-20x20"], "random-k4": lambda: gen_random_mrf(60, 4, 0.3, seed=11),
         "mixed-cardinality": lambda: mixed_cardinality_mrf(np.random.default_rng(12), n_max=40)}[name]()
    g = PackedGraph(m)
    assert g.padded == (name == "mixed-cardinality")
    a = np.asarray(np.random.default_rng(13).integers(0, g.card, size=(7, g.n)), order=order)
    assert a.flags[f"{order}_CONTIGUOUS"] and len(m.edges) > 100
    ref = assignment_value_per_edge(g, a)
    assert g.assignment_value(a).tolist() == ref.tolist()
    assert [g.assignment_value(x) for x in a] == ref.tolist()


@pytest.mark.parametrize("padded", [False, True])
def test_decode_equals_masked_argmax(padded):
    # log beliefs all below -1 with many ties, padded slots above every valid
    # value: ties go to the lowest label and no padded slot is chosen, for
    # node-major stacks, one matrix, and label-major stacks seen node-major
    rng = np.random.default_rng(14)
    g = PackedGraph(mixed_cardinality_mrf(rng, n_max=12) if padded else MODELS["random-k4"]())
    assert g.padded == padded
    P = np.where(g.valid, -2.0 - rng.integers(0, 3, size=(6, g.n, g.kmax)), 5.0)
    ref = decode_per_node(g, P)
    assert np.array_equal(g.decode(P), ref)
    assert np.array_equal(g.decode(P[2]), ref[2])
    assert np.array_equal(g.decode(np.ascontiguousarray(P.transpose(0, 2, 1)).transpose(0, 2, 1)), ref)
    assert (ref < g.card).all() and (ref == 0).any() and (ref > 0).any()


def test_negative_seed_is_rejected():
    # restart_rng seeds numpy with [seed, restart], which takes no negative entry
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        SolverConfig(seed=-1)


@pytest.mark.parametrize("field, value, message", [
    ("objective_tolerance", True, "objective_tolerance must be a number >= 0"),
    ("objective_tolerance", np.True_, "objective_tolerance must be a number >= 0"),
    ("objective_tolerance", "no", "objective_tolerance must be a number >= 0"),
    ("collect_diagnostics", "no", "collect_diagnostics must be a bool"),
    ("collect_diagnostics", 1, "collect_diagnostics must be a bool"),
    ("collect_diagnostics", np.True_, "collect_diagnostics must be a bool"),
], ids=["tolerance-true", "tolerance-numpy-true", "tolerance-str", "diagnostics-str", "diagnostics-int",
        "diagnostics-numpy-true"])
def test_config_rejects_bool_tolerance_and_non_bool_diagnostics(field, value, message):
    # a bool tolerance of True would stop every restart at its first change below 1.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(**{field: value})


def test_config_accepts_integer_tolerance_and_bool_diagnostics():
    assert SolverConfig(objective_tolerance=1, collect_diagnostics=True).objective_tolerance == 1


def padded_binary_3x5():
    """A 3x5 grid of binary and one-label nodes: 15 nodes, a packed decode row of 2 bytes."""
    rng = np.random.default_rng(5)
    card = (2,) + tuple(int(k) for k in rng.integers(1, 3, size=14))
    edges = tuple((v, v + d) for v in range(15) for d in (1, 5) if v + d < 15 and (d == 5 or v % 5 < 4))
    return PairwiseMRF(card, edges, tuple(rng.uniform(-1.0, 1.0, size=(card[i], card[j])) for i, j in edges))


def two_node_300():
    """Two 300-label nodes whose best labels lie above 255: decodes need uint16 rows."""
    table = np.random.default_rng(6).uniform(0.0, 1.0, size=(300, 300))
    table[290, 280] = 50.0
    return PairwiseMRF((300, 300), ((0, 1),), (table,))


# model, kmax, restarts, budget: each reaches one branch of the compact trace
TRACE_MODELS = {
    "grid-50x50": (lambda: gen_ising_grid(IsingSpec(50, 50, 1.0, seed=2)), 2, 1, 40),  # several chunks
    "padded-binary-15": (padded_binary_3x5, 2, 4, 100),  # n % 8 != 0: packbits pads the last byte
    "mixed-k3": (lambda: mixed_cardinality_mrf(np.random.default_rng(3), n_max=12, k_max=3), 3, 4, 100),
    "two-node-300": (two_node_300, 300, 3, 60),  # uint16 rows
}


@pytest.mark.parametrize("model", TRACE_MODELS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_deferred_trace_equals_per_sweep_valuation(monkeypatch, solver, model):
    # the winner's decodes, traced compact and valued once after the last sweep,
    # equal the reference's valuation of every sweep's decode, bit for bit
    make, kmax, restarts, budget = TRACE_MODELS[model]
    m = make()
    g = PackedGraph(prepare_model(m)[0])
    assert g.kmax == kmax and (model != "padded-binary-15" or (g.padded and g.n % 8))
    config = SolverConfig(restarts=restarts, seed=4, max_outer_iterations=budget)
    rows, value = [], PackedGraph.assignment_value
    monkeypatch.setattr(PackedGraph, "assignment_value", lambda self, a: rows.append(len(a)) or value(self, a))
    got = SOLVERS[solver](m, config)
    monkeypatch.undo()
    ref = restarts_reference(solver, m, config)
    assert got.trace == ref.trace
    assert_same_report(got, ref)
    chunk = common.VALUE_CHUNK // len(g.src)
    assert all(r <= chunk for r in rows) and sum(rows) <= got.iterations
    if model == "grid-50x50" and solver != "gpem":
        assert len(rows) > 1
    if model == "two-node-300":
        assert got.assignment.max() > 255


def test_gpem_values_distinct_decodes_not_every_sweep(monkeypatch):
    # 200 unconverged sweeps of 3 restarts: every sweep decodes, but only the
    # winner's runs of equal decodes are valued, in one chunk on a 10x10 grid
    calls, value = [], PackedGraph.assignment_value
    monkeypatch.setattr(PackedGraph, "assignment_value", lambda self, a: calls.append(np.shape(a)) or value(self, a))
    config = SolverConfig(restarts=3, seed=1, max_outer_iterations=200, objective_tolerance=0.0)
    rep = gpem.solve_gp(gen_ising_grid(IsingSpec(10, 10, 1.0, seed=3)), config)
    assert rep.iterations == 200 and not any(rep.restarts_converged)
    assert len(calls) == 1 and 1 < calls[0][0] < 200 // 4
    runs = 1 + sum(a.integral_objective != b.integral_objective for a, b in zip(rep.trace, rep.trace[1:]))
    assert runs <= calls[0][0]
