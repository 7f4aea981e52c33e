import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmap import cli
from qpmap.common import SolverConfig
from qpmap.generators import IsingSpec, gen_ising_grid, gen_random_mrf
from qpmap.model import (
    InvalidAssignmentError,
    ModelError,
    PairwiseMRF,
    UnsupportedModelError,
    evaluate_assignment,
    prepare_model,
)
from qpmap.packed import PackedGraph
from qpmap.uai import parse_uai, write_uai
from oracles import (
    adjacency,
    brute_force_map,
    convex_relaxation_objective,
    evaluate_assignment_per_edge,
    indicator_beliefs,
    mixed_cardinality_mrf,
    pack_beliefs,
    pack_tables_per_edge,
    parse_uai_reference,
    prepare_model_reference,
    theta,
    uniform_beliefs,
)


def two_node(table=((2.0, 0.0), (0.0, 1.0))):
    return PairwiseMRF((2, 2), ((0, 1),), (np.array(table),))


def two_node_with(unaries):
    return PairwiseMRF((2, 2), ((0, 1),), (np.ones((2, 2)),), unaries)


def chain3_identity():
    eye = np.eye(2)
    return PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (eye, eye))


def qp_objective(m, beliefs):
    """PackedGraph.qp_objective on per-node belief vectors."""
    g = PackedGraph(m)
    return g.qp_objective(pack_beliefs(g, beliefs))


def decode(beliefs):
    """PackedGraph.decode on per-node belief vectors of an edgeless model."""
    g = PackedGraph(PairwiseMRF(tuple(len(p) for p in beliefs), (), ()))
    return g.decode(pack_beliefs(g, beliefs))


class TestEvaluateAssignment:
    def test_two_node_max(self):
        m = two_node()
        vals = {a: evaluate_assignment(m, a) for a in itertools.product(range(2), repeat=2)}
        assert vals[(0, 0)] == 2.0
        assert max(vals, key=vals.get) == (0, 0)

    def test_zero_potentials(self):
        m = two_node(((0.0, 0.0), (0.0, 0.0)))
        assert evaluate_assignment(m, (1, 0)) == 0.0

    def test_chain(self):
        assert evaluate_assignment(chain3_identity(), (0, 0, 0)) == 2.0

    def test_out_of_range_label(self):
        with pytest.raises(InvalidAssignmentError):
            evaluate_assignment(two_node(), (0, 2))

    def test_includes_unaries(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.zeros((2, 2)),), {0: np.array([0.5, -0.5])})
        assert evaluate_assignment(m, (0, 0)) == 0.5

    # labels are not truncated or parsed: [0.9, 1.7] once scored as [0, 1]
    @pytest.mark.parametrize("labels", [[0.9, 1.7], [0.0, 1.0], np.array([0.0, 1.0]), [True, False], ["1", "0"]],
                             ids=["float", "integral-float", "float-array", "bool", "str"])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(InvalidAssignmentError, match="labels must be integers"):
            evaluate_assignment(two_node(), labels)

    def test_integer_dtypes_accepted(self):
        for a in ([1, 1], (1, 1), np.array([1, 1], dtype=np.uint8), np.array([1, 1], dtype=np.int32)):
            assert evaluate_assignment(two_node(), a) == 1.0

    def test_stack_values_and_first_bad_label(self):
        m = chain3_identity()
        got = evaluate_assignment(m, np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1]]))
        assert isinstance(got, np.ndarray) and got.tolist() == [2.0, 1.0, 0.0]
        with pytest.raises(InvalidAssignmentError, match=r"node 2: label 2 outside \[0,2\)"):
            evaluate_assignment(m, [[0, 0, 0], [0, 1, 2]])


class TestQpObjective:
    def test_uniform(self):
        assert qp_objective(two_node(), uniform_beliefs(two_node())) == pytest.approx(0.75)

    def test_integral_coincides_with_assignment_value(self):
        m = chain3_identity()
        for a in itertools.product(range(2), repeat=3):
            assert qp_objective(m, indicator_beliefs(m, a)) == evaluate_assignment(m, a)

    def test_indicator_times_uniform(self):
        p = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
        assert qp_objective(two_node(), p) == pytest.approx(1.0)

    def test_matches_per_edge_oracle_on_fractional_beliefs(self):
        # the oracle's d-terms vanish with d = 0, leaving its per-edge loop
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = mixed_cardinality_mrf(rng)
            beliefs = [rng.dirichlet(np.ones(k)) for k in m.cardinalities]
            zeros = [np.zeros(k) for k in m.cardinalities]
            ref = convex_relaxation_objective(m, beliefs, zeros)
            assert qp_objective(m, beliefs) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_edgeless_model_is_zero(self):
        m = PairwiseMRF((2, 3), (), ())
        assert qp_objective(m, uniform_beliefs(m)) == 0.0


class TestNormalizeNonnegative:
    # prepare_model's shift: each table's minimum becomes 0
    def test_shift_by_min(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.array([[1.0, -1.0], [0.0, 2.0]]),))
        shifted, shift = prepare_model(m)
        assert np.array_equal(shifted.tables[0], [[2.0, 0.0], [1.0, 3.0]])
        assert shift == 1.0

    def test_nonnegative_unchanged(self):
        m = two_node()
        shifted, shift = prepare_model(m)
        assert shifted.groups[0][3] is m.groups[0][3]
        assert np.shares_memory(shifted.tables[0], m.tables[0])
        assert shift == 0.0

    def test_ising_edge(self):
        d = -0.7
        m = PairwiseMRF((2, 2), ((0, 1),), (np.array([[d, -d], [-d, d]]),))
        shifted, shift = prepare_model(m)
        assert np.allclose(shifted.tables[0], [[0.0, 1.4], [1.4, 0.0]])
        assert shift == pytest.approx(0.7)

    def test_nonfinite_rejected(self):
        with pytest.raises(ModelError):
            PairwiseMRF((2, 2), ((0, 1),), (np.array([[np.nan, 0.0], [0.0, 0.0]]),))

    def test_first_nonfinite_edge_is_named(self):
        ok, bad = np.zeros((2, 2)), np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ModelError, match=r"^edge \(1,2\) table has non-finite"):
            PairwiseMRF((2, 2, 2, 2), ((0, 1), (2, 1), (2, 3)), (ok, bad, np.full((2, 2), np.nan)))

    def test_preserves_argmax(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            edges, tables = [], []
            for i in range(n - 1):
                edges.append((i, i + 1))
                tables.append(rng.normal(size=(2, 2)))
            m = PairwiseMRF((2,) * n, tuple(edges), tuple(tables))
            shifted, shift = prepare_model(m)
            a0, v0 = brute_force_map(m)
            a1, v1 = brute_force_map(shifted)
            assert np.array_equal(a0, a1)
            assert v1 - shift == pytest.approx(v0, abs=1e-10)


class TestAbsorbUnary:
    # prepare_model's unary step: u_i/deg(i) goes to each incident table
    def test_degree_one(self):
        m = PairwiseMRF(
            (2, 2), ((0, 1),), (np.zeros((2, 2)),), {0: np.array([0.3, -0.3])}
        )
        out, shift = prepare_model(m)
        assert not out.unaries
        assert np.allclose(out.tables[0] - shift, [[0.3, 0.3], [-0.3, -0.3]])

    def test_degree_two_preserves_all_assignments(self):
        eye = np.eye(2)
        m = PairwiseMRF(
            (2, 2, 2), ((0, 1), (1, 2)), (eye, eye), {1: np.array([0.4, 0.0])}
        )
        out, shift = prepare_model(m)
        assert shift == 0.0
        assert np.allclose(out.tables[0][:, 0], eye[:, 0] + 0.2)
        for a in itertools.product(range(2), repeat=3):
            assert evaluate_assignment(out, a) == pytest.approx(evaluate_assignment(m, a))

    def test_isolated_node_rejected(self):
        m = PairwiseMRF((2, 2, 2), ((0, 1),), (np.eye(2),), {2: np.ones(2)})
        with pytest.raises(UnsupportedModelError):
            prepare_model(m)

    def test_untouched_table_reused(self):
        # table 1 shares the (2, 2) group the unary touches, so it is copied with that group, unchanged
        eye = np.eye(2)
        m = PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (eye, 2 * eye), {0: np.array([0.4, 0.0])})
        out, _ = prepare_model(m)
        (*_, stack), = out.groups
        assert out.tables[1].tobytes() == m.tables[1].tobytes()
        assert not np.shares_memory(stack, m.groups[0][3])


class TestDecode:
    def test_argmax(self):
        assert decode([np.array([0.7, 0.3])])[0] == 0

    def test_tie_breaks_low(self):
        assert decode([np.array([0.5, 0.5])])[0] == 0

    def test_worked_fraction(self):
        assert decode([np.array([2 / 3, 1 / 3])])[0] == 0

    def test_deterministic(self):
        p = [np.array([0.2, 0.5, 0.3]), np.array([0.5, 0.5])]
        assert np.array_equal(decode(p), decode(p))


class TestModelValidation:
    def test_self_loop(self):
        with pytest.raises(ModelError):
            PairwiseMRF((2,), ((0, 0),), (np.ones((2, 2)),))

    def test_duplicate_edge(self):
        with pytest.raises(ModelError):
            PairwiseMRF((2, 2), ((0, 1), (1, 0)), (np.ones((2, 2)), np.ones((2, 2))))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: PairwiseMRF((2, 0), (), ()), ModelError, "cardinalities must be >= 1"),
        (lambda: PairwiseMRF((2, 2), ((0, 1),), ()), ModelError, "edges and tables must align"),
        (lambda: PairwiseMRF((2, 2), ((0, 1),), (np.ones(4),)), ModelError, "edge table must be 2-D, got shape (4,)"),
        (lambda: PairwiseMRF((2, 2), ((0, 2),), (np.ones((2, 2)),)), ModelError, "edge (0,2) out of range"),
        (lambda: PairwiseMRF((2, 3), ((1, 0),), (np.ones((2, 3)),)), ModelError,
         "edge (0,1) table shape (3, 2) != (2,3)"),
        (lambda: two_node_with({2: np.zeros(2)}), ModelError, "unary on node 2 out of range"),
        (lambda: two_node_with({1: np.zeros(3)}), ModelError, "unary on node 1 has shape (3,)"),
        (lambda: evaluate_assignment(two_node(), [0, 1, 0]), InvalidAssignmentError, "assignment length (3,) != (2,)"),
        (lambda: SolverConfig(init="zeros"), ValueError,
         "init must be one of ('uniform', 'uniform-perturbed', 'random-dirichlet')"),
    ], ids=["cardinality", "align", "2-D", "edge-range", "table-shape", "unary-range", "unary-shape",
            "assignment-length", "init"])
    def test_invalid_input_message(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: PairwiseMRF((2, 2), ((False, True),), (np.eye(2),)),
         "edge (False,True) endpoint False is not an integer"),
        (lambda: PairwiseMRF((2, 2), ((0, 1.0),), (np.eye(2),)), "edge (0,1.0) endpoint 1.0 is not an integer"),
        (lambda: two_node_with({True: np.zeros(2)}), "unary key True is not an integer"),
        (lambda: two_node_with({0.0: np.zeros(2)}), "unary key 0.0 is not an integer"),
        (lambda: PairwiseMRF((2, "2"), (), ()), "node 1 cardinality '2' is not an integer"),
        (lambda: PairwiseMRF((True, 2), (), ()), "node 0 cardinality True is not an integer"),
        (lambda: PairwiseMRF((2, 2), ((1, 0),), (np.eye(2) + 1j,)), "edge (1,0) table is complex"),
        (lambda: two_node_with({1: [1.0, 1j]}), "unary on node 1 is complex"),
    ], ids=["bool-edge", "float-edge", "bool-key", "float-key", "str-cardinality", "bool-cardinality",
            "complex-table", "complex-unary"])
    def test_indices_are_integers_and_potentials_real(self, build, message):
        with pytest.raises(ModelError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: PairwiseMRF((2, 2), ((0, 1, 2),), (np.eye(2),)), "edge (0, 1, 2) is not a pair of nodes"),
        (lambda: PairwiseMRF((2, 2), (0,), (np.eye(2),)), "edge 0 is not a pair of nodes"),
        (lambda: PairwiseMRF((2, 2), ((1, 0),), ([["a", "b"], ["c", "d"]],)),
         "edge (1,0) table is not an array of real numbers"),
        (lambda: two_node_with({1: ["x", "y"]}), "unary on node 1 is not an array of real numbers"),
    ], ids=["triple-edge", "bare-int-edge", "string-table", "string-unary"])
    def test_malformed_edges_and_potentials_are_model_errors(self, build, message):
        # not numpy's bare ValueError or TypeError, which name no edge or node
        with pytest.raises(ModelError) as exc:
            build()
        assert str(exc.value) == message

    def test_numpy_int_indices_round_trip(self):
        i = np.int64
        m = PairwiseMRF((i(2), np.int32(3), i(2)), ((i(1), i(0)), (i(1), i(2))),
                        (np.arange(6.0).reshape(3, 2), np.ones((3, 2))), {np.uint8(2): np.array([0.5, -0.5])})
        assert all(type(x) is int for x in (*m.cardinalities, *itertools.chain(*m.edges), *m.unaries))
        back = parse_uai(write_uai(m))
        assert back.cardinalities == m.cardinalities and back.edges == m.edges == ((0, 1), (1, 2))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.tables, m.tables))
        assert list(back.unaries) == [2] and back.unaries[2].tobytes() == m.unaries[2].tobytes()

    def test_transpose_view(self):
        m = PairwiseMRF((2, 3), ((0, 1),), (np.arange(6.0).reshape(2, 3),))
        assert np.array_equal(theta(m, 1, 0), theta(m, 0, 1).T)
        assert np.shares_memory(theta(m, 1, 0), theta(m, 0, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_integral_qp_matches_assignment_value(a0, a1, a2):
    m = chain3_identity()
    a = (a0, a1, a2)
    assert qp_objective(m, indicator_beliefs(m, a)) == evaluate_assignment(m, a)


def test_prepare_model_pipeline():
    m = PairwiseMRF(
        (2, 2),
        ((0, 1),),
        (np.array([[0.5, -0.5], [-0.5, 0.5]]),),
        {0: np.array([0.1, -0.1]), 1: np.array([-0.2, 0.2])},
    )
    prepared, shift = prepare_model(m)
    assert not prepared.unaries
    assert min(t.min() for t in prepared.tables) >= 0.0
    for a in itertools.product(range(2), repeat=2):
        fast = evaluate_assignment(prepared, a) - shift
        assert fast == pytest.approx(evaluate_assignment(m, a), abs=1e-12)


def test_prepare_model_matches_reference_on_a_grid():
    # hundreds of shifted tables: the shift must be summed in edge order
    m = gen_ising_grid(IsingSpec(12, 12, beta=1.0, seed=3))
    prepared, shift = prepare_model(m)
    ref, ref_shift = prepare_model_reference(m)
    assert shift == ref_shift
    assert all(t.tobytes() == r.tobytes() for t, r in zip(prepared.tables, ref.tables))


def test_prepare_model_rejects_no_variables():
    with pytest.raises(UnsupportedModelError, match="no variables"):
        prepare_model(PairwiseMRF((), (), ()))


TOWARD_INF = np.array([[0.0, -1e308], [0.0, 0.0]])  # finite when shifted, but its shift is 1e308


@pytest.mark.parametrize("m, match", [
    (PairwiseMRF((2, 2), ((0, 1),), (np.array([[1e308, -1e308], [0.0, 1.0]]),)), r"^edge \(0,1\): prepared table"),
    (PairwiseMRF((2, 2), ((0, 1),), (np.array([[1.7e308, 0.0], [0.0, 1.0]]),), {0: np.array([1.7e308, -1.0])}),
     r"^edge \(0,1\): prepared table"),
    (PairwiseMRF((2, 3, 2), ((0, 1), (1, 2)), (-np.ones((2, 3)), np.array([[1e308, 0.0], [0.0, 0.0], [-1e308, 0.0]]))),
     r"^edge \(1,2\): prepared table"),
    (PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (TOWARD_INF, TOWARD_INF)), r"^edge \(1,2\): total shift"),
    (PairwiseMRF((2, 2, 2, 2), ((0, 1), (1, 2), (2, 3)), (-np.eye(2), TOWARD_INF, TOWARD_INF)),
     r"^edge \(2,3\): total shift"),
], ids=["shift", "unary", "second-shape", "total-shift", "total-shift-third-edge"])
def test_prepare_model_rejects_overflow(m, match):
    # no RuntimeWarning either: pytest turns one into an error
    with pytest.raises(UnsupportedModelError, match=match + " is not finite$"):
        prepare_model(m)


# finite, nonnegative tables that need no shift, but node 1's two sum past the largest float
SUM_OVERFLOW = PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (np.array([[1e308, 0.0], [0.0, 1e308]]),) * 2)


def test_packed_graph_rejects_overflowing_theta_hat():
    prepared, shift = prepare_model(SUM_OVERFLOW)
    assert shift == 0.0 and all(np.array_equal(a, b) for a, b in zip(prepared.tables, SUM_OVERFLOW.tables))
    # no RuntimeWarning on the way: pytest turns one into an error
    with pytest.raises(UnsupportedModelError, match=r"^node 1: the sum of its tables is not finite$"):
        PackedGraph(prepared)


# finite theta_hat, but sums the solvers form overflow: node 0's 2.5*theta_hat (convex's
# gradient bound), and, with every node's 2.5*theta_hat finite, the sum of all theta_hat
@pytest.mark.parametrize("m, match", [
    (PairwiseMRF((2, 2), ((0, 1),), (np.array([[9e307, 0.0], [0.0, 1e307]]),)),
     r"^node 0: 2.5 times the sum of its tables is not finite$"),
    (PairwiseMRF((2, 2, 2, 2), ((0, 1), (2, 3)), (np.array([[6e307, 0.0], [0.0, 0.0]]),) * 2),
     r"^node 2: the sum of its and all earlier nodes' tables is not finite$"),
], ids=["node", "total"])
def test_packed_graph_rejects_overflowing_solver_sums(m, match):
    prepared, shift = prepare_model(m)
    assert shift == 0.0 and all(np.array_equal(a, b) for a, b in zip(prepared.tables, m.tables))
    with pytest.raises(UnsupportedModelError, match=match):
        PackedGraph(prepared)


def _some_nonnegative(t):
    # a table or unary that may need no shift, with a signed zero the shift must keep
    t = np.abs(t)
    t.flat[0] = -0.0
    return t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_prepare_model_is_exact_on_mixed_models(seed):
    # mixed cardinalities, mixed-sign tables, unaries on some connected nodes
    rng = np.random.default_rng(seed)
    base = mixed_cardinality_mrf(rng, n_max=5, k_max=4)
    tables = tuple(_some_nonnegative(t) if rng.random() < 0.4 else t for t in base.tables)
    unaries = {i: rng.normal(size=k) for i, k in enumerate(base.cardinalities) if rng.random() < 0.6}
    unaries = {i: _some_nonnegative(u) if rng.random() < 0.4 else u for i, u in unaries.items()}
    m = PairwiseMRF(base.cardinalities, base.edges, tables, unaries)
    prepared, shift = prepare_model(m)
    ref, ref_shift = prepare_model_reference(m)
    assert shift == ref_shift
    assert prepared.edges == ref.edges and prepared.cardinalities == ref.cardinalities
    # a group is kept exactly where no table of its shape has a unary at either end or a negative entry
    copied = {t.shape for (i, j), t in zip(m.edges, m.tables) if i in unaries or j in unaries or t.min() < 0.0}
    for (i, j), t, r, orig in zip(m.edges, prepared.tables, ref.tables, m.tables):
        assert t.shape == r.shape and t.tobytes() == r.tobytes()
        assert not t.flags.writeable
        assert np.shares_memory(t, orig) == (orig.shape not in copied)
    assert not prepared.unaries
    u = [unaries.get(i, np.zeros(k)) / len(nbrs)
         for i, (k, nbrs) in enumerate(zip(m.cardinalities, adjacency(m)))]
    for (i, j), t, orig in zip(m.edges, prepared.tables, m.tables):
        absorbed = orig + u[i][:, None] + u[j][None, :]
        assert t.min() >= 0.0
        if absorbed.min() < 0.0:
            assert t.min() == 0.0
    for a in itertools.product(*(range(k) for k in m.cardinalities)):
        assert evaluate_assignment(prepared, a) - shift == pytest.approx(evaluate_assignment(m, a), abs=1e-9)


def _scoring_models(rng):
    """Padded mixed-cardinality models with unaries, a -0.0 table entry, and an edgeless model."""
    base = mixed_cardinality_mrf(rng, n_max=6, k_max=4)
    tables = tuple(_some_nonnegative(t) if e == 0 or rng.random() < 0.4 else t for e, t in enumerate(base.tables))
    unaries = {i: rng.normal(size=k) for i, k in enumerate(base.cardinalities) if rng.random() < 0.6}
    edgeless = PairwiseMRF(base.cardinalities, (), (), unaries)
    return [PairwiseMRF(base.cardinalities, base.edges, tables, unaries),
            PairwiseMRF(base.cardinalities, base.edges, tables), edgeless]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_assignment_equals_per_edge_oracle(seed):
    # a gather per table summed from 0.0 in edge order, then unary order: the per-edge loop's bits
    rng = np.random.default_rng(seed)
    for m in _scoring_models(rng):
        A = np.stack([rng.integers(0, k, size=7) for k in m.cardinalities], axis=1)
        ref = [evaluate_assignment_per_edge(m, a) for a in A]
        singles = [evaluate_assignment(m, a) for a in A]
        assert all(type(v) is float for v in singles)
        assert _bits(singles) == _bits(ref)
        assert _bits(evaluate_assignment(m, A)) == _bits(ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_packed_tables_equal_per_edge_oracle(seed):
    rng = np.random.default_rng(seed)
    raw = _scoring_models(rng)
    # d only on prepared tables, the only ones a solver packs; the edgeless
    # model's unaries are on isolated nodes, which prepare_model rejects
    prepared = [prepare_model(m)[0] for m in raw[:2]] + [prepare_model(_scoring_models(rng)[0])[0]]
    for m in raw + prepared:
        g = PackedGraph(m)
        tables, theta_hat, _ = pack_tables_per_edge(m)
        assert g.tables.shape == tables.shape and g.tables.tobytes() == tables.tobytes()
        assert g.theta_hat.tobytes() == theta_hat.tobytes()
    for m in prepared:
        assert PackedGraph(m).diagonal_terms().tobytes() == pack_tables_per_edge(m)[2].tobytes()


def test_single_shape_packing_equals_per_edge_oracle():
    # one (2, 3) shape under kmax = 3 has padded rows, so it is not concatenated in place; (3, 3) is
    for cards in ((2, 3, 2), (3, 3, 3)):
        m = PairwiseMRF(cards, ((0, 1), (1, 2)), tuple(np.arange(cards[i] * cards[j], dtype=float).reshape(
            cards[i], cards[j]) for i, j in ((0, 1), (1, 2))))
        assert PackedGraph(m).tables.tobytes() == pack_tables_per_edge(m)[0].tobytes()


def test_ingest_matches_reference_at_benchmark_scale():
    # the 50x50 grid file of the uai-grid benchmark workload: parse, then prepare
    text = write_uai(gen_ising_grid(IsingSpec(50, 50, beta=1.0, seed=7)))
    got, ref = parse_uai(text), parse_uai_reference(text)
    assert got.cardinalities == ref.cardinalities and got.edges == ref.edges
    assert all(t.tobytes() == r.tobytes() for t, r in zip(got.tables, ref.tables))
    assert list(got.unaries) == list(ref.unaries)
    assert all(got.unaries[i].tobytes() == ref.unaries[i].tobytes() for i in ref.unaries)
    (prepared, shift), (ref_prepared, ref_shift) = prepare_model(got), prepare_model_reference(ref)
    assert _bits(shift) == _bits(ref_shift)
    assert len(prepared.tables) == len(ref_prepared.tables) == 4900
    assert all(t.tobytes() == r.tobytes() for t, r in zip(prepared.tables, ref_prepared.tables))


def _rebuilt(m):
    """A model rebuilt from another's parts, as the benchmark's `fresh` does."""
    return PairwiseMRF(m.cardinalities, m.edges, m.tables, m.unaries)


def _check_groups(m):
    """Every edge is one row of one read-only C-contiguous group, whose row is `m.tables[e]`;
    there is one group per table shape."""
    assert sorted(np.concatenate([np.zeros(0, int), *(idx for *_, idx, _ in m.groups)]).tolist()) == \
        list(range(len(m.edges)))
    for ki, kj, idx, stack in m.groups:
        assert stack.shape == (len(idx), ki, kj) and stack.dtype == float
        assert stack.flags.c_contiguous and not stack.flags.writeable
        for e, row in zip(idx.tolist(), stack):
            assert m.tables[e].tobytes() == row.tobytes() and np.shares_memory(m.tables[e], row)
    assert [g[:2] for g in m.groups] == sorted({g[:2] for g in m.groups})


class TestTableGroups:
    def test_callers_array_stays_writeable_and_unshared(self):
        A = np.ones((2, 2))
        m = PairwiseMRF((2, 2), ((0, 1),), (A,))
        assert A.flags.writeable and not np.shares_memory(m.tables[0], A)
        A[0, 0] = 5.0
        assert evaluate_assignment(m, (0, 0)) == 1.0

    def test_rows_of_a_writeable_stack_are_copied(self):
        B = np.arange(12.0).reshape(3, 2, 2)
        m = PairwiseMRF((2,) * 4, ((0, 1), (1, 2), (2, 3)), tuple(B))
        before = evaluate_assignment(m, np.zeros((1, 4), dtype=int))
        B[0, 0, 0] = 100.0
        assert B.flags.writeable and not np.shares_memory(m.groups[0][3], B)
        assert evaluate_assignment(m, np.zeros((1, 4), dtype=int)).tobytes() == before.tobytes()
        _check_groups(m)

    def test_read_only_stack_is_kept_only_whole_and_in_order(self):
        B = np.arange(12.0).reshape(3, 2, 2).copy()  # owns its memory
        B.flags.writeable = False
        edges, rows = ((0, 1), (1, 2), (2, 3)), tuple(B)
        kept = PairwiseMRF((2,) * 4, edges, rows)
        assert kept.groups[0][3].base is B and all(np.shares_memory(t, r) for t, r in zip(kept.tables, rows))
        view = np.arange(12.0).reshape(3, 2, 2)  # read-only, but its writeable owner is not
        view.flags.writeable = False
        borrowed = np.frombuffer(bytearray(B.tobytes())).reshape(3, 2, 2)  # read-only, but its bytearray is not
        borrowed.base.flags.writeable = False
        for rows in ((B[1], B[0], B[2]), (B[0], B[1], B[1]), (B[0], B[1], B[2].T), tuple(B[:2]) + (B[2].copy(),),
                     tuple(view), tuple(borrowed)):
            copied = PairwiseMRF((2,) * 4, edges, rows)
            assert not any(np.shares_memory(copied.groups[0][3], r) for r in rows)
            assert all(t.tobytes() == np.ascontiguousarray(r).tobytes() for t, r in zip(copied.tables, rows))
        reversed_edge = PairwiseMRF((2, 3), ((1, 0),), (np.arange(6.0).reshape(3, 2),))
        assert reversed_edge.tables[0].tobytes() == np.arange(6.0).reshape(3, 2).T.copy().tobytes()

    @pytest.mark.parametrize("make", [
        lambda: gen_random_mrf(8, 5, 0.6, seed=3),
        lambda: gen_ising_grid(IsingSpec(4, 5, 1.0, seed=2)),
        lambda: mixed_cardinality_mrf(np.random.default_rng(4)),
        lambda: prepare_model(gen_ising_grid(IsingSpec(4, 5, 1.0, seed=2)))[0],
        lambda: parse_uai(write_uai(gen_ising_grid(IsingSpec(4, 5, 1.0, seed=2)))),
    ], ids=["random", "ising", "mixed", "prepared", "parsed"])
    def test_rebuild_copies_nothing(self, make):
        m = make()
        again = _rebuilt(m)
        _check_groups(m)
        _check_groups(again)
        assert len(again.groups) == len(m.groups)
        assert all(np.shares_memory(g[3], again_g[3]) for g, again_g in zip(m.groups, again.groups))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_prepared_groups_hold_the_prepared_tables(self, seed):
        # a group a unary touches is copied whole, its untouched rows too
        for m in _scoring_models(np.random.default_rng(seed))[:2]:
            _check_groups(m)
            _check_groups(prepare_model(m)[0])


def test_packed_graph_adopts_a_single_group():
    prepared = prepare_model(gen_random_mrf(20, 64, 1.0))[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph = PackedGraph(prepared)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    (*_, stack), = prepared.groups
    assert retained - base < 0.1 * stack.nbytes
    assert graph.tables is stack and not graph.tables.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        graph.tables[0, 0, 0] = 1.0


@pytest.mark.parametrize("make", [
    lambda: gen_ising_grid(IsingSpec(5, 6, 1.0, seed=1)),  # every table rewritten: the new stack
    lambda: parse_uai(write_uai(gen_ising_grid(IsingSpec(5, 6, 1.0, seed=1)))),
    lambda: gen_random_mrf(6, 3, 0.7, seed=2),  # nothing rewritten: the generator's stack
])
def test_packed_graph_adopts_the_prepared_stack(make):
    prepared = prepare_model(make())[0]
    (*_, stack), = prepared.groups
    assert PackedGraph(prepared).tables is stack


def test_padded_mixed_model_with_unaries_packs_per_edge():
    # nonnegative tables but every third, and a unary on the last node: groups copied whole
    base = mixed_cardinality_mrf(np.random.default_rng(8), n_max=7, k_max=4)
    tables = tuple(t if e % 3 == 0 else np.abs(t) for e, t in enumerate(base.tables))
    m = PairwiseMRF(base.cardinalities, base.edges, tables, {base.num_nodes - 1: np.full(base.cardinalities[-1], 0.25)})
    prepared = prepare_model(m)[0]
    assert len({g[:2] for g in prepared.groups}) > 1 and len(prepared.groups) == len(m.groups)
    graph = PackedGraph(prepared)
    assert graph.padded and not graph.tables.flags.writeable
    assert graph.tables.tobytes() == pack_tables_per_edge(prepared)[0].tobytes()


def _scattered_unary_grid(rows, cols, seed):
    """A grid with nonnegative tables and unaries on a random half of its nodes."""
    grid, rng = gen_ising_grid(IsingSpec(rows, cols, 1.0, seed=seed)), np.random.default_rng(seed)
    nodes = rng.choice(grid.num_nodes, grid.num_nodes // 2, replace=False)
    return PairwiseMRF(grid.cardinalities, grid.edges, tuple(np.abs(t) for t in grid.tables),
                       {int(i): grid.unaries[int(i)] for i in sorted(nodes)})


def test_scattered_unaries_prepare_to_one_adopted_stack():
    # the unaries touch some tables of the one (2, 2) group: it is copied whole, and packing adopts it
    m = _scattered_unary_grid(12, 12, seed=5)
    prepared, shift = prepare_model(m)
    ref, ref_shift = prepare_model_reference(m)
    assert _bits(shift) == _bits(ref_shift)
    assert all(t.tobytes() == r.tobytes() for t, r in zip(prepared.tables, ref.tables))
    assert PackedGraph(prepared).tables is prepared.groups[0][3]


def _positive_parsed():
    rng = np.random.default_rng(5)
    m = PairwiseMRF((2, 3, 2, 3), ((0, 1), (2, 1), (2, 3), (0, 3)), tuple(rng.random((4, 2, 3)) + 0.1),
                    {1: rng.random(3) + 0.1})
    return parse_uai(write_uai(m))


@pytest.mark.parametrize("make", [
    lambda: cli._log_transform(_positive_parsed()),
    lambda: prepare_model(_scattered_unary_grid(6, 7, seed=2))[0],
    lambda: prepare_model(_positive_parsed())[0],  # the unary touches one of the three (2, 3) tables
], ids=["log-transform", "prepared-grid", "prepared-parsed"])
def test_every_model_holds_one_group_per_shape(make):
    # the constructor's and the parser's models: test_rebuild_copies_nothing
    _check_groups(make())
