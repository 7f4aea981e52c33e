import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmap.model import (
    InvalidAssignmentError,
    ModelError,
    PairwiseMRF,
    UnsupportedModelError,
    absorb_unary,
    evaluate_assignment,
    normalize_nonnegative,
    prepare_model,
)
from qpmap.packed import PackedGraph
from oracles import (
    brute_force_map,
    convex_relaxation_objective,
    indicator_beliefs,
    mixed_cardinality_mrf,
    uniform_beliefs,
)


def two_node(table=((2.0, 0.0), (0.0, 1.0))):
    return PairwiseMRF((2, 2), ((0, 1),), (np.array(table),))


def chain3_identity():
    eye = np.eye(2)
    return PairwiseMRF((2, 2, 2), ((0, 1), (1, 2)), (eye, eye))


def qp_objective(m, beliefs):
    """PackedGraph.qp_objective on per-node belief vectors."""
    g = PackedGraph(m)
    return g.qp_objective(g.pack_beliefs(beliefs))


def decode(beliefs):
    """PackedGraph.decode on per-node belief vectors of an edgeless model."""
    g = PackedGraph(PairwiseMRF(tuple(len(p) for p in beliefs), (), ()))
    return g.decode(g.pack_beliefs(beliefs))


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
    def test_shift_by_min(self):
        m = PairwiseMRF((2, 2), ((0, 1),), (np.array([[1.0, -1.0], [0.0, 2.0]]),))
        shifted, off = normalize_nonnegative(m)
        assert np.array_equal(shifted.tables[0], [[2.0, 0.0], [1.0, 3.0]])
        assert off.shift_total == 1.0

    def test_nonnegative_unchanged(self):
        m = two_node()
        shifted, off = normalize_nonnegative(m)
        assert shifted.tables[0] is m.tables[0]
        assert off.shift_total == 0.0

    def test_ising_edge(self):
        d = -0.7
        m = PairwiseMRF((2, 2), ((0, 1),), (np.array([[d, -d], [-d, d]]),))
        shifted, off = normalize_nonnegative(m)
        assert np.allclose(shifted.tables[0], [[0.0, 1.4], [1.4, 0.0]])
        assert off.shift_total == pytest.approx(0.7)

    def test_nonfinite_rejected(self):
        with pytest.raises(ModelError):
            PairwiseMRF((2, 2), ((0, 1),), (np.array([[np.nan, 0.0], [0.0, 0.0]]),))

    def test_preserves_argmax(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            edges, tables = [], []
            for i in range(n - 1):
                edges.append((i, i + 1))
                tables.append(rng.normal(size=(2, 2)))
            m = PairwiseMRF((2,) * n, tuple(edges), tuple(tables))
            shifted, off = normalize_nonnegative(m)
            a0, v0 = brute_force_map(m)
            a1, v1 = brute_force_map(shifted)
            assert np.array_equal(a0, a1)
            assert v1 - off.shift_total == pytest.approx(v0, abs=1e-10)


class TestAbsorbUnary:
    def test_degree_one(self):
        m = PairwiseMRF(
            (2, 2), ((0, 1),), (np.zeros((2, 2)),), {0: np.array([0.3, -0.3])}
        )
        out = absorb_unary(m)
        assert not out.has_unaries()
        assert np.allclose(out.tables[0], [[0.3, 0.3], [-0.3, -0.3]])

    def test_no_unaries_identity(self):
        m = two_node()
        assert absorb_unary(m) is m

    def test_degree_two_preserves_all_assignments(self):
        eye = np.eye(2)
        m = PairwiseMRF(
            (2, 2, 2), ((0, 1), (1, 2)), (eye, eye), {1: np.array([0.4, 0.0])}
        )
        out = absorb_unary(m)
        assert np.allclose(out.tables[0][:, 0], eye[:, 0] + 0.2)
        for a in itertools.product(range(2), repeat=3):
            assert evaluate_assignment(out, a) == pytest.approx(evaluate_assignment(m, a))

    def test_isolated_node_rejected(self):
        m = PairwiseMRF((2, 2, 2), ((0, 1),), (np.eye(2),), {2: np.ones(2)})
        with pytest.raises(UnsupportedModelError):
            absorb_unary(m)


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

    def test_transpose_view(self):
        m = PairwiseMRF((2, 3), ((0, 1),), (np.arange(6.0).reshape(2, 3),))
        assert np.array_equal(m.theta(1, 0), m.theta(0, 1).T)
        assert np.shares_memory(m.theta(1, 0), m.theta(0, 1))


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
    prepared, off = prepare_model(m)
    assert not prepared.has_unaries()
    assert min(t.min() for t in prepared.tables) >= 0.0
    for a in itertools.product(range(2), repeat=2):
        fast = evaluate_assignment(prepared, a) - off.shift_total
        assert fast == pytest.approx(evaluate_assignment(m, a), abs=1e-12)
