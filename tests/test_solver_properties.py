"""Whole-solver properties of CCCP, convex and GP-EM on random models.

`hypothesis` draws the label counts and a seed; the edges, the mixed-sign
tables and the unaries on leaves come from `np.random.default_rng(seed)`.
Every solve must end on the simplex, trace an objective that never
decreases (bilinear for CCCP and GP-EM, relaxed for convex) and certify its
node updates with a small stationarity residual.  On models with padded
labels, every sweep must leave every padded belief at exactly +0.0.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpmap import cccp, convex, gpem
from qpmap.common import SolverConfig
from qpmap.model import NONNEG_TOL, SIMPLEX_SUM_TOL, DegenerateNodeError, PairwiseMRF, prepare_model
from qpmap.packed import Diagnostics, PackedGraph
from oracles import pack_beliefs

SOLVERS = {"cccp": (cccp.solve, "qp_objective"), "convex": (convex.solve_convex, "convex_objective"),
           "gpem": (gpem.solve_gp, "qp_objective")}


def random_model(cards, seed) -> PairwiseMRF:
    """A random tree over `cards` plus extra edges, tables of both signs, unaries on some leaves."""
    rng = np.random.default_rng(seed)
    n = len(cards)
    edges = {(int(rng.integers(0, j)), j) for j in range(1, n)}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2}
    edges = sorted(edges)
    tables = tuple(rng.uniform(-2.0, 1.0, size=(cards[i], cards[j])) for i, j in edges)
    deg = np.bincount(np.ravel(edges), minlength=n)
    unaries = {i: rng.normal(size=cards[i]) for i in np.flatnonzero(deg == 1).tolist() if rng.random() < 0.7}
    return PairwiseMRF(tuple(cards), tuple(edges), tables, unaries)


@pytest.mark.parametrize("solver", SOLVERS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 6), min_size=2, max_size=9), st.integers(0, 2**32 - 1))
def test_simplex_monotone_and_stationary(solver, cards, seed):
    solve, key = SOLVERS[solver]
    m = random_model(cards, seed)
    rep = solve(m, SolverConfig(restarts=2, seed=seed, max_outer_iterations=200, collect_diagnostics=True))
    for p, k in zip(rep.beliefs, m.cardinalities):
        assert p.shape == (k,) and p.min() >= -NONNEG_TOL and abs(p.sum() - 1.0) <= SIMPLEX_SUM_TOL
    vals = [getattr(t, key) for t in rep.trace]
    assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))
    assert rep.diagnostics.max_stationarity_residual <= 1e-8


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=9), st.integers(0, 2**32 - 1))
def test_prepared_objective_less_shift_is_the_original_relaxed_objective(cards, seed):
    # what puts every reported objective on the original scale: on beliefs that sum to 1,
    # the prepared bilinear objective less the shift is the original model's, unaries included
    m = random_model(cards, seed)
    prepared, shift = prepare_model(m)
    rng = np.random.default_rng(seed)
    beliefs = [rng.dirichlet(np.ones(k)) for k in m.cardinalities]
    want = sum(float(beliefs[i] @ t @ beliefs[j]) for (i, j), t in zip(m.edges, m.tables))
    want += sum(float(u @ beliefs[i]) for i, u in m.unaries.items())
    graph = PackedGraph(prepared)
    assert abs(graph.qp_objective(pack_beliefs(graph, beliefs)) - shift - want) <= 1e-12 * max(1.0, abs(want))


def assert_padded_zero(P, valid):
    """Every padded belief of the stack P is +0.0: the one float whose bits are all zero."""
    assert not P[..., ~valid].view(np.uint64).any()


@pytest.mark.parametrize("solver", SOLVERS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.one_of(*(st.lists(st.integers(1, k), min_size=2, max_size=9) for k in (2, 6))).filter(
    lambda c: min(c) < max(c)), st.integers(0, 2**32 - 1))  # binary models with one-label nodes, and wider ones
def test_padded_beliefs_stay_exactly_zero(solver, cards, seed):
    # GP-EM's underflow count and Diagnostics.certify test `P > 0.0` with no validity
    # mask: they count the same entries as `valid & (P > 0.0)` only while this holds
    module = {"cccp": cccp, "convex": convex, "gpem": gpem}[solver]
    real_restarts, real_certify, sweeps, certified = module.relaxation_restarts, Diagnostics.certify, [], []

    def relaxation_restarts(graph, shift, config, sweep, *d):
        def checked(P, S, q, live, diag):
            assert_padded_zero(P, graph.valid)
            out = sweep(P, S, q, live, diag)
            assert_padded_zero(out[0], graph.valid)
            sweeps.append(len(live))
            return out
        return real_restarts(graph, shift, config, checked, *d)

    def certify(self, P, grad, denom, valid, lam, passes):
        assert_padded_zero(P, valid)
        certified.append(P.shape)
        real_certify(self, P, grad, denom, valid, lam, passes)

    with mock.patch.object(module, "relaxation_restarts", relaxation_restarts), \
            mock.patch.object(Diagnostics, "certify", certify):
        try:
            SOLVERS[solver][0](random_model(cards, seed),
                               SolverConfig(restarts=2, seed=seed, max_outer_iterations=60, collect_diagnostics=True))
        except DegenerateNodeError:  # a one-label node can be left with no weight
            assume(False)
    assert sweeps and (solver == "gpem" or certified)
