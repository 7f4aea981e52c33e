"""Short label axes: `label_sum`, `label_any` and `PackedGraph.decode` against numpy's own
reductions, and the clamped simplex sweep against its axis-reduction reference."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmap.model import PairwiseMRF
from qpmap.packed import Diagnostics, PackedGraph, clamped_simplex_sweep, label_any, label_sum
from oracles import clamped_simplex_sweep_reference

SEEDS = st.integers(0, 2**32 - 1)


def mixed_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Both signs at magnitudes 1e-8..1e8, with +-0.0, +-inf, ties with the
    previous label and some rows of -0.0 only."""
    X = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    X = np.where(rng.random(shape) < 0.1, rng.choice([0.0, -0.0, np.inf, -np.inf], shape), X)
    X[..., 1:] = np.where(rng.random(X[..., 1:].shape) < 0.2, X[..., :-1], X[..., 1:])
    X[rng.random(shape[:-1]) < 0.05] = -0.0
    return X


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def label_major(X: np.ndarray) -> np.ndarray:
    """X's values held as a C-ordered (R, k, n) array, seen as (R, n, k)."""
    return np.ascontiguousarray(X.transpose(0, 2, 1)).transpose(0, 2, 1)


@pytest.mark.parametrize("k", range(1, 17))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(SEEDS)
def test_label_sum_is_numpy_sum(k, seed):
    # infinities of both signs make NaN sums too; those must match bit for bit as well
    rng = np.random.default_rng(seed)
    X = mixed_values(rng, (int(rng.integers(1, 4)), int(rng.integers(1, 60)), k))
    with np.errstate(invalid="ignore"):
        for view in (X, label_major(X), X[0]):
            assert same_bits(label_sum(view), view.sum(axis=-1))
    B = rng.random(X.shape) < rng.uniform(0.0, 1.0)
    for view in (B, label_major(B)):
        assert same_bits(label_sum(view), view.sum(axis=-1))
        assert same_bits(label_any(view), view.any(axis=-1))


def chain_graph(rng: np.random.Generator, k: int, padded: bool) -> PackedGraph:
    n = int(rng.integers(2, 30))
    cards = rng.integers(1, k + 1, size=n) if padded else np.full(n, k)
    cards[0] = k
    cards = tuple(int(c) for c in cards)
    tables = tuple(rng.random((cards[i], cards[i + 1])) for i in range(n - 1))
    return PackedGraph(PairwiseMRF(cards, tuple((i, i + 1) for i in range(n - 1)), tables))


@pytest.mark.parametrize("k", range(1, 17))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(SEEDS, st.booleans())
def test_decode_is_masked_argmax(k, seed, padded):
    # (n, k), (R, n, k) and label-major (R, k, n) stacks; every value is NaN-free, as beliefs are
    rng = np.random.default_rng(seed)
    g = chain_graph(rng, k, padded)
    P = mixed_values(rng, (int(rng.integers(1, 4)), g.n, k))
    P = np.where(rng.random(P.shape) < 0.3, rng.choice([-1.0, 0.0, 1.0], P.shape), P)  # more ties
    masked = np.where(g.valid, P, -np.inf)
    assert same_bits(g.decode(P), np.argmax(masked, axis=-1))
    assert same_bits(g.decode(P[0]), np.argmax(masked[0], axis=-1))
    assert same_bits(g.decode(label_major(P)), np.argmax(masked, axis=-1))
    lm = np.ascontiguousarray(P.transpose(0, 2, 1))
    assert same_bits(g.decode(lm, axis=1), np.argmax(np.where(g.valid.T, lm, -np.inf), axis=1))


def sweep_stack(rng: np.random.Generator, k: int):
    """An (R, n, k) gradient stack on n nodes of 1..k labels (node 0 has k, node 1 one),
    at scales 1e-3..1e3: no clamping up to most labels clamped, over several passes."""
    R, n = 3, 40
    card = rng.integers(1, k + 1, size=n)
    card[:2] = k, 1
    valid = np.arange(k) < card[:, None]
    scale = np.logspace(-3.0, 3.0, n)[:, None]
    grad = np.where(valid, scale * rng.normal(size=(R, n, k)), 0.0)
    denom = np.where(valid, rng.uniform(0.2, 5.0, size=(n, k)), 0.0)
    return grad, denom, valid


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("diagnose", [False, True])
def test_sweep_equals_axis_reduction_reference(k, diagnose):
    rng = np.random.default_rng(k)
    passes = Diagnostics()
    for _ in range(4):
        grad, denom, valid = sweep_stack(rng, k)
        diag, ref_diag = (Diagnostics(), Diagnostics()) if diagnose else (None, None)
        P = clamped_simplex_sweep(grad, denom, valid, diag)
        assert same_bits(P, clamped_simplex_sweep_reference(grad, denom, valid, ref_diag))
        assert dataclasses.asdict(diag or Diagnostics()) == dataclasses.asdict(ref_diag or Diagnostics())
        clamped_simplex_sweep_reference(grad, denom, valid, passes)
    # the stacks cover padded rows, single-label rows and rows clamped on several passes
    assert max(passes.inner_pass_hist) >= min(k, 3)
