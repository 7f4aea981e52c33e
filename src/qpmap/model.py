"""Pairwise MRF data model: potentials, assignments, and the solver-ready form.

A model is a collection of discrete nodes joined by undirected edges, each
edge carrying a dense potential table.  Edge tables are stored once in
canonical (i < j) orientation; access in the opposite orientation is a
transpose view, never a copy.  Models are treated as immutable after
construction (tables are marked read-only), so they can be shared freely
across threads for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# how far a belief vector may stray from the simplex and still count as on it
SIMPLEX_SUM_TOL = 1e-9
NONNEG_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model construction or use."""


class InvalidAssignmentError(ModelError):
    """Assignment label out of range or wrong length."""


class UnsupportedModelError(ModelError):
    """Model shape outside what the solvers support (e.g. unary on an isolated node)."""


class DegenerateNodeError(ModelError):
    """A node whose update denominators are not strictly positive."""

    def __init__(self, node: int, message: str):
        self.node = node
        super().__init__(f"node {node}: {message}")


def _check_finite(arrays: List[np.ndarray], name: Callable[[int], str]) -> None:
    """Raise ModelError naming (`name(index)`) the first array with a nan or inf
    entry; one `isfinite` per 2**16 entries."""
    start = size = 0
    for end, a in enumerate(arrays, start=1):
        size += a.size
        if size >= 1 << 16 or end == len(arrays):
            if not np.isfinite(np.concatenate([x.ravel() for x in arrays[start:end]])).all():
                bad = next(e for e in range(start, end) if not np.isfinite(arrays[e]).all())
                raise ModelError(f"{name(bad)} has non-finite entries")
            start, size = end, 0


@dataclass(frozen=True)
class PairwiseMRF:
    """Undirected pairwise model.

    cardinalities: per-node label count k_i.
    edges: unordered node pairs, stored canonically with i < j.
    tables: one dense k_i x k_j array per edge, aligned with `edges`.
    unaries: optional per-node vectors; `prepare_model` folds them into the tables.
    """

    cardinalities: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    tables: Tuple[np.ndarray, ...]
    unaries: Optional[Dict[int, np.ndarray]] = None

    def __post_init__(self):
        n = len(self.cardinalities)
        if any(k < 1 for k in self.cardinalities):
            raise ModelError("cardinalities must be >= 1")
        canon_edges: List[Tuple[int, int]] = []
        canon_tables: List[np.ndarray] = []
        seen = set()
        if len(self.edges) != len(self.tables):
            raise ModelError("edges and tables must align")
        for (i, j), t in zip(self.edges, self.tables):
            t = np.asarray(t, dtype=float)
            if t.ndim != 2:
                raise ModelError(f"edge table must be 2-D, got shape {t.shape}")
            if i == j:
                raise ModelError(f"self-loop on node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError(f"edge ({i},{j}) out of range")
            if i > j:
                i, j, t = j, i, t.T
            if (i, j) in seen:
                raise ModelError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            if t.shape != (self.cardinalities[i], self.cardinalities[j]):
                raise ModelError(
                    f"edge ({i},{j}) table shape {t.shape} != "
                    f"({self.cardinalities[i]},{self.cardinalities[j]})"
                )
            t = np.ascontiguousarray(t)
            t.flags.writeable = False
            canon_edges.append((i, j))
            canon_tables.append(t)
        _check_finite(canon_tables, lambda e: "edge ({},{}) table".format(*canon_edges[e]))
        object.__setattr__(self, "edges", tuple(canon_edges))
        object.__setattr__(self, "tables", tuple(canon_tables))
        object.__setattr__(self, "cardinalities", tuple(int(k) for k in self.cardinalities))
        if self.unaries is not None:
            clean: Dict[int, np.ndarray] = {}
            for i, u in self.unaries.items():
                u = np.asarray(u, dtype=float)
                if not (0 <= i < n):
                    raise ModelError(f"unary on node {i} out of range")
                if u.shape != (self.cardinalities[i],):
                    raise ModelError(f"unary on node {i} has shape {u.shape}")
                u = u.copy()
                u.flags.writeable = False
                clean[i] = u
            _check_finite(list(clean.values()), lambda e: f"unary on node {list(clean)[e]}")
            object.__setattr__(self, "unaries", clean)

    @property
    def num_nodes(self) -> int:
        return len(self.cardinalities)


def check_assignment(mrf: PairwiseMRF, a: Sequence[int]) -> np.ndarray:
    a = np.asarray(a, dtype=int)
    if a.shape != (mrf.num_nodes,):
        raise InvalidAssignmentError(f"assignment length {a.shape} != ({mrf.num_nodes},)")
    for i, (label, k) in enumerate(zip(a, mrf.cardinalities)):
        if not 0 <= label < k:
            raise InvalidAssignmentError(f"node {i}: label {label} outside [0,{k})")
    return a


def evaluate_assignment(mrf: PairwiseMRF, a: Sequence[int]) -> float:
    """Sum of edge potentials (plus unaries, if still present) at assignment `a`."""
    a = check_assignment(mrf, a)
    total = 0.0
    for (i, j), t in zip(mrf.edges, mrf.tables):
        total += t[a[i], a[j]]
    if mrf.unaries:
        for i, u in mrf.unaries.items():
            total += u[a[i]]
    return float(total)


def _trusted(cardinalities, edges, tables, unaries=None) -> PairwiseMRF:
    """A model from valid, canonical, read-only parts, not validated again."""
    mrf = object.__new__(PairwiseMRF)
    mrf.__dict__.update(cardinalities=cardinalities, edges=edges, tables=tables, unaries=unaries)
    return mrf


def prepare_model(mrf: PairwiseMRF) -> Tuple[PairwiseMRF, float]:
    """The solver-ready form: a unary-free model with nonnegative tables.

    Each unary u_i is split evenly over node i's incident tables (u_i/deg(i)
    added to the rows of each, u_j/deg(j) to the columns), then each table
    is shifted so its minimum entry is 0, one stack of (k_i, k_j) tables at
    a time; a table that needs neither step is reused.  Returns the prepared
    model and the total shift: for every assignment, the original objective
    equals the prepared one minus the shift.
    """
    if not mrf.num_nodes:
        raise UnsupportedModelError("model has no variables")
    src, tgt = np.asarray(mrf.edges, dtype=int).reshape(-1, 2).T
    deg = np.bincount(np.concatenate([src, tgt]), minlength=mrf.num_nodes)
    cards = np.asarray(mrf.cardinalities)
    has, share = np.zeros(mrf.num_nodes, dtype=bool), np.zeros((mrf.num_nodes, cards.max()))
    for i, u in (mrf.unaries or {}).items():
        if deg[i] == 0:
            raise UnsupportedModelError(f"unary on isolated node {i} cannot be absorbed")
        has[i], share[i, :len(u)] = True, u
    share[has] /= deg[has, None]  # row i: u_i / deg(i), zero-padded
    touched = has[src] | has[tgt]
    # each table's minimum once unaries are added; an untouched table is not copied to find it
    lo = np.array([0.0 if tch else t.min() for tch, t in zip(touched.tolist(), mrf.tables)])
    rewrite, shape = touched | (lo < 0.0), cards[src] * (cards.max() + 1) + cards[tgt]
    tables = list(mrf.tables)
    for code in np.unique(shape[rewrite]):
        idx = np.flatnonzero(rewrite & (shape == code))
        rows, cols = src[idx], tgt[idx]
        group = np.array([tables[e] for e in idx])
        np.add(group, share[rows, :group.shape[1], None], out=group, where=has[rows, None, None])
        np.add(group, share[cols, None, :group.shape[2]], out=group, where=has[cols, None, None])
        lo[idx] = low = group.min(axis=(1, 2))
        np.subtract(group, low[:, None, None], out=group, where=(low < 0.0)[:, None, None])
        group.flags.writeable = False
        for e, t in zip(idx, group):
            tables[e] = t
    shift_total = float(np.cumsum(np.append(0.0, -lo[lo < 0.0]))[-1])  # summed in edge order
    return _trusted(mrf.cardinalities, mrf.edges, tuple(tables)), shift_total
