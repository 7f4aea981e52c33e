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
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

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


def _as_table(t) -> np.ndarray:
    a = np.asarray(t, dtype=float)
    if a.ndim != 2:
        raise ModelError(f"edge table must be 2-D, got shape {a.shape}")
    return a


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
            t = _as_table(t)
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
            if not np.all(np.isfinite(t)):
                raise ModelError(f"edge ({i},{j}) table has non-finite entries")
            t = np.ascontiguousarray(t)
            t.flags.writeable = False
            canon_edges.append((i, j))
            canon_tables.append(t)
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
                if not np.all(np.isfinite(u)):
                    raise ModelError(f"unary on node {i} has non-finite entries")
                u = u.copy()
                u.flags.writeable = False
                clean[i] = u
            object.__setattr__(self, "unaries", clean)

    @property
    def num_nodes(self) -> int:
        return len(self.cardinalities)

    @cached_property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        nbrs: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(x)) for x in nbrs)


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


def prepare_model(mrf: PairwiseMRF) -> Tuple[PairwiseMRF, float]:
    """The solver-ready form: a unary-free model with nonnegative tables.

    One pass over the edges: each unary u_i is split evenly over node i's
    incident tables (u_i/deg(i) added to the rows of each, u_j/deg(j) to the
    columns), then each table is shifted so its minimum entry is 0.  A table
    that needs neither step is reused, not copied.  Returns the prepared
    model and the total shift: for every assignment, the original objective
    equals the prepared one minus the shift.
    """
    if not mrf.num_nodes:
        raise UnsupportedModelError("model has no variables")
    unaries = mrf.unaries or {}
    deg = np.bincount(np.asarray(mrf.edges, dtype=int).ravel(), minlength=mrf.num_nodes)
    for i in unaries:
        if deg[i] == 0:
            raise UnsupportedModelError(f"unary on isolated node {i} cannot be absorbed")
    share = {i: u / deg[i] for i, u in unaries.items()}
    shift_total = 0.0
    tables = []
    for (i, j), t in zip(mrf.edges, mrf.tables):
        if i in share:
            t = t + share[i][:, None]
        if j in share:
            t = t + share[j][None, :]
        lo = float(t.min())
        if lo < 0.0:
            t = t - lo
            shift_total += -lo
        tables.append(t)
    return PairwiseMRF(mrf.cardinalities, mrf.edges, tuple(tables)), shift_total
