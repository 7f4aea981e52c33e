"""Pairwise MRF data model: potentials, assignments, and the solver-ready form.

A model is a collection of discrete nodes joined by undirected edges, each
edge carrying a dense potential table.  Edge tables are stored once in
canonical (i < j) orientation; access in the opposite orientation is a
transpose view, never a copy.  The tables live in per-shape groups, each a
read-only (edges, k_i, k_j) stack, and `tables` is their rows in edge order.
Per-edge arrays passed by a caller are copied once, at construction, into
those stacks, so a model is immutable and shares no memory with a writeable
array; rows that already are one read-only stack, in order (a generator's,
another model's), are not copied: that stack becomes their group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


# a group: (k_i, k_j, the edge positions of its rows, their read-only C-contiguous stack)
Group = Tuple[int, int, np.ndarray, np.ndarray]


def _check_finite(groups: Iterable[Group], name: Callable[[int], str]) -> None:
    """Raise ModelError naming (`name(index)`) the least position in the groups whose
    array has a nan or inf entry: each row's min and max show one, with no mask made."""
    bad = [idx[~(np.isfinite(s.min(axis=1)) & np.isfinite(s.max(axis=1)))]
           for idx, s in ((idx, s.reshape(len(s), -1)) for *_, idx, s in groups)]
    if (bad := np.concatenate([np.zeros(0, int), *bad])).size:
        raise ModelError(f"{name(int(bad.min()))} has non-finite entries")


def _stack_of(rows: List[np.ndarray]) -> Optional[np.ndarray]:
    """The read-only float stack whose rows, in order, `rows` are, or None."""
    base, step = rows[0].base, rows[0].nbytes
    if not (isinstance(base, np.ndarray) and base.dtype == float and base.flags.owndata and base.flags.c_contiguous
            and not base.flags.writeable and base.nbytes == len(rows) * step
            and all(r.base is base and r.flags.c_contiguous for r in rows)):
        return None
    at = base.ctypes.data  # not __array_interface__, which numpy 2.4 leaks a few bytes a call in
    ordered = [r.ctypes.data for r in rows] == list(range(at, at + base.nbytes, step))
    return base.reshape((len(rows),) + rows[0].shape) if ordered else None


def _integers(xs: Sequence, name: Callable[[int], str]) -> Tuple[int, ...]:
    """`xs` as Python ints; ModelError naming (`name(position)`) the first bool or non-integer."""
    if bad := [p for p, x in enumerate(xs) if isinstance(x, bool) or not isinstance(x, (int, np.integer))]:
        raise ModelError(f"{name(bad[0])} is not an integer")
    return tuple(map(int, xs))


def _real(x, what: str) -> np.ndarray:
    """`x` as a float array; ModelError naming `what` if it is complex (never cut to
    its real part) or not an array of numbers."""
    try:
        if not np.iscomplexobj(x):
            return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ModelError(f"{what} is not an array of real numbers") from None
    raise ModelError(f"{what} is complex")


def rows_in_order(groups: Iterable[Group], count: int) -> tuple:
    """The rows of the groups' stacks, as the tuple of the `count` positions they fill."""
    pool, pick = [], np.empty(count, dtype=int)  # row t of the tuple is pool[pick[t]]
    for *_, idx, stack in groups:
        pick[idx] = len(pool) + np.arange(len(idx))
        pool.extend(stack)
    return tuple(map(pool.__getitem__, pick.tolist()))


@dataclass(frozen=True)
class PairwiseMRF:
    """Undirected pairwise model.

    cardinalities: per-node label count k_i, an integer (Python or numpy, not bool).
    edges: unordered pairs of integer nodes, stored canonically with i < j.
    tables: one dense real k_i x k_j array per edge, aligned with `edges`.
    unaries: optional real vectors keyed by integer node; `prepare_model` folds them into the tables.
    groups: the stacks `tables` are rows of, in ascending (k_i, k_j) order;
        every model holds one per table shape.
    Every node index and cardinality is stored as a Python int.
    """

    cardinalities: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    tables: Tuple[np.ndarray, ...]
    unaries: Optional[Dict[int, np.ndarray]] = None
    groups: Tuple[Group, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        cards = _integers(self.cardinalities, lambda i: f"node {i} cardinality {self.cardinalities[i]!r}")
        if any(k < 1 for k in cards):
            raise ModelError("cardinalities must be >= 1")
        n = len(cards)
        canon_edges: List[Tuple[int, int]] = []
        canon_tables: List[np.ndarray] = []
        seen = set()
        if len(self.edges) != len(self.tables):
            raise ModelError("edges and tables must align")
        for edge, t in zip(self.edges, self.tables):
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ModelError(f"edge {edge!r} is not a pair of nodes") from None
            i, j = _integers((i, j), lambda p: f"edge ({i},{j}) endpoint {(i, j)[p]!r}")
            t = _real(t, f"edge ({i},{j}) table")
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
            if t.shape != (cards[i], cards[j]):
                raise ModelError(f"edge ({i},{j}) table shape {t.shape} != ({cards[i]},{cards[j]})")
            canon_edges.append((i, j))
            canon_tables.append(t)
        shapes, groups = np.array([t.shape for t in canon_tables], dtype=int).reshape(-1, 2), []
        for ki, kj, idx in shape_groups(shapes[:, 0], shapes[:, 1]):
            stack = _stack_of(rows := [canon_tables[e] for e in idx.tolist()])
            if stack is None:  # the one copy: the caller's arrays stay theirs, and writeable
                stack = np.array(rows)
                stack.flags.writeable = False
            groups.append((ki, kj, idx, stack))
        _check_finite(groups, lambda e: "edge ({},{}) table".format(*canon_edges[e]))
        object.__setattr__(self, "edges", tuple(canon_edges))
        object.__setattr__(self, "tables", rows_in_order(groups, len(canon_edges)))
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "cardinalities", cards)
        if self.unaries is not None:
            clean: Dict[int, np.ndarray] = {}
            keys = tuple(self.unaries)
            for i, u in zip(_integers(keys, lambda p: f"unary key {keys[p]!r}"), self.unaries.values()):
                u = _real(u, f"unary on node {i}")
                if not (0 <= i < n):
                    raise ModelError(f"unary on node {i} out of range")
                if u.shape != (cards[i],):
                    raise ModelError(f"unary on node {i} has shape {u.shape}")
                u = u.copy()
                u.flags.writeable = False
                clean[i] = u
            if bad := [i for i, u in clean.items() if not np.isfinite(u).all()]:
                raise ModelError(f"unary on node {bad[0]} has non-finite entries")
            object.__setattr__(self, "unaries", clean)

    @property
    def num_nodes(self) -> int:
        return len(self.cardinalities)


def check_assignment(mrf: PairwiseMRF, a: Sequence[int]) -> np.ndarray:
    """`a` as an integer array: one in-range label per node, or an (R, n) stack of such rows."""
    a, cards = np.asarray(a), np.asarray(mrf.cardinalities, dtype=int)
    if a.ndim not in (1, 2) or a.shape[-1] != len(cards):
        raise InvalidAssignmentError(f"assignment length {a.shape} != ({len(cards)},)")
    if a.dtype.kind not in "iu" and a.size:  # floats, bools and strings are not labels
        raise InvalidAssignmentError(f"labels must be integers, got dtype {a.dtype}")
    if (bad := np.flatnonzero((a < 0) | (a >= cards))).size:
        i = bad[0] % len(cards)
        raise InvalidAssignmentError(f"node {i}: label {a.flat[bad[0]]} outside [0,{cards[i]})")
    return a.astype(int, copy=False)


def evaluate_assignment(mrf: PairwiseMRF, a: Sequence[int]) -> float | np.ndarray:
    """Sum of edge potentials (plus unaries, if still present) at assignment `a`,
    from 0.0 in edge order, then in unary order; the (R,) sums of an (R, n) stack."""
    a = check_assignment(mrf, a)
    x, unaries = a if a.ndim == 2 else a[None], mrf.unaries or {}
    src, tgt = edge_ends(mrf).reshape(2, -1)
    items = np.zeros((len(x), 1 + len(src) + len(unaries)))  # 0.0, each edge's item, each unary's
    for *_, idx, stack in mrf.groups:  # one gather per group
        items[:, 1 + idx] = stack[np.arange(len(idx)), x[:, src[idx]], x[:, tgt[idx]]]
    labels = x[:, np.fromiter(unaries, int, len(unaries))].ravel().tolist()  # one item of each unary per row
    items[:, 1 + len(src):] = np.fromiter(map(np.ndarray.item, tuple(unaries.values()) * len(x), labels),
                                          float, len(labels)).reshape(len(x), len(unaries))
    total = np.cumsum(items, axis=1)[:, -1]
    return float(total[0]) if a.ndim == 1 else total


def edge_ends(mrf: PairwiseMRF) -> np.ndarray:
    """The sources of the 2|E| directed edges: every edge's src, then every edge's tgt."""
    pairs = np.fromiter(chain.from_iterable(mrf.edges), dtype=int, count=2 * len(mrf.edges))
    return pairs.reshape(-1, 2).T.ravel()


def shape_groups(rows: np.ndarray, cols: np.ndarray) -> Iterator[Tuple[int, int, np.ndarray]]:
    """(r, c, the positions e where (rows[e], cols[e]) is (r, c)), one per
    table shape, in ascending (r, c) order."""
    base = int(cols.max(initial=0)) + 1
    shape = rows * base + cols
    for code in np.unique(shape).tolist():
        yield (*divmod(code, base), np.flatnonzero(shape == code))


def _trusted(cardinalities, edges, groups, unaries=None) -> PairwiseMRF:
    """A model from valid, canonical parts and read-only groups, one per shape, not validated again."""
    mrf = object.__new__(PairwiseMRF)
    tables = rows_in_order(groups, len(edges))
    mrf.__dict__.update(cardinalities=cardinalities, edges=edges, tables=tables, unaries=unaries, groups=tuple(groups))
    return mrf


def prepare_model(mrf: PairwiseMRF) -> Tuple[PairwiseMRF, float]:
    """The solver-ready form: a unary-free model with nonnegative tables.

    Each unary u_i is split evenly over node i's incident tables (u_i/deg(i)
    added to the rows of each, u_j/deg(j) to the columns), then each table
    is shifted so its minimum entry is 0.  One walk over the groups does both,
    a group at a time: a group no unary touches and with no negative entry is
    kept as it is, and any other is copied once, whole, then rewritten,
    shifted and checked, so the prepared model holds one group per table shape.
    Returns the prepared model and the total shift: for every assignment,
    the original objective equals the prepared one minus the shift.  A
    rewritten table or a total shift that overflows is UnsupportedModelError.
    """
    if not (n := mrf.num_nodes):
        raise UnsupportedModelError("model has no variables")
    cards, unaries = np.asarray(mrf.cardinalities, dtype=int), mrf.unaries or {}
    ends = edge_ends(mrf)
    src, tgt = ends.reshape(2, -1)
    deg, nodes = np.bincount(ends, minlength=n), np.fromiter(unaries, int)
    if (isolated := nodes[deg[nodes] == 0]).size:
        raise UnsupportedModelError(f"unary on isolated node {isolated[0]} cannot be absorbed")
    has, share = np.zeros(n, dtype=bool), np.zeros((n, cards.max()))
    has[nodes] = True  # row i of share: u_i / deg(i), zero-padded
    share[has[:, None] & (np.arange(cards.max()) < cards[:, None])] = np.concatenate(
        [np.zeros(0), *(unaries[i] for i in sorted(unaries))])
    share /= np.maximum(deg, 1)[:, None]
    touched, lo, groups = has[src] | has[tgt], np.zeros(len(src)), []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported, naming its edge
        for ki, kj, idx, stack in mrf.groups:
            if not touched[idx].any() and stack.min() >= 0.0:  # kept, its minimum read in place
                groups.append((ki, kj, idx, stack))
                continue
            group, rows, cols = stack.copy(), src[idx], tgt[idx]
            np.add(group, share[rows, :ki, None], out=group, where=has[rows, None, None])
            np.add(group, share[cols, None, :kj], out=group, where=has[cols, None, None])
            lo[idx] = low = group.min(axis=(1, 2))
            np.subtract(group, low[:, None, None], out=group, where=(low < 0.0)[:, None, None])
            if not np.isfinite(group).all():
                bad = idx[~np.isfinite(group).all(axis=(1, 2))].min()
                raise UnsupportedModelError("edge ({},{}): prepared table is not finite".format(*mrf.edges[bad]))
            group.flags.writeable = False
            groups.append((ki, kj, idx, group))
        running = np.cumsum(np.append(0.0, -lo[lo < 0.0]))  # summed in edge order
    if not np.isfinite(running[-1]):
        e = np.flatnonzero(lo < 0.0)[np.argmin(np.isfinite(running[1:]))]
        raise UnsupportedModelError("edge ({},{}): total shift is not finite".format(*mrf.edges[e]))
    return _trusted(mrf.cardinalities, mrf.edges, groups), float(running[-1])
