"""Stacked-array form of a pairwise model for fast synchronous sweeps.

All node quantities live in (n, kmax) matrices (an (R, n, kmax) stack for
R restarts), zero-padded when label counts differ, with a boolean validity
mask.  Edge tables are stacked once in canonical orientation; the reverse
orientation is obtained by transposed einsums, so no table is duplicated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from .model import DegenerateNodeError, PairwiseMRF

log = logging.getLogger(__name__)


@dataclass
class Diagnostics:
    """Aggregated per-solve inner-loop and optimality-certificate telemetry."""

    inner_pass_hist: Dict[int, int] = field(default_factory=dict)
    max_inner_passes: int = 0
    multiplier_violations: int = 0
    max_stationarity_residual: float = 0.0
    min_clamped_multiplier: float = math.inf

    def record_passes(self, passes: np.ndarray) -> None:
        self.max_inner_passes = max(self.max_inner_passes, int(passes.max(initial=0)))
        vals, counts = np.unique(passes, return_counts=True)
        for v, c in zip(vals, counts):
            self.inner_pass_hist[int(v)] = self.inner_pass_hist.get(int(v), 0) + int(c)


class SlotScatter:
    """`np.add.at(zeros, targets, X)` along one axis, as a few slice adds.

    Each node adds its entries in ascending `order`, as np.add.at does when
    `order` is their position in its index array, so the sums are
    bit-identical.  Node positions are sorted by descending degree, so slot
    j (every node's j-th entry) fills a prefix of them and takes one slice
    add.  A slot whose entries times `width` are fewer than MIN_SLOT_ENTRIES
    is left to one np.add.at, slot after slot: its per-entry cost is lower.
    """

    MIN_SLOT_ENTRIES = 32

    def __init__(self, targets: np.ndarray, order: np.ndarray, n: int, width: int):
        deg = np.bincount(targets, minlength=n)
        node_of_pos = np.argsort(-deg, kind="stable")
        self.pos_of_node = np.argsort(node_of_pos)
        pos = self.pos_of_node[targets]
        by_pos = np.lexsort((order, pos))
        sorted_deg = deg[node_of_pos]
        rank = np.arange(len(targets)) - (np.cumsum(sorted_deg) - sorted_deg)[pos[by_pos]]
        by_slot = by_pos[np.lexsort((pos[by_pos], rank))]
        counts = np.bincount(rank, minlength=deg.max(initial=0))
        slots = np.split(by_slot, np.cumsum(counts)[:-1])
        n_loop = int(np.sum(counts * width >= self.MIN_SLOT_ENTRIES))
        self.slots = slots[:n_loop]
        self.tail_cols = np.concatenate([np.empty(0, dtype=int)] + slots[n_loop:])
        self.tail_pos = pos[self.tail_cols]

    def sum(self, X: np.ndarray, axis: int) -> np.ndarray:
        """Per-node sums of X's entries along `axis`, which becomes the node axis."""
        axis %= X.ndim
        lead = (slice(None),) * axis
        B = np.zeros(X.shape[:axis] + self.pos_of_node.shape + X.shape[axis + 1 :])
        for cols in self.slots:
            B[lead + (slice(len(cols)),)] += np.take(X, cols, axis=axis)
        if len(self.tail_cols):
            np.add.at(B, lead + (self.tail_pos,), np.take(X, self.tail_cols, axis=axis))
        return np.take(B, self.pos_of_node, axis=axis)


class PackedGraph:
    """Padded matrix view of a model plus the sweep primitives on it."""

    def __init__(self, mrf: PairwiseMRF):
        self.mrf = mrf
        n = mrf.num_nodes
        kmax = max(mrf.cardinalities) if n else 0
        self.n = n
        self.kmax = kmax
        self.valid = np.zeros((n, kmax), dtype=bool)
        for i, k in enumerate(mrf.cardinalities):
            self.valid[i, :k] = True
        self.card = np.asarray(mrf.cardinalities, dtype=int)

        m = len(mrf.edges)
        self.src = np.fromiter((i for i, _ in mrf.edges), dtype=int, count=m)
        self.tgt = np.fromiter((j for _, j in mrf.edges), dtype=int, count=m)
        self.tables = np.zeros((m, kmax, kmax))
        for e, t in enumerate(mrf.tables):
            self.tables[e, : t.shape[0], : t.shape[1]] = t

        # theta_hat(x_i) = sum over neighbors j, labels x_j of theta_ij(x_i, x_j)
        th = np.zeros((n, kmax))
        np.add.at(th, self.src, self.tables.sum(axis=2))
        np.add.at(th, self.tgt, self.tables.sum(axis=1))
        self.theta_hat = th

    # -- model views ----------------------------------------------------

    def require_positive(self, denom: np.ndarray, what: str) -> None:
        bad = self.valid & (denom <= 0.0)
        if bad.any():
            node = int(np.nonzero(bad.any(axis=1))[0][0])
            label = int(np.nonzero(bad[node])[0][0])
            raise DegenerateNodeError(node, f"{what} is zero for label {label}")

    # -- belief packing -------------------------------------------------

    def unpack_beliefs(self, P: np.ndarray) -> List[np.ndarray]:
        return [P[i, : self.card[i]].copy() for i in range(self.n)]

    def decode(self, P: np.ndarray) -> np.ndarray:
        """Per-node argmax of an (n, kmax) matrix, or of each in an (R, n, kmax) stack."""
        # invalid slots masked below any value, including max-product's log
        # beliefs, which can all be below -1; argmax takes lowest tied index
        return np.argmax(np.where(self.valid, P, -np.inf), axis=-1)

    # -- sweeps and objectives ------------------------------------------

    @cached_property
    def scatter(self) -> SlotScatter:
        """Message scatter in np.add.at's order: all src->tgt, then all tgt->src."""
        order = np.arange(2 * len(self.src))
        return SlotScatter(np.concatenate([self.tgt, self.src]), order, self.n, self.kmax)

    def delta_sums(self, P: np.ndarray) -> np.ndarray:
        """Per-node sum of incoming messages sum_{x_j} theta_ij(x_i,x_j) p_j(x_j),
        of an (n, kmax) matrix or of each in an (R, n, kmax) stack."""
        m = len(self.src)
        stack = P.reshape((-1,) + P.shape[-2:])
        # one 2-D einsum per restart (a batched one is slow), one node-major scatter
        msgs = np.empty((2 * m, len(stack), self.kmax))
        at_src, at_tgt = np.take(stack, self.src, axis=1), np.take(stack, self.tgt, axis=1)
        for r in range(len(stack)):
            msgs[:m, r] = np.einsum("ek,ekl->el", at_src[r], self.tables)
            msgs[m:, r] = np.einsum("el,ekl->ek", at_tgt[r], self.tables)
        S = self.scatter.sum(msgs, axis=0)
        return np.ascontiguousarray(S.transpose(1, 0, 2)).reshape(P.shape)

    def qp_objective(self, P: np.ndarray, S: Optional[np.ndarray] = None) -> float | np.ndarray:
        """Bilinear objective, half of sum(P * S) with S = `delta_sums(P)`
        (each edge appears in both endpoints' rows); S is computed if not given.
        The (R,) values of an (R, n, kmax) stack, each restart summed on its own.
        """
        return 0.5 * row_sums(P * (self.delta_sums(P) if S is None else S))

    def assignment_value(self, a: np.ndarray) -> float | np.ndarray:
        """Edge-sum objective at an integral assignment, on this model's scale;
        the (R,) values of an (R, n) stack of assignments."""
        e = np.arange(len(self.src))
        # fancy indexing gives F-ordered rows, whose sums round differently
        # from the 1-D sum of each row; C-ordered rows sum as 1-D sums do
        return np.ascontiguousarray(self.tables[e, a[..., self.src], a[..., self.tgt]]).sum(axis=-1)

    def diagonal_terms(self) -> np.ndarray:
        """Per-node d_i(x_i) = sum over neighbors, labels of |theta|/2."""
        d = np.zeros((self.n, self.kmax))
        if len(self.src):
            at = np.abs(self.tables)
            np.add.at(d, self.src, at.sum(axis=2) / 2.0)
            np.add.at(d, self.tgt, at.sum(axis=1) / 2.0)
        return d


def row_sums(X: np.ndarray) -> float | np.ndarray:
    """Sum of each (n, kmax) matrix of a stack, as the 1-D sum of its C-ordered entries."""
    return X.reshape(X.shape[:-2] + (X.shape[-2] * X.shape[-1],)).sum(axis=-1)


def clamped_simplex_sweep(
    grad: np.ndarray,
    denom: np.ndarray,
    valid: np.ndarray,
    diag: Optional[Diagnostics] = None,
) -> np.ndarray:
    """Solve every node's normalized subproblem with nonnegativity clamping.

    Per node the candidate beliefs are (grad - lam)/denom with lam chosen so
    active entries sum to one; any negative entries are clamped to zero and
    excluded before recomputing lam, repeating until all entries are
    nonnegative.  Terminates within kmax passes.  A stack of (n, kmax)
    gradients shares one (n, kmax) denom and valid mask.
    """
    rows = grad.shape[:-1]
    active = np.broadcast_to(valid, grad.shape).copy()
    safe_denom = np.where(valid, denom, 1.0)
    inv = np.where(active, 1.0 / safe_denom, 0.0)
    passes = np.ones(rows, dtype=int)
    lam_prev = np.full(rows, -np.inf)
    P = np.zeros_like(grad)
    for _ in range(max(grad.shape[-1], 1)):
        den = inv.sum(axis=-1)
        num = (grad * inv).sum(axis=-1) - 1.0
        lam = num / den
        P = np.where(active, (grad - lam[..., None]) / safe_denom, 0.0)
        single = active.sum(axis=-1) == 1
        if single.any():
            P[single] = np.where(active[single], 1.0, 0.0)
        if diag is not None:
            changed = passes > 1
            if changed.any():
                viol = changed & (lam < lam_prev - 1e-12)
                if viol.any():
                    diag.multiplier_violations += int(viol.sum())
                    log.warning(
                        "normalization multiplier decreased across inner passes "
                        "on %d node(s); worst drop %.3e",
                        int(viol.sum()),
                        float((lam_prev - lam)[viol].max()),
                    )
            lam_prev = lam
        neg = active & (P < 0.0)
        if not neg.any():
            break
        hit = neg.any(axis=-1)
        passes += hit
        active &= ~neg
        inv[neg] = 0.0
    if diag is not None:
        diag.record_passes(passes)
        on = valid & (P > 0.0)
        resid = np.abs(denom * P - grad + lam[..., None])
        if on.any():
            diag.max_stationarity_residual = max(
                diag.max_stationarity_residual, float(resid[on].max())
            )
        off = valid & ~on
        if off.any():
            mu = (lam[..., None] - grad)[off]
            diag.min_clamped_multiplier = min(diag.min_clamped_multiplier, float(mu.min()))
    return P
