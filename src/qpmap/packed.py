"""Stacked-array form of a pairwise model for fast synchronous sweeps.

All node quantities live in (n, kmax) matrices, zero-padded when label
counts differ across nodes, with a boolean validity mask.  Edge tables are
stacked once in canonical orientation; the reverse orientation is obtained
by transposed einsums, so no table is ever duplicated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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

    def pack_beliefs(self, beliefs: Sequence[np.ndarray]) -> np.ndarray:
        P = np.zeros((self.n, self.kmax))
        for i, p in enumerate(beliefs):
            P[i, : len(p)] = p
        return P

    def unpack_beliefs(self, P: np.ndarray) -> List[np.ndarray]:
        return [P[i, : self.card[i]].copy() for i in range(self.n)]

    def decode(self, P: np.ndarray) -> np.ndarray:
        """Per-node argmax of an (n, kmax) matrix, or of each in an (R, n, kmax) stack."""
        # invalid slots masked below any value, including max-product's log
        # beliefs, which can all be below -1; argmax takes lowest tied index
        return np.argmax(np.where(self.valid, P, -np.inf), axis=-1)

    # -- sweeps and objectives ------------------------------------------

    def delta_sums(self, P: np.ndarray) -> np.ndarray:
        """Per-node sum of incoming messages sum_{x_j} theta_ij(x_i,x_j) p_j(x_j)."""
        S = np.zeros_like(P)
        if len(self.src):
            to_tgt = np.einsum("ek,ekl->el", P[self.src], self.tables)
            to_src = np.einsum("el,ekl->ek", P[self.tgt], self.tables)
            np.add.at(S, self.tgt, to_tgt)
            np.add.at(S, self.src, to_src)
        return S

    def qp_objective(self, P: np.ndarray, S: Optional[np.ndarray] = None) -> float:
        """Bilinear objective, half of sum(P * S) with S = `delta_sums(P)`
        (each edge appears in both endpoints' rows); S is computed if not given."""
        if S is None:
            S = self.delta_sums(P)
        return 0.5 * float((P * S).sum())

    def assignment_value(self, a: np.ndarray) -> float | np.ndarray:
        """Edge-sum objective at an integral assignment, on this model's scale.

        Given an (R, n) stack of assignments, returns the (R,) values.
        """
        if not len(self.src):
            return 0.0 if a.ndim == 1 else np.zeros(len(a))
        e = np.arange(len(self.src))
        if a.ndim == 1:
            return float(self.tables[e, a[self.src], a[self.tgt]].sum())
        vals = self.tables[e, a[:, self.src], a[:, self.tgt]]
        # each row summed on its own, as a 1-D sum: a 2-D sum can round differently
        return np.array([row.sum() for row in vals])

    def diagonal_terms(self) -> np.ndarray:
        """Per-node d_i(x_i) = sum over neighbors, labels of |theta|/2."""
        d = np.zeros((self.n, self.kmax))
        if len(self.src):
            at = np.abs(self.tables)
            np.add.at(d, self.src, at.sum(axis=2) / 2.0)
            np.add.at(d, self.tgt, at.sum(axis=1) / 2.0)
        return d


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
    nonnegative.  Terminates within kmax passes.
    """
    n, kmax = grad.shape
    active = valid.copy()
    safe_denom = np.where(valid, denom, 1.0)
    inv = np.where(active, 1.0 / safe_denom, 0.0)
    passes = np.ones(n, dtype=int)
    lam_prev = np.full(n, -np.inf)
    P = np.zeros_like(grad)
    for _ in range(max(kmax, 1)):
        den = inv.sum(axis=1)
        num = (grad * inv).sum(axis=1) - 1.0
        lam = num / den
        P = np.where(active, (grad - lam[:, None]) / safe_denom, 0.0)
        single = active.sum(axis=1) == 1
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
        hit = neg.any(axis=1)
        passes += hit
        active &= ~neg
        inv[neg] = 0.0
    if diag is not None:
        diag.record_passes(passes)
        on = valid & (P > 0.0)
        resid = np.abs(denom * P - grad + lam[:, None])
        if on.any():
            diag.max_stationarity_residual = max(
                diag.max_stationarity_residual, float(resid[on].max())
            )
        off = valid & ~on
        if off.any():
            mu = (lam[:, None] - grad)[off]
            diag.min_clamped_multiplier = min(diag.min_clamped_multiplier, float(mu.min()))
    return P
