"""Stacked-array form of a pairwise model for fast synchronous sweeps.

All node quantities live in (n, kmax) matrices (an (R, n, kmax) stack for
R restarts), zero-padded when label counts differ, with a boolean validity
mask.  Edge tables are one read-only (|E|, kmax, kmax) stack in canonical
orientation: a model's single unpadded group in edge order is adopted, not
copied; other models' groups are padded into a new stack one group at a time.
The reverse orientation is obtained by transposed einsums.  A binary graph
(kmax <= 2) makes one gather and one einsum over its 2|E| directed messages
in the scatter's slot order, from a directed copy of the tables built on first
use (a binary max-product sweep reads its log), and sums each slot as a slice.

Per-node reductions over a short label axis are whole-stack operations on
label slices, not numpy's row-at-a-time loop, and exact: `label_sum` adds
one slice per label (numpy sums a row shorter than PAIRWISE_BLOCK left to
right from 0.0; counts are exact in any order), and a binary `decode`
gives label 1 only where strictly higher (argmax's lowest-label tie rule).

A binary clamped update is the clamping loop's result, bit for bit, from one
pass, Diagnostics included: two labels end the loop in its second pass, and
that pass's result is known (`clamped_simplex_sweep`).

Tables of PARALLEL_MIN_ENTRIES entries (2 MiB) or more, on a process allowed
2 or more CPUs, sweep their two message directions at once: the caller takes
src->tgt, one worker thread tgt->src, in kmax >= 3 `delta_sums` and, from
`maxproduct.PARALLEL_MIN_MESSAGES` message entries on, kmax >= 3 max-product's
max-plus.  numpy releases the interpreter lock inside those loops, and each
direction makes its one-thread calls into its own half of the output, so the
results are bit-identical.  Nothing of this is configurable; a smaller model
starts no thread.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Dict, List, Optional

import numpy as np

from . import model
from .model import DegenerateNodeError, PairwiseMRF, UnsupportedModelError

log = logging.getLogger(__name__)

# numpy adds a row of fewer than this many entries one entry after another,
# starting from 0.0; from this length on its pairwise sum keeps 8 partial sums
PAIRWISE_BLOCK = 8
# from this many table entries on (2 MiB), a sweep hands one message direction
# to a worker thread; below it the hand-off costs more than the thread saves
PARALLEL_MIN_ENTRIES = 1 << 18
_STARTING = threading.Lock()  # so that racing first calls start one worker


@cache
def _worker(pid: int):  # one per process: a forked child starts its own
    from queue import SimpleQueue  # imported once a model needs it
    calls = SimpleQueue()
    threading.Thread(target=_serve, args=(calls,), daemon=True).start()
    return calls


def _serve(calls) -> None:
    # a plain thread: a ThreadPoolExecutor's per-call objects left dense peak RSS up to 3 MB higher
    while True:
        fn, args, out, done = calls.get()
        try:
            out += fn(*args), None
        except BaseException as exc:  # raised on the caller's thread
            out += None, exc
        del fn, args, out  # before the caller wakes, which then frees every array it passed
        done.release()


def both_directions(parallel: bool, fn, forward: tuple, backward: tuple) -> tuple:
    """(fn(*forward), fn(*backward)), two calls that write disjoint outputs, the
    backward one on the worker thread if `parallel`; both end before this returns or raises."""
    if not parallel:
        return fn(*forward), fn(*backward)
    out, done = [], threading.Lock()
    done.acquire()
    with _STARTING:
        _worker(os.getpid()).put((fn, backward, out, done))
    try:
        ahead = fn(*forward)
    finally:
        done.acquire()  # waits for the worker; an error on this thread is the one raised
    if out[1] is not None:
        raise out[1]
    return ahead, out[0]


@dataclass
class Diagnostics:
    """Aggregated per-solve inner-loop and optimality-certificate telemetry."""

    inner_pass_hist: Dict[int, int] = field(default_factory=dict)
    max_inner_passes: int = 0
    multiplier_violations: int = 0
    max_stationarity_residual: float = 0.0
    min_clamped_multiplier: float = math.inf

    def check_multipliers(self, changed: np.ndarray, lam: np.ndarray, lam_prev: np.ndarray) -> None:
        """Count, and log, the `changed` nodes whose multiplier fell from lam_prev to lam."""
        viol = changed & (lam < lam_prev - 1e-12)
        if viol.any():
            self.multiplier_violations += int(viol.sum())
            log.warning("normalization multiplier decreased across inner passes on %d node(s); "
                        "worst drop %.3e", int(viol.sum()), float((lam_prev - lam)[viol].max()))

    def certify(self, P, grad, denom, valid, lam, passes) -> None:
        """Record a clamped update's passes, KKT stationarity residual and least clamped multiplier."""
        self.max_inner_passes = max(self.max_inner_passes, int(passes.max(initial=0)))
        counts = np.bincount(passes.ravel())
        for v in np.flatnonzero(counts).tolist():
            self.inner_pass_hist[v] = self.inner_pass_hist.get(v, 0) + int(counts[v])
        on = P > 0.0  # padded beliefs are exactly 0, so `on` holds only valid labels
        resid = np.abs(denom * P - grad + lam[..., None])[on]
        self.max_stationarity_residual = max(self.max_stationarity_residual, float(resid.max(initial=0.0)))
        mu = (lam[..., None] - grad)[valid & ~on]
        self.min_clamped_multiplier = min(self.min_clamped_multiplier, float(mu.min(initial=math.inf)))


class SlotScatter:
    """`np.add.at(zeros, targets, X)` along one axis, as a few slice adds.

    Each node adds its entries in ascending `order`, bit for bit as np.add.at
    over them in that order.  Node positions are sorted by descending degree, so
    slot j (every node's j-th entry) fills a prefix of them and takes one slice
    add; `order_cols` lists the entries slot after slot, so after one gather by
    it each slot is a slice too.  A slot whose entries times `width` are fewer
    than MIN_SLOT_ENTRIES is left to one np.add.at, slot after slot: its
    per-entry cost is lower.
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
        self.order_cols = by_pos[np.lexsort((pos[by_pos], rank))]  # slot after slot, each in position order
        counts = np.bincount(rank, minlength=deg.max(initial=0))
        lengths = counts[counts * width >= self.MIN_SLOT_ENTRIES]  # a prefix: counts never rise
        self.slots = list(zip(lengths.tolist(), (np.cumsum(lengths) - lengths).tolist()))
        self.tail_pos = pos[self.order_cols[lengths.sum():]]

    def sum(self, X: np.ndarray, axis: int) -> np.ndarray:
        """Per-node sums of X's entries along `axis`, which becomes the node axis."""
        return np.take(self.slot_sums(np.take(X, self.order_cols, axis=axis), axis), self.pos_of_node, axis=axis)

    def slot_sums(self, Y: np.ndarray, axis: int) -> np.ndarray:
        """Per-position sums of Y's entries along `axis`, which are in `order_cols` order:
        one slice add per slot, then the tail's np.add.at."""
        axis %= Y.ndim
        lead = (slice(None),) * axis
        B = np.zeros(Y.shape[:axis] + self.pos_of_node.shape + Y.shape[axis + 1 :])
        for length, start in self.slots:
            B[lead + (slice(length),)] += Y[lead + (slice(start, start + length),)]
        if len(self.tail_pos):
            np.add.at(B, lead + (self.tail_pos,), Y[lead + (slice(-len(self.tail_pos), None),)])
        return B


class PackedGraph:
    """Padded matrix view of a model plus the sweep primitives on it."""

    def __init__(self, mrf: PairwiseMRF):
        self.mrf = mrf
        n = mrf.num_nodes
        kmax = max(mrf.cardinalities) if n else 0
        self.n = n
        self.kmax = kmax
        self.card = np.asarray(mrf.cardinalities, dtype=int)
        self.valid = np.arange(kmax) < self.card[:, None]
        self.padded = not self.valid.all()

        m = len(mrf.edges)
        self.ends = model.edge_ends(mrf)
        self.src, self.tgt = self.ends.reshape(2, m)
        self.edge_offsets = np.arange(m) * kmax**2  # where each edge's table starts in the flat stack
        # read-only either way: no sweep writes into the tables, so a model's own stack can serve
        groups = mrf.groups
        if len(groups) == 1 and groups[0][:2] == (kmax, kmax) and np.array_equal(groups[0][2], np.arange(m)):
            self.tables = groups[0][3]
        else:
            self.tables = np.zeros((m, kmax, kmax))
            for ki, kj, idx, stack in groups:
                self.tables[idx, :ki, :kj] = stack
            self.tables.flags.writeable = False

        # theta_hat(x_i) = sum over neighbors j, labels x_j of theta_ij(x_i, x_j)
        self.theta_hat = np.zeros((n, kmax))
        with np.errstate(over="ignore"):
            np.add.at(self.theta_hat, self.src, self.tables.sum(axis=2))
            np.add.at(self.theta_hat, self.tgt, self.tables.sum(axis=1))
            # finite tables can still sum past the largest float, and so can the solvers' sums:
            # 2.5*theta_hat bounds every gradient, the sum of all theta_hat every objective
            high, running = 2.5 * self.theta_hat, np.cumsum(self.theta_hat)
        # high is finite only where theta_hat is, and a running sum never returns to finite
        if not (np.isfinite(high).all() and np.isfinite(running[-1:]).all()):
            sums = np.stack((self.theta_hat, high, running.reshape(n, kmax)))
            check, node, _ = np.nonzero(~np.isfinite(sums))  # by check, then node
            what = ("the sum of its tables", "2.5 times the sum of its tables",
                    "the sum of its and all earlier nodes' tables")
            raise UnsupportedModelError(f"node {node[0]}: {what[check[0]]} is not finite")
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        self.parallel = self.tables.size >= PARALLEL_MIN_ENTRIES and len(cpus) >= 2

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
        """Per-node argmax of an (n, kmax) matrix or (R, n, kmax) stack."""
        # argmax takes the lowest tied label; padded slots, if any, are masked
        # below every value, as max-product's log beliefs can all be below -1
        if self.padded:
            P = np.where(self.valid, P, -np.inf)
        if self.kmax == 2:
            # label 1 only where strictly higher: argmax's tie rule, for the
            # NaN-free values every solver decodes
            return (P[..., 1] > P[..., 0]).astype(np.intp)
        return np.argmax(P, axis=-1)

    # -- sweeps and objectives ------------------------------------------

    @cached_property
    def scatter(self) -> SlotScatter:
        """Every solver's message scatter over columns e: src->tgt, |E| + e: tgt->src;
        each node adds its incoming messages in edge order."""
        order = np.tile(np.arange(len(self.src)), 2)
        return SlotScatter(np.concatenate([self.tgt, self.src]), order, self.n, self.kmax)

    @cached_property
    def directed(self) -> tuple:
        """The directed messages in the scatter's column order: their sources, and their
        read-only (kmax, kmax, 2|E|) tables, src->tgt along edge e tables[e], tgt->src its
        transpose.  Binary `delta_sums` reads them, and binary max-product takes their log."""
        both = np.concatenate([self.tables.transpose(1, 2, 0), self.tables.transpose(2, 1, 0)], axis=-1)
        T = np.take(both, self.scatter.order_cols, axis=-1)
        T.flags.writeable = False
        return self.ends[self.scatter.order_cols], T

    def delta_sums(self, P: np.ndarray) -> np.ndarray:
        """Per-node sum of incoming messages sum_{x_j} theta_ij(x_i,x_j) p_j(x_j),
        of an (n, kmax) matrix or of each in an (R, n, kmax) stack."""
        m = len(self.src)
        stack = P.reshape((-1,) + P.shape[-2:])
        if self.kmax <= 2:
            # all restarts and both directions at once, in the scatter's slot order: two-term
            # sums round the same in any order, so this is bit-identical; for k >= 3 the
            # edge-last tgt->src sum is neither bit-identical nor faster (k = 64)
            sources, T = self.directed
            msgs = np.einsum("rke,kle->rle", np.take(stack.transpose(0, 2, 1), sources, axis=-1), T)
            S = np.take(self.scatter.slot_sums(msgs, axis=-1).transpose(0, 2, 1), self.scatter.pos_of_node, axis=1)
        else:
            # one 2-D einsum per restart and direction, one node-major scatter
            msgs = np.empty((2 * m, len(stack), self.kmax))
            def contract(half, at, spec):
                for r in range(len(stack)):
                    msgs[half, r] = np.einsum(spec, at[r], self.tables)
            both_directions(self.parallel, contract, (slice(m), np.take(stack, self.src, axis=1), "ek,ekl->el"),
                            (slice(m, None), np.take(stack, self.tgt, axis=1), "el,ekl->ek"))
            S = self.scatter.sum(msgs, axis=0).transpose(1, 0, 2)
        return np.ascontiguousarray(S).reshape(P.shape)

    def qp_objective(self, P: np.ndarray, S: Optional[np.ndarray] = None) -> float | np.ndarray:
        """Bilinear objective, half of sum(P * S) with S = `delta_sums(P)`
        (each edge appears in both endpoints' rows); S is computed if not given.
        The (R,) values of an (R, n, kmax) stack, each restart summed on its own.
        """
        return 0.5 * row_sums(P * (self.delta_sums(P) if S is None else S))

    def assignment_value(self, a: np.ndarray) -> float | np.ndarray:
        """Edge-sum objective at an integral assignment, on this model's scale;
        the (R,) values of an (R, n) stack of assignments."""
        # one flat gather through a C-ordered index (np.take, not a[..., src],
        # which is F-ordered): C-ordered rows sum as the 1-D sum of each row
        flat = np.take(a, self.src, axis=-1) * self.kmax
        flat += np.take(a, self.tgt, axis=-1)
        flat += self.edge_offsets
        return np.take(self.tables.reshape(-1), flat).sum(axis=-1)

    def diagonal_terms(self) -> np.ndarray:
        """Per-node d_i(x_i) = sum over neighbors, labels of |theta|/2 on `prepare_model`'s
        tables, the only ones a solver packs.  They are nonnegative, and every sum starts
        from +0.0, which drops a -0.0 entry's sign: d is theta_hat/2 bit for bit (halving is exact)."""
        return self.theta_hat / 2.0


def label_sum(X: np.ndarray) -> np.ndarray:
    """`X.sum(axis=-1)` of a float or bool stack, bit for bit: below PAIRWISE_BLOCK
    labels, one whole-stack add per label slice, in numpy's left-to-right order."""
    k = X.shape[-1]
    if not 2 <= k < PAIRWISE_BLOCK:
        return X.sum(axis=-1)
    total = np.add(X[..., 0], X[..., 1], dtype=np.intp if X.dtype == bool else None)
    for j in range(2, k):
        total += X[..., j]
    if total.dtype.kind == "f":
        total += 0.0  # numpy starts from +0.0, so an all -0.0 row sums to +0.0
    return total


def label_divide(X: np.ndarray, d: np.ndarray) -> np.ndarray:
    """`X / d[..., None]`, bit for bit: below PAIRWISE_BLOCK labels, one division
    per label slice (a broadcast along a short label axis is slower)."""
    if X.shape[-1] >= PAIRWISE_BLOCK:
        return X / d[..., None]
    out = np.empty_like(X)
    for j in range(X.shape[-1]):
        np.divide(X[..., j], d, out=out[..., j])
    return out


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

    A binary stack (kmax = 2) gets the loop's result, bit for bit, from its
    first pass alone (`_binary_sweep`): with two labels a second pass only
    sets the one label a clamp leaves active to exactly 1.0, so its result
    and its certificate are written down, not computed.  kmax >= 3 runs the
    loop; collecting Diagnostics never changes which update runs.
    """
    if grad.shape[-1] == 2:
        return _binary_sweep(grad, denom, valid, diag)
    rows = grad.shape[:-1]
    active = np.broadcast_to(valid, grad.shape).copy()
    safe_denom = np.where(valid, denom, 1.0)
    inv = np.where(active, 1.0 / safe_denom, 0.0)
    passes = np.ones(rows, dtype=int)
    lam_prev = np.full(rows, -np.inf)
    for _ in range(max(grad.shape[-1], 1)):
        den = label_sum(inv)
        num = label_sum(grad * inv) - 1.0
        lam = num / den
        P = np.where(active, (grad - lam[..., None]) / safe_denom, 0.0)
        single = label_sum(active) == 1
        if single.any():
            P[single] = np.where(active[single], 1.0, 0.0)
        if diag is not None:
            diag.check_multipliers(passes > 1, lam, lam_prev)
            lam_prev = lam
        neg = active & (P < 0.0)
        if not neg.any():
            break
        passes += label_sum(neg) > 0
        active &= ~neg
        inv[neg] = 0.0
    if diag is not None:
        diag.certify(P, grad, denom, valid, lam, passes)
    return P


def _binary_sweep(grad: np.ndarray, denom: np.ndarray, valid: np.ndarray, diag: Optional[Diagnostics]) -> np.ndarray:
    """`clamped_simplex_sweep` of a binary stack: the loop's first pass, its operations
    in its order but a label slice at a time (whole-stack calls that broadcast along
    the label axis are slower), then its end.  A one-label node reads (1, 0); a
    two-label node that clamps keeps 1.0 on its other label, or (0, 0) where both
    went negative (grad/denom past about 2^53, which no solver forms).  `diag` records
    the loop's certificate: a node that clamps takes a second pass, whose multiplier
    is its one label left's, -inf with none left (the loop's division by zero)."""
    padded = not valid.all()
    safe_denom = np.where(valid, denom, 1.0) if padded else denom
    inv = np.where(valid, 1.0 / safe_denom, 0.0) if padded else 1.0 / denom
    gi = grad * inv  # label_sum's final + 0.0 only counts in the denominator: -0.0 - 1.0 == -1.0
    lam = (gi[..., 0] + gi[..., 1] - 1.0) / (inv[..., 0] + inv[..., 1] + 0.0)
    P = np.empty_like(grad)
    np.subtract(grad[..., 0], lam, out=P[..., 0])
    np.subtract(grad[..., 1], lam, out=P[..., 1])
    P /= safe_denom
    if padded:  # the loop's zeros at padded labels, and (1, 0) on one-label nodes
        np.copyto(P, valid, where=~(valid[..., :1] & valid[..., 1:]))
    neg0, neg1 = P[..., 0] < 0.0, P[..., 1] < 0.0
    clamped = neg0 | neg1
    np.copyto(P[..., 0], ~neg0, where=clamped)
    np.copyto(P[..., 1], ~neg1, where=clamped)
    if diag is not None:
        if clamped.any():
            with np.errstate(divide="ignore"):
                inv = np.where(np.stack((neg0, neg1), axis=-1), 0.0, inv)
                lam2 = (label_sum(grad * inv) - 1.0) / label_sum(inv)
            diag.check_multipliers(clamped, lam2, lam)
            lam = lam2
        diag.certify(P, grad, denom, valid, lam, clamped + 1)
    return P
